"""End-to-end exercises of the command-line front end.

Everything runs through cli.main(argv) in-process; files go to tmp_path and
stdout is read back through capsys.  Exit-code contract: 0 ok, 1 usage or
config, 2 infeasible physics, 3 non-convergence.
"""

import json
import math

import pytest

from hotgate import cli


def run(capsys, *argv):
    rc = cli.main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def kv_lines(text):
    out = {}
    for line in text.splitlines():
        if line.startswith("#") or "=" not in line:
            continue
        k, v = line.split("=", 1)
        out[k] = v
    return out


# --- modes ------------------------------------------------------------------


def test_modes_reports_commensurate_trap(capsys):
    rc, out, _ = run(capsys, "modes")
    assert rc == 0
    kv = kv_lines(out)
    assert abs(float(kv["ratio"]) - 2.0) < 1e-9
    assert kv["commensurate"] == "true"
    assert float(kv["eta"]) == 7.0  # default effective kick
    assert abs(float(kv["x_e_over_x0"]) - 820.0) < 1e-6
    assert abs(float(kv["eta_lower_bound_at_nbar"]) - 1.0 / 3.0) < 1e-9
    assert out.startswith("# hotgate modes\n# config-hash: sha256:")


def test_modes_solve_ratio_round_trip(capsys):
    rc, out, _ = run(capsys, "modes", "--solve-ratio", "2")
    assert rc == 0
    kv = kv_lines(out)
    assert abs(float(kv["exponent"]) - 5.0 / 3.0) < 1e-6
    assert float(kv["target_ratio"]) == 2.0


def test_modes_infeasible_ratio_exits_2(capsys):
    rc, _, err = run(capsys, "modes", "--solve-ratio", "1.0001")
    assert rc == 2
    assert "infeasible" in err


def test_modes_pulse_train_eta(capsys):
    rc, out, _ = run(capsys, "modes", "--eta-single", "0.45", "--n-pulses", "15")
    assert rc == 0
    assert float(kv_lines(out)["eta"]) == pytest.approx(6.75, abs=1e-12)


def test_conflicting_eta_flags_exit_1(capsys):
    rc, _, err = run(capsys, "gate", "--eta", "2", "--eta-single", "0.45")
    assert rc == 1
    assert "config error" in err
    rc, _, err = run(capsys, "gate", "--n-pulses", "3")
    assert rc == 1


# --- separation -------------------------------------------------------------


def test_separation_csv_to_env_dir(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("HOTGATE_OUTPUT_DIR", str(tmp_path))
    rc, out, _ = run(capsys, "separation", "--eta", "1", "--output", "sep.csv",
                     "--points", "16")
    assert rc == 0
    assert out == ""  # routed to the file
    text = (tmp_path / "sep.csv").read_text()
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    assert lines[0] == "t,d_analytic,d_numeric"
    assert len(lines) == 17
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert abs(float(first[1])) < 1e-15


def test_separation_absolute_path_ignores_env(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("HOTGATE_OUTPUT_DIR", str(tmp_path / "elsewhere"))
    target = tmp_path / "direct.csv"
    rc, _, _ = run(capsys, "separation", "--eta", "1", "--points", "8",
                   "--output", str(target))
    assert rc == 0
    assert target.exists()


def test_separation_tiny_truncation_exits_3(capsys):
    rc, out, err = run(capsys, "separation", "--dims", "3,3", "--points", "8")
    assert rc == 3
    assert "truncation" in err
    assert out.startswith("# hotgate separation\n")  # the partial result is still emitted


# --- conditions -------------------------------------------------------------


def test_conditions_json_payload(capsys):
    rc, out, _ = run(capsys, "conditions")
    assert rc == 0
    doc = json.loads(out)
    assert doc["command"] == "conditions"
    assert doc["config_hash"].startswith("sha256:")
    assert doc["well_conditioned"] is True
    assert doc["w_over_d"] == pytest.approx(12.5)
    assert doc["ok_eta_above_bound"] is True
    assert "generated" not in doc  # no stamp unless asked


def test_stamp_is_opt_in(capsys):
    rc, out, _ = run(capsys, "conditions", "--stamp")
    assert rc == 0
    assert "generated" in json.loads(out)


# --- gate -------------------------------------------------------------------


def test_gate_idealized_flip_is_perfect(capsys):
    rc, out, _ = run(capsys, "gate", "--eta", "1.5", "--dims", "14,10",
                     "--idealized-flip")
    assert rc == 0
    doc = json.loads(out)
    assert doc["fidelity"] == pytest.approx(1.0, abs=1e-9)
    assert doc["flip_mode"] == "idealized"
    assert doc["f_cor"] is None  # not requested
    assert doc["target"] == "gate"


def test_gate_output_is_deterministic(capsys):
    argv = ("gate", "--eta", "1.5", "--dims", "14,10", "--idealized-flip")
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second


def test_gate_disabled_pulse_against_identity(capsys):
    rc, out, _ = run(capsys, "gate", "--eta", "2", "--omega0-scale", "0",
                     "--frame-phase", "0", "--target", "identity")
    assert rc == 0
    doc = json.loads(out)
    assert doc["fidelity"] == pytest.approx(1.0, abs=1e-9)
    assert "identity" in doc["note"]


def test_gate_anharmonic_column(capsys):
    rc, out, _ = run(capsys, "gate", "--eta", "1.5", "--dims", "14,10",
                     "--idealized-flip", "--n-bar-c", "0.5", "--anharmonic")
    assert rc == 0
    doc = json.loads(out)
    assert 0.99999 < doc["f_cor"] < 1.0
    # gate reads [anharmonic] order, so it takes the flag too
    rc, out, _ = run(capsys, "gate", "--eta", "1.5", "--idealized-flip",
                     "--anharmonic", "--order", "0")
    assert rc == 0
    assert json.loads(out)["f_cor"] == 1.0


def test_gate_check_convergence(capsys):
    ok = ("gate", "--eta", "1.5", "--check-convergence")
    rc, out, _ = run(capsys, *ok)
    assert rc == 0
    doc = json.loads(out)
    assert "route" not in doc and "kept_levels" not in doc
    cramped = ("gate", "--eta", "1.5", "--dims", "8,6", "--check-convergence")
    rc, out, err = run(capsys, *cramped)
    assert rc == 3
    assert "truncation" in err
    assert json.loads(out)["command"] == "gate"  # the partial result is still emitted
    # off the commensurate ratio the check compares with the Fock route too
    rc, out, _ = run(capsys, "gate", "--eta", "1.5", "--exponent", "2",
                     "--check-convergence")
    assert rc == 0
    doc = json.loads(out)
    assert "route" not in doc and "kept_levels" not in doc


def test_gate_unconverged_quadrature_exits_3(capsys):
    rc, _, err = run(capsys, "gate", "--eta", "3", "--omega0-scale", "1e6")
    assert rc == 3
    assert "did not converge" in err


def test_gate_rejects_unknown_flip(capsys):
    for flip in ("sinc", "none"):
        rc, _, err = run(capsys, "gate", "--flip", flip)
        assert rc == 1, flip


# --- config files -----------------------------------------------------------


def test_config_file_sets_defaults_and_flags_override(capsys, tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text(
        "[gate]\neta = 1.5\ndims = 14,10\nflip = idealized\n"
        "[output]\nprecision = 8\n")
    rc, out, _ = run(capsys, "gate", "--config", str(ini))
    assert rc == 0
    doc = json.loads(out)
    assert doc["eta"] == 1.5
    assert doc["flip_mode"] == "idealized"
    rc, out, _ = run(capsys, "gate", "--config", str(ini), "--eta", "1.2")
    assert json.loads(out)["eta"] == 1.2


def test_config_unknown_key_exits_1(capsys, tmp_path):
    ini = tmp_path / "bad.ini"
    ini.write_text("[gate]\netb = 2\n")
    rc, _, err = run(capsys, "gate", "--config", str(ini))
    assert rc == 1
    assert "unknown config key" in err


def test_config_unknown_section_exits_1(capsys, tmp_path):
    ini = tmp_path / "bad.ini"
    ini.write_text("[laser]\npower = 2\n")
    rc, _, err = run(capsys, "gate", "--config", str(ini))
    assert rc == 1
    assert "unknown config section" in err


def test_config_unknown_choice_exits_1(capsys, tmp_path):
    ini = tmp_path / "bad.ini"
    ini.write_text("[gate]\nflip = sinc\n")
    rc, _, err = run(capsys, "gate", "--config", str(ini))
    assert rc == 1
    assert "must be one of" in err


def test_config_missing_file_exits_1(capsys, tmp_path):
    rc, _, err = run(capsys, "gate", "--config", str(tmp_path / "nope.ini"))
    assert rc == 1
    assert "not found" in err


def test_config_hash_ignores_execution_only_settings():
    cfg = cli.load_config(None)
    base = cli.config_hash(cfg, "scan")
    cfg["output"]["path"] = "/somewhere/else.csv"
    assert cli.config_hash(cfg, "scan") == base
    cfg["gate"]["margin"] = 4.0
    assert cli.config_hash(cfg, "scan") != base


def test_config_hash_covers_only_settings_the_command_reads():
    cfg = cli.load_config(None)
    base = {cmd: cli.config_hash(cfg, cmd) for cmd in ("gate", "scan", "anharmonic")}
    cfg["anharmonic"]["order"] = 4  # read by gate --anharmonic, not by scan
    assert cli.config_hash(cfg, "gate") != base["gate"]
    assert cli.config_hash(cfg, "anharmonic") != base["anharmonic"]
    assert cli.config_hash(cfg, "scan") == base["scan"]


# config-hash of the built-in defaults, per subcommand; a change here changes
# the header of every output file
_DEFAULT_HASHES = {
    "modes": "fd5e16a73342c8ee76bc35f86ce447934f0eefd5ee663931fc0356d51bead767",
    "separation": "e99f0ed56a50f71b26cddd942756d0b0cb24beab6b4681a92946c5311e94be89",
    "conditions": "3d9ec494a9be9a370202ee4069602e7dc1c819d5bf23cc8aa09b73cde72b5be0",
    "gate": "7d8a6eb7db93b424e8810ce50ae8dc8d705dbc4664d79cdf1c5eed44d2e334d3",
    "scan": "b3beec4335b76e2570116ec97e0885fbb8b9969000817a0b3b446e1c68b49b63",
    "anharmonic": "a1e497014304831e5804e18386dff798ea68dcb2a85a7929f914d38c12d00c90",
}


def test_default_config_hashes_are_stable():
    cfg = cli.load_config(None)
    assert {cmd: cli.config_hash(cfg, cmd) for cmd in _DEFAULT_HASHES} == _DEFAULT_HASHES


def test_subcommands_reject_flags_they_do_not_read(capsys):
    cases = [
        ("scan", "--omega0-scale", "0"),
        ("scan", "--eta", "3"),  # not an abbreviation of --etas
        ("anharmonic", "--n-bar-c", "0.2"),
        ("separation", "--n-bar-c", "3"),
        ("gate", "--t1-over-tg", "0.002"),
        ("modes", "--flip", "idealized"),
        ("scan", "--jobs", "2"),
    ]
    for argv in cases:
        rc, out, err = run(capsys, *argv)
        assert rc == 1, argv
        assert out == "" and "unrecognized arguments" in err, argv


# --- scan -------------------------------------------------------------------


_SCAN_ARGS = ("scan", "--etas", "1.5", "--n-bars", "0,0.4")


def test_scan_runs_are_byte_identical(capsys, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    rc1, _, _ = run(capsys, *_SCAN_ARGS, "--output", str(a))
    rc2, _, _ = run(capsys, *_SCAN_ARGS, "--output", str(b))
    assert rc1 == rc2 == 0
    assert a.read_bytes() == b.read_bytes()
    lines = [ln for ln in a.read_text().splitlines() if not ln.startswith("#")]
    assert lines[0] == "eta,n_bar_c,fidelity,purity,f_cor"
    assert len(lines) == 3


def test_scan_skip_existing_preserves_rows(capsys, tmp_path):
    out = tmp_path / "grid.csv"
    rc, _, _ = run(capsys, *_SCAN_ARGS, "--output", str(out))
    assert rc == 0
    # tamper with one finished row; a skipping re-run must not touch it
    lines = out.read_text().splitlines()
    row = lines[-1].split(",")
    row[2] = "0.123456789"
    lines[-1] = ",".join(row)
    out.write_text("\n".join(lines) + "\n")
    rc, _, _ = run(capsys, *_SCAN_ARGS, "--output", str(out), "--skip-existing")
    assert rc == 0
    assert "0.123456789" in out.read_text().splitlines()[-1]


def test_scan_skip_existing_retries_failed_rows(capsys, tmp_path):
    out = tmp_path / "grid.csv"
    rc, _, _ = run(capsys, *_SCAN_ARGS, "--output", str(out))
    assert rc == 0
    # a failed point leaves nan figures behind; a skipping re-run recomputes it
    lines = out.read_text().splitlines()
    row = lines[-1].split(",")
    lines[-1] = ",".join(row[:2] + ["nan", "nan", "nan"])
    out.write_text("\n".join(lines) + "\n")
    rc, _, _ = run(capsys, *_SCAN_ARGS, "--output", str(out), "--skip-existing")
    assert rc == 0
    cells = out.read_text().splitlines()[-1].split(",")
    assert cells[:2] == row[:2]
    assert all(math.isfinite(float(c)) for c in cells[2:])


def test_scan_skip_existing_ignores_rows_of_other_settings(capsys, tmp_path):
    out, fresh = tmp_path / "grid.csv", tmp_path / "fresh.csv"
    assert run(capsys, *_SCAN_ARGS, "--output", str(out))[0] == 0
    changed = ("--rabi-cycles", "5")
    rc, _, _ = run(capsys, *_SCAN_ARGS, *changed, "--output", str(out), "--skip-existing")
    assert rc == 0
    assert run(capsys, *_SCAN_ARGS, *changed, "--output", str(fresh))[0] == 0
    assert out.read_bytes() == fresh.read_bytes()


def test_scan_skip_existing_ignores_settings_scan_does_not_read(capsys, tmp_path,
                                                               monkeypatch):
    from hotgate import analysis

    args = ("scan", "--etas", "2", "--n-bars", "0", "--anharmonic-order", "0")
    out = tmp_path / "grid.csv"
    assert run(capsys, *args, "--output", str(out))[0] == 0
    first = out.read_bytes()
    ini = tmp_path / "conditions.ini"
    ini.write_text("[gate]\nt1_over_tg = 0.002\n")  # read by conditions only
    calls = []
    monkeypatch.setattr(analysis, "gate_report",
                        lambda *a, **kw: calls.append(a[1:3]))
    rc, _, _ = run(capsys, *args, "--config", str(ini), "--output", str(out),
                   "--skip-existing")
    assert rc == 0
    assert calls == []  # every row reused
    assert out.read_bytes() == first


def test_scan_resumes_after_interrupt(capsys, tmp_path, monkeypatch):
    from hotgate import analysis

    args = ("scan", "--etas", "1.5,2", "--n-bars", "0,0.4")
    whole = tmp_path / "whole.csv"
    assert run(capsys, *args, "--output", str(whole))[0] == 0
    real, calls = analysis.gate_report, []

    def third_call_interrupts(*a, **kw):
        calls.append(a[1:3])
        if len(calls) == 3:
            raise KeyboardInterrupt
        return real(*a, **kw)

    monkeypatch.setattr(analysis, "gate_report", third_call_interrupts)
    out = tmp_path / "grid.csv"
    with pytest.raises(KeyboardInterrupt):
        cli.main([*args, "--output", str(out)])
    capsys.readouterr()
    assert not out.exists()
    partial = tmp_path / "grid.csv.part"
    data = [ln for ln in partial.read_text().splitlines() if not ln.startswith("#")]
    assert data[1:] == whole.read_text().splitlines()[-4:-2]  # rows 1 and 2 survive
    calls.clear()
    rc, _, _ = run(capsys, *args, "--output", str(out), "--skip-existing")
    assert rc == 0
    assert calls == [(2.0, 0.0), (2.0, 0.4)]  # only the rows not yet written
    assert out.read_bytes() == whole.read_bytes()
    assert not partial.exists()


def test_scan_skip_existing_needs_output(capsys):
    rc, _, err = run(capsys, *_SCAN_ARGS, "--skip-existing")
    assert rc == 1
    assert "output" in err


def test_scan_empty_grid_exits_1(capsys):
    rc, _, err = run(capsys, "scan", "--etas", ",")
    assert rc == 1
    assert "grid is empty" in err


# --- anharmonic -------------------------------------------------------------


def test_anharmonic_order_zero_short_circuits(capsys):
    rc, out, _ = run(capsys, "anharmonic", "--order", "0")
    assert rc == 0
    doc = json.loads(out)
    assert doc["f_cor_perturbative"] == 1.0
    assert doc["f_cor_exact"] == 1.0
    assert doc["delta"] == 0.0


def test_anharmonic_compares_routes(capsys):
    rc, out, _ = run(capsys, "anharmonic", "--anh-dims", "20,16")
    assert rc == 0
    doc = json.loads(out)
    assert doc["converged"] is True
    assert 0.999 < doc["f_cor_perturbative"] <= 1.0
    assert doc["delta"] < 1e-6


# --- parser behaviour -------------------------------------------------------


def test_unknown_subcommand_exits_1(capsys):
    assert cli.main(["transmogrify"]) == 1
    capsys.readouterr()


def test_no_arguments_exits_1(capsys):
    assert cli.main([]) == 1
    capsys.readouterr()


def test_help_exits_0(capsys):
    assert cli.main(["--help"]) == 0
    out = capsys.readouterr().out
    assert "modes" in out and "scan" in out


def test_precision_flag_shapes_output(capsys):
    _, wide, _ = run(capsys, "conditions", "--precision", "12")
    _, narrow, _ = run(capsys, "conditions", "--precision", "4")
    w = json.loads(wide)["omega0"]
    n = json.loads(narrow)["omega0"]
    assert w != n
    assert abs(w - n) / w < 1e-3
