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


def test_gate_check_convergence(capsys):
    ok = ("gate", "--eta", "1.5", "--check-convergence")
    rc, out, _ = run(capsys, *ok)
    assert rc == 0
    cramped = ("gate", "--eta", "1.5", "--dims", "8,6", "--check-convergence")
    rc, out, err = run(capsys, *cramped)
    assert rc == 3
    assert "truncation" in err
    assert json.loads(out)["command"] == "gate"  # the partial result is still emitted


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


def test_config_missing_file_exits_1(capsys, tmp_path):
    rc, _, err = run(capsys, "gate", "--config", str(tmp_path / "nope.ini"))
    assert rc == 1
    assert "not found" in err


def test_config_hash_ignores_execution_only_settings():
    cfg = cli.load_config(None)
    base = cli.config_hash(cfg, "scan")
    cfg["scan"]["jobs"] = 4
    cfg["output"]["path"] = "/somewhere/else.csv"
    assert cli.config_hash(cfg, "scan") == base
    cfg["gate"]["mass_cutoff"] = 1e-8
    assert cli.config_hash(cfg, "scan") != base


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
