"""End-to-end exercises of the command-line front end.

Everything runs through cli.main(argv) in-process; files go to tmp_path and
stdout is read back through capsys.  Exit-code contract: 0 ok, 1 usage or
config, 2 infeasible physics, 3 non-convergence.
"""

import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

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


def test_modes_pulse_train_eta(capsys):
    """A train of N kicks of eta_1 is given as --eta N*eta_1; the train has
    no flags of its own."""
    rc, out, _ = run(capsys, "modes", "--eta", str(15 * 0.45))
    assert rc == 0
    assert float(kv_lines(out)["eta"]) == pytest.approx(6.75, abs=1e-12)
    for argv in (("modes", "--eta-single", "0.45", "--n-pulses", "15"),
                 ("gate", "--n-pulses", "3")):
        rc, out, err = run(capsys, *argv)
        assert rc == 1, argv
        assert out == "" and "unrecognized arguments" in err, argv


@pytest.mark.parametrize("exponent", [5.0 / 3.0, 2.0, 1.7])
def test_modes_and_conditions_print_the_same_eta_bound(capsys, exponent):
    """Both print ModeBasis.eta_bound, the bound of the trap at hand; on the
    commensurate trap it is the paper's closed form."""
    from hotgate import gate_protocol

    argv = ("--exponent", repr(exponent), "--n-bar-c", "1", "--precision", "17")
    rc, out, _ = run(capsys, "modes", *argv)
    assert rc == 0
    bound = float(kv_lines(out)["eta_lower_bound_at_nbar"])
    rc, out, _ = run(capsys, "conditions", *argv)
    assert rc == 0
    assert json.loads(out)["eta_bound"] == bound
    if exponent == 5.0 / 3.0:
        assert bound == pytest.approx(gate_protocol.eta_lower_bound(1.0), rel=1e-15)


def test_off_ratio_occupation_far_above_one(capsys):
    """On the exponent-2 trap at n_bar_c 1e17, 1 + 1/n_bar_c rounds to 1:
    modes still prints a finite bound, and gate ends with one line and no
    traceback, as on the commensurate trap."""
    rc, out, _ = run(capsys, "modes", "--exponent", "2", "--n-bar-c", "1e17")
    assert rc == 0
    assert math.isfinite(float(kv_lines(out)["eta_lower_bound_at_nbar"]))
    for exponent in ("2", repr(5.0 / 3.0)):
        rc, out, err = run(capsys, "gate", "--exponent", exponent, "--n-bar-c", "1e17",
                           "--order", "0")
        assert (rc, out) == (3, ""), exponent
        assert err.startswith("hotgate: did not converge: ") and err.count("\n") == 1


def test_off_ratio_occupation_far_below_one(capsys):
    """On the exponent-2 trap at n_bar_c 1e-200, (1 + 1/n_bar_c)^ratio leaves
    double range while n_bar_r is simply 0: modes prints the n_bar_c 0 bound."""
    rc, out, err = run(capsys, "modes", "--exponent", "2", "--n-bar-c", "1e-200")
    assert (rc, err) == (0, "")
    bound = kv_lines(out)["eta_lower_bound_at_nbar"]
    rc, out, _ = run(capsys, "modes", "--exponent", "2")
    assert rc == 0 and kv_lines(out)["eta_lower_bound_at_nbar"] == bound


@pytest.mark.parametrize("n_bar_c, fidelity", [("100", 0.414552213786), ("300", None),
                                               ("1e4", 0.399443103091)])
def test_hot_off_ratio_gate_reports_its_figure(capsys, n_bar_c, fidelity):
    """Off the ratio the cross-branch Gram blocks stay bounded at any
    temperature: the channel is trace preserving and every cross entry lies
    within exp(-kappa^2 (S_YY - S_XY^2/S_XX)/2), the modulus bound of its
    Gaussian weight (Robertson-Schroedinger), from the linear forms of X and
    Y written out here."""
    import numpy as np

    from hotgate import gate_protocol, trap_model

    rc, out, err = run(capsys, "gate", "--exponent", "2", "--eta", "7", "--order", "0",
                       "--n-bar-c", n_bar_c)
    assert (rc, err) == (0, "")
    doc = json.loads(out)
    assert doc["tp_defect"] <= 1e-15
    if fidelity is not None:
        assert doc["fidelity"] == pytest.approx(fidelity, abs=1e-12)
    n_bar = float(n_bar_c)
    basis = trap_model.build_mode_basis(trap_model.TrapSpec.normalized(exponent=2.0),
                                        eta=7.0, n_bar_c=n_bar)
    pulse, _ = gate_protocol.build_schedule(basis, n_bar_c=n_bar)
    gram = gate_protocol.gate_channel(basis, pulse, n_bar_c=n_bar).gram
    var = basis.thermal_variances(n_bar)
    x = basis.position_form(basis.flip_time, 0.5)
    y = basis.position_form(0.0, -0.5) - basis.position_form(basis.gate_time, -0.5)
    s_xx, s_xy, s_yy = x @ (var * x), x @ (var * y), y @ (var * y)
    bound = math.exp(-0.5 * (2.0 * basis.wavenumber) ** 2 * (s_yy - s_xy**2 / s_xx))
    assert np.all(np.abs(gram[:2, 2:]) <= bound) and np.all(np.abs(gram[2:, :2]) <= bound)


def test_hot_off_ratio_scan_row(capsys):
    rc, out, err = run(capsys, "scan", "--exponent", "2", "--etas", "7", "--n-bars", "100",
                       "--order", "0")
    assert (rc, err) == (0, "")
    rows = [ln.split(",") for ln in out.splitlines() if not ln.startswith("#")]
    assert rows[1] == ["7", "100", "0.414552213786", "0.44562150885", "1"]


def test_modes_solve_ratio_round_trip(capsys):
    rc, out, _ = run(capsys, "modes", "--solve-ratio", "2")
    assert rc == 0
    kv = kv_lines(out)
    assert abs(float(kv["exponent"]) - 5.0 / 3.0) < 1e-6
    assert float(kv["target_ratio"]) == 2.0


def test_modes_infeasible_ratio_exits_2(capsys):
    # 1000 lies beyond what a double exponent resolves to the 1e-9 check
    for ratio in ("1.0001", "1000"):
        rc, out, err = run(capsys, "modes", "--solve-ratio", ratio)
        assert rc == 2
        assert "infeasible" in err
        assert "Traceback" not in err
        assert out == ""


@pytest.mark.parametrize("argv", [
    ("conditions", "--eta", "0"),
    ("gate", "--eta", "0"),
    ("conditions", "--eta", "-1"),
    ("gate", "--eta", "-1"),
    ("modes", "--eta", "0"),
    ("separation", "--eta", "-1"),
    ("separation", "--eta", "0"),
])
def test_non_positive_eta_exits_1_with_one_line(capsys, argv):
    rc, out, err = run(capsys, *argv)
    assert rc == 1
    assert out == ""
    assert err.startswith("hotgate: config error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ("conditions", "--rabi-cycles", "0"),
    ("conditions", "--n-bar-c", "-1"),
    ("gate", "--n-bar-c", "-1"),
    ("gate", "--rabi-cycles", "0"),
    ("gate", "--order", "9"),
    ("modes", "--n-bar-c", "-1"),
    ("separation", "--points", "1"),
    ("anharmonic", "--n-bar-c", "-1"),
    ("anharmonic", "--order", "2"),
    # the cubic is the one correction: orders 4-6 were dropped
    ("gate", "--order", "4"),
    ("gate", "--order", "5"),
    ("gate", "--order", "6"),
    ("anharmonic", "--order", "4"),
    ("anharmonic", "--order", "5"),
    ("anharmonic", "--order", "6"),
    ("scan", "--order", "4"),
    ("scan", "--order", "5"),
    ("scan", "--order", "6"),
    ("scan", "--etas", "0"),
    ("scan", "--n-bars", "-1"),
    ("scan", "--rabi-cycles", "0"),
    ("scan", "--order", "2"),
    ("modes", "--exponent", "1"),
    ("modes", "--separation-in-x0", "0"),
    ("modes", "--precision", "-1"),
    # non-finite values
    ("gate", "--eta", "inf"),
    ("gate", "--n-bar-c", "inf"),
    ("anharmonic", "--n-bar-c", "inf"),
    ("scan", "--etas", "inf", "--n-bars", "0"),
    ("scan", "--etas", "2", "--n-bars", "inf"),
    ("modes", "--solve-ratio", "nan"),  # a bad input, not an infeasible trap
    ("modes", "--solve-ratio", "inf"),
    # finite, but too large for the arithmetic they enter
    ("gate", "--eta", "1e300"),
    ("gate", "--n-bar-c", "1e300"),
    ("modes", "--eta", "1e300"),
    ("conditions", "--eta", "1e200"),
    # in range, but a trap constant derived from them leaves double range
    ("modes", "--exponent", "1e300"),
    ("modes", "--separation-in-x0", "1e-300"),
    ("gate", "--separation-in-x0", "6e102"),
    ("modes", "--separation-in-x0", "1e103"),
    ("modes", "--separation-in-x0", "1e104"),
], ids=" ".join)
def test_out_of_range_setting_exits_1_with_one_line(capsys, argv):
    """Rejected as a config error: no traceback, and no scan rows."""
    rc, out, err = run(capsys, *argv)
    assert rc == 1
    assert out == ""
    assert err.startswith("hotgate: config error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv, message", [pytest.param(argv, message, id=" ".join(argv)) for
                                           argv, message in [
    (("gate", "--eta", "-1e3"), "[gate] eta must be positive, got -1000.0"),
    (("scan", "--etas", "-2,4"), "[scan] etas must be a list of positive numbers, got '-2,4'"),
    (("modes", "--solve-ratio", "-inf"), "--solve-ratio must be finite, got -inf"),
    (("gate", "--n-bar-c", "-.5"), "[gate] n_bar_c must be non-negative, got -0.5"),
]])
def test_negative_looking_value_reaches_the_range_check(capsys, argv, message):
    """A value such as -1e3, -2,4 or -inf is read as the flag's value, not
    as an unknown option, so its one config-error line names it."""
    rc, out, err = run(capsys, *argv)
    assert (rc, out) == (1, "")
    assert err == f"hotgate: config error: {message}\n"


def test_tiny_separation_keeps_its_finite_coulomb_term(capsys):
    """At --separation-in-x0 1e-100, x_e^4 underflows a double while the
    Coulomb coefficient C/x_e^4 (about -1e100) is finite: gate, scan and
    anharmonic run to the end at n_bar_c 1, and the phase variance, far
    above 1 (about 1.5e200 at the thermal dims), leaves gate's F_cor null
    and scan's nan.  At n_bar_c 0 the ground state has no resonant variance
    on this trap."""
    tiny = ("--separation-in-x0", "1e-100")
    rc, out, err = run(capsys, "gate", *tiny, "--n-bar-c", "1")
    assert rc == 0 and "Traceback" not in err
    assert json.loads(out)["f_cor"] is None
    rc, out, err = run(capsys, "scan", *tiny, "--etas", "2", "--n-bars", "1")
    assert rc == 0 and "Traceback" not in err
    assert [ln for ln in out.splitlines() if not ln.startswith("#")][1].endswith(",nan")
    rc, out, err = run(capsys, "anharmonic", *tiny, "--n-bar-c", "1", "--dims", "8,6")
    assert (rc, err) == (0, "")
    assert json.loads(out)["phase_variance"] > 1.0


def test_subnormal_trap_exits_1_naming_the_bound(capsys):
    """A separation whose Coulomb coefficient would be subnormal is refused
    with one config-error line instead of a trap off its own targets."""
    rc, out, err = run(capsys, "modes", "--separation-in-x0", "1e-107")
    assert (rc, out) == (1, "")
    assert err.startswith("hotgate: config error:") and err.count("\n") == 1
    assert "at least about 8e-103" in err


@pytest.mark.parametrize("argv", [("--exponent", "125"), ("--exponent", "150"),
                                  ("--solve-ratio", "1.005")], ids=" ".join)
def test_steep_wall_exits_1_naming_the_largest_exponent(capsys, argv):
    """At the default separation C/(p*K) = 4u^(p+1) overflows past exponent
    123.947, and K underflows from about 127: one config-error line that
    names the largest exponent that fits, also for the p = 200.5 that
    --solve-ratio 1.005 solves."""
    rc, out, err = run(capsys, "modes", *argv)
    assert (rc, out) == (1, "")
    assert err.startswith("hotgate: config error: the trap settings leave double range: "
                          "exponent ")
    assert err.count("\n") == 1 and err.endswith("at most about 123.947\n")


def test_steep_wall_at_a_close_separation_exits_1_naming_the_largest_exponent(capsys):
    """At 1 width the half separation u is below 1, so C/(p*K) = 4u^(p+1)
    underflows past exponent 681.667, before K = u^(2-p)/(p(p-1))
    overflows: exponent 1000 is one config-error line that names that
    bound, not an overflowing power, and an exponent just inside it runs."""
    rc, out, err = run(capsys, "modes", "--exponent", "1000", "--separation-in-x0", "1")
    assert (rc, out) == (1, "")
    assert err.startswith("hotgate: config error: the trap settings leave double range: "
                          "exponent ")
    assert err.count("\n") == 1 and err.endswith("at most about 681.667\n")
    rc, out, err = run(capsys, "modes", "--exponent", "681.666", "--separation-in-x0", "1")
    assert (rc, err) == (0, "")
    assert "exponent=681.666\n" in out


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
    """The numeric column runs once, at --dims, and is held to the closed form."""
    rc, out, err = run(capsys, "separation", "--dims", "3,3", "--points", "8")
    assert rc == 3
    assert "truncation" in err and "closed form" in err and err.count("\n") == 1
    assert out.startswith("# hotgate separation\n")  # the partial result is still emitted


def test_separation_past_the_memory_budget_exits_1_at_once(capsys):
    """The numeric column needs about 144 (n_c^2 + n_r^2) bytes: 72 GB at
    eta 100's default dims and 130 GB at --dims 30000,2.  Each run refuses
    with one line naming the dims and the GB, with nothing sized by the
    dims allocated."""
    import tracemalloc

    tracemalloc.start()
    try:
        runs = [(run(capsys, "separation", *argv), dims, gb)
                for argv, dims, gb in ((("--eta", "100"), "(20016, 10016)", "72.1"),
                                       (("--dims", "30000,2"), "(30000, 2)", "130"))]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    for (rc, out, err), dims, gb in runs:
        assert (rc, out) == (1, "")
        assert err.startswith(f"hotgate: config error: the numeric separation at dims {dims} "
                              f"needs about {gb} GB, above the budget of 4 GB")
        assert err.count("\n") == 1
    assert peak < 1e6


_X0 = 1.0 / math.sqrt(2.0)  # x0 of the normalized trap, in hbar = m = nu_c = 1 units


@pytest.mark.parametrize("exponent", ["2", "1.7"])
def test_separation_off_ratio_closed_form_matches_numeric(capsys, exponent):
    """Off the commensurate ratio the closed-form column is the general
    half-separation, not the nu_r = 2 nu_c curve."""
    rc, out, _ = run(capsys, "separation", "--exponent", exponent, "--precision", "17")
    assert rc == 0
    rows = [[float(v) for v in ln.split(",")] for ln in out.splitlines()
            if ln and ln[0].isdigit()]
    assert len(rows) == 64
    assert max(abs(d_a - d_n) for _, d_a, d_n in rows) <= 1e-9 * _X0
    assert rows[-1][2] > 1.0  # the branches do not close at t_g


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


@pytest.mark.parametrize("exponent", [2.0, 1.7])
def test_conditions_off_ratio_separation_matches_fock_route(capsys, exponent):
    """D is the branch separation at the flip time, as the Fock-space
    coherent-state route measures it on the same trap."""
    from hotgate import analysis, trap_model

    rc, out, _ = run(capsys, "conditions", "--exponent", str(exponent), "--eta", "7",
                     "--n-bar-c", "1", "--precision", "17")
    assert rc == 0
    doc = json.loads(out)
    basis = trap_model.build_mode_basis(trap_model.TrapSpec.normalized(exponent=exponent),
                                        eta=7.0, n_bar_c=1.0)
    d_fock = float(analysis.separation_numeric(basis, [basis.flip_time])[0])
    assert doc["branch_separation_D"] / 2 == pytest.approx(d_fock / 2, rel=0, abs=1e-9 * _X0)
    assert doc["profile_width_W"] == pytest.approx(12.5 * d_fock, rel=1e-12)


# the conditions JSON: ConditionReport's fields, four of them under the
# paper's symbols, then well_conditioned and one ok_ flag per condition
_CONDITION_KEYS = {
    "eta", "n_bar_c", "n_bar_r", "rabi_cycles", "branch_separation_D",
    "wavepacket_delta", "profile_width_W", "profile_center_l", "t1", "omega0",
    "omega0_t1", "pulse_area", "w_over_d", "eta_bound", "eta_bound_ratio",
    "well_conditioned", "ok_separation_hierarchy", "ok_profile_linearity",
    "ok_rabi_cycles_large", "ok_eta_above_bound"}
_GATE_KEYS = {"eta", "n_bar_c", "n_bar_r", "fidelity", "purity", "f_cor", "tp_defect",
              "conditions", "note"}


def test_report_json_key_sets_are_pinned(capsys):
    """The report JSON is read off the dataclass fields, so a field that is
    added or renamed changes these key sets."""
    rc, out, _ = run(capsys, "conditions")
    assert rc == 0
    assert set(json.loads(out)) == _CONDITION_KEYS | {"command", "config_hash"}
    rc, out, _ = run(capsys, "gate")
    assert rc == 0
    doc = json.loads(out)
    assert set(doc) == _GATE_KEYS | {"command", "config_hash"}
    assert set(doc["conditions"]) == _CONDITION_KEYS


def test_stamp_is_opt_in(capsys):
    rc, out, _ = run(capsys, "conditions", "--stamp")
    assert rc == 0
    assert "generated" in json.loads(out)


# --- gate -------------------------------------------------------------------


def test_gate_output_is_deterministic(capsys):
    argv = ("gate", "--eta", "1.5")
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second


def test_gate_disabled_pulse_against_identity(capsys):
    # the pulse, frame and target are not settings: the former command line
    # is refused, and gate scores against the conditional flip alone (the
    # identity check on a disabled pulse is a library test)
    rc, out, err = run(capsys, "gate", "--eta", "2", "--omega0-scale", "0",
                       "--frame-phase", "0", "--target", "identity")
    assert rc == 1
    assert out == "" and "unrecognized arguments" in err
    rc, out, _ = run(capsys, "gate", "--eta", "2")
    assert rc == 0
    doc = json.loads(out)
    assert "target" not in doc
    assert "conditional-flip target" in doc["note"]


def test_gate_weak_kick_does_not_converge(capsys):
    """A kick too weak for the profile to be resolved, down to the least
    double: the Gram quadrature never settles, so gate exits 3 with one
    line, scan records the error in its row, and conditions still reports
    the geometry."""
    for eta in ("7e-156", "5e-324"):
        rc, out, err = run(capsys, "gate", "--eta", eta, "--order", "0")
        assert (rc, out) == (3, "")
        assert err.startswith("hotgate: did not converge:") and err.count("\n") == 1
    rc, out, err = run(capsys, "scan", "--etas", "1e-200,7", "--n-bars", "0", "--order", "0")
    rows = [line for line in out.splitlines() if line and not line.startswith("#")]
    assert rc == 0 and len(rows) == 3 and "NonConvergenceError" in err
    assert rows[1].startswith("1e-200,0,nan,nan") and not rows[2].endswith("nan")
    rc, out, _ = run(capsys, "conditions", "--eta", "1e-200")
    assert rc == 0 and json.loads(out)["eta"] == 1e-200


def _argv(command):
    """command, with the expansion off where it would run one."""
    return (command, "--order", "0") if command in ("gate", "scan") else (command,)


def _command_id(value):
    return value[0] if isinstance(value, tuple) else None


# a positive kick whose branch separation D underflows to 0 on the trap: on
# steep walls h/x0^2 is small (0.039 at exponent 50, against 1.30 on the
# paper's trap), so D/x0 = 2 eta h/x0^2 underflows as well
_D_UNDERFLOWS = [(_argv(command) + ("--eta", "5e-324"), "--exponent", value)
                 for command in ("gate", "conditions") for value in ("50", "100")]


@pytest.mark.parametrize("argv,flag,value", _D_UNDERFLOWS, ids=_command_id)
def test_kick_whose_separation_underflows_is_a_config_error(capsys, argv, flag, value):
    rc, out, err = run(capsys, *argv, flag, value)
    assert (rc, out) == (1, "")
    assert err.startswith("hotgate: config error:") and err.count("\n") == 1
    assert "D that underflows to 0" in err


def test_rabi_cycles_stop_below_2_to_the_50(capsys):
    """From N = 2**50 on, 2N + 1/4 rounds to 2N and the branches lose their
    half-cycle offset: the setting's range stops one below."""
    rc, out, err = run(capsys, "gate", "--rabi-cycles", str(2**50), "--order", "0")
    assert (rc, out) == (1, "")
    assert err.count("\n") == 1 and "rabi_cycles must be a positive integer below 2**50" in err
    rc, out, _ = run(capsys, "conditions", "--rabi-cycles", str(2**50 - 1))
    assert rc == 0 and json.loads(out)["rabi_cycles"] == 2**50 - 1


def test_gate_anharmonic_column(capsys):
    rc, out, _ = run(capsys, "gate", "--eta", "1.5", "--n-bar-c", "0.5")
    assert rc == 0
    doc = json.loads(out)
    assert 0.99999 < doc["f_cor"] < 1.0
    # [anharmonic] order is the one switch: order 0 is the empty expansion
    rc, out, _ = run(capsys, "gate", "--eta", "1.5", "--n-bar-c", "0.5", "--order", "0")
    assert rc == 0
    assert json.loads(out)["f_cor"] == 1.0


def test_gate_and_scan_read_one_anharmonic_order(capsys, tmp_path):
    ini = tmp_path / "order.ini"
    ini.write_text("[anharmonic]\norder = 0\n")
    rc, out, _ = run(capsys, "gate", "--config", str(ini), "--eta", "7", "--n-bar-c", "1",
                     "--precision", "17")
    assert rc == 0
    f_cor = json.loads(out)["f_cor"]
    assert f_cor == 1.0  # order 3 gives 0.99999782549...
    rc, out, _ = run(capsys, "scan", "--config", str(ini), "--etas", "7", "--n-bars", "1",
                     "--precision", "17")
    assert rc == 0
    row = [ln for ln in out.splitlines() if not ln.startswith("#")][1].split(",")
    assert float(row[4]) == f_cor


def test_ini_order_outside_0_and_3_exits_1(capsys, tmp_path):
    """The INI key is checked like the flag: the cubic is the one correction."""
    ini = tmp_path / "order.ini"
    for order in (4, 5, 6):
        ini.write_text(f"[anharmonic]\norder = {order}\n")
        for command in ("gate", "scan", "anharmonic"):
            rc, out, err = run(capsys, command, "--config", str(ini))
            assert (rc, out) == (1, "")
            assert err == f"hotgate: config error: [anharmonic] order must be 0 or 3, got {order}\n"


def test_gate_check_convergence(capsys):
    """The check recomputes F_cor, the one truncated figure gate reports, at
    doubled truncation; the channel checks its own quadrature."""
    hot = ("gate", "--eta", "7", "--check-convergence")
    rc, out, _ = run(capsys, *hot, "--n-bar-c", "3")
    assert rc == 0
    doc = json.loads(out)
    assert "route" not in doc and "kept_levels" not in doc
    # at n_bar_c 10 the thermal-sized truncation of F_cor is too tight
    rc, out, err = run(capsys, *hot, "--n-bar-c", "10")
    assert rc == 3
    assert "F_cor" in err and "truncation gap" in err
    assert json.loads(out)["command"] == "gate"  # the partial result is still emitted
    # order 0: F_cor is 1 at any truncation, so nothing to check, on any trap
    rc, out, _ = run(capsys, "gate", "--eta", "7", "--n-bar-c", "1", "--exponent", "2",
                     "--order", "0", "--check-convergence")
    assert rc == 0
    assert json.loads(out)["f_cor"] == 1.0


def test_gate_check_convergence_memory_is_bounded(capsys):
    """numpy reports its buffers to tracemalloc; recomputing the gate on a
    truncated Fock route peaked at about 370 MB here."""
    import tracemalloc

    tracemalloc.start()
    try:
        rc = cli.main(["gate", "--eta", "7", "--n-bar-c", "0.5", "--check-convergence"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert rc == 0
    assert peak < 32e6


def test_hot_gate_memory_is_bounded(capsys):
    """F_cor's basis grows with n_bar_c (dims near 5 n_bar_c per mode), the
    channel's does not.  Far above F_cor's memory budget, gate refuses with
    one line before allocating; --order 0 skips F_cor and reports the
    channel, and nothing sized by the dims is built in either run."""
    import tracemalloc

    tracemalloc.start()
    try:
        refused = run(capsys, "gate", "--n-bar-c", "1e4")
        skipped = run(capsys, "gate", "--n-bar-c", "1e4", "--order", "0",
                      "--check-convergence")
        scanned = run(capsys, "scan", "--etas", "7", "--n-bars", "1e4", "--order", "0")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    rc, out, err = refused
    assert (rc, out) == (1, "")
    assert err.startswith("hotgate: config error: F_cor at dims") and err.count("\n") == 1
    rc, out, _ = skipped
    assert rc == 0
    assert json.loads(out)["f_cor"] == 1.0
    rc, out, _ = scanned
    assert rc == 0
    assert [ln for ln in out.splitlines() if not ln.startswith("#")][1].endswith(",1")
    assert peak < 32e6


def test_f_cor_above_unit_variance_is_not_reported(capsys, monkeypatch):
    """At n_bar_c 120 the phase variance is 1.29, so 1 - Var = -0.29 is no
    fidelity: gate prints null and scan nan, each with one stderr line that
    names the variance; anharmonic keeps the raw second-order figure."""
    from hotgate import analysis

    rc, out, err = run(capsys, "gate", "--n-bar-c", "120")
    assert rc == 0
    doc = json.loads(out)
    assert doc["f_cor"] is None and 0.0 < doc["fidelity"] < 1.0
    assert err.startswith("gate: ") and err.count("\n") == 1
    assert "phase variance 1.29283" in err
    rc, out, err = run(capsys, "scan", "--etas", "7", "--n-bars", "120")
    assert rc == 0
    row = [ln for ln in out.splitlines() if not ln.startswith("#")][1].split(",")
    assert row[4] == "nan" and 0.0 < float(row[2]) < 1.0
    assert err.startswith("scan: eta=7 n_bar_c=120: ") and err.count("\n") == 1
    assert "phase variance 1.29283" in err
    # the exact check is not under test here, and is over its budget at n_bar_c 120
    monkeypatch.setattr(analysis, "exact_anharmonic_fidelity", lambda *a, **kw: 1.0)
    rc, out, _ = run(capsys, "anharmonic", "--n-bar-c", "120", "--precision", "17")
    assert rc == 0
    doc = json.loads(out)
    assert doc["f_cor_perturbative"] == pytest.approx(1.0 - doc["phase_variance"], abs=1e-15)
    assert doc["f_cor_perturbative"] == pytest.approx(-0.29283, abs=1e-5)


def test_gate_check_convergence_skips_an_unreported_f_cor(capsys, monkeypatch):
    """At n_bar_c 120 gate prints F_cor as null; the check has no figure to
    compare, so it recomputes nothing and the run exits 0."""
    from hotgate import analysis

    real, calls = analysis._anharmonic_point, []

    def counting(*args, **kwargs):
        calls.append(kwargs)
        return real(*args, **kwargs)

    monkeypatch.setattr(analysis, "_anharmonic_point", counting)
    rc, out, err = run(capsys, "gate", "--n-bar-c", "120", "--check-convergence")
    assert rc == 0
    assert json.loads(out)["f_cor"] is None
    assert calls == [{}]  # the reported F_cor alone, none at doubled truncation
    assert err.startswith("gate: F_cor not reported") and err.count("\n") == 1


def test_gate_check_convergence_fails_above_a_gap_of_1e_6(capsys, monkeypatch):
    """The check exits 3 when F_cor moves by more than 1e-6 at doubled
    truncation: a gap of exactly 1e-6 passes, 1.5e-6 does not."""
    from types import SimpleNamespace

    from hotgate import analysis

    for doubled, code in ((1e-6, 0), (1.5e-6, 3)):
        monkeypatch.setattr(analysis, "_anharmonic_point",
                            lambda *a, dims_factor=1, doubled=doubled: SimpleNamespace(
                                f_cor=doubled if dims_factor == 2 else 0.0))
        rc, out, err = run(capsys, "gate", "--check-convergence")
        assert (rc, json.loads(out)["f_cor"]) == (code, 0.0), doubled
        assert ("truncation gap above 1e-6" in err) == (code == 3), doubled


def test_scan_f_cor_note_once_per_n_bar_c(capsys):
    """F_cor reads n_bar_c alone, so two rows at n_bar_c 120 share one note."""
    rc, out, err = run(capsys, "scan", "--etas", "7,4", "--n-bars", "120,1")
    assert rc == 0
    rows = [ln.split(",") for ln in out.splitlines() if not ln.startswith("#")][1:]
    assert [row[4] for row in rows] == ["nan", "0.999997825495"] * 2
    assert err.startswith("scan: eta=7 n_bar_c=120: F_cor not reported")
    assert err.count("\n") == 1


def test_scan_row_whose_f_cor_fails_keeps_its_channel_figures(capsys):
    """At n_bar_c 1000 F_cor's memory budget refuses after the channel is
    done: the row keeps fidelity and purity, writes F_cor as nan and records
    the error, and a grid of such rows alone exits 3."""
    rc, out, err = run(capsys, "scan", "--etas", "7", "--n-bars", "1000,0")
    assert rc == 0
    rows = [ln.split(",") for ln in out.splitlines() if not ln.startswith("#")][1:]
    assert rows[0][:2] == ["7", "1000"] and rows[0][4] == "nan"
    assert 0.5 < float(rows[0][2]) < 1.0 and 0.5 < float(rows[0][3]) < 1.0
    assert rows[1] == ["7", "0", "0.995563065905", "0.992646365545", "1"]
    assert err.startswith("scan: eta=7 n_bar_c=1000: ConfigError: F_cor at dims")
    assert err.count("\n") == 1
    rc, out, err = run(capsys, "scan", "--etas", "7", "--n-bars", "1000")
    assert rc == 3
    assert [ln for ln in out.splitlines() if not ln.startswith("#")][1].startswith(
        ",".join(rows[0][:4]))
    assert err.endswith("scan: every computed row failed\n")


def test_gate_unconverged_quadrature_exits_3(capsys, monkeypatch):
    """The channel's real quadrature, held to a tolerance no doubling meets
    within two levels: exit 3 with one line, and no JSON."""
    from hotgate import gate_protocol

    monkeypatch.setattr(gate_protocol, "_GRAM_TOL", 0.0)
    monkeypatch.setattr(gate_protocol, "_MAX_INTERVALS", 256)
    rc, out, err = run(capsys, "gate", "--eta", "3")
    assert (rc, out) == (3, "")
    assert err.startswith("hotgate: did not converge: ") and err.count("\n") == 1
    assert "within 256 trapezoid intervals" in err


def test_gate_rejects_unknown_flip(capsys):
    """The gate runs the paper's flip only: no --flip value is taken."""
    for flip in ("sinc", "none", "idealized"):
        rc, out, err = run(capsys, "gate", "--flip", flip)
        assert (rc, out) == (1, ""), flip
        assert "unrecognized arguments: --flip" in err, flip


# --- config files -----------------------------------------------------------


def test_config_file_sets_defaults_and_flags_override(capsys, tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text(
        "[gate]\neta = 1.5\ndims = 14,10\nrabi_cycles = 5\n"
        "[output]\nprecision = 8\n")
    rc, out, _ = run(capsys, "gate", "--config", str(ini))
    assert rc == 0
    doc = json.loads(out)
    assert doc["eta"] == 1.5
    assert doc["conditions"]["rabi_cycles"] == 5
    rc, out, _ = run(capsys, "gate", "--config", str(ini), "--eta", "1.2")
    assert json.loads(out)["eta"] == 1.2


def test_config_unknown_key_exits_1(capsys, tmp_path):
    ini = tmp_path / "bad.ini"
    for key in ("etb", "eta_single", "n_pulses"):  # the kick is [gate] eta alone
        ini.write_text(f"[gate]\n{key} = 2\n")
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
    cfg["output"]["path"] = "/somewhere/else.csv"
    assert cli.config_hash(cfg, "scan") == base
    cfg["gate"]["rabi_cycles"] = 4
    assert cli.config_hash(cfg, "scan") != base


def test_config_hash_covers_only_settings_the_command_reads():
    cfg = cli.load_config(None)
    base = {cmd: cli.config_hash(cfg, cmd) for cmd in ("gate", "scan", "anharmonic", "separation")}
    cfg["anharmonic"]["order"] = 0  # read by gate and by scan too
    assert [cli.config_hash(cfg, cmd) == base[cmd] for cmd in base] == [False] * 3 + [True]
    cfg = cli.load_config(None)
    cfg["separation"]["points"] = 8  # read by separation only
    assert [cli.config_hash(cfg, cmd) == base[cmd] for cmd in base] == [True] * 3 + [False]


# config-hash of the built-in defaults, per subcommand; a change here changes
# the header of every output file
_DEFAULT_HASHES = {
    "modes": "6bbd9fef5b850199705468dc8053c659cbddd7b5803cf6260685fff1182349c6",
    "separation": "f52766d98282d01a88834ae96d9b6a498685367894c78a4f671e35adbb547c3a",
    "conditions": "496ac3cc823f683537ff0a4dda3b01e18a52073d942c93930c7a773fc1c272bc",
    "gate": "1fb084320ab0e737e9e142ef2db51ebfe0165b0af2efd4a4ef67af5203f21285",
    "scan": "bfb1efab3a7f9b9ce588f75eb40f6931f720dec9a607b1ff60d71a9a57538fe7",
    "anharmonic": "752fee7a5dfd9771514e704c1e3e47234ec53a14ef5bbd4783f64c9ce7a2600a",
}


def test_default_config_hashes_are_stable():
    cfg = cli.load_config(None)
    assert {cmd: cli.config_hash(cfg, cmd) for cmd in _DEFAULT_HASHES} == _DEFAULT_HASHES


def test_subcommands_reject_flags_they_do_not_read(capsys):
    cases = [
        ("scan", "--omega0-scale", "0"),
        ("scan", "--eta", "3"),  # not an abbreviation of --etas
        ("anharmonic", "--flip", "idealized"),
        ("separation", "--n-bar-c", "3"),
        ("gate", "--t1-over-tg", "0.002"),
        ("conditions", "--t1-over-tg", "0.002"),
        ("scan", "--anharmonic-order", "3"),
        ("modes", "--flip", "idealized"),
        ("scan", "--jobs", "2"),
        ("gate", "--dims", "14,10"),
        ("gate", "--idealized-flip"),
        ("scan", "--margin", "5"),
        ("modes", "--lamb-dicke", "0.9"),
        ("separation", "--check-tol", "1e-6"),
        ("gate", "--anharmonic"),
        ("gate", "--omega0-scale", "0"),  # the pulse, frame and target are not settings
        ("gate", "--frame-phase", "0"),
        ("gate", "--target", "identity"),
    ]
    for argv in cases:
        rc, out, err = run(capsys, *argv)
        assert rc == 1, argv
        assert out == "" and "unrecognized arguments" in err, argv


def test_removed_settings_are_refused(capsys, tmp_path):
    """The CLI trap is the normalized trap in hbar = m = nu_c = 1 units,
    anharmonic reads [gate] n_bar_c and dims and reports the pre-kick F_cor
    of gate and scan, and the gate is the paper's: the explicit-trap pair,
    the units, the anharmonic copies, the state mode, the idealized flip,
    the validity-flag factor and the coupling scale are no flags and no INI
    keys on any subcommand."""
    removed = (("trap", "stiffness"), ("trap", "coulomb"), ("trap", "nu_c"), ("trap", "mass"),
               ("anharmonic", "n_bar_c"), ("anharmonic", "dims"), ("anharmonic", "state_mode"),
               ("gate", "flip"), ("gate", "margin"), ("anharmonic", "scale"))
    flags = ("--stiffness", "--coulomb", "--nu-c", "--mass", "--anh-n-bar-c", "--anh-dims",
             "--state-mode", "--flip", "--margin", "--scale")
    ini = tmp_path / "old.ini"
    for command in cli._COMMANDS:
        for flag, value in [(flag, "2") for flag in flags] + [
                ("--flip", "idealized"), ("--flip", "gaussian"), ("--state-mode", "post_kick")]:
            rc, out, err = run(capsys, command, flag, value)
            assert (rc, out) == (1, ""), (command, flag)
            assert "unrecognized arguments" in err, (command, flag)
        for section, key in removed:
            ini.write_text(f"[{section}]\n{key} = 2\n")
            rc, out, err = run(capsys, command, "--config", str(ini))
            assert (rc, out) == (1, ""), (command, key)
            assert err == f"hotgate: config error: unknown config key [{section}] {key}\n"


# --- every setting reaches the data -----------------------------------------

# warm: the ground state has no phase variance, so at n_bar_c 0 the order
# barely moves the figures
_ANH = ("--dims", "12,10", "--n-bar-c", "0.5")
_SEP = ("--eta", "1", "--points", "4", "--precision", "17")
_SCAN = ("--etas", "2", "--n-bars", "0", "--order", "0")
# F_cor is 1 at every order and separation at n_bar_c 0: the ground state
# has no phase variance, so only a warm point shows them
_HOT = ("--n-bar-c", "0.5")
_HOT_SCAN = ("--etas", "2", "--n-bars", "0.5")

# per setting: one case of (a subcommand that reads it, its argv, the argv
# with only that setting changed) for each subcommand that reads it; every
# setting but [output] path is listed
_DATA_CASES = {
    ("trap", "exponent"): [("modes", (), ("--exponent", "2")),
                           ("separation", _SEP, (*_SEP, "--exponent", "2")),
                           ("conditions", (), ("--exponent", "2")),
                           ("gate", _HOT, (*_HOT, "--exponent", "2")),
                           ("scan", _SCAN, (*_SCAN, "--exponent", "2")),
                           ("anharmonic", _ANH, (*_ANH, "--exponent", "2"))],
    ("trap", "separation_in_x0"): [
        ("modes", (), ("--separation-in-x0", "400")),
        ("conditions", (), ("--separation-in-x0", "400")),
        ("gate", _HOT, (*_HOT, "--separation-in-x0", "400")),
        ("scan", _HOT_SCAN, (*_HOT_SCAN, "--separation-in-x0", "400")),
        ("anharmonic", _ANH, (*_ANH, "--separation-in-x0", "400"))],
    ("gate", "eta"): [("modes", (), ("--eta", "3")),
                      ("separation", _SEP, (*_SEP, "--eta", "3")),
                      ("conditions", (), ("--eta", "3")),
                      ("gate", _HOT, (*_HOT, "--eta", "3"))],
    ("gate", "n_bar_c"): [("modes", (), ("--n-bar-c", "1")),
                          ("anharmonic", _ANH, (*_ANH, "--n-bar-c", "1")),
                          ("conditions", (), ("--n-bar-c", "1")),
                          ("gate", (), _HOT)],
    ("gate", "rabi_cycles"): [("conditions", (), ("--rabi-cycles", "5")),
                              ("gate", _HOT, (*_HOT, "--rabi-cycles", "5")),
                              ("scan", _SCAN, (*_SCAN, "--rabi-cycles", "5"))],
    ("gate", "dims"): [("separation", (*_SEP, "--dims", "12,12"), (*_SEP, "--dims", "14,14")),
                       ("anharmonic", _ANH, (*_ANH, "--dims", "10,8"))],
    ("scan", "etas"): [("scan", _SCAN, (*_SCAN, "--etas", "3"))],
    ("scan", "n_bars"): [("scan", _SCAN, (*_SCAN, "--n-bars", "0.5"))],
    ("anharmonic", "order"): [("anharmonic", _ANH, (*_ANH, "--order", "0")),
                              ("gate", _HOT, (*_HOT, "--order", "0")),
                              ("scan", _HOT_SCAN, (*_HOT_SCAN, "--order", "0"))],
    ("separation", "points"): [("separation", _SEP, (*_SEP, "--points", "5"))],
    ("output", "precision"): [("modes", (), ("--precision", "6")),
                              ("separation", _SEP, (*_SEP, "--precision", "6")),
                              ("conditions", (), ("--precision", "6")),
                              ("gate", _HOT, (*_HOT, "--precision", "6")),
                              ("scan", _SCAN, (*_SCAN, "--precision", "6")),
                              ("anharmonic", _ANH, (*_ANH, "--precision", "6"))],
}


def test_data_cases_cover_every_setting():
    """A setting joins _DATA_CASES once per subcommand that reads it, so each
    reader has to show that the setting moves one of its figures."""
    readers = {(setting, command) for setting, commands in cli._READERS.items()
               for command in commands if setting != ("output", "path")}
    cases = [(setting, case[0]) for setting, cases in _DATA_CASES.items() for case in cases]
    assert sorted(cases) == sorted(readers)


# a number in output, not the digit of a name such as x0
_NUMBER = re.compile(r"(?<![\w.])[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?(?![\w.])")


def _data(capsys, command, argv):
    """The output of command but its config hash, as (its text with every
    number blanked, its numbers)."""
    rc, out, err = run(capsys, command, *argv)
    assert rc == 0, (command, argv, err)
    text = "\n".join(ln for ln in out.splitlines()
                     if "config-hash" not in ln and "config_hash" not in ln)
    return _NUMBER.sub("#", text), [float(v) for v in _NUMBER.findall(text)]


@pytest.mark.parametrize("setting, case", [
    pytest.param(setting, case, id=".".join(setting) + (f"-{case[0]}" if i else ""))
    for setting, cases in sorted(_DATA_CASES.items()) for i, case in enumerate(cases)])
def test_setting_changes_the_data_of_a_reader(capsys, setting, case):
    """A setting that a subcommand reads and hashes but that moves none of
    its data is dead weight: the hash aside, a word of the output must
    change, or a number by more than 1e-9 relative and 1e-12 absolute.
    Roundoff moves numbers less, and so does the sign of the d_numeric
    of separation at t_g, which is zero but for roundoff."""
    command, base, changed = case
    assert command in cli._READERS[setting]
    (words, numbers), (words_changed, numbers_changed) = (
        _data(capsys, command, argv) for argv in (base, changed))
    assert words != words_changed or any(
        not math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)
        for a, b in zip(numbers, numbers_changed))


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

    args = ("scan", "--etas", "2", "--n-bars", "0", "--order", "0")
    out = tmp_path / "grid.csv"
    assert run(capsys, *args, "--output", str(out))[0] == 0
    first = out.read_bytes()
    ini = tmp_path / "dims.ini"
    ini.write_text("[gate]\ndims = 12,10\n")  # read by separation and anharmonic only
    calls = []
    monkeypatch.setattr(analysis, "_channel_figures",
                        lambda spec, points, **kw: calls.extend(points))
    rc, _, _ = run(capsys, *args, "--config", str(ini), "--output", str(out),
                   "--skip-existing")
    assert rc == 0
    assert calls == []  # every row reused
    assert out.read_bytes() == first


def test_scan_resumes_after_interrupt(capsys, tmp_path, monkeypatch):
    """Rows are computed two to a chunk here: an interrupt inside the second
    chunk keeps the first chunk's rows in the .part file, and
    --skip-existing computes only the rest."""
    from hotgate import analysis

    args = ("scan", "--etas", "1.5,2", "--n-bars", "0,0.4")
    whole = tmp_path / "whole.csv"
    assert run(capsys, *args, "--output", str(whole))[0] == 0
    real, calls = analysis._channel_figures, []

    def second_chunk_interrupts(spec, points, **kw):
        calls.extend(points)
        if len(calls) > 2:
            raise KeyboardInterrupt
        return real(spec, points, **kw)

    monkeypatch.setattr(analysis, "_SCAN_CHUNK", 2)
    monkeypatch.setattr(analysis, "_channel_figures", second_chunk_interrupts)
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


@pytest.mark.parametrize("grid", [("--etas", "2", "--n-bars", "1e300"), ("--etas", "1e300")],
                         ids=" ".join)
def test_scan_point_beyond_double_range_exits_1(capsys, grid):
    """A config error, as for gate --n-bar-c 1e300, not a grid of failed
    rows; only the CSV header is out by then."""
    rc, out, err = run(capsys, "scan", *grid)
    assert rc == 1
    assert err.startswith("hotgate: config error: ") and err.count("\n") == 1
    assert "scan point eta=" in err
    assert [ln for ln in out.splitlines() if not ln.startswith("#")] == [
        "eta,n_bar_c,fidelity,purity,f_cor"]


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
    """Order 0 is the empty expansion: both routes give 1 at the default
    dims (24, 19), and the JSON carries the keys of any other order."""
    rc, out, _ = run(capsys, "anharmonic", "--order", "0", "--n-bar-c", "1")
    assert rc == 0
    doc = json.loads(out)
    assert doc["f_cor_perturbative"] == 1.0
    assert doc["f_cor_exact"] == 1.0
    assert doc["delta"] == 0.0
    assert doc["dims"] == [24, 19]
    assert doc["order"] == 0
    rc, out, _ = run(capsys, "anharmonic", *_ANH)
    assert rc == 0
    assert set(doc) == set(json.loads(out)) == {
        "command", "config_hash", "f_cor_perturbative", "f_cor_exact", "delta", "mean_phase",
        "phase_variance", "dims", "order", "n_bar_c"}


def test_anharmonic_compares_routes(capsys):
    rc, out, _ = run(capsys, "anharmonic", "--n-bar-c", "1", "--dims", "20,16",
                     "--precision", "17")
    assert rc == 0
    doc = json.loads(out)
    assert 0.999 < doc["f_cor_perturbative"] <= 1.0
    assert doc["delta"] < 1e-6
    # a difference of two figures near 1: below 1e-15 it is roundoff
    assert doc["delta"] == round(abs(doc["f_cor_perturbative"] - doc["f_cor_exact"]), 15)
    # at order 3 the resonant terms cancel their conjugates: <W> is zero
    assert doc["mean_phase"] == 0.0


def test_anharmonic_reads_the_gate_temperature_from_ini(capsys, tmp_path):
    """[gate] n_bar_c is anharmonic's temperature too: at its default 0 the
    pre_kick figures sit at 1, and an INI n_bar_c = 1 moves both."""
    rc, out, _ = run(capsys, "anharmonic", "--dims", "12,10")
    assert rc == 0
    cold = json.loads(out)
    assert cold["n_bar_c"] == 0.0
    ini = tmp_path / "warm.ini"
    ini.write_text("[gate]\nn_bar_c = 1\n")
    rc, out, _ = run(capsys, "anharmonic", "--config", str(ini), "--dims", "12,10")
    assert rc == 0
    warm = json.loads(out)
    assert warm["n_bar_c"] == 1.0
    assert warm["f_cor_perturbative"] < cold["f_cor_perturbative"]
    assert warm["f_cor_exact"] < cold["f_cor_exact"]


def test_anharmonic_prints_the_library_figures(capsys):
    """--n-bar-c and --dims are the n_bar_c and dims of the zero-kick basis
    both routes run on."""
    from hotgate import analysis, trap_model

    spec = trap_model.TrapSpec.normalized()
    basis = trap_model.build_mode_basis(spec, eta=0.0, n_bar_c=1.0, dims=(24, 19))
    expansion = trap_model.anharmonic_expansion(spec)
    rep = analysis.anharmonic_fidelity(basis, expansion, n_bar_c=1.0)
    exact = analysis.exact_anharmonic_fidelity(basis, expansion, n_bar_c=1.0)
    rc, out, _ = run(capsys, "anharmonic", "--n-bar-c", "1", "--dims", "24,19",
                     "--precision", "17")
    assert rc == 0
    doc = json.loads(out)
    assert (doc["f_cor_perturbative"], doc["f_cor_exact"]) == (rep.f_cor, exact)
    assert doc["phase_variance"] == rep.variance
    assert (doc["dims"], doc["n_bar_c"]) == ([24, 19], 1.0)


def test_anharmonic_exact_check_over_budget_exits_1_at_once(capsys, monkeypatch):
    """The exact check's largest block would need 1.9 TB here: one config-error
    line, and neither route allocates (the exact check runs first)."""
    import tracemalloc

    from hotgate import analysis

    def refuse(*args, **kwargs):
        raise AssertionError("a Hamiltonian block was assembled above the memory budget")

    monkeypatch.setattr(analysis, "_hamiltonian_blocks", refuse)
    tracemalloc.start()
    try:
        rc, out, err = run(capsys, "anharmonic", "--n-bar-c", "164", "--dims", "907,474")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (rc, out) == (1, "")
    assert err.startswith("hotgate: config error: the exact F_cor check at dims (907, 474)")
    assert "budget" in err and err.count("\n") == 1
    assert peak < 32e6


@pytest.mark.parametrize("n_bar_c, dims", [(3.0, [37, 28]), (10.0, [80, 54])])
def test_anharmonic_pre_kick_default_is_the_gate_f_cor(capsys, monkeypatch, n_bar_c, dims):
    """Off the ratio, the gate's F_cor and anharmonic's pre_kick default both
    take the zero-kick basis of the trap, sized by its own stretch
    occupation."""
    from hotgate import analysis, trap_model

    spec = trap_model.TrapSpec.normalized(exponent=2.0, lamb_dicke=0.45)
    basis = trap_model.build_mode_basis(spec, eta=0.0, n_bar_c=n_bar_c)
    assert list(basis.dims) == dims
    f_cor = analysis.anharmonic_fidelity(basis, trap_model.anharmonic_expansion(spec),
                                         n_bar_c=n_bar_c).f_cor
    assert analysis.gate_report(spec, 7.0, n_bar_c).f_cor == f_cor
    # the exact cross-check is not under test here, and takes 4 s at n_bar_c 10
    monkeypatch.setattr(analysis, "exact_anharmonic_fidelity", lambda *a, **kw: 1.0)
    rc, out, _ = run(capsys, "anharmonic", "--exponent", "2", "--n-bar-c", str(n_bar_c),
                     "--precision", "17")
    assert rc == 0
    doc = json.loads(out)
    assert doc["dims"] == dims
    assert doc["f_cor_perturbative"] == f_cor


# --- start-up ---------------------------------------------------------------


def test_import_leaves_scipy_unimported():
    # scipy is a test oracle only; scipy.optimize was most of the cold start
    src = str(Path(cli.__file__).resolve().parents[1])
    code = "import sys, hotgate, hotgate.cli; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "False"


def test_python_dash_m_runs_the_cli():
    src = str(Path(cli.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-m", "hotgate", "modes"], capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": src})
    assert out.returncode == 0, out.stderr
    assert "commensurate=true" in out.stdout


# --- README -----------------------------------------------------------------

_README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_examples_run(capsys, tmp_path, monkeypatch):
    """Each `hotgate ...` line in README's fenced blocks but the `hotgate
    <subcommand> [flags]` template exits 0, so the docs name no flag the
    command has dropped."""
    examples, fenced = [], False
    for line in _README.read_text().splitlines():
        if line.startswith("```"):
            fenced = not fenced
        elif fenced and line.startswith("hotgate ") and "<subcommand>" not in line:
            examples.append(shlex.split(line)[1:])
    assert examples
    monkeypatch.setenv("HOTGATE_OUTPUT_DIR", str(tmp_path))
    for argv in examples:
        rc, _, err = run(capsys, *argv)
        assert rc == 0, (argv, err)


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
    assert all(command in out for command in
               ("modes", "separation", "conditions", "gate", "scan", "anharmonic"))


# the one flag of a subcommand that is no setting
_EXTRA_FLAGS = {"modes": "--solve-ratio", "gate": "--check-convergence",
                "scan": "--skip-existing"}


@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_subcommand_takes_exactly_its_flags(capsys, command):
    """--config, --stamp, the flag of each setting the subcommand reads, and
    its extra flag: --help names exactly these and exits 0, and every other
    setting flag and every other extra flag exits 1."""
    flags = {row[4]: row[5] for row in cli._SETTINGS}
    own = {flag for flag, readers in flags.items() if command in readers}
    own |= {"--config", "--stamp"} | {_EXTRA_FLAGS.get(command)} - {None}
    rc, out, _ = run(capsys, command, "--help")
    assert rc == 0
    assert set(re.findall(r"--[a-z][a-z0-9-]*", out)) == own | {"--help"}
    for flag in (set(flags) | set(_EXTRA_FLAGS.values())) - own:
        rc, out, err = run(capsys, command, flag, "1")
        assert rc == 1, flag
        assert out == "" and "unrecognized arguments" in err, flag


def test_main_builds_only_the_parser_it_runs(capsys, monkeypatch):
    """The parser of the subcommand in argv[0] is built on the first call
    that names it, and no other subcommand's parser is; a later call builds
    none: a count, so that building a parser again shows whatever the
    timing."""
    built = []
    init = cli._Parser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counting_init)
    cli._command_parser.cache_clear()
    for argv in (("scan", "--etas", "2", "--n-bars", "0", "--order", "0"),
                 ("gate", "--eta", "1.5", "--order", "0")):
        built.clear()
        assert run(capsys, *argv)[0] == 0
        assert built == [f"hotgate {argv[0]}"]
        assert run(capsys, *argv)[0] == 0
        assert built == [f"hotgate {argv[0]}"]


def _float_flags(command):
    """The flags of command that take a number, or a list of numbers."""
    flags = [flag for _, key, _, kind, flag, commands, _, _ in cli._SETTINGS
             if command in commands and (kind is float or key in ("etas", "n_bars"))]
    extra = cli._COMMANDS[command][2]
    return flags + ([extra[0]] if extra and extra[1].get("type") is float else [])


_EXTREMES = [(_argv(command), flag, value) for command in cli._COMMANDS
             for flag in _float_flags(command)
             for value in ("5e-324", "1e-300", "1e300", "1.7976931348623157e308")]


@pytest.mark.parametrize("argv,flag,value", _EXTREMES + _D_UNDERFLOWS, ids=_command_id)
def test_every_float_flag_at_an_extreme_exits_with_a_code(capsys, argv, flag, value):
    """Each float flag of each subcommand at the least double, 1e-300, 1e300
    and the largest double, and the kicks whose D underflows: main returns an exit code, 0
    to 3, with no exception and no warning (the suite turns any into a
    failure), and a refusal is one stderr line."""
    rc, _, err = run(capsys, *argv, flag, value)
    assert rc in (0, 1, 2, 3)
    if rc in (1, 2):
        assert err.startswith("hotgate: ") and err.count("\n") == 1


def test_precision_flag_shapes_output(capsys):
    _, wide, _ = run(capsys, "conditions", "--precision", "12")
    _, narrow, _ = run(capsys, "conditions", "--precision", "4")
    w = json.loads(wide)["omega0"]
    n = json.loads(narrow)["omega0"]
    assert w != n
    assert abs(w - n) / w < 1e-3
