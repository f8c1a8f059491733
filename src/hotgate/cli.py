"""Command-line front end.

Subcommands: modes, separation, conditions, gate, scan, anharmonic.  Each
resolves its settings from built-in defaults, then an optional INI config
file (--config), then command-line flags, in that order of precedence.
Outputs are deterministic: data files never carry timestamps (--stamp opts
in, metadata only), floats print at a fixed significant-digit count, and
every CSV/JSON records a hash of the resolved settings that produced it.

Exit codes: 0 success, 1 bad usage or config, 2 physically infeasible
request, 3 numerical non-convergence.
"""

from __future__ import annotations

import argparse
import configparser
import datetime
import hashlib
import json
import math
import os
import sys

import numpy as np

from . import analysis, fock_core, gate_protocol, trap_model
from .errors import ConfigError, InfeasibleRatioError, NoEquilibriumError

# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

_DEFAULTS = {
    "trap": {
        "exponent": 5.0 / 3.0,
        "lamb_dicke": 0.45,
        "nu_c": 1.0,
        "mass": 1.0,
        "separation_in_x0": 820.0,
        "stiffness": None,
        "coulomb": None,
    },
    "gate": {
        "eta": None,          # defaults to 7.0 if neither eta nor eta_single given
        "eta_single": None,
        "n_pulses": None,
        "n_bar_c": 0.0,
        "rabi_cycles": 3,
        "margin": 3.0,
        "t1_over_tg": 0.01,
        "dims": None,
        "flip": "gaussian",
        "mass_cutoff": 1e-10,
        "omega0_scale": 1.0,
        "frame_phase": "auto",
        "target": "gate",
    },
    "scan": {
        "etas": "2,4,7",
        "n_bars": "0,0.5,1",
        "jobs": 1,
        "anharmonic_order": 3,
    },
    "anharmonic": {
        "order": 3,
        "scale": 1.0,
        "n_bar_c": 1.0,
        "state_mode": "pre_kick",
        "dims": None,
    },
    "separation": {
        "points": 64,
        "check_tol": 1e-9,
    },
    "output": {
        "path": None,
        "precision": 12,
    },
}

_COERCE = {
    ("trap", "exponent"): float, ("trap", "lamb_dicke"): float,
    ("trap", "nu_c"): float, ("trap", "mass"): float,
    ("trap", "separation_in_x0"): float, ("trap", "stiffness"): float,
    ("trap", "coulomb"): float,
    ("gate", "eta"): float, ("gate", "eta_single"): float,
    ("gate", "n_pulses"): int, ("gate", "n_bar_c"): float,
    ("gate", "rabi_cycles"): int, ("gate", "margin"): float,
    ("gate", "t1_over_tg"): float, ("gate", "dims"): str,
    ("gate", "flip"): str, ("gate", "mass_cutoff"): float,
    ("gate", "omega0_scale"): float, ("gate", "frame_phase"): str,
    ("gate", "target"): str,
    ("scan", "etas"): str, ("scan", "n_bars"): str,
    ("scan", "jobs"): int, ("scan", "anharmonic_order"): int,
    ("anharmonic", "order"): int, ("anharmonic", "scale"): float,
    ("anharmonic", "n_bar_c"): float, ("anharmonic", "state_mode"): str,
    ("anharmonic", "dims"): str,
    ("separation", "points"): int, ("separation", "check_tol"): float,
    ("output", "path"): str, ("output", "precision"): int,
}

# settings that steer execution or metadata but not the data itself
_HASH_EXCLUDE = {("scan", "jobs"), ("output", "path")}


def _coerce(section: str, key: str, raw: str):
    caster = _COERCE[(section, key)]
    try:
        return caster(raw)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key} = {raw!r}: {exc}") from None


def load_config(path: str | None) -> dict:
    """Defaults overlaid with the INI file at path (if any); unknown keys fail."""
    cfg = {s: dict(v) for s, v in _DEFAULTS.items()}
    if path is None:
        return cfg
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ConfigError(f"config file not found: {path}")
    for section in parser.sections():
        if section not in cfg:
            raise ConfigError(f"unknown config section [{section}]")
        for key, raw in parser.items(section):
            if key not in cfg[section]:
                raise ConfigError(f"unknown config key [{section}] {key}")
            cfg[section][key] = _coerce(section, key, raw)
    return cfg


def _overlay_flags(cfg: dict, args: argparse.Namespace, mapping: dict) -> None:
    for attr, (section, key) in mapping.items():
        value = getattr(args, attr, None)
        if value is not None:
            cfg[section][key] = value


def config_hash(cfg: dict, command: str) -> str:
    parts = [f"command={command}"]
    for section in sorted(cfg):
        for key in sorted(cfg[section]):
            if (section, key) in _HASH_EXCLUDE:
                continue
            parts.append(f"{section}.{key}={cfg[section][key]!r}")
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()


def _parse_dims(raw) -> tuple[int, int] | None:
    if raw in (None, "", "auto"):
        return None
    try:
        a, b = (int(tok) for tok in str(raw).split(","))
    except ValueError:
        raise ConfigError(f"dims must be two comma-separated integers, got {raw!r}") from None
    if a < 2 or b < 2:
        raise ConfigError("dims must be at least 2 per mode")
    return (a, b)


def _parse_grid(raw, name: str) -> list[float]:
    try:
        values = [float(tok) for tok in str(raw).split(",") if tok.strip() != ""]
    except ValueError:
        raise ConfigError(f"{name} must be a comma-separated number list, got {raw!r}") from None
    if not values:
        raise ConfigError(f"{name} grid is empty")
    return values


def build_trap(cfg: dict) -> trap_model.TrapSpec:
    t = cfg["trap"]
    explicit = t["stiffness"] is not None or t["coulomb"] is not None
    if explicit:
        if t["stiffness"] is None or t["coulomb"] is None:
            raise ConfigError("explicit traps need both stiffness and coulomb")
        return trap_model.TrapSpec(
            exponent=t["exponent"], stiffness=t["stiffness"],
            coulomb=t["coulomb"], mass=t["mass"], lamb_dicke=t["lamb_dicke"])
    return trap_model.TrapSpec.normalized(
        exponent=t["exponent"], lamb_dicke=t["lamb_dicke"], nu_c=t["nu_c"],
        mass=t["mass"], separation_in_x0=t["separation_in_x0"])


def resolve_eta(cfg: dict) -> float:
    g = cfg["gate"]
    if g["eta"] is not None and g["eta_single"] is not None:
        raise ConfigError("give either eta or eta_single (+ n_pulses), not both")
    if g["eta_single"] is not None:
        if g["n_pulses"] is None:
            raise ConfigError("eta_single needs n_pulses")
        return gate_protocol.pulse_train(g["eta_single"], g["n_pulses"])
    if g["n_pulses"] is not None:
        raise ConfigError("n_pulses needs eta_single")
    return 7.0 if g["eta"] is None else g["eta"]


def _frame_phase(cfg: dict) -> float | None:
    raw = cfg["gate"]["frame_phase"]
    if raw == "auto":
        return None
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"frame_phase must be 'auto' or a number, got {raw!r}") from None


def _choice(cfg, section, key, allowed):
    value = cfg[section][key]
    if value not in allowed:
        raise ConfigError(f"[{section}] {key} must be one of {sorted(allowed)}, got {value!r}")
    return value


# ---------------------------------------------------------------------------
# output plumbing
# ---------------------------------------------------------------------------


def _resolve_path(path: str | None) -> str | None:
    if path is None:
        return None
    out_dir = os.environ.get("HOTGATE_OUTPUT_DIR")
    if out_dir and not os.path.isabs(path):
        return os.path.join(out_dir, path)
    return path


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _fmt(value, precision: int) -> str:
    if value is None:
        return "nan"
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"%.{precision}g" % float(value)


def _quantize(obj, precision: int):
    """Round floats for stable JSON; nan and inf become null."""
    if isinstance(obj, dict):
        return {k: _quantize(v, precision) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_quantize(v, precision) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        f = float(obj)
        if math.isnan(f) or math.isinf(f):
            return None
        return float(f"%.{precision}g" % f)
    return obj


def _header_lines(command: str, cfg: dict, notes: list[str], stamp: bool) -> list[str]:
    lines = [f"# hotgate {command}",
             f"# config-hash: sha256:{config_hash(cfg, command)}"]
    lines += [f"# {note}" for note in notes]
    if stamp:
        lines.append("# generated: " + datetime.datetime.now(datetime.timezone.utc)
                     .strftime("%Y-%m-%dT%H:%M:%SZ"))
    return lines


def _csv_text(command, cfg, columns, rows, notes, stamp, precision) -> str:
    lines = _header_lines(command, cfg, notes, stamp)
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt(v, precision) for v in row))
    return "\n".join(lines) + "\n"


def _kv_text(command, cfg, pairs, notes, stamp, precision) -> str:
    lines = _header_lines(command, cfg, notes, stamp)
    lines += [f"{k}={_fmt(v, precision)}" for k, v in pairs]
    return "\n".join(lines) + "\n"


def _json_text(command, cfg, payload: dict, stamp, precision) -> str:
    body = {"command": command,
            "config_hash": "sha256:" + config_hash(cfg, command)}
    if stamp:
        body["generated"] = (datetime.datetime.now(datetime.timezone.utc)
                             .strftime("%Y-%m-%dT%H:%M:%SZ"))
    body.update(payload)
    return json.dumps(_quantize(body, precision), indent=2, sort_keys=True) + "\n"


_FIDELITY_NOTE = ("fidelity: average over pure input states, "
                  "(4*F_ent + 1)/5 against the conditional-flip target")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_modes(cfg: dict, args: argparse.Namespace) -> int:
    if args.solve_ratio is not None:
        exponent = trap_model.solve_exponent_for_ratio(args.solve_ratio)
        cfg["trap"]["exponent"] = exponent
    spec = build_trap(cfg)
    x_e = trap_model.equilibrium_separation(spec)
    nu_c, nu_r = trap_model.mode_frequencies(spec, x_e)
    basis = trap_model.build_mode_basis(spec, eta=resolve_eta(cfg),
                                        n_bar_c=cfg["gate"]["n_bar_c"])
    pairs = [
        ("exponent", spec.exponent),
        ("x_e", x_e),
        ("x_e_over_x0", x_e / basis.x0),
        ("nu_c", nu_c),
        ("nu_r", nu_r),
        ("ratio", nu_r / nu_c),
        ("commensurate", basis.commensurate),
        ("x0", basis.x0),
        ("width_c", basis.width_c),
        ("width_r", basis.width_r),
        ("eta", basis.eta),
        ("eta_c", basis.eta_c),
        ("eta_r", basis.eta_r),
        ("gate_time", basis.gate_time),
        ("flip_time", basis.flip_time),
        ("eta_lower_bound_at_nbar", gate_protocol.eta_lower_bound(cfg["gate"]["n_bar_c"])),
    ]
    if args.solve_ratio is not None:
        pairs.insert(0, ("target_ratio", args.solve_ratio))
    notes = ["mode frequencies from the static curvature at equilibrium",
             "lengths share the unit of x0 = 1/sqrt(2*m*nu_c)"]
    text = _kv_text("modes", cfg, pairs, notes, args.stamp, cfg["output"]["precision"])
    _emit(text, _resolve_path(cfg["output"]["path"]))
    return 0


def cmd_separation(cfg: dict, args: argparse.Namespace) -> int:
    spec = build_trap(cfg)
    basis = trap_model.build_mode_basis(
        spec, eta=resolve_eta(cfg), n_bar_c=0.0,
        dims=_parse_dims(cfg["gate"]["dims"]))
    curve = analysis.separation_scan(
        basis, n_points=cfg["separation"]["points"],
        check_tol=cfg["separation"]["check_tol"])
    notes = [f"dims: {curve.dims[0]},{curve.dims[1]} (c,r), numeric column at doubled dims",
             "d = distance between the kicked branches of ion 1",
             "columns: t,d_analytic,d_numeric"]
    rows = list(zip(curve.times, curve.analytic, curve.numeric))
    text = _csv_text("separation", cfg, ["t", "d_analytic", "d_numeric"],
                     rows, notes, args.stamp, cfg["output"]["precision"])
    _emit(text, _resolve_path(cfg["output"]["path"]))
    if not curve.converged:
        sys.stderr.write("separation: numeric route failed the doubled-"
                         "truncation check\n")
        return 3
    return 0


def cmd_conditions(cfg: dict, args: argparse.Namespace) -> int:
    spec = build_trap(cfg)
    basis = trap_model.build_mode_basis(spec, eta=resolve_eta(cfg),
                                        n_bar_c=cfg["gate"]["n_bar_c"])
    _, report = gate_protocol.condition_solver(
        basis, n_bar_c=cfg["gate"]["n_bar_c"],
        rabi_cycles=cfg["gate"]["rabi_cycles"], margin=cfg["gate"]["margin"],
        t1_over_tg=cfg["gate"]["t1_over_tg"])
    text = _json_text("conditions", cfg, report.to_dict(), args.stamp,
                      cfg["output"]["precision"])
    _emit(text, _resolve_path(cfg["output"]["path"]))
    return 0


def _target_matrix(name: str) -> np.ndarray:
    if name == "gate":
        return gate_protocol.ideal_gate()
    return np.eye(4, dtype=complex)


def cmd_gate(cfg: dict, args: argparse.Namespace) -> int:
    spec = build_trap(cfg)
    flip = _choice(cfg, "gate", "flip", {"gaussian", "idealized"})
    target_name = _choice(cfg, "gate", "target", {"gate", "identity"})
    order = cfg["anharmonic"]["order"] if args.anharmonic else None
    kwargs = dict(
        rabi_cycles=cfg["gate"]["rabi_cycles"], margin=cfg["gate"]["margin"],
        flip_mode=flip, anharmonic_order=order,
        dims=_parse_dims(cfg["gate"]["dims"]),
        mass_cutoff=cfg["gate"]["mass_cutoff"],
        omega0_scale=cfg["gate"]["omega0_scale"],
        frame_phase=_frame_phase(cfg),
        target=_target_matrix(target_name),
    )
    eta = resolve_eta(cfg)
    report = analysis.gate_report(spec, eta, cfg["gate"]["n_bar_c"], **kwargs)
    payload = report.to_dict()
    payload["target"] = target_name
    payload["note"] = _FIDELITY_NOTE if target_name == "gate" else (
        "fidelity measured against the identity map")
    text = _json_text("gate", cfg, payload, args.stamp, cfg["output"]["precision"])
    _emit(text, _resolve_path(cfg["output"]["path"]))
    if args.check_convergence:
        bumped = tuple(d + 8 for d in report.dims)
        recheck = analysis.gate_report(
            spec, eta, cfg["gate"]["n_bar_c"],
            **{**kwargs, "dims": bumped, "anharmonic_order": None})
        drift = abs(recheck.fidelity - report.fidelity)
        if drift > 1e-6:
            sys.stderr.write(f"gate: fidelity moved {drift:.3e} under a "
                             "truncation bump; increase dims\n")
            return 3
    return 0


def _read_existing_rows(path: str) -> dict:
    """Map (eta, n_bar_c) formatted strings to finished CSV rows.

    A failed point is written with nan figures; such rows are left out so
    that a resumed scan computes them again.
    """
    existing = {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = [ln.rstrip("\n") for ln in fh if not ln.startswith("#")]
    except OSError:
        return existing
    for line in lines[1:]:  # skip the column header
        cells = line.split(",")
        if len(cells) == 5 and cells[2] != "nan":
            existing[(cells[0], cells[1])] = cells
    return existing


def cmd_scan(cfg: dict, args: argparse.Namespace) -> int:
    spec = build_trap(cfg)
    etas = _parse_grid(cfg["scan"]["etas"], "etas")
    n_bars = _parse_grid(cfg["scan"]["n_bars"], "n_bars")
    flip = _choice(cfg, "gate", "flip", {"gaussian", "idealized"})
    precision = cfg["output"]["precision"]
    path = _resolve_path(cfg["output"]["path"])
    existing = {}
    if args.skip_existing:
        if path is None:
            raise ConfigError("--skip-existing needs an output file path")
        existing = _read_existing_rows(path)
    todo = []
    for eta in etas:
        for nb in n_bars:
            key = (_fmt(eta, precision), _fmt(nb, precision))
            if key not in existing:
                todo.append((eta, nb))
    report_kw = dict(
        rabi_cycles=cfg["gate"]["rabi_cycles"], margin=cfg["gate"]["margin"],
        flip_mode=flip, anharmonic_order=cfg["scan"]["anharmonic_order"],
        mass_cutoff=cfg["gate"]["mass_cutoff"])
    computed = {}
    if todo:
        results = analysis.scan(spec, todo, jobs=cfg["scan"]["jobs"], **report_kw)
        for row in results:
            key = (_fmt(row["eta"], precision), _fmt(row["n_bar_c"], precision))
            computed[key] = row
            if row["error"]:
                sys.stderr.write(f"scan: eta={key[0]} n_bar_c={key[1]}: "
                                 f"{row['error']}\n")
    out_rows = []
    failures = 0
    for eta in etas:
        for nb in n_bars:
            key = (_fmt(eta, precision), _fmt(nb, precision))
            if key in existing:
                out_rows.append(existing[key])
                continue
            row = computed[key]
            if row["error"]:
                failures += 1
            out_rows.append([key[0], key[1], _fmt(row["fidelity"], precision),
                             _fmt(row["purity"], precision),
                             _fmt(row["f_cor"], precision)])
    notes = [_FIDELITY_NOTE,
             "purity: mean Tr[rho_out^2] over the 36 axis product inputs",
             "f_cor: perturbative anharmonic fidelity at matching n_bar_c",
             "columns: eta,n_bar_c,fidelity,purity,f_cor"]
    text = _csv_text("scan", cfg, ["eta", "n_bar_c", "fidelity", "purity", "f_cor"],
                     out_rows, notes, args.stamp, precision)
    _emit(text, path)
    if todo and failures == len(todo):
        sys.stderr.write("scan: every computed row failed\n")
        return 3
    return 0


def cmd_anharmonic(cfg: dict, args: argparse.Namespace) -> int:
    spec = build_trap(cfg)
    a = cfg["anharmonic"]
    state_mode = _choice(cfg, "anharmonic", "state_mode", {"pre_kick", "post_kick"})
    if a["order"] == 0:
        payload = {"f_cor_perturbative": 1.0, "f_cor_exact": 1.0, "delta": 0.0,
                   "order": 0, "converged": True}
        _emit(_json_text("anharmonic", cfg, payload, args.stamp,
                         cfg["output"]["precision"]),
              _resolve_path(cfg["output"]["path"]))
        return 0
    n_bar_c = a["n_bar_c"]
    n_bar_r = trap_model.relative_occupation(n_bar_c)
    eta = resolve_eta(cfg)
    dims = _parse_dims(a["dims"])
    if dims is None:
        if state_mode == "post_kick":
            basis = trap_model.build_mode_basis(spec, eta=eta, n_bar_c=n_bar_c)
        else:
            dims = (fock_core.default_fock_dim(n_bar_c, 0.0),
                    fock_core.default_fock_dim(n_bar_r, 0.0))
            basis = trap_model.build_mode_basis(spec, eta=eta, n_bar_c=n_bar_c,
                                                dims=dims)
    else:
        basis = trap_model.build_mode_basis(spec, eta=eta, n_bar_c=n_bar_c,
                                            dims=dims)
    expansion = trap_model.anharmonic_expansion(spec, order=a["order"])
    if a["scale"] != 1.0:
        expansion = expansion.scaled(a["scale"])
    rep = analysis.anharmonic_fidelity(
        basis, expansion, n_bar_c=n_bar_c, state_mode=state_mode)
    f_exact = analysis.exact_anharmonic_fidelity(
        basis, expansion, n_bar_c=n_bar_c, state_mode=state_mode)
    payload = rep.to_dict()
    payload.update({
        "f_cor_perturbative": rep.f_cor,
        "f_cor_exact": f_exact,
        "delta": abs(rep.f_cor - f_exact),
        "scale": a["scale"],
        "n_bar_c": n_bar_c,
    })
    del payload["f_cor"]
    _emit(_json_text("anharmonic", cfg, payload, args.stamp,
                     cfg["output"]["precision"]),
          _resolve_path(cfg["output"]["path"]))
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; 2 is taken, so route
    # through an exception and let main() return 1
    def error(self, message):
        raise _UsageError(message)


_TRAP_FLAGS = {
    "exponent": ("trap", "exponent"),
    "lamb_dicke": ("trap", "lamb_dicke"),
    "nu_c": ("trap", "nu_c"),
    "mass": ("trap", "mass"),
    "separation_in_x0": ("trap", "separation_in_x0"),
    "stiffness": ("trap", "stiffness"),
    "coulomb": ("trap", "coulomb"),
}

_GATE_FLAGS = {
    "eta": ("gate", "eta"),
    "eta_single": ("gate", "eta_single"),
    "n_pulses": ("gate", "n_pulses"),
    "n_bar_c": ("gate", "n_bar_c"),
    "rabi_cycles": ("gate", "rabi_cycles"),
    "margin": ("gate", "margin"),
    "t1_over_tg": ("gate", "t1_over_tg"),
    "dims": ("gate", "dims"),
    "flip": ("gate", "flip"),
    "mass_cutoff": ("gate", "mass_cutoff"),
    "omega0_scale": ("gate", "omega0_scale"),
    "frame_phase": ("gate", "frame_phase"),
    "target": ("gate", "target"),
}

_OUT_FLAGS = {"output": ("output", "path"), "precision": ("output", "precision")}


def _add_trap_flags(p):
    g = p.add_argument_group("trap")
    g.add_argument("--exponent", type=float, help="power of the confining wall")
    g.add_argument("--lamb-dicke", dest="lamb_dicke", type=float,
                   help="single-pulse kick strength of the trap spec")
    g.add_argument("--nu-c", dest="nu_c", type=float, help="target COM frequency")
    g.add_argument("--mass", type=float)
    g.add_argument("--separation-in-x0", dest="separation_in_x0", type=float,
                   help="equilibrium separation in ground-state widths")
    g.add_argument("--stiffness", type=float, help="explicit wall prefactor")
    g.add_argument("--coulomb", type=float, help="explicit repulsion constant")


def _add_gate_flags(p, *, scan=False):
    g = p.add_argument_group("gate")
    g.add_argument("--eta", type=float, help="effective kick strength")
    g.add_argument("--eta-single", dest="eta_single", type=float)
    g.add_argument("--n-pulses", dest="n_pulses", type=int)
    if not scan:
        g.add_argument("--n-bar-c", dest="n_bar_c", type=float,
                       help="thermal COM occupation")
    g.add_argument("--rabi-cycles", dest="rabi_cycles", type=int)
    g.add_argument("--margin", type=float)
    g.add_argument("--t1-over-tg", dest="t1_over_tg", type=float)
    g.add_argument("--dims", type=str, help="Fock truncation 'n_c,n_r'")
    g.add_argument("--flip", choices=["gaussian", "idealized"])
    g.add_argument("--idealized-flip", action="store_const", const="idealized",
                   dest="flip", help="shorthand for --flip idealized")
    g.add_argument("--mass-cutoff", dest="mass_cutoff", type=float)
    g.add_argument("--omega0-scale", dest="omega0_scale", type=float)
    g.add_argument("--frame-phase", dest="frame_phase", type=str,
                   help="'auto' or a phase in radians")
    g.add_argument("--target", choices=["gate", "identity"])


def _add_out_flags(p):
    p.add_argument("--config", type=str, help="INI settings file")
    p.add_argument("--output", type=str, help="write here instead of stdout")
    p.add_argument("--precision", type=int, help="significant digits in output")
    p.add_argument("--stamp", action="store_true",
                   help="add a generation timestamp to the metadata")


def build_parser() -> _Parser:
    parser = _Parser(prog="hotgate",
                     description="Two-ion conditional-flip gate simulator "
                                 "for thermally excited motion.")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("modes", help="equilibrium geometry and mode data")
    _add_trap_flags(p)
    _add_gate_flags(p)
    _add_out_flags(p)
    p.add_argument("--solve-ratio", dest="solve_ratio", type=float,
                   help="find the wall exponent giving this nu_r/nu_c")
    p.set_defaults(func=cmd_modes)

    p = sub.add_parser("separation", help="branch separation over one period")
    _add_trap_flags(p)
    _add_gate_flags(p)
    _add_out_flags(p)
    p.add_argument("--points", dest="sep_points", type=int,
                   help="sample count over [0, t_g]")
    p.add_argument("--check-tol", dest="sep_check_tol", type=float,
                   help="doubled-truncation agreement tolerance (in x0)")
    p.set_defaults(func=cmd_separation)

    p = sub.add_parser("conditions", help="addressing geometry and validity flags")
    _add_trap_flags(p)
    _add_gate_flags(p)
    _add_out_flags(p)
    p.set_defaults(func=cmd_conditions)

    p = sub.add_parser("gate", help="simulate one operating point")
    _add_trap_flags(p)
    _add_gate_flags(p)
    _add_out_flags(p)
    p.add_argument("--anharmonic", action="store_true",
                   help="include the perturbative anharmonic fidelity")
    p.add_argument("--check-convergence", action="store_true",
                   help="re-run with bumped truncation and compare")
    p.set_defaults(func=cmd_gate)

    p = sub.add_parser("scan", help="grid scan over eta and n_bar_c")
    _add_trap_flags(p)
    _add_gate_flags(p, scan=True)
    _add_out_flags(p)
    p.add_argument("--etas", type=str, help="comma-separated eta grid")
    p.add_argument("--n-bars", dest="n_bars", type=str,
                   help="comma-separated n_bar_c grid")
    p.add_argument("--jobs", type=int, help="parallel workers for scan rows")
    p.add_argument("--anharmonic-order", dest="anharmonic_order", type=int)
    p.add_argument("--skip-existing", action="store_true",
                   help="reuse finished rows from the output file")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("anharmonic", help="perturbative vs exact dephasing")
    _add_trap_flags(p)
    _add_gate_flags(p)
    _add_out_flags(p)
    p.add_argument("--order", type=int, help="expansion order (0 disables)")
    p.add_argument("--scale", type=float, help="coefficient scale factor")
    p.add_argument("--state-mode", dest="state_mode",
                   choices=["pre_kick", "post_kick"])
    p.add_argument("--anh-n-bar-c", dest="anh_n_bar_c", type=float,
                   help="thermal occupation for the dephasing average")
    p.add_argument("--anh-dims", dest="anh_dims", type=str)
    p.set_defaults(func=cmd_anharmonic)

    return parser


_EXTRA_FLAGS = {
    "sep_points": ("separation", "points"),
    "sep_check_tol": ("separation", "check_tol"),
    "etas": ("scan", "etas"),
    "n_bars": ("scan", "n_bars"),
    "jobs": ("scan", "jobs"),
    "anharmonic_order": ("scan", "anharmonic_order"),
    "order": ("anharmonic", "order"),
    "scale": ("anharmonic", "scale"),
    "state_mode": ("anharmonic", "state_mode"),
    "anh_n_bar_c": ("anharmonic", "n_bar_c"),
    "anh_dims": ("anharmonic", "dims"),
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        sys.stderr.write(f"hotgate: {exc}\n")
        return 1
    except SystemExit as exc:  # --help
        return 0 if not exc.code else 1
    try:
        cfg = load_config(getattr(args, "config", None))
        for mapping in (_TRAP_FLAGS, _GATE_FLAGS, _OUT_FLAGS, _EXTRA_FLAGS):
            _overlay_flags(cfg, args, mapping)
        return args.func(cfg, args)
    except ConfigError as exc:
        sys.stderr.write(f"hotgate: config error: {exc}\n")
        return 1
    except (InfeasibleRatioError, NoEquilibriumError) as exc:
        sys.stderr.write(f"hotgate: infeasible: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
