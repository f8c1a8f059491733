"""Command-line front end.

Subcommands: modes, separation, conditions, gate, scan, anharmonic.  Each
resolves its settings from built-in defaults, then an optional INI config
file (--config), then command-line flags, in that order of precedence.
Every setting is declared once, in _SETTINGS, which gives its default, its
INI type, its flag and the subcommands that read it; a subcommand's parser
takes only those flags and rejects the rest, while an INI file may set any
key.  Outputs are deterministic: data files never carry timestamps (--stamp
opts in, metadata only), floats print at a fixed significant-digit count,
and every CSV/JSON records a hash of the resolved settings its subcommand
reads.

Exit codes: 0 success, 1 bad usage or config, 2 physically infeasible
request, 3 numerical non-convergence.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import datetime
import hashlib
import json
import math
import os
import sys

import numpy as np

from . import analysis, gate_protocol, trap_model
from .errors import (
    ConfigError,
    InfeasibleRatioError,
    NoEquilibriumError,
    NonConvergenceError,
)

# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

_ALL = ("modes", "separation", "conditions", "gate", "scan", "anharmonic")
_ETA = ("modes", "separation", "conditions", "gate", "anharmonic")
_SCHEDULE = ("conditions", "gate", "scan")

# Every setting, declared once: (section, key, default, type or tuple of
# allowed values, flag, subcommands that read it, help).  An INI file may
# set any of them; a flag exists, and the config hash covers the setting,
# only where it is read.
_SETTINGS = (
    ("trap", "exponent", 5.0 / 3.0, float, "--exponent", _ALL,
     "power of the confining wall"),
    ("trap", "lamb_dicke", 0.45, float, "--lamb-dicke", _ALL,
     "single-pulse kick strength of the trap spec"),
    ("trap", "nu_c", 1.0, float, "--nu-c", _ALL, "target COM frequency"),
    ("trap", "mass", 1.0, float, "--mass", _ALL, None),
    ("trap", "separation_in_x0", 820.0, float, "--separation-in-x0", _ALL,
     "equilibrium separation in ground-state widths"),
    ("trap", "stiffness", None, float, "--stiffness", _ALL, "explicit wall prefactor"),
    ("trap", "coulomb", None, float, "--coulomb", _ALL, "explicit repulsion constant"),
    # eta defaults to 7.0 if neither eta nor eta_single is given
    ("gate", "eta", None, float, "--eta", _ETA, "effective kick strength"),
    ("gate", "eta_single", None, float, "--eta-single", _ETA, None),
    ("gate", "n_pulses", None, int, "--n-pulses", _ETA, None),
    ("gate", "n_bar_c", 0.0, float, "--n-bar-c", ("modes", "conditions", "gate"),
     "thermal COM occupation"),
    ("gate", "rabi_cycles", 3, int, "--rabi-cycles", _SCHEDULE, None),
    ("gate", "margin", 3.0, float, "--margin", _SCHEDULE, None),
    ("gate", "t1_over_tg", 0.01, float, "--t1-over-tg", ("conditions",), None),
    ("gate", "dims", None, str, "--dims", ("separation", "gate"),
     "Fock truncation 'n_c,n_r'"),
    ("gate", "flip", "gaussian", ("gaussian", "idealized"), "--flip", ("gate", "scan"),
     None),
    ("gate", "omega0_scale", 1.0, float, "--omega0-scale", ("gate",), None),
    ("gate", "frame_phase", "auto", str, "--frame-phase", ("gate",),
     "'auto' or a phase in radians"),
    ("gate", "target", "gate", ("gate", "identity"), "--target", ("gate",), None),
    ("scan", "etas", "2,4,7", str, "--etas", ("scan",), "comma-separated eta grid"),
    ("scan", "n_bars", "0,0.5,1", str, "--n-bars", ("scan",),
     "comma-separated n_bar_c grid"),
    ("scan", "anharmonic_order", 3, int, "--anharmonic-order", ("scan",), None),
    ("anharmonic", "order", 3, int, "--order", ("gate", "anharmonic"),
     "expansion order (0 disables)"),
    ("anharmonic", "scale", 1.0, float, "--scale", ("anharmonic",),
     "coefficient scale factor"),
    ("anharmonic", "n_bar_c", 1.0, float, "--anh-n-bar-c", ("anharmonic",),
     "thermal occupation for the dephasing average"),
    ("anharmonic", "state_mode", "pre_kick", ("pre_kick", "post_kick"), "--state-mode",
     ("anharmonic",), None),
    ("anharmonic", "dims", None, str, "--anh-dims", ("anharmonic",), None),
    ("separation", "points", 64, int, "--points", ("separation",),
     "sample count over [0, t_g]"),
    ("separation", "check_tol", 1e-9, float, "--check-tol", ("separation",),
     "doubled-truncation agreement tolerance (in x0)"),
    ("output", "path", None, str, "--output", _ALL, "write here instead of stdout"),
    ("output", "precision", 12, int, "--precision", _ALL,
     "significant digits in output"),
)

_DEFAULTS = {section: {k: default for s, k, default, *_ in _SETTINGS if s == section}
             for section, *_ in _SETTINGS}
_KINDS = {(section, key): kind for section, key, _, kind, *_ in _SETTINGS}
_READERS = {(section, key): commands for section, key, *_, commands, _ in _SETTINGS}

# settings that steer where the data goes but not the data itself
_HASH_EXCLUDE = {("output", "path")}


def _coerce(section: str, key: str, raw: str):
    kind = _KINDS[(section, key)]
    if isinstance(kind, tuple):
        if raw not in kind:
            raise ConfigError(f"[{section}] {key} must be one of {sorted(kind)}, got {raw!r}")
        return raw
    try:
        return kind(raw)
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


def config_hash(cfg: dict, command: str) -> str:
    """sha256 over the resolved settings that command reads, so a setting
    it ignores cannot change its header."""
    parts = [f"command={command}"]
    for section in sorted(cfg):
        for key in sorted(cfg[section]):
            if (section, key) in _HASH_EXCLUDE or command not in _READERS[(section, key)]:
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


def _hash_line(cfg: dict, command: str) -> str:
    return f"# config-hash: sha256:{config_hash(cfg, command)}"


def _header_lines(command: str, cfg: dict, notes: list[str], stamp: bool) -> list[str]:
    lines = [f"# hotgate {command}", _hash_line(cfg, command)]
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
    target_name = cfg["gate"]["target"]
    order = cfg["anharmonic"]["order"] if args.anharmonic else None
    kwargs = dict(
        rabi_cycles=cfg["gate"]["rabi_cycles"], margin=cfg["gate"]["margin"],
        flip_mode=cfg["gate"]["flip"], anharmonic_order=order,
        dims=_parse_dims(cfg["gate"]["dims"]),
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
        # the reported figure has no truncation; the Fock oracle at the
        # report's dims shows how far that truncation would be off
        del kwargs["anharmonic_order"]
        fock = analysis.fock_route_fidelity(
            spec, eta, cfg["gate"]["n_bar_c"], **{**kwargs, "dims": report.dims})
        drift = abs(fock - report.fidelity)
        if drift > 1e-6:
            sys.stderr.write(f"gate: the Fock route at dims {report.dims[0]},"
                             f"{report.dims[1]} is {drift:.3e} off the truncation-"
                             f"free fidelity; increase dims\n")
            return 3
    return 0


def _read_existing_rows(path: str, hash_line: str) -> dict:
    """Map (eta, n_bar_c) formatted strings to finished CSV rows.

    Only a file whose header carries hash_line, that is, one written with
    the same settings, contributes rows.  A failed point is written with
    nan figures; such rows are left out so that a resumed scan computes
    them again.
    """
    existing = {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = [ln.rstrip("\n") for ln in fh]
    except OSError:
        return existing
    if hash_line not in lines:
        return existing
    lines = [ln for ln in lines if not ln.startswith("#")]
    for line in lines[1:]:  # skip the column header
        cells = line.split(",")
        if len(cells) == 5 and cells[2] != "nan":
            existing[(cells[0], cells[1])] = cells
    return existing


def cmd_scan(cfg: dict, args: argparse.Namespace) -> int:
    """Grid scan.  With --output, rows go to <output>.part as they finish,
    and the file is renamed onto the output path once the grid is done;
    --skip-existing reuses finished rows of both files when they were
    written with the same settings."""
    spec = build_trap(cfg)
    etas = _parse_grid(cfg["scan"]["etas"], "etas")
    n_bars = _parse_grid(cfg["scan"]["n_bars"], "n_bars")
    precision = cfg["output"]["precision"]
    path = _resolve_path(cfg["output"]["path"])
    partial = None if path is None else path + ".part"
    existing = {}
    if args.skip_existing:
        if path is None:
            raise ConfigError("--skip-existing needs an output file path")
        hash_line = _hash_line(cfg, "scan")
        existing = _read_existing_rows(path, hash_line)
        existing.update(_read_existing_rows(partial, hash_line))
    grid = [(eta, nb) for eta in etas for nb in n_bars]
    keys = [(_fmt(eta, precision), _fmt(nb, precision)) for eta, nb in grid]
    todo = [point for point, key in zip(grid, keys) if key not in existing]
    report_kw = dict(
        rabi_cycles=cfg["gate"]["rabi_cycles"], margin=cfg["gate"]["margin"],
        flip_mode=cfg["gate"]["flip"], anharmonic_order=cfg["scan"]["anharmonic_order"])
    rows = analysis.scan_rows(spec, todo, **report_kw)
    notes = [_FIDELITY_NOTE,
             "purity: mean Tr[rho_out^2] over the 36 axis product inputs",
             "f_cor: perturbative anharmonic fidelity at matching n_bar_c",
             "columns: eta,n_bar_c,fidelity,purity,f_cor"]
    failures = 0
    sink = (contextlib.nullcontext(sys.stdout) if path is None
            else open(partial, "w", encoding="utf-8", newline="\n"))
    with sink as out:
        out.write(_csv_text("scan", cfg, ["eta", "n_bar_c", "fidelity", "purity", "f_cor"],
                            [], notes, args.stamp, precision))
        for key in keys:
            if key in existing:
                cells = existing[key]
            else:
                row = next(rows)
                if row["error"]:
                    failures += 1
                    sys.stderr.write(f"scan: eta={key[0]} n_bar_c={key[1]}: "
                                     f"{row['error']}\n")
                cells = [key[0], key[1], _fmt(row["fidelity"], precision),
                         _fmt(row["purity"], precision), _fmt(row["f_cor"], precision)]
            out.write(",".join(cells) + "\n")
            out.flush()
    if path is not None:
        os.replace(partial, path)
    if todo and failures == len(todo):
        sys.stderr.write("scan: every computed row failed\n")
        return 3
    return 0


def cmd_anharmonic(cfg: dict, args: argparse.Namespace) -> int:
    spec = build_trap(cfg)
    a = cfg["anharmonic"]
    state_mode = a["state_mode"]
    if a["order"] == 0:
        payload = {"f_cor_perturbative": 1.0, "f_cor_exact": 1.0, "delta": 0.0,
                   "order": 0, "converged": True}
        _emit(_json_text("anharmonic", cfg, payload, args.stamp,
                         cfg["output"]["precision"]),
              _resolve_path(cfg["output"]["path"]))
        return 0
    n_bar_c = a["n_bar_c"]
    dims = _parse_dims(a["dims"])
    if dims is None and state_mode == "pre_kick":
        dims = analysis.anharmonic_dims(n_bar_c)
    basis = trap_model.build_mode_basis(spec, eta=resolve_eta(cfg), n_bar_c=n_bar_c,
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


_COMMANDS = {
    "modes": (cmd_modes, "equilibrium geometry and mode data"),
    "separation": (cmd_separation, "branch separation over one period"),
    "conditions": (cmd_conditions, "addressing geometry and validity flags"),
    "gate": (cmd_gate, "simulate one operating point"),
    "scan": (cmd_scan, "grid scan over eta and n_bar_c"),
    "anharmonic": (cmd_anharmonic, "perturbative vs exact dephasing"),
}


def _dest(flag: str) -> str:
    return flag[2:].replace("-", "_")


def build_parser() -> _Parser:
    parser = _Parser(prog="hotgate", allow_abbrev=False,
                     description="Two-ion conditional-flip gate simulator "
                                 "for thermally excited motion.")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    subs = {}
    for name, (func, summary) in _COMMANDS.items():
        # no abbreviations: a flag this subcommand lacks must not be read as
        # the prefix of one it has (scan --eta as --etas)
        p = subs[name] = sub.add_parser(name, help=summary, allow_abbrev=False)
        p.set_defaults(func=func)
        p.add_argument("--config", type=str, help="INI settings file")
        p.add_argument("--stamp", action="store_true",
                       help="add a generation timestamp to the metadata")
        groups = {}
        for section, key, _, kind, flag, commands, help_ in _SETTINGS:
            if name not in commands:
                continue
            if section not in groups:
                groups[section] = p.add_argument_group(section)
            typed = {"choices": kind} if isinstance(kind, tuple) else {"type": kind}
            groups[section].add_argument(flag, dest=_dest(flag), help=help_, **typed)
            if key == "flip":
                groups[section].add_argument(
                    "--idealized-flip", action="store_const", const="idealized",
                    dest=_dest(flag), help="shorthand for --flip idealized")
    subs["modes"].add_argument("--solve-ratio", dest="solve_ratio", type=float,
                               help="find the wall exponent giving this nu_r/nu_c")
    subs["gate"].add_argument("--anharmonic", action="store_true",
                              help="include the perturbative anharmonic fidelity")
    subs["gate"].add_argument(
        "--check-convergence", action="store_true",
        help="compare with the Fock route at the report's dims; a fidelity "
             "gap above 1e-6 exits 3")
    subs["scan"].add_argument("--skip-existing", action="store_true",
                              help="reuse finished rows of an output file "
                                   "written with the same settings")
    return parser


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
        cfg = load_config(args.config)
        for section, key, _, _, flag, *_ in _SETTINGS:
            value = getattr(args, _dest(flag), None)
            if value is not None:
                cfg[section][key] = value
        return args.func(cfg, args)
    except ConfigError as exc:
        sys.stderr.write(f"hotgate: config error: {exc}\n")
        return 1
    except (InfeasibleRatioError, NoEquilibriumError) as exc:
        sys.stderr.write(f"hotgate: infeasible: {exc}\n")
        return 2
    except NonConvergenceError as exc:
        sys.stderr.write(f"hotgate: did not converge: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
