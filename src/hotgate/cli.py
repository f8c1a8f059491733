"""Command-line front end.

Subcommands: modes, separation, conditions, gate, scan, anharmonic.  Each
resolves its settings from built-in defaults, then an optional INI config
file (--config), then command-line flags, in that order of precedence.
Every setting is declared once, in _SETTINGS, which gives its default, its
INI type, its flag, the subcommands that read it and its range, checked
for the settings a subcommand reads before it runs; main builds the parser
of the subcommand named first alone, which takes only those flags and
rejects the rest, while an INI file may set any key (a subcommand runs
with the default of every setting it does not read).  Outputs are
deterministic: data files never carry timestamps (--stamp opts in,
metadata only), floats print at a fixed significant-digit count, and every
CSV/JSON records a hash of the resolved settings its subcommand reads.

Exit codes: 0 success, 1 bad usage or config, 2 physically infeasible
request, 3 numerical non-convergence.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import datetime
import functools
import hashlib
import json
import math
import os
import re
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

# The range of a numeric setting, as (test, rule): main checks every setting
# the subcommand reads before the subcommand runs, so a value the library
# would reject is a config error, not a traceback or a scan of failed rows.
# Every float setting must also be finite.
_POSITIVE = (lambda v: v > 0.0, "positive")
_NON_NEGATIVE = (lambda v: v >= 0.0, "non-negative")

# Every setting, declared once: (section, key, default, type, flag,
# subcommands that read it, help, range or None).  An INI file may set any
# of them; a flag exists, and the config hash covers the setting, only where
# it is read, and a subcommand reads only the settings that move its data.
_SETTINGS = (
    ("trap", "exponent", 5.0 / 3.0, float, "--exponent", _ALL,
     "power of the confining wall", (lambda v: v > 1.0, "above 1")),
    ("trap", "separation_in_x0", 820.0, float, "--separation-in-x0",
     ("modes", "conditions", "gate", "scan", "anharmonic"),
     "equilibrium separation in ground-state widths", _POSITIVE),
    ("gate", "eta", 7.0, float, "--eta", ("modes", "separation", "conditions", "gate"),
     "effective kick strength", _POSITIVE),
    ("gate", "n_bar_c", 0.0, float, "--n-bar-c", ("modes", "conditions", "gate", "anharmonic"),
     "thermal COM occupation", _NON_NEGATIVE),
    ("gate", "rabi_cycles", 3, int, "--rabi-cycles", ("conditions", "gate", "scan"), None,
     (lambda v: 1 <= v < gate_protocol._RABI_CYCLES_LIMIT, "a positive integer below 2**50")),
    ("gate", "dims", None, str, "--dims", ("separation", "anharmonic"),
     "Fock truncation 'n_c,n_r'", None),
    ("scan", "etas", "2,4,7", str, "--etas", ("scan",), "comma-separated eta grid",
     (lambda raw: all(v > 0.0 for v in _parse_grid(raw, "etas")),
      "a list of positive numbers")),
    ("scan", "n_bars", "0,0.5,1", str, "--n-bars", ("scan",), "comma-separated n_bar_c grid",
     (lambda raw: all(v >= 0.0 for v in _parse_grid(raw, "n_bars")),
      "a list of non-negative numbers")),
    ("anharmonic", "order", 3, int, "--order", ("gate", "scan", "anharmonic"),
     "3 for the cubic correction, 0 for none", (lambda v: v in (0, 3), "0 or 3")),
    ("separation", "points", 64, int, "--points", ("separation",),
     "sample count over [0, t_g]", (lambda v: v >= 2, "at least 2")),
    ("output", "path", None, str, "--output", _ALL, "write here instead of stdout", None),
    ("output", "precision", 12, int, "--precision", _ALL,
     "significant digits in output", _NON_NEGATIVE),
)

_DEFAULTS = {section: {k: default for s, k, default, *_ in _SETTINGS if s == section}
             for section, *_ in _SETTINGS}
_KINDS = {(section, key): kind for section, key, _, kind, *_ in _SETTINGS}
_READERS = {(section, key): commands for section, key, *_, commands, _, _ in _SETTINGS}


def _check_ranges(cfg: dict, command: str) -> None:
    """Raise ConfigError for the first setting command reads that is
    non-finite or out of its range; unset optional settings (None) pass."""
    for section, key, _, kind, _, commands, _, bounds in _SETTINGS:
        value = cfg[section][key]
        if command not in commands or value is None:
            continue
        if kind is float and not math.isfinite(value):
            raise ConfigError(f"[{section}] {key} must be finite, got {value!r}")
        if bounds is not None and not bounds[0](value):
            raise ConfigError(f"[{section}] {key} must be {bounds[1]}, got {value!r}")


def load_config(path: str | None) -> dict:
    """Defaults overlaid with the INI file at path (if any); unknown keys fail."""
    cfg = {s: dict(v) for s, v in _DEFAULTS.items()}
    if path is None:
        return cfg
    parser = configparser.ConfigParser()
    if not parser.read(path):
        raise ConfigError(f"config file not found: {path}")
    for section in parser.sections():
        if section not in cfg:
            raise ConfigError(f"unknown config section [{section}]")
        for key, raw in parser.items(section):
            if key not in cfg[section]:
                raise ConfigError(f"unknown config key [{section}] {key}")
            try:
                cfg[section][key] = _KINDS[(section, key)](raw)
            except ValueError as exc:
                raise ConfigError(f"[{section}] {key} = {raw!r}: {exc}") from None
    return cfg


def config_hash(cfg: dict, command: str) -> str:
    """sha256 over the resolved settings that command reads but the output
    path, so a setting that does not shape its data cannot change its header."""
    parts = [f"command={command}"]
    for section in sorted(cfg):
        for key in sorted(cfg[section]):
            if (section, key) == ("output", "path") or command not in _READERS[(section, key)]:
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
    if not all(math.isfinite(v) for v in values):
        raise ConfigError(f"{name} must hold finite numbers, got {raw!r}")
    return values


def build_trap(cfg: dict) -> trap_model.TrapSpec:
    """The [trap] settings' normalized trap; README converts an explicit (K, C)."""
    t = cfg["trap"]
    try:
        return trap_model.TrapSpec.normalized(
            exponent=t["exponent"], separation_in_x0=t["separation_in_x0"])
    except ValueError as exc:  # in range, but a derived constant left double range
        raise ConfigError(f"the trap settings leave double range: {exc}") from None


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


def _emit(text: str, cfg: dict) -> None:
    path = _resolve_path(cfg["output"]["path"])
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


def _generated() -> str:
    return datetime.datetime.now(datetime.timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def _header_lines(command: str, cfg: dict, notes: list[str], stamp: bool) -> list[str]:
    lines = [f"# hotgate {command}", _hash_line(cfg, command)]
    lines += [f"# {note}" for note in notes]
    if stamp:
        lines.append("# generated: " + _generated())
    return lines


def _csv_text(command, cfg, columns, rows, notes, stamp) -> str:
    precision = cfg["output"]["precision"]
    lines = _header_lines(command, cfg, notes, stamp)
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt(v, precision) for v in row))
    return "\n".join(lines) + "\n"


def _kv_text(command, cfg, pairs, notes, stamp) -> str:
    lines = _header_lines(command, cfg, notes, stamp)
    lines += [f"{k}={_fmt(v, cfg['output']['precision'])}" for k, v in pairs]
    return "\n".join(lines) + "\n"


def _json_text(command, cfg, payload: dict, stamp) -> str:
    body = {"command": command,
            "config_hash": "sha256:" + config_hash(cfg, command)}
    if stamp:
        body["generated"] = _generated()
    body.update(payload)
    return json.dumps(_quantize(body, cfg["output"]["precision"]), indent=2,
                      sort_keys=True) + "\n"


_FIDELITY_NOTE = ("fidelity: average over pure input states, "
                  "(4*F_ent + 1)/5 against the conditional-flip target")


def _reported_f_cor(f_cor, where: str | None):
    """F_cor as gate and scan report it.  Past a phase variance of 1 the
    second-order 1 - Var is no fidelity: it is reported as None (null in
    JSON, nan in CSV), with one stderr line that names the variance, unless
    where is None."""
    if not f_cor < 0.0:  # nan too: a failed row
        return f_cor
    if where is not None:
        sys.stderr.write(f"{where}: F_cor not reported: phase variance {1.0 - f_cor:.6g} "
                         f"is above 1, beyond the second-order estimate 1 - Var\n")
    return None


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_modes(cfg: dict, args: argparse.Namespace) -> int:
    if args.solve_ratio is not None:
        if not math.isfinite(args.solve_ratio):
            raise ConfigError(f"--solve-ratio must be finite, got {args.solve_ratio!r}")
        exponent = trap_model.solve_exponent_for_ratio(args.solve_ratio)
        cfg["trap"]["exponent"] = exponent
    spec = build_trap(cfg)
    n_bar_c = cfg["gate"]["n_bar_c"]
    basis = trap_model.build_mode_basis(spec, eta=cfg["gate"]["eta"], n_bar_c=n_bar_c)
    nu_c, nu_r = trap_model.mode_frequencies(spec, basis.x_e)  # before the snap to 2
    pairs = [
        ("exponent", spec.exponent),
        ("x_e", basis.x_e),
        ("x_e_over_x0", basis.x_e / basis.x0),
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
        ("eta_lower_bound_at_nbar", basis.eta_bound(n_bar_c)),
    ]
    if args.solve_ratio is not None:
        pairs.insert(0, ("target_ratio", args.solve_ratio))
    notes = ["mode frequencies from the static curvature at equilibrium",
             "lengths share the unit of x0 = 1/sqrt(2*m*nu_c)"]
    _emit(_kv_text("modes", cfg, pairs, notes, args.stamp), cfg)
    return 0


def cmd_separation(cfg: dict, args: argparse.Namespace) -> int:
    spec = build_trap(cfg)
    basis = trap_model.build_mode_basis(
        spec, eta=cfg["gate"]["eta"], n_bar_c=0.0,
        dims=_parse_dims(cfg["gate"]["dims"]))
    curve = analysis.separation_scan(basis, n_points=cfg["separation"]["points"])
    notes = [f"dims: {curve.dims[0]},{curve.dims[1]} (c,r), the numeric column's truncation",
             "d = distance between the kicked branches of ion 1",
             "columns: t,d_analytic,d_numeric"]
    rows = list(zip(curve.times, curve.analytic, curve.numeric))
    _emit(_csv_text("separation", cfg, ["t", "d_analytic", "d_numeric"], rows, notes,
                    args.stamp), cfg)
    if not curve.converged:
        sys.stderr.write("separation: the numeric route at this truncation misses the "
                         "closed form by more than 1e-9 x0\n")
        return 3
    return 0


def cmd_conditions(cfg: dict, args: argparse.Namespace) -> int:
    spec = build_trap(cfg)
    basis = trap_model.build_mode_basis(spec, eta=cfg["gate"]["eta"],
                                        n_bar_c=cfg["gate"]["n_bar_c"])
    _, report = gate_protocol.condition_solver(
        basis, n_bar_c=cfg["gate"]["n_bar_c"],
        rabi_cycles=cfg["gate"]["rabi_cycles"])
    _emit(_json_text("conditions", cfg, report.to_dict(), args.stamp), cfg)
    return 0


def cmd_gate(cfg: dict, args: argparse.Namespace) -> int:
    spec = build_trap(cfg)
    order = cfg["anharmonic"]["order"]
    report = analysis.gate_report(
        spec, cfg["gate"]["eta"], cfg["gate"]["n_bar_c"],
        rabi_cycles=cfg["gate"]["rabi_cycles"], anharmonic_order=order)
    payload = report.to_dict()
    payload["f_cor"] = _reported_f_cor(report.f_cor, "gate")
    payload["note"] = _FIDELITY_NOTE
    _emit(_json_text("gate", cfg, payload, args.stamp), cfg)
    if args.check_convergence and payload["f_cor"] is not None:
        # the channel checks its own quadrature; F_cor is the one figure
        # gate reports from a truncated Fock space, and one it does not
        # report (null) has nothing to check
        doubled = analysis._anharmonic_point(spec, cfg["gate"]["n_bar_c"], order,
                                             dims_factor=2).f_cor
        gap = abs(doubled - report.f_cor)
        if gap > 1e-6:
            sys.stderr.write(f"gate: F_cor moves by {gap:.3e} when its truncation "
                             f"doubles (truncation gap above 1e-6)\n")
            return 3
    return 0


def _read_existing_rows(path: str, hash_line: str) -> dict:
    """Map (eta, n_bar_c) formatted strings to finished CSV rows.

    Only a file whose header carries hash_line, that is, one written with
    the same settings, contributes rows.  A point whose channel failed is
    written with nan figures; such rows are left out so that a resumed scan
    computes them again.  A row with channel figures and F_cor nan (refused
    by its memory budget, or above unit variance) is finished: its F_cor
    would come out the same.
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
    rows = analysis.scan_rows(
        spec, todo, rabi_cycles=cfg["gate"]["rabi_cycles"],
        anharmonic_order=cfg["anharmonic"]["order"])
    notes = [_FIDELITY_NOTE,
             "purity: mean Tr[rho_out^2] over the 36 axis product inputs",
             "f_cor: perturbative anharmonic fidelity at matching n_bar_c",
             "columns: eta,n_bar_c,fidelity,purity,f_cor"]
    failures, noted = 0, set()
    sink = (contextlib.nullcontext(sys.stdout) if path is None
            else open(partial, "w", encoding="utf-8", newline="\n"))
    with sink as out:
        out.write(_csv_text("scan", cfg, ["eta", "n_bar_c", "fidelity", "purity", "f_cor"],
                            [], notes, args.stamp))
        for key in keys:
            if key in existing:
                cells = existing[key]
            else:
                row = next(rows)
                if row["error"]:
                    failures += 1
                    sys.stderr.write(f"scan: eta={key[0]} n_bar_c={key[1]}: "
                                     f"{row['error']}\n")
                # F_cor reads n_bar_c alone: its note is written once per value
                f_cor = _reported_f_cor(row["f_cor"], None if row["n_bar_c"] in noted
                                        else f"scan: eta={key[0]} n_bar_c={key[1]}")
                noted.add(row["n_bar_c"])
                cells = [key[0], key[1], _fmt(row["fidelity"], precision),
                         _fmt(row["purity"], precision), _fmt(f_cor, precision)]
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
    n_bar_c = cfg["gate"]["n_bar_c"]
    basis = trap_model.build_mode_basis(  # the zero-kick basis of gate's and scan's F_cor
        spec, eta=0.0, n_bar_c=n_bar_c, dims=_parse_dims(cfg["gate"]["dims"]))
    expansion = trap_model.anharmonic_expansion(spec, order=cfg["anharmonic"]["order"])
    # the exact check first: its memory budget refuses before either route allocates
    f_exact = analysis.exact_anharmonic_fidelity(basis, expansion, n_bar_c=n_bar_c)
    rep = analysis.anharmonic_fidelity(basis, expansion, n_bar_c=n_bar_c)
    payload = {
        "f_cor_perturbative": rep.f_cor,
        "f_cor_exact": f_exact,
        # a difference of two figures near 1, and a mean that is zero at odd
        # order (resonant terms cancel their conjugates): below 1e-15 is roundoff
        "delta": round(abs(rep.f_cor - f_exact), 15),
        "mean_phase": round(rep.mean_phase, 15),
        "phase_variance": rep.variance,
        "dims": list(basis.dims),
        "order": expansion.order,
        "n_bar_c": n_bar_c,
    }
    _emit(_json_text("anharmonic", cfg, payload, args.stamp), cfg)
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse's hook: -1e3, -.5, -2,4 and -inf are values for the range
        # check to name; no flag here starts with - and a digit, '.', inf or nan
        self._negative_number_matcher = re.compile(r"^-(?:[\d.]|inf|nan)", re.IGNORECASE)

    # argparse exits with status 2 on usage errors; 2 is taken, so route
    # through an exception and let main() return 1
    def error(self, message):
        raise _UsageError(message)


# Every subcommand: (function, summary, extra flag), where the extra flag is
# the one flag it takes beside --config, --stamp and the flags of its
# settings, as (flag, argparse keywords), or None; no INI key sets it.
_COMMANDS = {
    "modes": (cmd_modes, "equilibrium geometry and mode data",
              ("--solve-ratio", {"type": float,
                                 "help": "find the wall exponent giving this nu_r/nu_c"})),
    "separation": (cmd_separation, "branch separation over one period", None),
    "conditions": (cmd_conditions, "addressing geometry and validity flags", None),
    "gate": (cmd_gate, "simulate one operating point", ("--check-convergence", {
        "action": "store_true",
        "help": "recompute F_cor at doubled truncation; a gap above 1e-6 exits 3"})),
    "scan": (cmd_scan, "grid scan over eta and n_bar_c", ("--skip-existing", {
        "action": "store_true",
        "help": "reuse finished rows of an output file written with the same settings"})),
    "anharmonic": (cmd_anharmonic, "perturbative vs exact dephasing", None),
}


def _dest(flag: str) -> str:
    return flag[2:].replace("-", "_")


@functools.cache
def _command_parser(command: str) -> _Parser:
    """The parser of one subcommand: --config, --stamp, the flag of every
    setting the subcommand reads, grouped by INI section, and its extra flag.
    Built on first use and kept, so a process that calls main repeatedly
    builds each subcommand's parser once."""
    # no abbreviations: a flag this subcommand lacks must not be read as
    # the prefix of one it has (scan --eta as --etas)
    _, summary, extra = _COMMANDS[command]
    parser = _Parser(prog=f"hotgate {command}", description=summary, allow_abbrev=False)
    parser.add_argument("--config", type=str, help="INI settings file")
    parser.add_argument("--stamp", action="store_true",
                        help="add a generation timestamp to the metadata")
    groups = {}
    for section, _, _, kind, flag, commands, help_, _ in _SETTINGS:
        if command not in commands:
            continue
        if section not in groups:
            groups[section] = parser.add_argument_group(section)
        groups[section].add_argument(flag, dest=_dest(flag), type=kind, help=help_)
    if extra is not None:
        parser.add_argument(extra[0], **extra[1])
    return parser


def _top_parser() -> _Parser:
    """The parser of a command line that names no subcommand first: it lists
    the subcommands for --help and reports every other input as a usage error."""
    parser = _Parser(prog="hotgate", allow_abbrev=False,
                     description="Two-ion conditional-flip gate simulator "
                                 "for thermally excited motion.",
                     epilog="'hotgate <subcommand> --help' lists the flags of one subcommand.")
    sub = parser.add_subparsers(dest="command", required=True, metavar="<subcommand>")
    for name, (_, summary, _) in _COMMANDS.items():
        sub.add_parser(name, help=summary, add_help=False)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    command = argv[0] if argv else None
    try:
        if command not in _COMMANDS:
            _top_parser().parse_args(argv)
            # it parsed: a subcommand behind an option, which is not run
            raise _UsageError("the subcommand must be the first argument")
        args = _command_parser(command).parse_args(argv[1:])
    except _UsageError as exc:
        sys.stderr.write(f"hotgate: {exc}\n")
        return 1
    except SystemExit as exc:  # --help
        return 0 if not exc.code else 1
    try:
        cfg = load_config(args.config)
        for section, key, default, _, flag, commands, *_ in _SETTINGS:
            value = getattr(args, _dest(flag), None)
            if command not in commands:  # an INI value it does not read: the default
                cfg[section][key] = default
            elif value is not None:
                cfg[section][key] = value
        _check_ranges(cfg, command)
        return _COMMANDS[command][0](cfg, args)
    except ConfigError as exc:
        sys.stderr.write(f"hotgate: config error: {exc}\n")
        return 1
    except OverflowError as exc:  # a finite setting whose arithmetic leaves double range
        sys.stderr.write(f"hotgate: config error: a setting is too large: "
                         f"its arithmetic overflows a double ({exc})\n")
        return 1
    except (InfeasibleRatioError, NoEquilibriumError) as exc:
        sys.stderr.write(f"hotgate: infeasible: {exc}\n")
        return 2
    except NonConvergenceError as exc:
        sys.stderr.write(f"hotgate: did not converge: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
