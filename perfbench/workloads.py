"""The benchmark's workloads and the checks on the figures they produce.

A workload is one pass over fixed operating points; the seed only shuffles
their order.  Every figure is compared with the seed references in
references.json, which are keyed by operating point, so a result that
depends on the order shows as a failed check.

Only names in hotgate.__all__ and hotgate.cli.main are called, and always
through a module attribute, so that a traced run sees every call.
"""

from __future__ import annotations

import json
import math
import random
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import hotgate as hg
from hotgate import cli

REFERENCES = Path(__file__).resolve().parent / "references.json"

# acceptance test_07: the eta 7, n_bar_c 0 fidelity the package must keep
GOLDEN_KEY = "eta=7 n_bar_c=0"
GOLDEN_FIDELITY = 0.995563065905
GOLDEN_TOL = 1e-6
# absolute on fidelity and purity: admits the ~4e-10 shift of a
# truncation-free gate channel, not a changed digit of the printed figures
FIGURE_TOL = 1e-8
# relative to 1 - F_cor, the quantity the dephasing estimate is about; near
# 1 a double resolves 1 - F_cor only to 2**-53, so the n_bar_c = 0 rows, where
# F_cor is 1 to double precision, get a floor of four such steps
F_COR_RTOL = 1e-9
F_COR_FLOOR = 4 * 2.0**-53

# the `hotgate` CLI defaults: trap with lamb_dicke 0.45, gate eta 7
LAMB_DICKE = 0.45
DEFAULT_ETA = 7.0

# (eta, n_bar_c): the hot corner of the acceptance grid plus the golden point
GATE_POINTS = [(7.0, 1.0), (7.0, 0.5), (4.0, 1.0), (7.0, 0.0)]
# `hotgate anharmonic` at n_bar_c 1, in both pictures
DEPHASING_N_BAR_C = 1.0
DEPHASING_POINTS = [("pre_kick", (24, 19)), ("post_kick", (28, 22))]
SCAN_ETAS = [2.0, 4.0, 7.0]
SCAN_N_BARS = [0.0, 0.5]

Figures = dict[str, float]


@dataclass
class Op:
    """One call into hotgate and the operating points it answers for."""

    keys: list[str]
    run: Callable[[], dict[str, Figures]]


def point_key(eta: float, n_bar_c: float) -> str:
    return f"eta={eta:g} n_bar_c={n_bar_c:g}"


def dephasing_key(mode: str, dims: tuple[int, int]) -> str:
    return f"{mode} dims={dims[0]},{dims[1]}"


def trap_spec():
    return hg.TrapSpec.normalized(lamb_dicke=LAMB_DICKE)


def _gate_point(eta: float, n_bar_c: float) -> dict[str, Figures]:
    rep = hg.gate_report(trap_spec(), eta, n_bar_c, anharmonic_order=None)
    return {point_key(eta, n_bar_c): {"fidelity": rep.fidelity, "purity": rep.purity}}


def _dephasing_point(mode: str, dims: tuple[int, int]) -> dict[str, Figures]:
    spec = trap_spec()
    basis = hg.build_mode_basis(spec, eta=DEFAULT_ETA, n_bar_c=DEPHASING_N_BAR_C, dims=dims)
    expansion = hg.anharmonic_expansion(spec, order=3)
    rep = hg.anharmonic_fidelity(basis, expansion, n_bar_c=DEPHASING_N_BAR_C, state_mode=mode)
    exact = hg.exact_anharmonic_fidelity(basis, expansion, n_bar_c=DEPHASING_N_BAR_C,
                                         state_mode=mode)
    return {dephasing_key(mode, dims): {"f_cor": rep.f_cor, "f_cor_exact": exact}}


def read_scan_csv(path: Path) -> dict[str, Figures]:
    lines = [ln for ln in path.read_text(encoding="utf-8").splitlines()
             if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    rows = {}
    for line in lines[1:]:
        cells = dict(zip(header, (float(c) for c in line.split(","))))
        rows[point_key(cells["eta"], cells["n_bar_c"])] = {
            k: cells[k] for k in ("fidelity", "purity", "f_cor")}
    return rows


def _scan(etas: list[float], n_bars: list[float], out: Path) -> dict[str, Figures]:
    # full digits in the CSV, so the F_cor check is not limited by rounding
    argv = ["scan", "--etas", ",".join(f"{e:g}" for e in etas),
            "--n-bars", ",".join(f"{n:g}" for n in n_bars),
            "--precision", "17", "--output", str(out)]
    rc = cli.main(argv)
    if rc != 0:
        raise RuntimeError(f"hotgate {' '.join(argv)} exited with {rc}")
    return read_scan_csv(out)


def gate_hot(rng: random.Random, workdir: Path) -> list[Op]:
    points = rng.sample(GATE_POINTS, len(GATE_POINTS))
    return [Op([point_key(e, n)], lambda e=e, n=n: _gate_point(e, n)) for e, n in points]


def dephasing(rng: random.Random, workdir: Path) -> list[Op]:
    points = rng.sample(DEPHASING_POINTS, len(DEPHASING_POINTS))
    return [Op([dephasing_key(m, d)], lambda m=m, d=d: _dephasing_point(m, d))
            for m, d in points]


def scan_grid(rng: random.Random, workdir: Path) -> list[Op]:
    etas = rng.sample(SCAN_ETAS, len(SCAN_ETAS))
    n_bars = rng.sample(SCAN_N_BARS, len(SCAN_N_BARS))
    keys = [point_key(e, n) for e in etas for n in n_bars]
    return [Op(keys, lambda: _scan(etas, n_bars, workdir / "scan.csv"))]


WORKLOADS: dict[str, Callable[[random.Random, Path], list[Op]]] = {
    "gate_hot": gate_hot,
    "dephasing": dephasing,
    "scan_grid": scan_grid,
}


def load_references() -> dict[str, dict[str, Figures]]:
    return json.loads(REFERENCES.read_text(encoding="utf-8"))


def check_figures(key: str, figures: Figures, refs: Figures) -> list[str]:
    """Every way the figures of one operating point miss their references."""
    problems = []
    for name, ref in refs.items():
        value = figures.get(name, math.nan)
        if name.startswith("f_cor"):
            tol = max(F_COR_RTOL * abs(1.0 - ref), F_COR_FLOOR)
            ok = abs((1.0 - value) - (1.0 - ref)) <= tol
        else:
            ok = abs(value - ref) <= FIGURE_TOL
        if not ok:
            problems.append(f"{name}={value:.12g} (reference {ref:.12g})")
    if key == GOLDEN_KEY and "fidelity" in refs:
        value = figures.get("fidelity", math.nan)
        if not abs(value - GOLDEN_FIDELITY) <= GOLDEN_TOL:
            problems.append(f"fidelity={value:.12g} misses the golden {GOLDEN_FIDELITY}")
    return problems


def run_pass(ops: list[Op], refs: dict[str, Figures], log: Callable[[str], None]) -> tuple[int, int]:
    """Run and check every op; return (points attempted, points failed).

    An exception or a missed check fails the points concerned and is logged
    by name; the pass goes on.
    """
    attempted = failed = 0
    for op in ops:
        attempted += len(op.keys)
        try:
            results = op.run()
        except Exception as exc:  # one failing point must not end the run
            failed += len(op.keys)
            log(f"FAIL {', '.join(op.keys)}: {type(exc).__name__}: {exc}")
            continue
        for key in op.keys:
            figures = results.get(key)
            problems = ["no result"] if figures is None else check_figures(key, figures, refs[key])
            if problems:
                failed += 1
                log(f"FAIL {key}: {'; '.join(problems)}")
            else:
                shown = " ".join(f"{k}={v:.12g}" for k, v in figures.items())
                log(f"ok   {key}: {shown}")
    return attempted, failed
