"""Run one workload of the hotgate benchmark and print its metrics.

    python3 perfbench/run.py --workload gate_hot --seed 1 --seconds 25 --trace 0

Run from the repository root; hotgate is imported from ./src.  With
--trace 0 the run prints the end-to-end metrics: setup_s (median of fresh
interpreters that import hotgate and build a first mode basis), wall_s
(median time of one pass over the workload's operating points, passes
repeated while another fits in --seconds) and peak_rss_mb.  With --trace 1
it runs one untraced and one traced pass and prints per-layer metrics.
Every figure is checked against references.json either way.  The last line
of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 7
SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import hotgate
spec = hotgate.TrapSpec.normalized(lamb_dicke=0.45)
hotgate.build_mode_basis(spec, eta=7.0, n_bar_c=1.0)
print(repr(time.perf_counter() - t0))
"""


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=["gate_hot", "dephasing", "scan_grid"])
    p.add_argument("--seed", type=int, required=True, help="shuffles the operating points")
    p.add_argument("--seconds", type=float, required=True, help="measuring time of one run")
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


def measure_setup() -> float:
    """Median seconds for a fresh interpreter to import hotgate and build a basis."""
    times = []
    for _ in range(SETUP_SAMPLES):
        out = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)],
                             capture_output=True, text=True, check=True, timeout=120)
        times.append(float(out.stdout.split()[-1]))
    return statistics.median(times)


def git_commit() -> str:
    """HEAD of the checkout's own .git directory, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(nproc: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    try:
        import numba  # noqa: F401
        has_numba = True
    except ImportError:
        has_numba = False
    return {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas": blas_name,
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "nproc": nproc, "numba": has_numba, "commit": git_commit(),
    }


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "hotgate" / "__init__.py").is_file():
        print(f"perfbench: no hotgate sources under {SRC}", file=sys.stderr)
        return 2
    # at most one BLAS thread per core, set before numpy is first imported
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(nproc)
    sys.path.insert(0, str(SRC))
    import hotgate

    if not Path(hotgate.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: hotgate imported from {hotgate.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import layers
    import spans
    import workloads

    make_ops = workloads.WORKLOADS[args.workload]
    refs = workloads.load_references()[args.workload]
    rng = random.Random(args.seed)
    attempted = failed = 0

    def one_pass(workdir: Path) -> float:
        nonlocal attempted, failed
        ops = make_ops(rng, workdir)
        t0 = time.perf_counter()
        a, f = workloads.run_pass(ops, refs, lambda line: print(f"{args.workload} {line}"))
        elapsed = time.perf_counter() - t0
        attempted += a
        failed += f
        return elapsed

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        workdir = Path(tmp)
        if args.trace:
            untraced = one_pass(workdir)
            tracer = spans.Tracer()
            with tracer.installed(layers.targets()):
                traced = one_pass(workdir)
            values = layers.layer_metrics(tracer.spans, traced - untraced)
            units = layers.metric_units()
            metrics = {k: {"value": v, "unit": units[k][0]} for k, v in values.items()}
            summary = f"untraced {untraced:.3f} s, traced {traced:.3f} s"
        else:
            setup_s = measure_setup()
            passes = []
            start = time.perf_counter()
            while True:
                passes.append(one_pass(workdir))
                if time.perf_counter() - start + max(passes) > args.seconds:
                    break
            wall_s = statistics.median(passes)
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics = {
                "setup_s": {"value": setup_s, "unit": "s"},
                "wall_s": {"value": wall_s, "unit": "s"},
                "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
            }
            summary = (f"setup_s={setup_s:.4f} s wall_s={wall_s:.4f} s "
                       f"peak_rss_mb={peak_mb:.1f} MB passes={len(passes)}")

    failed_frac = failed / attempted
    print(f"{args.workload}: {summary} failed_frac={failed_frac:g} ({failed}/{attempted})")
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                      "failed_frac": failed_frac, "environment": environment(nproc)}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
