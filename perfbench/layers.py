"""The hotgate functions the traced run wraps, and the per-layer metrics.

Only names in hotgate.__all__ and hotgate.cli.main are wrapped.  A name a
later version no longer exports is simply not wrapped and reports 0 calls.
hotgate._kernels gets no span: its time is the self time of the public
function that calls it.
"""

from __future__ import annotations

from collections import defaultdict

import hotgate as hg
from hotgate import cli

from spans import Span, self_times

# (module, function) as the span and metric name "module.function"
LAYERS = [
    ("cli", "main"),
    ("analysis", "scan"),
    ("analysis", "gate_report"),
    ("analysis", "average_fidelity"),
    ("analysis", "average_purity"),
    ("analysis", "anharmonic_fidelity"),
    ("analysis", "exact_anharmonic_fidelity"),
    ("gate_protocol", "build_schedule"),
    ("gate_protocol", "gate_channel"),
    ("trap_model", "build_mode_basis"),
    ("trap_model", "anharmonic_expansion"),
    ("fock_core", "hermitian_expm"),
]


def _gate_channel_counts(channel) -> dict[str, float]:
    kept = getattr(channel, "kept", None)
    dims = getattr(channel, "dims", None)
    if kept is None or dims is None:
        return {}
    columns = kept[0] * kept[1]
    return {"columns": columns, "column_levels": columns * dims[0] * dims[1]}


def _anharmonic_counts(report) -> dict[str, float]:
    points = getattr(report, "points", None)
    return {} if points is None else {"quadrature_intervals": points}


COUNTERS = {
    "gate_protocol.gate_channel": _gate_channel_counts,
    "analysis.anharmonic_fidelity": _anharmonic_counts,
}


def targets() -> dict:
    """Span name -> (function, counter) for every layer this hotgate exports."""
    out = {}
    for module, name in LAYERS:
        if (module, name) == ("cli", "main"):
            fn = getattr(cli, "main", None)
        else:
            fn = getattr(hg, name, None) if name in hg.__all__ else None
        if callable(fn):
            span = f"{module}.{name}"
            out[span] = (fn, COUNTERS.get(span))
    return out


def metric_units() -> dict[str, tuple[str, str]]:
    """Per-layer metric name -> (unit, which direction is better)."""
    out = {}
    for module, name in LAYERS:
        out[f"{module}.{name}.calls"] = ("count", "lower")
        out[f"{module}.{name}.self_s"] = ("s", "lower")
    out["gate_protocol.gate_channel.columns"] = ("count", "lower")
    out["gate_protocol.gate_channel.column_levels_per_s"] = ("1/s", "higher")
    out["analysis.anharmonic_fidelity.quadrature_intervals"] = ("count", "lower")
    out["trace.overhead_s"] = ("s", "lower")
    return out


def layer_metrics(spans: list[Span], overhead_s: float) -> dict[str, float]:
    """Calls, self time and result counts per layer from one traced pass.

    columns sums kept_c * kept_r over gate_channel calls; column_levels_per_s
    is the sum of kept columns times levels n_c * n_r per second of its self
    time.
    """
    calls: dict[str, int] = defaultdict(int)
    busy: dict[str, float] = defaultdict(float)
    counts: dict[str, float] = defaultdict(float)
    for span, own in zip(spans, self_times(spans)):
        calls[span.name] += 1
        busy[span.name] += own
        for key, value in span.counts.items():
            counts[f"{span.name}.{key}"] += value
    out: dict[str, float] = {}
    for module, name in LAYERS:
        span = f"{module}.{name}"
        out[f"{span}.calls"] = calls[span]
        out[f"{span}.self_s"] = busy[span]
    channel_s = busy["gate_protocol.gate_channel"]
    out["gate_protocol.gate_channel.columns"] = counts["gate_protocol.gate_channel.columns"]
    levels = counts["gate_protocol.gate_channel.column_levels"]
    out["gate_protocol.gate_channel.column_levels_per_s"] = levels / channel_s if channel_s > 0 else 0.0
    out["analysis.anharmonic_fidelity.quadrature_intervals"] = \
        counts["analysis.anharmonic_fidelity.quadrature_intervals"]
    out["trace.overhead_s"] = overhead_s
    return out
