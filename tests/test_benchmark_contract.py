"""The benchmark's figures under tier-1: one pass of each perfbench workload.

perfbench/workloads.py is loaded read-only from its file, and every point
of every workload must match its seed reference in perfbench's
references.json, so a change that moves a benchmark figure fails here.
"""

import importlib.util
import random
import sys
from pathlib import Path

import pytest

_WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", _WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclass looks itself up there
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["gate_hot", "dephasing", "scan_grid"])
def test_one_benchmark_pass_matches_its_references(workloads, tmp_path, name):
    log = []
    ops = workloads.WORKLOADS[name](random.Random(1), tmp_path)
    refs = workloads.load_references()[name]
    attempted, failed = workloads.run_pass(ops, refs, log.append)
    assert attempted > 0
    assert failed == 0, log
