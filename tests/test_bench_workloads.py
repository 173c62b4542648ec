"""The benchmark's correctness gates under the unit tests.

``bench/workloads.py`` imports sephill names and holds the gates that every
benchmark run applies to its outputs.  Running each workload's warm-up calls
through those gates here means that a renamed or deleted name, or an output
the gates reject, fails the unit tests and not only a benchmark run.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from sephill import montecarlo

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ROOT / "bench" / "workloads.py"
NAMES = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def _load_workloads(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name while they are built
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", NAMES)
def test_warmup_calls_pass_the_gates(tmp_path, monkeypatch, name):
    workloads = _load_workloads(monkeypatch)

    def no_pool(size):
        raise AssertionError("a warm-up call started the process pool")

    monkeypatch.setattr(montecarlo, "_process_pool", no_pool)
    workload = workloads.WORKLOADS[name]
    calls = workload.warmup(str(tmp_path), 1)
    assert calls
    for call in calls:
        out = workloads.run_call(call)
        assert workload.check(out) == []
        if isinstance(workload, workloads.ExperimentWorkload):
            assert workload.deep_check(out, 0) == []
