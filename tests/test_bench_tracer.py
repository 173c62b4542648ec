"""The benchmark's tracer patches functions by name in several sephill
modules and refuses to start when one of them is missing or rebound; this
keeps that contract under the unit tests rather than only under traced
benchmark runs."""

import importlib.util
import math
from pathlib import Path

import pytest

from sephill import cli

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_finds_every_traced_name():
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    with tracer.installed():
        cli.dumps_json({"x": 1.0})
    assert [span[1] for span in tracer.spans] == ["cli.dumps_json"]
    assert not hasattr(cli.dumps_json, "__wrapped__")


@pytest.mark.parametrize(
    "method, alpha", [("mean-cov", "5"), ("median-tyler", "2")]
)
def test_tracer_counts_run_on_an_experiment(tmp_path, method, alpha):
    # the per-span counts read fields of the records the traced functions
    # return; a record that loses one crashes only a traced run
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    argv = [
        "experiment", "--family", "pareto", "--alpha", alpha, "--dim", "2",
        "--n-values", "200,400", "--replications", "3", "--method", method,
        "--seed", "5", "--workers", "1", "--out", str(tmp_path / "exp.json"),
    ]
    with tracer.installed():
        assert cli.main(argv) == 0
    counts = {}
    for span in tracer.spans:
        counts.setdefault(span[1], []).append(span[9])
    b_n = counts["bounds.complete_bound"]
    assert len(b_n) == 6
    assert all(type(b) is float and math.isfinite(b) for b in b_n)
    fits = counts["estimators.estimate_location_scatter"]
    assert [n for _, n in fits] == [200] * 3 + [400] * 3
    assert all(type(it) is int and it >= 0 for it, _ in fits)
    if method == "median-tyler":
        assert all(it > 0 for it, _ in fits)
    assert all(type(e) is int and e > 0 for e in counts["estimators.order_desc"])
