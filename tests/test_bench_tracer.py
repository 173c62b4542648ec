"""The benchmark's tracer patches functions by name in several sephill
modules and refuses to start when one of them is missing or rebound; this
keeps that contract under the unit tests rather than only under traced
benchmark runs."""

import importlib.util
from pathlib import Path

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
