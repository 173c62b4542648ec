import ast
import dataclasses
import subprocess
import sys
from pathlib import Path

import pytest

import sephill

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "sephill").glob("*.py"))


def test_every_exported_name_resolves():
    missing = [name for name in sephill.__all__ if not hasattr(sephill, name)]
    assert missing == []
    assert len(set(sephill.__all__)) == len(sephill.__all__)


def test_records_hold_only_computed_fields():
    # a failed replication has its own record type; a fit records no label
    assert "ReplicationFailure" in sephill.__all__
    fields = {f.name for f in dataclasses.fields(sephill.ReplicationRecord)}
    assert fields.isdisjoint({"failed", "failure"})
    fields = {f.name for f in dataclasses.fields(sephill.LocationScatterEstimate)}
    assert "method" not in fields


def test_perturbation_bound_holds_only_the_envelope():
    # a_n alone says whether the envelope applies, so no flag is kept
    fields = [f.name for f in dataclasses.fields(sephill.PerturbationBound)]
    assert fields == ["m_n", "r_pivot", "a_n", "b_n"]


def test_one_separating_hill_entry():
    # Hill at a given location and scatter has one entry, over a list of k
    from sephill import estimators

    for name in ("hill_plot", "HillEstimate"):
        assert name not in sephill.__all__
        assert not hasattr(estimators, name)


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_sources_parse_at_the_declared_python_floor(path):
    # pyproject.toml declares requires-python >= 3.10
    ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))


A_FAILING_PROPERTY_THEN_A_TEST = """\
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_runs_after():
    pass
"""


def test_a_failing_property_test_does_not_end_the_run(tmp_path):
    # Hypothesis reports a failure through libcst, whose import warns; under
    # the suite's filterwarnings that warning must not stop pytest in a hook
    # and hide every later test.  The run sits in tmp_path, so Hypothesis's
    # example database is written there.
    (tmp_path / "test_two.py").write_text(A_FAILING_PROPERTY_THEN_A_TEST)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path),
         "test_two.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout
