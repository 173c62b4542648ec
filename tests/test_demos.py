"""Run each demo end to end, so a renamed or removed public name or CLI
option that a demo uses fails the suite.  Every run has scipy
unimportable, since the package needs numpy only, and turns every warning
into an error, as ``filterwarnings = ["error"]`` does in-process."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("0[1-4]_*.py"))
CLI_TOUR = ROOT / "demos" / "05_cli_tour.sh"


def run_demo(argv, tmp_path, **env):
    # a sitecustomize first on the path makes `import scipy` fail in every
    # interpreter the run starts, the tour's `python3` calls included
    site = tmp_path / "no_scipy"
    site.mkdir()
    (site / "sitecustomize.py").write_text('import sys\nsys.modules["scipy"] = None\n')
    pythonpath = os.pathsep.join([str(site), str(ROOT / "src")])
    proc = subprocess.run(
        argv,
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=pythonpath, PYTHONWARNINGS="error", **env),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    run_demo([sys.executable, str(demo)], tmp_path)


@pytest.mark.skipif(shutil.which("sh") is None, reason="needs a POSIX sh")
def test_cli_tour_runs(tmp_path):
    # the tour calls `python3`: make that the interpreter running the suite
    path = os.pathsep.join([str(Path(sys.executable).parent), os.environ.get("PATH", "")])
    run_demo(["sh", str(CLI_TOUR)], tmp_path, PATH=path)
