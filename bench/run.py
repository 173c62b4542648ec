"""Benchmark of the sephill command line, run in-process through
``sephill.cli.main``.

    python3 bench/run.py --workload mc-robust --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
With ``--trace 0`` the run reports the end-to-end metrics (``units_per_s``,
``setup_s``, ``peak_rss_mb``); with ``--trace 1`` it reports the per-layer
metrics from spans recorded around the calls into each module.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Working files, the full result
with the run environment, and the spans of traced runs go under
``.bench_work/``.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

#: Cold set-ups per untraced run; ``setup_s`` is their median.
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60
#: Most records recomputed from their regenerated samples in one run.
MAX_DEEP_CHECKS = 24


def load_package():
    """Import sephill from this checkout's ``src/``, or exit non-zero."""
    if not (SRC / "sephill" / "__init__.py").is_file():
        sys.exit(f"error: no sephill sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import sephill

    if Path(sephill.__file__).resolve().parent != (SRC / "sephill").resolve():
        sys.exit(f"error: imported sephill from {sephill.__file__}, not {SRC}")


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "sephill").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment() -> dict:
    import numpy
    import scipy

    cpu_model = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next(
                line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")
            )
    except (OSError, StopIteration):
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


def setup_probes(workload: str, seed: int, workdir: Path):
    """Cold set-up times from fresh interpreters, and any problems."""
    times, problems = [], []
    for i in range(SETUP_PROBES):
        probe_dir = workdir / f"probe{i}"
        probe_dir.mkdir()
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "setup_probe.py"), "--workload", workload,
                 "--seed", str(seed), "--workdir", str(probe_dir)],
                capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            problems.append(f"setup probe did not finish in {PROBE_TIMEOUT_S} s")
            continue
        if proc.returncode != 0:
            problems.append(f"setup probe exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
            continue
        report = json.loads(proc.stdout.splitlines()[-1])
        times.append(report["setup_s"])
        problems += [f"setup probe: {p}" for p in report["problems"]]
    return times, problems


def peak_rss_mb() -> float:
    """Peak resident set of this process or of its largest finished child
    (a set-up probe)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


class Ledger:
    """Outcomes of every call this run made, with the problems found."""

    def __init__(self, wl):
        self.wl = wl
        self.entries = []  # [outcome, problems]

    def add(self, out):
        entry = [out, self.wl.check(out)]
        self.entries.append(entry)
        return entry

    @property
    def attempted(self) -> int:
        return sum(out.call.units for out, _ in self.entries)

    @property
    def failed(self) -> int:
        return sum(out.call.units for out, problems in self.entries if problems)

    def problems(self):
        return [f"{out.call.key}: {p}" for out, problems in self.entries for p in problems]


def check_digests(ledger: Ledger, src_digest: str) -> None:
    """Primary outputs of one call must be identical in every run of the
    same sources: compare with this run's earlier outputs and with the
    digests earlier runs left in ``.bench_work/digests.json``."""
    path = WORK / "digests.json"
    known = json.loads(path.read_text()) if path.exists() else {}
    for entry in ledger.entries:
        out, problems = entry
        if out.code != 0:
            continue
        key = f"{src_digest}/{out.call.key}"
        digest = out.digest()
        if known.setdefault(key, digest) != digest:
            problems.append(f"output sha256 {digest} differs from {known[key]} of an earlier run")
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(known, indent=0, sort_keys=True))
    tmp.replace(path)


def deep_checks(ledger: Ledger, blocks) -> int:
    """Recompute one record from each of up to MAX_DEEP_CHECKS blocks of
    calls that write per-replication records."""
    step = max(1, len(blocks) // MAX_DEEP_CHECKS)
    done = 0
    for b in range(0, len(blocks), step)[:MAX_DEEP_CHECKS]:
        for entry in blocks[b]:
            out, problems = entry
            if out.call.records_path is not None and not problems:
                problems += ledger.wl.deep_check(out, b)
                done += 1
    return done


def run_blocks(wl, ledger, workdir, seed, seconds):
    """Untraced blocks until ``seconds`` of wall time have passed."""
    import workloads

    blocks, rates = [], []
    t_end = time.perf_counter() + seconds
    while time.perf_counter() < t_end:
        block = [ledger.add(workloads.run_call(c)) for c in wl.block(workdir, seed, len(blocks))]
        blocks.append(block)
        rates.append(sum(o.call.units for o, _ in block) / sum(o.wall_s for o, _ in block))
    return blocks, rates


def run_traced_blocks(wl, ledger, tracer, workdir, seed, seconds):
    """Each block twice, traced and untraced in alternating order, until
    ``seconds`` of wall time have passed.  Both runs of a block must give
    the same bytes (``check_digests``).  Returns the traced blocks, their
    wall and CPU time, and the traced/untraced wall ratios."""
    import workloads

    traced_blocks, ratios = [], []
    wall = cpu = 0.0
    t_end = time.perf_counter() + seconds
    while time.perf_counter() < t_end:
        index = len(traced_blocks)
        calls = wl.block(workdir, seed, index)
        tracer.block = index
        runs = {}
        for traced in ((False, True) if index % 2 == 0 else (True, False)):
            if traced:
                with tracer.installed():
                    runs[traced] = [ledger.add(workloads.run_call(c)) for c in calls]
            else:
                runs[traced] = [ledger.add(workloads.run_call(c)) for c in calls]
        block_wall = [sum(o.wall_s for o, _ in runs[t]) for t in (False, True)]
        ratios.append(block_wall[1] / block_wall[0])
        wall += block_wall[1]
        cpu += sum(o.cpu_s for o, _ in runs[True])
        traced_blocks.append(runs[True])
    return traced_blocks, wall, cpu, ratios


def main() -> int:
    load_package()
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    wl = workloads.WORKLOADS[args.workload]
    workdir = WORK / f"run-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        ledger = Ledger(wl)
        for call in wl.warmup(str(workdir), args.seed):
            ledger.add(workloads.run_call(call))
        setup_times, probe_problems = [], []
        if args.trace:
            import tracing

            tracer = tracing.Tracer()
            blocks, wall, cpu, ratios = run_traced_blocks(
                wl, ledger, tracer, str(workdir), args.seed, args.seconds)
            units = sum(o.call.units for block in blocks for o, _ in block)
            written = sum(o.bytes_written for block in blocks for o, _ in block)
            layer = tracing.layer_metrics(
                tracer.spans, wall, cpu, wl.workers, written, units,
                statistics.median(ratios) - 1.0)
            metrics = {name: {"value": v, "unit": u} for name, (v, u) in layer.items()}
            detail = {"traced_wall_s": wall, "traced_cpu_s": cpu, "overhead_ratios": ratios}
        else:
            blocks, rates = run_blocks(wl, ledger, str(workdir), args.seed, args.seconds)
            setup_times, probe_problems = setup_probes(args.workload, args.seed, workdir)
            rss = peak_rss_mb()
            metrics = {
                "units_per_s": {"value": statistics.median(rates), "unit": "1/s"},
                "setup_s": {"value": statistics.median(setup_times) if setup_times else 0.0,
                            "unit": "s"},
                "peak_rss_mb": {"value": rss, "unit": "MB"},
            }
            detail = {"block_rates": rates, "setup_times": setup_times}
        n_deep = deep_checks(ledger, blocks)
        src_digest = source_digest()
        check_digests(ledger, src_digest)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # each set-up probe runs one warm-up unit
    probes = 0 if args.trace else SETUP_PROBES
    problems = ledger.problems() + probe_problems
    attempted = ledger.attempted + probes
    failed = ledger.failed + probes - len(setup_times)
    result = {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    env = environment()
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "finished": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "source_sha256": src_digest,
        "environment": env,
        "blocks": len(blocks),
        "deep_checks": n_deep,
        "output_sha256": [[o.digest() for o, _ in block] for block in blocks],
        "problems": problems,
        **detail,
        **result,
    }
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    stamp = datetime.datetime.now().strftime("%Y%m%dT%H%M%S")
    result_path = results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json"
    result_path.write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        tracer.write(results_dir / (result_path.stem + ".spans.jsonl"))

    print(f"workload {args.workload}  seed {args.seed}  blocks {len(blocks)}  "
          f"deep checks {n_deep}  attempted {attempted}  failed {failed}")
    print("environment " + json.dumps(env))
    print(f"first block sha256 {record['output_sha256'][0]}")
    for p in problems[:20]:
        print(f"PROBLEM {p}")
    for name, m in metrics.items():
        print(f"{name:48s} {m['value']:>16.6g} {m['unit']}")
    print(f"full result: {result_path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
