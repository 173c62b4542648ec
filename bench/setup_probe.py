"""One cold set-up of a workload, timed from inside a fresh interpreter.

Imports sephill, writes the workload's input config, runs one warm-up unit
and checks it, then prints ``{"setup_s": ..., "problems": [...]}``.
``run.py`` starts this several times per run and reports the median.

    python3 bench/setup_probe.py --workload mc-headline --seed 1 --workdir DIR
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402  (imports sephill)


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args()
    wl = workloads.WORKLOADS[args.workload]
    problems = []
    for call in wl.warmup(args.workdir, args.seed):
        problems += wl.check(workloads.run_call(call))
    setup_s = time.perf_counter() - T0
    print(json.dumps({"setup_s": setup_s, "problems": problems}))


if __name__ == "__main__":
    main()
