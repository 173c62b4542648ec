"""The benchmark's workloads: inputs made from a seed, the CLI calls that
run them, and the correctness gates that check their outputs.

A workload is run as a sequence of *blocks*.  A block is a fixed list of
``sephill`` CLI calls whose inputs depend only on ``(workload, seed,
block index)``; its units (replications or trials) are what
``units_per_s`` counts.

The gates use references that do not go through the code under test:
plain-numpy Hill averages, means, covariances and inverses, and the
Weiszfeld/Tyler fixed-point equations evaluated directly.  Only the
sampler is reused, to regenerate a replication's sample from its
``(base_seed, rep_id)`` stream.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from sephill import cli
from sephill.distributions import (
    EllipticalModel,
    GeneratingVariateSpec,
    RngStream,
    sample_elliptical,
)
from sephill.estimators import estimate_location_scatter

#: Solver tolerances the fitted median/Tyler pair must meet.  They are the
#: documented defaults of ``estimate_location_scatter``, fixed here so that
#: loosening the solver fails the gate instead of moving it.
WEISZFELD_TOL = 1e-10
TYLER_TOL = 1e-9

#: Agreement required between a record's Hill value and the reference.
HILL_ATOL = 1e-9

#: Lemma checks per verify-bounds trial: two lemmas at three indices.
CHECKS_PER_TRIAL = 6


@dataclass
class Call:
    """One CLI invocation inside a block; ``key`` names its inputs."""

    key: str
    argv: list[str]
    units: int
    records_path: str | None = None
    context: dict = field(default_factory=dict)


@dataclass
class Outcome:
    """What one call produced."""

    call: Call
    code: int
    wall_s: float
    cpu_s: float
    stdout: str
    stderr: str
    records: str = ""
    bytes_written: int = 0

    def digest(self) -> str:
        """sha256 of the primary outputs (JSON on stdout, records CSV)."""
        h = hashlib.sha256(self.stdout.encode())
        h.update(b"\0")
        h.update(self.records.encode())
        return h.hexdigest()


def run_call(call: Call) -> Outcome:
    """Run one call through ``cli.main`` in this process, capturing its
    output.  ``cli.main`` is looked up at call time, so a traced run sees
    the patched entry point."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        cpu0, t0 = time.process_time(), time.perf_counter()
        try:
            code = cli.main(call.argv)
        except Exception:
            traceback.print_exc()
            code = -1
        wall, cpu = time.perf_counter() - t0, time.process_time() - cpu0
    out = Outcome(call, code, wall, cpu, stdout.getvalue(), stderr.getvalue())
    out.bytes_written = len(out.stdout.encode())
    if call.records_path is not None and os.path.exists(call.records_path):
        with open(call.records_path) as fh:
            out.records = fh.read()
        for path in (call.records_path, call.records_path + ".manifest.json"):
            out.bytes_written += os.path.getsize(path)
    return out


def derive_seed(*parts) -> int:
    """A 31-bit seed that depends only on ``parts``."""
    text = ":".join(str(p) for p in parts).encode()
    return int.from_bytes(hashlib.sha256(text).digest()[:4], "big") >> 1


def plain_hill(dists: np.ndarray, k: int) -> float:
    """Hill average of the k largest values against the (k+1)-th."""
    top = np.sort(dists)[::-1][: k + 1]
    return float(np.mean(np.log(top[:k] / top[k])))


def plain_distances(x: np.ndarray, mu: np.ndarray, sigma_inv: np.ndarray) -> np.ndarray:
    diff = x - mu
    return np.sqrt(np.sum((diff @ sigma_inv) * diff, axis=1))


class ExperimentWorkload:
    """``sephill experiment --config <file>`` on one fixed model."""

    def __init__(self, name, model, n_values, method, workers, reps_per_block, k_values=None):
        self.name = name
        self.model_raw = model
        self.n_values = list(n_values)
        self.method = method
        self.workers = workers
        self.reps_per_block = reps_per_block
        self.k_values = list(k_values) if k_values is not None else None
        self.model = EllipticalModel(
            mu=np.asarray(model["mu"], dtype=float),
            sigma=np.asarray(model["sigma"], dtype=float),
            variate=GeneratingVariateSpec.pareto(model["alpha"]),
        )

    def _call(self, workdir, base_seed, n_values, reps, k_values) -> Call:
        config = {
            "model": self.model_raw,
            "n_values": n_values,
            "replications": reps,
            "base_seed": base_seed,
            "estimator_method": self.method,
        }
        if k_values is not None:
            config["k_values"] = k_values
        config_path = os.path.join(workdir, f"{self.name}.config.json")
        with open(config_path, "w") as fh:
            json.dump(config, fh)
        records_path = os.path.join(workdir, f"{self.name}.records.csv")
        argv = [
            "experiment", "--config", config_path,
            "--workers", str(self.workers),
            "--out", "-", "--records-out", records_path,
        ]
        return Call(
            key=f"{self.name}/base_seed={base_seed}/n={n_values}/reps={reps}",
            argv=argv,
            units=reps * len(n_values),
            records_path=records_path,
            context={"base_seed": base_seed, "n_values": n_values, "reps": reps},
        )

    def block(self, workdir, seed, index) -> list[Call]:
        base_seed = derive_seed(self.name, seed, index)
        return [self._call(workdir, base_seed, self.n_values, self.reps_per_block, self.k_values)]

    def warmup(self, workdir, seed) -> list[Call]:
        """One replication at the smallest sample size."""
        k_values = self.k_values[:1] if self.k_values is not None else None
        base_seed = derive_seed(self.name, seed, "warmup")
        return [self._call(workdir, base_seed, self.n_values[:1], 1, k_values)]

    @staticmethod
    def _rows(out: Outcome):
        rows = []
        for line in out.records.splitlines():
            cells = line.split(",")
            rows.append(
                {
                    "rep_id": int(cells[0]),
                    "n": int(cells[1]),
                    "k": int(cells[2]),
                    "gamma_hat_true": float(cells[3]),
                    "gamma_hat_est": float(cells[4]),
                    "failed": cells[9] != "0",
                    "failure": cells[10],
                }
            )
        return rows

    def check(self, out: Outcome) -> list[str]:
        """Structural gate on every call: exit code, failure counts, one
        record per (n, rep_id)."""
        if out.code != 0:
            return [f"exit code {out.code}: {out.stderr.strip()[-300:]}"]
        ctx = out.call.context
        payload = json.loads(out.stdout)
        problems = []
        if payload["total_failures"] != 0:
            problems.append(f"total_failures = {payload['total_failures']}")
        counts = [a["count"] for a in payload["aggregates"]]
        if counts != [ctx["reps"]] * len(ctx["n_values"]):
            problems.append(f"aggregate counts {counts}")
        rows = self._rows(out)
        keys = sorted((r["n"], r["rep_id"]) for r in rows)
        expected = sorted((n, rep) for n in ctx["n_values"] for rep in range(ctx["reps"]))
        if keys != expected:
            problems.append("records do not cover every (n, rep_id) once")
        for r in rows:
            if r["failed"]:
                problems.append(f"replication n={r['n']} rep={r['rep_id']} failed: {r['failure']}")
        return problems

    def deep_check(self, out: Outcome, pick: int) -> list[str]:
        """Recompute one record from its regenerated sample."""
        rows = self._rows(out)
        row = rows[pick % len(rows)]
        n, k, rep = row["n"], row["k"], row["rep_id"]
        tag = f"n={n} rep={rep}"
        x, radii = sample_elliptical(self.model, n, RngStream(out.call.context["base_seed"], rep))
        problems = []
        ref_true = plain_hill(radii, k)
        if not abs(ref_true - row["gamma_hat_true"]) <= HILL_ATOL:
            problems.append(f"{tag}: gamma_hat_true {row['gamma_hat_true']!r} vs radii Hill {ref_true!r}")
        if self.method == "sample_mean_cov":
            mu_hat = x.mean(axis=0)
            sigma_hat = np.cov(x, rowvar=False)
        else:
            fit = estimate_location_scatter(x, self.method)
            mu_hat, sigma_hat = fit.mu_hat, fit.sigma_hat
            problems += [f"{tag}: {p}" for p in fixed_point_problems(x, mu_hat, sigma_hat)]
        ref_est = plain_hill(plain_distances(x, mu_hat, np.linalg.inv(sigma_hat)), k)
        if not abs(ref_est - row["gamma_hat_est"]) <= HILL_ATOL:
            problems.append(f"{tag}: gamma_hat_est {row['gamma_hat_est']!r} vs reference {ref_est!r}")
        return problems


def fixed_point_problems(x: np.ndarray, mu: np.ndarray, shape: np.ndarray) -> list[str]:
    """Check the Weiszfeld and Tyler fixed-point equations at a fit."""
    n, d = x.shape
    problems = []
    diff = x - mu
    dist = np.sqrt(np.sum(diff * diff, axis=1))
    grad = float(np.linalg.norm((diff / dist[:, None]).sum(axis=0)))
    if not grad <= d * WEISZFELD_TOL * n:
        problems.append(f"Weiszfeld gradient {grad:.3e} > {d * WEISZFELD_TOL * n:.3e}")
    if not abs(float(np.trace(shape)) - d) <= 1e-12 * d:
        problems.append(f"Tyler shape trace {np.trace(shape)!r} != {d}")
    q = np.sum((diff @ np.linalg.inv(shape)) * diff, axis=1)
    step = (diff / q[:, None]).T @ diff * (d / n)
    step *= d / float(np.trace(step))
    move = float(np.max(np.abs(step - shape)))
    if not move <= TYLER_TOL:
        problems.append(f"Tyler step moves the fit by {move:.3e} > {TYLER_TOL:g}")
    return problems


class BoundsSweepWorkload:
    """``sephill verify-bounds`` once each at d = 2, 3 and 4."""

    def __init__(self, name, dims, alpha, n, scale, trials_per_call):
        self.name = name
        self.dims = list(dims)
        self.alpha = alpha
        self.n = n
        self.scale = scale
        self.trials_per_call = trials_per_call
        self.workers = 1

    def _call(self, dim, trials, seed) -> Call:
        argv = [
            "verify-bounds", "--family", "pareto", "--alpha", repr(self.alpha),
            "--n", str(self.n), "--dim", str(dim),
            "--perturbation-scale", repr(self.scale),
            "--trials", str(trials), "--seed", str(seed), "--out", "-",
        ]
        key = f"{self.name}/dim={dim}/seed={seed}/trials={trials}"
        return Call(key=key, argv=argv, units=trials, context={"trials": trials})

    def block(self, workdir, seed, index) -> list[Call]:
        return [
            self._call(d, self.trials_per_call, derive_seed(self.name, seed, index, d))
            for d in self.dims
        ]

    def warmup(self, workdir, seed) -> list[Call]:
        """One trial at the smallest dimension."""
        return [self._call(self.dims[0], 1, derive_seed(self.name, seed, "warmup"))]

    def check(self, out: Outcome) -> list[str]:
        if out.code != 0:
            return [f"exit code {out.code}: {out.stderr.strip()[-300:]}"]
        trials = out.call.context["trials"]
        payload = json.loads(out.stdout)
        problems = []
        if payload["trials"] != trials:
            problems.append(f"trials = {payload['trials']}, asked for {trials}")
        if payload["violations"] != 0:
            problems.append(f"violations = {payload['violations']}")
        checks = CHECKS_PER_TRIAL * trials
        if not payload["applicable_count"] >= 0.9 * checks:
            problems.append(f"applicable_count = {payload['applicable_count']} of {checks}")
        return problems


HEADLINE_SIGMA = [[2.0, 0.5, 0.0], [0.5, 1.0, 0.2], [0.0, 0.2, 1.5]]

WORKLOADS = {
    # criterion 4 scaled down: the iterative robust fit dominates, and it is
    # the only workload with more than one worker
    "mc-robust": ExperimentWorkload(
        "mc-robust",
        model={"family": "pareto", "alpha": 2.0, "mu": [0.5, -1.0],
               "sigma": [[1.5, 0.4], [0.4, 0.8]]},
        n_values=[1000, 10000, 100000],
        method="spatial_median_tyler",
        workers=2,
        reps_per_block=2,
    ),
    # criteria 5/6 scaled down: no iterative fit, time spread over sampling,
    # distances, ordering and linalg; serial baseline
    "mc-headline": ExperimentWorkload(
        "mc-headline",
        model={"family": "pareto", "alpha": 5.0, "mu": [1.0, 2.0, 3.0],
               "sigma": HEADLINE_SIGMA},
        n_values=[2000, 20000],
        method="sample_mean_cov",
        workers=1,
        reps_per_block=10,
        k_values=[45, 141],
    ),
    # criterion 3 scaled down: the lemma verifiers and the spectral norm
    # dominate, with small samples
    "bounds-sweep": BoundsSweepWorkload(
        "bounds-sweep", dims=[2, 3, 4], alpha=3.0, n=300, scale=1e-3, trials_per_call=10,
    ),
}
