"""Command-line interface.

Subcommands::

    sephill simulate       draw synthetic elliptical data to CSV
    sephill estimate       estimate the extreme value index from a CSV
    sephill verify-bounds  randomized checks of the perturbation envelopes
    sephill experiment     run a full Monte Carlo experiment

Conventions shared by all commands: CSV output is comma-separated with LF
line endings and no quoting; JSON and CSV write every float in one lossless
format, the shortest round-trip ``repr``; every output file is accompanied
by a ``<name>.manifest.json`` sidecar recording the resolved configuration,
and JSON payloads embed the same manifest minus the timestamp so identical
invocations produce byte-identical primary outputs.

Exit codes: 0 success, 2 invalid configuration, 3 I/O failure, 4 numeric
degeneracy, 5 experiment failure cap exceeded.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import functools
import io
import json
import math
import sys
import warnings

import numpy as np

from . import __version__, bounds, montecarlo
from .distributions import (
    EllipticalModel,
    FAMILIES,
    GeneratingVariateSpec,
    RngStream,
    sample_elliptical,
)
from .errors import (
    ConfigError,
    DegenerateSample,
    DomainError,
    FailureCapExceeded,
    NonPositiveDistance,
    NonPositivePivot,
    NonSymmetric,
    NotConverged,
    NotPositiveDefinite,
    SepHillError,
    SingularIterate,
)
from .estimators import (
    SAMPLE_MEAN_COV,
    SPATIAL_MEDIAN_TYLER,
    _check_k,
    estimate_location_scatter,
    mahalanobis_distances,
    order_desc,
    separating_hill,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_NUMERIC = 4
EXIT_FAILURE_CAP = 5

_NUMERIC_ERRORS = (
    DegenerateSample,
    NotConverged,
    SingularIterate,
    NotPositiveDefinite,
    NonSymmetric,
    NonPositivePivot,
    NonPositiveDistance,
)

_METHOD_NAMES = {
    "mean-cov": SAMPLE_MEAN_COV,
    "median-tyler": SPATIAL_MEDIAN_TYLER,
}


# -- serialization helpers -------------------------------------------------


def _plain(obj):
    """``obj`` with numpy arrays and scalars turned into Python values and
    NaN and infinities into None."""
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.generic):
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def dumps_json(obj) -> str:
    """Serialize nested dicts/lists/scalars deterministically.

    Insertion order of dicts is preserved; floats are written as their
    shortest round-trip ``repr``; NaN and infinities map to null.
    """
    return json.dumps(_plain(obj), indent=2, allow_nan=False)


def csv_cell(v) -> str:
    """One CSV cell: shortest round-trip form for floats, bare ints."""
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    # tags must not break the unquoted dialect
    return str(v).replace(",", ";").replace("\n", " ")


def write_csv(stream, rows) -> None:
    for row in rows:
        stream.write(",".join(csv_cell(v) for v in row) + "\n")


def _emit(path: str, text: str, manifest: dict) -> None:
    """Write ``text`` to ``path`` ('-' is stdout) and, beside a file, the
    ``<path>.manifest.json`` sidecar: ``manifest`` with a timestamp."""
    if path == "-":
        sys.stdout.write(text)
        return
    with open(path, "w", newline="\n") as fh:
        fh.write(text)
    stamped = dict(manifest)
    stamped["timestamp"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
    with open(path + ".manifest.json", "w", newline="\n") as fh:
        fh.write(dumps_json(stamped) + "\n")


def build_manifest(command: str, config: dict, base_seed: int) -> dict:
    """Manifest embedded in JSON outputs; the timestamp is only added to
    the sidecar copy so primary outputs stay byte-identical across runs."""
    return {
        "command": command,
        "config": config,
        "base_seed": int(base_seed),
        "version": __version__,
    }


# -- input parsing helpers -------------------------------------------------


def parse_mu(text: str) -> np.ndarray:
    """The location vector given by --mu; every entry must be finite."""
    try:
        mu = np.array([float(tok) for tok in text.split(",")])
    except ValueError:
        raise ConfigError(f"--mu expects comma-separated numbers, got {text!r}") from None
    if not np.all(np.isfinite(mu)):
        raise ConfigError(f"--mu entries must be finite, got {text!r}")
    return mu


def parse_int_list(text: str, flag: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",")]
    except ValueError:
        raise ConfigError(f"{flag} expects comma-separated integers, got {text!r}") from None


def load_csv_matrix(path: str) -> np.ndarray:
    """Load a purely numeric CSV as a 2-d float array."""
    try:
        with warnings.catch_warnings():
            # an empty file is reported below as a ConfigError
            warnings.filterwarnings(
                "ignore", "loadtxt: input contained no data", UserWarning
            )
            arr = np.loadtxt(path, delimiter=",", ndmin=2)
    except ValueError as exc:
        raise ConfigError(f"could not parse {path!r} as numeric CSV: {exc}") from None
    if arr.size == 0:
        raise ConfigError(f"{path!r} contains no data rows")
    return np.asarray(arr, dtype=float)


def load_scatter(arg: str | None, dim: int) -> np.ndarray:
    """Scatter from --sigma: 'identity' (also when absent) or a file of d
    comma-separated rows, validated by :func:`_check_scatter`."""
    if arg is None or arg == "identity":
        return np.eye(dim)
    return _check_scatter(load_csv_matrix(arg), dim, "--sigma file")


def _check_scatter(mat: np.ndarray, dim: int, source: str) -> np.ndarray:
    """A user-supplied ``dim x dim`` scatter, symmetrized.

    Entries must be finite, symmetry is validated to 1e-9 relative to
    ``max(largest |entry|, 1)``, and the matrix is then averaged with its
    transpose.  ``source`` names the input in error messages.
    """
    if mat.shape != (dim, dim):
        raise ConfigError(f"{source} has shape {mat.shape}, expected {(dim, dim)}")
    if not np.all(np.isfinite(mat)):
        raise ConfigError(f"{source} entries must be finite")
    scale = max(float(np.max(np.abs(mat))), 1.0)
    if float(np.max(np.abs(mat - mat.T))) > 1e-9 * scale:
        raise ConfigError(f"{source} is not symmetric within 1e-9")
    return 0.5 * (mat + mat.T)


def build_variate(family: str, alpha, prefix: str = "--") -> GeneratingVariateSpec:
    """The generating variate of ``family`` with tail index ``alpha``.
    Error messages name each setting as ``prefix`` and its name:
    ``--alpha`` for the flag, ``model.alpha`` for the key of a --config
    file."""
    if family not in FAMILIES:
        raise ConfigError(f"{prefix}family must be one of {FAMILIES}, got {family!r}")
    if alpha is None:
        raise ConfigError(f"{prefix}alpha is required for the {family} family")
    try:
        return GeneratingVariateSpec(family=family, alpha=alpha)
    except DomainError as exc:
        raise ConfigError(f"invalid {prefix}alpha: {exc}") from None


def build_model(args) -> EllipticalModel:
    dim = args.dim
    if dim < 1:
        raise ConfigError(f"--dim must be at least 1, got {dim}")
    variate = build_variate(args.family, args.alpha)
    if args.mu is None:
        mu = np.zeros(dim)
    else:
        mu = parse_mu(args.mu)
        if mu.shape[0] != dim:
            raise ConfigError(
                f"--mu has {mu.shape[0]} entries, expected --dim = {dim}"
            )
    return _make_model(mu, load_scatter(args.sigma, dim), variate, "--sigma")


def _make_model(mu, sigma, variate, source: str) -> EllipticalModel:
    """EllipticalModel from user input; a scatter that is not positive
    definite is a configuration error, named by ``source``."""
    try:
        return EllipticalModel(mu=mu, sigma=sigma, variate=variate)
    except NotPositiveDefinite as exc:
        raise ConfigError(f"{source} is not positive definite: {exc}") from exc


# -- subcommands -----------------------------------------------------------


def cmd_simulate(args) -> int:
    if args.n < 1:
        raise ConfigError(f"--n must be at least 1, got {args.n}")
    model = build_model(args)
    sample, radii = sample_elliptical(model, args.n, RngStream(args.seed, 0))

    config = {
        "family": args.family,
        "alpha": args.alpha,
        "dim": args.dim,
        "n": args.n,
        "mu": model.mu,
        "sigma": model.sigma,
        "out": args.out,
        "radii_out": args.radii_out,
    }
    manifest = build_manifest("simulate", config, args.seed)

    buf = io.StringIO()
    write_csv(buf, sample)
    _emit(args.out, buf.getvalue(), manifest)
    if args.radii_out is not None:
        rbuf = io.StringIO()
        write_csv(rbuf, ([float(r)] for r in radii))
        _emit(args.radii_out, rbuf.getvalue(), manifest)
    return EXIT_OK


def cmd_estimate(args) -> int:
    """Hill at the given (--mu, --sigma) or at the --method fit; every k
    is checked before the fit."""
    data = load_csv_matrix(args.data)
    n, d = data.shape
    ks = parse_int_list(args.k, "--k")
    for k in ks:
        _check_k(k, n)
    if (args.mu is None) != (args.sigma is None):
        raise ConfigError("--mu and --sigma must be given together or not at all")
    if args.mu is not None:
        if args.method is not None:
            raise ConfigError("--method cannot be given with --mu/--sigma")
        mu = parse_mu(args.mu)
        if mu.shape[0] != d:
            raise ConfigError(f"--mu has {mu.shape[0]} entries, data has {d} columns")
        sigma = load_scatter(args.sigma, d)
        method_name, warning_messages = "given-params", []
        median_iterations = shape_iterations = 0
    else:
        if args.method is None:
            raise ConfigError("--method is required unless --mu/--sigma are given")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            loc = estimate_location_scatter(data, _METHOD_NAMES[args.method])
        mu, sigma = loc.mu_hat, loc.sigma_hat
        method_name = args.method
        median_iterations = loc.median_iterations
        shape_iterations = loc.shape_iterations
        warning_messages = [str(w.message) for w in caught]
    try:
        gammas = separating_hill(data, mu, sigma, ks)
    except NotPositiveDefinite as exc:
        # only a given scatter: each fit has already inverted its own
        raise ConfigError(f"--sigma is not positive definite: {exc}") from exc
    config = {
        "data": args.data,
        "k_values": ks,
        "method": method_name,
        "out": args.out,
    }
    payload = {
        "n": n,
        "d": d,
        "method": method_name,
        "mu_hat": mu,
        "sigma_hat": sigma,
        "median_iterations": median_iterations,
        "shape_iterations": shape_iterations,
        "estimates": [{"k": k, "gamma_hat": g} for k, g in zip(ks, gammas)],
        "warnings": warning_messages,
        "manifest": build_manifest("estimate", config, 0),
    }
    _emit(args.out, dumps_json(payload) + "\n", payload["manifest"])
    return EXIT_OK


def cmd_verify_bounds(args) -> int:
    if args.trials < 1:
        raise ConfigError(f"--trials must be at least 1, got {args.trials}")
    if args.n < 4:
        raise ConfigError(f"--n must be at least 4, got {args.n}")
    if not 0 <= args.perturbation_scale < math.inf:
        raise ConfigError(
            "--perturbation-scale must be finite and nonnegative, "
            f"got {args.perturbation_scale}"
        )
    if args.dim < 1:
        raise ConfigError(f"--dim must be at least 1, got {args.dim}")
    variate = build_variate(args.family, args.alpha)
    scale = args.perturbation_scale
    d, n = args.dim, args.n

    pivots = sorted({1, math.ceil(math.sqrt(n)), math.ceil(n / 10)})

    applicable_count = 0
    violations = 0
    slacks = []
    ratio_gaps = []
    m_values = []
    bound_values = []

    for trial in range(args.trials):
        gen = RngStream(args.seed, trial).generator()
        mu = gen.normal(0.0, 1.0, d)
        g = gen.normal(0.0, 1.0, (d, d))
        sigma = np.einsum("ik,jk->ij", g, g) / d + 0.5 * np.eye(d)
        model = EllipticalModel(mu=mu, sigma=sigma, variate=variate)
        sample, _ = sample_elliptical(model, n, gen)

        sigma_inv = model.sigma_inv
        # a positive-semidefinite bump keeps the perturbed inverse valid at
        # any magnitude of the scale flag
        w = gen.normal(0.0, 1.0, (d, d))
        sigma_hat_inv = sigma_inv + scale * np.einsum("ik,jk->ij", w, w) / d
        mu_hat = mu + scale * gen.normal(0.0, 1.0, d)

        # the truth translated to the origin, as the experiment harness
        # measures it; no scale is matched (c = 1 there), since the
        # perturbed inverse is drawn around sigma_inv itself
        coeffs = bounds.perturbation_coefficients(
            sigma_inv, sigma_hat_inv, mu_hat - mu, model.lambda_max
        )
        true_ordered = order_desc(mahalanobis_distances(sample, mu, sigma_inv))
        est_ordered = order_desc(
            mahalanobis_distances(sample, mu_hat, sigma_hat_inv)
        )
        sweep = bounds.check_envelopes(true_ordered, est_ordered, coeffs.m_n, pivots)
        applicable_count += sweep.applicable
        violations += sweep.violations
        if sweep.min_epsilon_slack is not None:
            slacks.append(sweep.min_epsilon_slack)
        if sweep.max_ratio_gap is not None:
            ratio_gaps.append(sweep.max_ratio_gap)
        m_values.extend([coeffs.m_n] * len(sweep.ratio_bounds))
        bound_values.extend(sweep.ratio_bounds)

    def _stats(vals):
        if not vals:
            return None
        arr = np.asarray(vals, dtype=float)
        return {
            "min": float(arr.min()),
            "mean": float(arr.mean()),
            "max": float(arr.max()),
        }

    config = {
        "trials": args.trials,
        "n": n,
        "dim": d,
        "family": args.family,
        "alpha": args.alpha,
        "perturbation_scale": scale,
        "out": args.out,
    }
    payload = {
        "trials": args.trials,
        "applicable_count": applicable_count,
        "violations": violations,
        "max_ratio_gap": max(ratio_gaps, default=None),
        "bound_stats": {
            "m_n": _stats(m_values),
            "log_ratio_bound": _stats(bound_values),
            "min_epsilon_slack": min(slacks, default=None),
        },
        "manifest": build_manifest("verify-bounds", config, args.seed),
    }
    _emit(args.out, dumps_json(payload) + "\n", payload["manifest"])
    return EXIT_OK


#: The keys a --config file may hold, at its top level and in its model,
#: and those it must hold (:func:`build_variate` names a missing alpha).
#: The top level is ExperimentConfig's fields; those without a default
#: are required.
_CONFIG_KEYS = tuple(f.name for f in dataclasses.fields(montecarlo.ExperimentConfig))
_CONFIG_REQUIRED = tuple(
    f.name
    for f in dataclasses.fields(montecarlo.ExperimentConfig)
    if f.default is dataclasses.MISSING
)
_MODEL_KEYS = ("family", "alpha", "mu", "sigma")
_MODEL_REQUIRED = ("family", "mu", "sigma")


def _experiment_config_from_file(path: str) -> montecarlo.ExperimentConfig:
    """The experiment a --config file describes.  Every error in the file
    is a :class:`ConfigError` that names the file once, as ``--config
    '<path>': ``, and the key at fault as ``model.sigma`` or
    ``n_values``."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
        return _experiment_config_from_json(raw)
    except json.JSONDecodeError as exc:
        message = f"could not parse as JSON: {exc}"
    except ConfigError as exc:
        message = str(exc)
    raise ConfigError(f"--config {path!r}: {message}") from None


def _experiment_config_from_json(raw) -> montecarlo.ExperimentConfig:
    if not isinstance(raw, dict):
        raise ConfigError(f"must hold a JSON object, got {type(raw).__name__}")
    model_raw = raw.get("model", {})
    if not isinstance(model_raw, dict):
        raise ConfigError(f"model must be a JSON object, got {type(model_raw).__name__}")
    # a key the reader does not know would otherwise be dropped unread
    unknown = [key for key in raw if key not in _CONFIG_KEYS]
    unknown += [f"model.{key}" for key in model_raw if key not in _MODEL_KEYS]
    missing = [key for key in _CONFIG_REQUIRED if key not in raw]
    if "model" in raw:
        missing += [f"model.{key}" for key in _MODEL_REQUIRED if key not in model_raw]
    for what, keys in (("unknown", unknown), ("missing", missing)):
        if keys:
            raise ConfigError(f"{what} key{'s' * (len(keys) > 1)} {', '.join(keys)}")
    mu = _config_array(model_raw["mu"], "model.mu", 1)
    dim = mu.shape[0]
    if dim < 1:
        raise ConfigError("model.mu must not be empty")
    variate = build_variate(model_raw["family"], model_raw.get("alpha"), "model.")
    sigma = _check_scatter(
        _config_array(model_raw["sigma"], "model.sigma", 2), dim, "model.sigma"
    )
    model = _make_model(mu, sigma, variate, "model.sigma")
    # a null optional key is the key left out: ExperimentConfig holds the
    # defaults
    optional = [key for key in _CONFIG_KEYS if key not in _CONFIG_REQUIRED]
    given = {key: raw[key] for key in optional if raw.get(key) is not None}
    if "k_values" in given:
        given["k_values"] = _config_list(given["k_values"], "k_values")
    return montecarlo.ExperimentConfig(
        model=model,
        n_values=_config_list(raw["n_values"], "n_values"),
        replications=raw["replications"],
        **given,
    )


def _config_array(value, key: str, ndim: int) -> np.ndarray:
    """A numeric key of a --config file as a float array with ``ndim``
    axes and finite entries; a ragged, non-numeric, non-finite or wrongly
    nested value is a configuration error."""
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        arr = None
    if arr is None or arr.ndim != ndim:
        expected = "a list of numbers" if ndim == 1 else "a list of equal-length rows"
        raise ConfigError(f"{key} must be {expected}")
    if not np.all(np.isfinite(arr)):
        raise ConfigError(f"{key} entries must be finite")
    return arr


def _config_list(value, key: str) -> tuple:
    """A list key of a --config file as a tuple."""
    if not isinstance(value, list):
        raise ConfigError(f"{key} must be a list, got {type(value).__name__}")
    return tuple(value)


def _experiment_config_inline(args) -> montecarlo.ExperimentConfig:
    for flag, name in ((args.dim, "--dim"), (args.n_values, "--n-values"), (args.replications, "--replications")):
        if flag is None:
            raise ConfigError(f"{name} is required without --config")
    flags = {
        "base_seed": args.seed,
        "estimator_method": _METHOD_NAMES.get(args.method),
        "k_beta": args.k_beta,
        "k_values": None if args.k_list is None else parse_int_list(args.k_list, "--k-list"),
    }
    return montecarlo.ExperimentConfig(
        model=build_model(args),
        n_values=tuple(parse_int_list(args.n_values, "--n-values")),
        replications=args.replications,
        **{key: value for key, value in flags.items() if value is not None},
    )


def _config_as_dict(config: montecarlo.ExperimentConfig) -> dict:
    """``config`` as the --config file that describes it."""
    as_dict = {key: getattr(config, key) for key in _CONFIG_KEYS}
    variate = config.model.variate
    as_dict["model"] = {
        "family": variate.family,
        "alpha": variate.alpha,
        "mu": config.model.mu,
        "sigma": config.model.sigma,
    }
    return as_dict


#: What may go beside ``experiment --config``, by ``args`` name; the file
#: gives every other setting (``subcommand`` and ``func`` are not flags).
_BESIDE_CONFIG = ("subcommand", "func", "config", "workers", "out", "records_out")


def cmd_experiment(args) -> int:
    if args.config is not None:
        beside = [
            "--" + name.replace("_", "-")
            for name, value in vars(args).items()
            if value is not None and name not in _BESIDE_CONFIG
        ]
        if beside:
            raise ConfigError(
                f"{', '.join(beside)} cannot go with --config, which gives the "
                "whole experiment; only --workers, --out and --records-out can"
            )
        config = _experiment_config_from_file(args.config)
    else:
        config = _experiment_config_inline(args)
    if args.workers < 1:
        raise ConfigError(f"--workers must be at least 1, got {args.workers}")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = montecarlo.run_experiment(config, workers=args.workers)
    manifest = build_manifest(
        "experiment", _config_as_dict(config), config.base_seed
    )
    payload = {
        "gamma": config.model.variate.gamma,
        "estimator_method": config.estimator_method,
        "replications": config.replications,
        "aggregates": [dataclasses.asdict(agg) for agg in result.aggregates],
        "true_aggregates": [dataclasses.asdict(a) for a in result.true_aggregates],
        "total_failures": sum(a.failures for a in result.aggregates),
        "warnings": [str(w.message) for w in caught],
        "manifest": manifest,
    }
    _emit(args.out, dumps_json(payload) + "\n", manifest)
    if args.records_out is not None:
        buf = io.StringIO()
        rows = []
        for rec in result.records:
            row = [rec.rep_id, rec.n, rec.k]
            if isinstance(rec, montecarlo.ReplicationFailure):
                row += [math.nan] * 6 + [1, rec.failure]
            else:
                rep = rec.bound_report
                row += [
                    rec.gamma_hat_true,
                    rec.gamma_hat_est,
                    rec.normalized_error,
                    rec.estimator_gap,
                    rep.m_n,
                    rep.b_n,
                    0,
                    "",
                ]
            rows.append(row)
        write_csv(buf, rows)
        _emit(args.records_out, buf.getvalue(), manifest)
    return EXIT_OK


# -- argument parser -------------------------------------------------------


def _add_family_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--family", required=True, choices=FAMILIES)
    p.add_argument(
        "--alpha", type=float, help="tail index (for t-radial, the degrees of freedom)"
    )


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sephill",
        description="Separating Hill estimator toolkit for heavy-tailed elliptical data",
    )
    parser.add_argument("--version", action="version", version=f"sephill {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("simulate", help="draw synthetic elliptical data to CSV")
    _add_family_flags(p)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--mu", help="comma-separated location (default: origin)")
    p.add_argument("--sigma", help="scatter CSV file or 'identity' (the default)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="-", help="output CSV path, '-' for stdout")
    p.add_argument("--radii-out", help="also write the generating radii")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("estimate", help="estimate the extreme value index from CSV data")
    p.add_argument("--data", required=True)
    p.add_argument("--k", required=True, help="one k or comma-separated k values")
    p.add_argument("--method", choices=["mean-cov", "median-tyler"])
    p.add_argument("--mu", help="known location (with --sigma): skip estimation")
    p.add_argument("--sigma", help="known scatter file or 'identity' (with --mu)")
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser(
        "verify-bounds", help="randomized verification of the perturbation envelopes"
    )
    _add_family_flags(p)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--perturbation-scale", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_verify_bounds)

    p = sub.add_parser("experiment", help="run a Monte Carlo experiment")
    # the inline flags default to None, so a flag given beside --config
    # can be told from one that was not
    p.add_argument(
        "--config",
        help="JSON experiment description; only --workers, --out and "
        "--records-out may go with it",
    )
    p.add_argument("--family", choices=FAMILIES)
    p.add_argument("--alpha", type=float)
    p.add_argument("--dim", type=int)
    p.add_argument("--mu", help="comma-separated location (default: origin)")
    p.add_argument("--sigma", help="scatter CSV file or 'identity' (the default)")
    p.add_argument("--n-values", help="comma-separated sample sizes")
    p.add_argument("--k-beta", type=float, help="k = ceil(n**k_beta), default 0.5")
    p.add_argument("--k-list", help="explicit k per sample size")
    p.add_argument(
        "--method", choices=sorted(_METHOD_NAMES), help="default mean-cov"
    )
    p.add_argument("--replications", type=int)
    p.add_argument("--seed", type=int, help="default 0")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out", default="-")
    p.add_argument("--records-out", help="per-replication CSV")
    p.set_defaults(func=cmd_experiment)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except FailureCapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE_CAP
    except _NUMERIC_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except SepHillError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
