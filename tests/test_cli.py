import argparse
import dataclasses
import json
import math
import os
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from sephill import bounds, cli, errors, linalg
from sephill.distributions import (
    EllipticalModel,
    GeneratingVariateSpec,
    RngStream,
    sample_elliptical,
)
from sephill.errors import DegenerateSample
from sephill.estimators import (
    SAMPLE_MEAN_COV,
    SPATIAL_MEDIAN_TYLER,
    estimate_location_scatter,
    mahalanobis_distances,
    order_desc,
    separating_hill,
)
from sephill.montecarlo import AggregateStats

LOG2 = math.log(2.0)

# Valid settings of simulate and verify-bounds; a flag repeated after them
# overrides its value.
SIMULATE = ["--family", "pareto", "--alpha", "3", "--dim", "2", "--n", "5"]
VERIFY = ["--family", "pareto", "--alpha", "3", "--dim", "2", "--n", "20",
          "--trials", "1", "--perturbation-scale", "0.1"]


def write_ladder_csv(path):
    """Four points on the first axis with unit-scatter distances 8,4,2,1."""
    rows = ["8.0,0.0", "4.0,0.0", "2.0,0.0", "1.0,0.0"]
    path.write_text("\n".join(rows) + "\n")
    return str(path)


class TestSerialization:
    def test_json_round_trips_doubles(self):
        x = 0.1 + 0.2
        blob = cli.dumps_json({"x": x, "arr": np.array([x, 1.0 / 3.0])})
        back = json.loads(blob)
        assert back["x"] == x
        assert back["arr"][0] == x and back["arr"][1] == 1.0 / 3.0

    def test_json_nan_becomes_null(self):
        back = json.loads(
            cli.dumps_json(
                {"a": math.nan, "b": None, "c": True, "inf": [math.inf, -math.inf],
                 "arr": np.array([1.5, math.nan])}
            )
        )
        assert back["a"] is None and back["b"] is None and back["c"] is True
        assert back["inf"] == [None, None]
        assert back["arr"] == [1.5, None]
        blob = cli.dumps_json([np.float64(0.25), np.int64(7), np.bool_(False)])
        assert blob == "[\n  0.25,\n  7,\n  false\n]"

    def test_json_floats_use_shortest_repr(self):
        # the same spelling as the CSV cells
        assert cli.dumps_json([0.1, 5.0]) == "[\n  0.1,\n  5.0\n]"
        assert cli.csv_cell(0.1) == "0.1"

    def test_json_deterministic(self):
        payload = {"b": [1, 2], "a": {"x": 0.5}}
        assert cli.dumps_json(payload) == cli.dumps_json(payload)

    def test_csv_cells(self):
        assert cli.csv_cell(True) == "1"
        assert cli.csv_cell(False) == "0"
        assert cli.csv_cell(3) == "3"
        assert float(cli.csv_cell(0.1)) == 0.1
        assert cli.csv_cell("a,b\nc") == "a;b c"


class TestSimulate:
    def _run(self, tmp_path, name, extra=()):
        out = tmp_path / name
        code = cli.main(
            ["simulate", "--family", "pareto", "--alpha", "3", "--dim", "2",
             "--n", "30", "--seed", "7", "--out", str(out), *extra]
        )
        assert code == 0
        return out

    def test_reruns_are_byte_identical(self, tmp_path):
        a = self._run(tmp_path, "a.csv")
        b = self._run(tmp_path, "b.csv")
        assert a.read_bytes() == b.read_bytes()

    def test_matches_library_sampler_exactly(self, tmp_path):
        out = self._run(tmp_path, "data.csv")
        model = EllipticalModel(
            mu=np.zeros(2),
            sigma=np.eye(2),
            variate=GeneratingVariateSpec.pareto(3.0),
        )
        sample, _ = sample_elliptical(model, 30, RngStream(7, 0))
        loaded = np.loadtxt(out, delimiter=",", ndmin=2)
        np.testing.assert_array_equal(loaded, sample)

    def test_radii_file_matches_distances(self, tmp_path):
        out = self._run(tmp_path, "d.csv", extra=["--radii-out", str(tmp_path / "r.csv")])
        data = np.loadtxt(out, delimiter=",", ndmin=2)
        radii = np.loadtxt(tmp_path / "r.csv", delimiter=",")
        dists = np.linalg.norm(data, axis=1)  # mu = 0, identity scatter
        np.testing.assert_allclose(dists, radii, rtol=1e-12)

    def test_header_flag_is_gone(self, tmp_path):
        # a header row made a file that estimate could not read back
        out = tmp_path / "h.csv"
        assert cli.main(
            ["simulate", "--family", "pareto", "--alpha", "3", "--dim", "2",
             "--n", "30", "--out", str(out), "--header"]
        ) == 2
        assert not out.exists()

    @pytest.mark.parametrize(
        "out, radii_out",
        [
            ("-", "-"),
            ("s.csv", "s.csv"),
            ("s.csv", "sub/../s.csv"),
            ("s.csv", "s.csv.manifest.json"),
            ("r.csv.manifest.json", "r.csv"),
        ],
        ids=["both-stdout", "one-file", "one-file-two-spellings", "radii-on-sidecar",
             "sidecar-on-rows"],
    )
    def test_two_outputs_at_one_destination_exit_config(
        self, tmp_path, monkeypatch, capsys, out, radii_out
    ):
        # one stream or one file (an output or its sidecar) cannot hold both
        # outputs apart
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        argv = ["simulate", *SIMULATE, "--out", out, "--radii-out", radii_out]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: --out {out!r} and --radii-out {radii_out!r} share a destination "
            "(stdout, a file or its manifest sidecar); give each its own\n"
        )
        assert [p.name for p in tmp_path.iterdir()] == ["sub"]

    @pytest.mark.parametrize(
        "sigma, outputs, flag, path",
        [
            ("s.csv", ["--out", "s.csv"], "--out", "s.csv"),
            ("s.csv", ["--out", "o.csv", "--radii-out", "s.csv"], "--radii-out", "s.csv"),
            ("o.csv.manifest.json", ["--out", "o.csv"], "--out", "o.csv"),
        ],
        ids=["out", "radii-out", "sidecar"],
    )
    def test_output_over_the_sigma_file_exits_config(
        self, tmp_path, monkeypatch, capsys, sigma, outputs, flag, path
    ):
        monkeypatch.chdir(tmp_path)
        (tmp_path / sigma).write_text("1.0,0.0\n0.0,1.0\n")
        argv = ["simulate", *SIMULATE, "--sigma", sigma, *outputs]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == (
            f"error: {flag} {path!r} writes over the input --sigma {sigma!r} "
            "(the output or its manifest sidecar); give the output its own path\n"
        )
        assert (tmp_path / sigma).read_text() == "1.0,0.0\n0.0,1.0\n"
        assert [p.name for p in tmp_path.iterdir()] == [sigma]

    def test_manifest_sidecar(self, tmp_path):
        out = self._run(tmp_path, "m.csv")
        side = json.loads((tmp_path / "m.csv.manifest.json").read_text())
        assert side["command"] == "simulate"
        assert side["base_seed"] == 7
        assert "timestamp" in side
        assert side["config"]["n"] == 30

    def test_stdout_mode(self, tmp_path, capsys):
        code = cli.main(
            ["simulate", "--family", "pareto", "--alpha", "3", "--dim", "2",
             "--n", "3", "--seed", "1"]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3
        assert len(lines[0].split(",")) == 2

    def test_seed_defaults_to_zero_whatever_the_environment(self, tmp_path, monkeypatch):
        a = tmp_path / "zero.csv"
        assert cli.main(
            ["simulate", "--family", "pareto", "--alpha", "3", "--dim", "2",
             "--n", "30", "--seed", "0", "--out", str(a)]
        ) == 0
        monkeypatch.setenv("SEPHILL_SEED", "7")
        b = tmp_path / "default.csv"
        assert cli.main(
            ["simulate", "--family", "pareto", "--alpha", "3", "--dim", "2",
             "--n", "30", "--out", str(b)]
        ) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_missing_alpha_names_the_flag(self, tmp_path, capsys):
        code = cli.main(
            ["simulate", "--family", "pareto", "--dim", "2", "--n", "5",
             "--out", str(tmp_path / "x.csv")]
        )
        assert code == 2
        assert "--alpha" in capsys.readouterr().err

    def test_nonpositive_alpha_rejected(self, tmp_path, capsys):
        code = cli.main(
            ["simulate", "--family", "pareto", "--alpha", "0", "--dim", "2",
             "--n", "5", "--out", str(tmp_path / "x.csv")]
        )
        assert code == 2
        assert "--alpha" in capsys.readouterr().err

    def test_t_radial_needs_alpha(self, tmp_path, capsys):
        code = cli.main(
            ["simulate", "--family", "t-radial", "--dim", "2", "--n", "5",
             "--out", str(tmp_path / "x.csv")]
        )
        assert code == 2
        assert "--alpha is required for the t-radial family" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "family, flag, value",
        [
            ("pareto", "--alpha", "inf"),
            ("frechet", "--alpha", "nan"),
            ("t-radial", "--alpha", "inf"),
            ("t-radial", "--alpha", "-inf"),
        ],
        ids=["pareto-alpha-inf", "frechet-alpha-nan", "t-radial-alpha-inf",
             "t-radial-alpha-minus-inf"],
    )
    def test_nonfinite_variate_parameter_rejected(
        self, tmp_path, capsys, family, flag, value
    ):
        out = tmp_path / "x.csv"
        code = cli.main(
            ["simulate", "--family", family, f"{flag}={value}", "--dim", "2",
             "--n", "5", "--out", str(out)]
        )
        assert code == 2
        assert flag in capsys.readouterr().err
        assert not out.exists()

class TestEstimate:
    def test_ladder_oracle(self, tmp_path):
        data = write_ladder_csv(tmp_path / "ladder.csv")
        out = tmp_path / "est.json"
        code = cli.main(
            ["estimate", "--data", data, "--k", "2", "--mu", "0,0",
             "--sigma", "identity", "--out", str(out)]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["n"] == 4 and payload["d"] == 2
        assert payload["method"] == "given-params"
        assert payload["mu_hat"] == [0.0, 0.0]
        assert payload["median_iterations"] == payload["shape_iterations"] == 0
        est = payload["estimates"]
        assert len(est) == 1 and est[0]["k"] == 2
        assert est[0]["gamma_hat"] == pytest.approx(1.5 * LOG2, rel=1e-12)

    @pytest.mark.parametrize(
        "argv, source, read",
        [
            (["--data", "d.csv", "--method", "mean-cov", "--out", "d.csv"],
             "--data", "d.csv"),
            (["--data", "d.csv", "--mu", "0,0", "--sigma", "s.csv", "--out", "s.csv"],
             "--sigma", "s.csv"),
            (["--data", "d.csv.manifest.json", "--method", "mean-cov", "--out", "d.csv"],
             "--data", "d.csv.manifest.json"),
        ],
        ids=["data", "sigma", "data-on-sidecar"],
    )
    def test_output_over_an_input_exits_config(
        self, tmp_path, monkeypatch, capsys, argv, source, read
    ):
        # the parent replaced the sample or the scatter with the JSON, exit 0
        monkeypatch.chdir(tmp_path)
        inputs = {name: write_ladder_csv(tmp_path / name)
                  for name in ("d.csv", "s.csv", "d.csv.manifest.json")}
        before = {name: Path(path).read_bytes() for name, path in inputs.items()}
        assert cli.main(["estimate", "--k", "2", *argv]) == 2
        out = argv[argv.index("--out") + 1]
        assert capsys.readouterr().err == (
            f"error: --out {out!r} writes over the input {source} {read!r} "
            "(the output or its manifest sidecar); give the output its own path\n"
        )
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_a_file_named_identity_is_no_sigma_input(self, tmp_path, monkeypatch):
        # --sigma identity reads no file, so an output may take that name
        monkeypatch.chdir(tmp_path)
        write_ladder_csv(tmp_path / "d.csv")
        assert cli.main(
            ["estimate", "--data", "d.csv", "--k", "2", "--mu", "0,0",
             "--sigma", "identity", "--out", "identity"]
        ) == 0
        assert json.loads((tmp_path / "identity").read_text())["n"] == 4

    def test_round_trip_equals_library(self, tmp_path):
        sim = tmp_path / "sim.csv"
        assert cli.main(
            ["simulate", "--family", "pareto", "--alpha", "2", "--dim", "2",
             "--n", "200", "--seed", "9", "--out", str(sim)]
        ) == 0
        out = tmp_path / "est.json"
        assert cli.main(
            ["estimate", "--data", str(sim), "--k", "14", "--mu", "0,0",
             "--sigma", "identity", "--out", str(out)]
        ) == 0
        payload = json.loads(out.read_text())
        data = np.loadtxt(sim, delimiter=",", ndmin=2)
        [direct] = separating_hill(data, np.zeros(2), np.eye(2), [14])
        # CSV floats round-trip, so the two routes agree to the last bit
        assert payload["estimates"][0]["gamma_hat"] == direct

    def test_k_list(self, tmp_path):
        data = write_ladder_csv(tmp_path / "ladder.csv")
        out = tmp_path / "est.json"
        assert cli.main(
            ["estimate", "--data", data, "--k", "1,3", "--mu", "0,0",
             "--sigma", "identity", "--out", str(out)]
        ) == 0
        est = json.loads(out.read_text())["estimates"]
        assert [e["k"] for e in est] == [1, 3]
        assert est[0]["gamma_hat"] == pytest.approx(LOG2, rel=1e-12)
        assert est[1]["gamma_hat"] == pytest.approx(2 * LOG2, rel=1e-12)

    def test_estimated_method(self, tmp_path):
        sim = tmp_path / "sim.csv"
        assert cli.main(
            ["simulate", "--family", "pareto", "--alpha", "3", "--dim", "2",
             "--n", "300", "--seed", "4", "--out", str(sim)]
        ) == 0
        out = tmp_path / "est.json"
        assert cli.main(
            ["estimate", "--data", str(sim), "--k", "17",
             "--method", "mean-cov", "--out", str(out)]
        ) == 0
        payload = json.loads(out.read_text())
        assert payload["method"] == "mean-cov"
        assert len(payload["mu_hat"]) == 2
        assert payload["estimates"][0]["gamma_hat"] > 0

    @pytest.mark.parametrize(
        "method, library", [("median-tyler", SPATIAL_MEDIAN_TYLER), ("mean-cov", SAMPLE_MEAN_COV)]
    )
    def test_reports_iteration_counts(self, tmp_path, method, library):
        # the Weiszfeld and Tyler map evaluations are reported apart, both
        # 0 for the closed-form fit, between the fit and the estimates
        sim = tmp_path / "sim.csv"
        assert cli.main(
            ["simulate", "--family", "pareto", "--alpha", "2", "--dim", "2",
             "--n", "500", "--seed", "5", "--out", str(sim)]
        ) == 0
        out = tmp_path / "est.json"
        assert cli.main(
            ["estimate", "--data", str(sim), "--k", "20", "--method", method,
             "--out", str(out)]
        ) == 0
        payload = json.loads(out.read_text())
        assert list(payload) == [
            "n", "d", "method", "mu_hat", "sigma_hat", "median_iterations",
            "shape_iterations", "estimates", "warnings", "manifest",
        ]
        fit = estimate_location_scatter(np.loadtxt(sim, delimiter=",", ndmin=2), library)
        assert payload["median_iterations"] == fit.median_iterations
        assert payload["shape_iterations"] == fit.shape_iterations
        if library == SPATIAL_MEDIAN_TYLER:
            assert payload["median_iterations"] > 0 and payload["shape_iterations"] > 0
        else:
            assert payload["median_iterations"] == payload["shape_iterations"] == 0

    def test_non_finite_mu_names_the_flag(self, tmp_path, capsys):
        data = write_ladder_csv(tmp_path / "l.csv")
        code = cli.main(
            ["estimate", "--k", "2", "--data", data, "--mu", "0,nan", "--sigma", "identity"]
        )
        assert code == 2
        assert "--mu" in capsys.readouterr().err

    def test_mu_without_sigma(self, tmp_path, capsys):
        data = write_ladder_csv(tmp_path / "l.csv")
        code = cli.main(["estimate", "--data", data, "--k", "1", "--mu", "0,0"])
        assert code == 2
        assert "--sigma" in capsys.readouterr().err

    @pytest.mark.parametrize("method", ["mean-cov", "median-tyler"])
    def test_method_beside_given_params_is_rejected(self, tmp_path, capsys, method):
        # a given location and scatter leave no fit for --method to choose
        data = write_ladder_csv(tmp_path / "l.csv")
        out = tmp_path / "est.json"
        code = cli.main(
            ["estimate", "--data", data, "--k", "2", "--mu", "0,0",
             "--sigma", "identity", "--method", method, "--out", str(out)]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "--method" in err and "--mu/--sigma" in err
        assert not out.exists()

    def test_k_list_flag_is_gone(self, tmp_path):
        # --k takes the list; a second flag for the same setting is unknown
        data = write_ladder_csv(tmp_path / "l.csv")
        assert cli.main(
            ["estimate", "--data", data, "--k-list", "1,2",
             "--mu", "0,0", "--sigma", "identity"]
        ) == 2

    def test_bad_k_list_names_the_flag(self, tmp_path, capsys):
        data = write_ladder_csv(tmp_path / "l.csv")
        code = cli.main(
            ["estimate", "--data", data, "--k", "1,x", "--mu", "0,0",
             "--sigma", "identity"]
        )
        assert code == 2
        assert "--k expects comma-separated integers" in capsys.readouterr().err

    def test_no_k_flag(self, tmp_path):
        data = write_ladder_csv(tmp_path / "l.csv")
        assert cli.main(
            ["estimate", "--data", data, "--mu", "0,0", "--sigma", "identity"]
        ) == 2

    def test_k_out_of_range(self, tmp_path, capsys):
        data = write_ladder_csv(tmp_path / "l.csv")
        code = cli.main(
            ["estimate", "--data", data, "--k", "4", "--mu", "0,0",
             "--sigma", "identity"]
        )
        assert code == 2
        assert "k" in capsys.readouterr().err

    @pytest.mark.parametrize("k", ["0", "4", "2,4"])
    def test_k_is_checked_by_the_library_before_the_fit(self, tmp_path, capsys, k):
        # the fit fails on the ladder, which lies on one axis (exit 4 with a
        # valid k), so a k error read with exit 2 was raised before any fit
        data = write_ladder_csv(tmp_path / "l.csv")
        out = tmp_path / "est.json"
        argv = ["estimate", "--data", data, "--method", "median-tyler", "--out", str(out)]
        assert cli.main(argv + ["--k", "2"]) == 4
        assert "shape iterate lost positive definiteness" in capsys.readouterr().err
        assert cli.main(argv + ["--k", k]) == 2
        bad = k.split(",")[-1]
        assert capsys.readouterr().err == (
            f"error: k must be an integer with 1 <= k <= n - 1, got k={bad}, n=4\n"
        )
        assert not out.exists()

    def test_given_scatter_is_inverted_once(self, tmp_path, monkeypatch):
        inversions = []
        inverse = linalg._inverse_from_factor

        def counted(lower):
            inversions.append(lower)
            return inverse(lower)

        monkeypatch.setattr(linalg, "_inverse_from_factor", counted)
        data = write_ladder_csv(tmp_path / "l.csv")
        (tmp_path / "sigma.csv").write_text("4.0,1.0\n1.0,4.0\n")
        out = tmp_path / "est.json"
        assert cli.main(
            ["estimate", "--data", data, "--k", "1,2", "--mu", "0,0",
             "--sigma", str(tmp_path / "sigma.csv"), "--out", str(out)]
        ) == 0
        assert len(inversions) == 1

    def test_degenerate_estimation_is_numeric_error(self, tmp_path, capsys):
        (tmp_path / "tiny.csv").write_text("1,0,0\n0,1,0\n0,0,1\n")
        code = cli.main(
            ["estimate", "--data", str(tmp_path / "tiny.csv"), "--k", "1",
             "--method", "median-tyler"]
        )
        assert code == 4
        assert capsys.readouterr().err.startswith("error:")

    def test_identical_rows_leave_tyler_no_usable_row(self, tmp_path, capsys):
        # every row sits at the spatial median, so no row has a direction
        (tmp_path / "same.csv").write_text("1,2\n" * 5)
        code = cli.main(
            ["estimate", "--data", str(tmp_path / "same.csv"), "--k", "1",
             "--method", "median-tyler"]
        )
        assert code == 4
        assert capsys.readouterr().err == (
            "error: Tyler shape needs more than d=2 usable rows, have 0\n"
        )

    def test_missing_data_file_is_io_error(self, tmp_path):
        code = cli.main(
            ["estimate", "--data", str(tmp_path / "nope.csv"), "--k", "1",
             "--mu", "0,0", "--sigma", "identity"]
        )
        assert code == 3

    def test_unwritable_out_is_io_error(self, tmp_path):
        data = write_ladder_csv(tmp_path / "l.csv")
        code = cli.main(
            ["estimate", "--data", data, "--k", "1", "--mu", "0,0",
             "--sigma", "identity", "--out", str(tmp_path / "no-dir" / "x.json")]
        )
        assert code == 3

    def test_embedded_manifest_has_no_timestamp(self, tmp_path):
        data = write_ladder_csv(tmp_path / "l.csv")
        out = tmp_path / "est.json"
        assert cli.main(
            ["estimate", "--data", data, "--k", "1", "--mu", "0,0",
             "--sigma", "identity", "--out", str(out)]
        ) == 0
        payload = json.loads(out.read_text())
        assert "timestamp" not in payload["manifest"]
        side = json.loads((tmp_path / "est.json.manifest.json").read_text())
        assert "timestamp" in side

    def test_scatter_file_round_trip(self, tmp_path):
        data = write_ladder_csv(tmp_path / "l.csv")
        (tmp_path / "sigma.csv").write_text("4.0,0.0\n0.0,4.0\n")
        out = tmp_path / "est.json"
        assert cli.main(
            ["estimate", "--data", data, "--k", "2", "--mu", "0,0",
             "--sigma", str(tmp_path / "sigma.csv"), "--out", str(out)]
        ) == 0
        # scaling the scatter does not move the estimate
        g = json.loads(out.read_text())["estimates"][0]["gamma_hat"]
        assert g == pytest.approx(1.5 * LOG2, rel=1e-12)

    def test_asymmetric_scatter_rejected(self, tmp_path, capsys):
        data = write_ladder_csv(tmp_path / "l.csv")
        (tmp_path / "bad.csv").write_text("1.0,0.5\n0.0,1.0\n")
        code = cli.main(
            ["estimate", "--data", data, "--k", "1", "--mu", "0,0",
             "--sigma", str(tmp_path / "bad.csv")]
        )
        assert code == 2
        assert "symmetric" in capsys.readouterr().err

    def test_indefinite_scatter_exits_config_like_experiment(self, tmp_path, capsys):
        data = write_ladder_csv(tmp_path / "l.csv")
        (tmp_path / "bad.csv").write_text("1.0,2.0\n2.0,1.0\n")
        code = cli.main(
            ["estimate", "--data", data, "--k", "1", "--mu", "0,0",
             "--sigma", str(tmp_path / "bad.csv")]
        )
        assert code == 2
        assert "positive definite" in capsys.readouterr().err


class TestHillplotIsGone:
    """``estimate --k`` over a list replaces the ``hillplot`` command."""

    #: The gamma_hat column ``hillplot --k-min 20 --k-max 200 --k-step 20
    #: --method mean-cov`` printed for the sample below, as float.hex.
    HILLPLOT_PINNED = [
        "0x1.64eb6900478ecp-2", "0x1.67a66bb8fe1efp-2", "0x1.95c53f19e92acp-2",
        "0x1.69ecceabd5146p-2", "0x1.642b30286a10ep-2", "0x1.62769be24cd23p-2",
        "0x1.5a652b62ee293p-2", "0x1.4becff4f45f52p-2", "0x1.47fee9bbbb79bp-2",
        "0x1.4c6b2a2b6bb88p-2",
    ]

    def test_estimate_gives_the_hillplot_series(self, tmp_path):
        sim = tmp_path / "sample.csv"
        assert cli.main(
            ["simulate", "--family", "pareto", "--alpha", "3", "--dim", "2",
             "--n", "2000", "--seed", "42", "--out", str(sim)]
        ) == 0
        out = tmp_path / "est.json"
        ks = ",".join(str(k) for k in range(20, 201, 20))
        assert cli.main(
            ["estimate", "--data", str(sim), "--k", ks, "--method", "mean-cov",
             "--out", str(out)]
        ) == 0
        est = json.loads(out.read_text())["estimates"]
        assert [e["k"] for e in est] == list(range(20, 201, 20))
        assert [e["gamma_hat"].hex() for e in est] == self.HILLPLOT_PINNED

    def test_hillplot_is_an_unknown_command(self, tmp_path, capsys):
        data = write_ladder_csv(tmp_path / "l.csv")
        assert cli.main(
            ["hillplot", "--data", data, "--k-min", "1", "--k-max", "3",
             "--mu", "0,0", "--sigma", "identity"]
        ) == 2
        assert "invalid choice: 'hillplot'" in capsys.readouterr().err


class TestVerifyBounds:
    def _run(self, tmp_path, name, scale, seed="3", extra=()):
        out = tmp_path / name
        code = cli.main(
            ["verify-bounds", "--family", "pareto", "--alpha", "3",
             "--trials", "3", "--n", "50", "--dim", "2",
             "--perturbation-scale", scale, "--seed", seed,
             "--out", str(out), *extra]
        )
        return code, out

    def test_zero_perturbation_binds_everywhere(self, tmp_path):
        code, out = self._run(tmp_path, "zero.json", "0")
        assert code == 0
        payload = json.loads(out.read_text())
        # l in {1, 5, 8} for n = 50, two verifiers, three trials
        assert payload["applicable_count"] == 18
        assert payload["violations"] == 0
        assert payload["max_ratio_gap"] == 0.0
        assert payload["bound_stats"]["m_n"]["max"] == 0.0

    def test_small_perturbation_no_violations(self, tmp_path):
        code, out = self._run(tmp_path, "small.json", "1e-4")
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["applicable_count"] > 0
        assert payload["violations"] == 0
        assert payload["bound_stats"]["m_n"]["min"] > 0
        assert payload["bound_stats"]["min_epsilon_slack"] > 0

    def test_huge_perturbation_never_applicable(self, tmp_path):
        code, out = self._run(tmp_path, "huge.json", "1e6")
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["applicable_count"] == 0
        assert payload["violations"] == 0
        assert payload["max_ratio_gap"] is None
        assert payload["bound_stats"]["m_n"] is None

    def test_deterministic_output(self, tmp_path):
        # identical invocations (including --out, which the manifest records)
        # yield identical bytes; a different seed does not
        _, a = self._run(tmp_path, "a.json", "1e-3")
        first = a.read_bytes()
        self._run(tmp_path, "a.json", "1e-3")
        assert a.read_bytes() == first
        self._run(tmp_path, "a.json", "1e-3", seed="4")
        assert a.read_bytes() != first

    @pytest.mark.parametrize("scale", ["nan", "inf"])
    def test_non_finite_scale_names_the_flag(self, tmp_path, capsys, scale):
        code, out = self._run(tmp_path, "bad.json", scale)
        assert code == 2
        assert "--perturbation-scale" in capsys.readouterr().err
        assert not out.exists()

    def test_t_radial_family(self, tmp_path):
        out = tmp_path / "t.json"
        code = cli.main(
            ["verify-bounds", "--family", "t-radial", "--alpha", "3",
             "--trials", "2", "--n", "40", "--dim", "3",
             "--perturbation-scale", "1e-4", "--seed", "1", "--out", str(out)]
        )
        assert code == 0
        assert json.loads(out.read_text())["violations"] == 0


def per_pivot_verify_bounds(family, alpha, dim, n, scale, trials, seed, out):
    """The verify-bounds JSON as the per-pivot sweep wrote it: each trial
    calls both verifiers at each pivot and folds their reports one by one."""
    variate = cli.build_variate(family, alpha)
    d = dim
    applicable_count = 0
    violations = 0
    max_ratio_gap = None
    m_values = []
    bound_values = []
    slack_min = None
    for trial in range(trials):
        gen = RngStream(seed, trial).generator()
        mu = gen.normal(0.0, 1.0, d)
        g = gen.normal(0.0, 1.0, (d, d))
        sigma = np.einsum("ik,jk->ij", g, g) / d + 0.5 * np.eye(d)
        sigma = 0.5 * (sigma + sigma.T)
        model = EllipticalModel(mu=mu, sigma=sigma, variate=variate)
        sample, _ = sample_elliptical(model, n, gen)
        sigma_inv = model.sigma_inv
        w = gen.normal(0.0, 1.0, (d, d))
        sigma_hat_inv = sigma_inv + scale * np.einsum("ik,jk->ij", w, w) / d
        sigma_hat_inv = 0.5 * (sigma_hat_inv + sigma_hat_inv.T)
        mu_hat = mu + scale * gen.normal(0.0, 1.0, d)
        # the truth translated to the origin, as verify-bounds measures it
        coeffs = bounds.perturbation_coefficients(
            sigma_inv, sigma_hat_inv, mu_hat - mu, linalg.spectral_norm(sigma)
        )
        true_ordered = order_desc(mahalanobis_distances(sample, mu, sigma_inv))
        est_ordered = order_desc(mahalanobis_distances(sample, mu_hat, sigma_hat_inv))
        for l in sorted({1, math.ceil(math.sqrt(n)), math.ceil(n / 10)}):
            eps_rep = bounds.verify_epsilon_lemma(
                true_ordered**2, est_ordered**2, coeffs.m_n, l
            )
            if eps_rep.applicable:
                applicable_count += 1
                violations += eps_rep.violations
                if slack_min is None or eps_rep.max_slack < slack_min:
                    slack_min = eps_rep.max_slack
            ratio_rep = bounds.verify_log_ratio_lemma(
                true_ordered, est_ordered, coeffs.m_n, l
            )
            if ratio_rep.applicable:
                applicable_count += 1
                violations += ratio_rep.violations
                if max_ratio_gap is None or ratio_rep.max_ratio_gap > max_ratio_gap:
                    max_ratio_gap = ratio_rep.max_ratio_gap
                m_values.append(coeffs.m_n)
                bound_values.append(ratio_rep.bound)

    def _stats(vals):
        if not vals:
            return None
        arr = np.asarray(vals, dtype=float)
        return {"min": float(arr.min()), "mean": float(arr.mean()), "max": float(arr.max())}

    config = {
        "trials": trials, "n": n, "dim": d, "family": family, "alpha": alpha,
        "perturbation_scale": scale, "out": out,
    }
    payload = {
        "trials": trials,
        "applicable_count": applicable_count,
        "violations": violations,
        "max_ratio_gap": max_ratio_gap,
        "bound_stats": {
            "m_n": _stats(m_values),
            "log_ratio_bound": _stats(bound_values),
            "min_epsilon_slack": slack_min,
        },
        "manifest": cli.build_manifest("verify-bounds", config, seed),
    }
    return cli.dumps_json(payload) + "\n"


class TestVerifyBoundsOnePass:
    """verify-bounds checks every pivot in one validated pass per trial; its
    JSON is byte for byte that of the per-pivot sweep above."""

    FAMILIES = {"pareto": 3.0, "t-radial": 3.0, "frechet": 2.0}

    @pytest.mark.parametrize("dim", [2, 3, 4])
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    @pytest.mark.parametrize("scale", ["0", "1e-3", "1e6"])
    def test_json_bytes_match_per_pivot_sweep(self, tmp_path, dim, family, scale):
        alpha = self.FAMILIES[family]
        out = tmp_path / "vb.json"
        code = cli.main(
            ["verify-bounds", "--family", family, "--alpha", repr(alpha), "--trials", "4",
             "--n", "120", "--dim", str(dim), "--perturbation-scale", scale,
             "--seed", "11", "--out", str(out)]
        )
        assert code == 0
        expected = per_pivot_verify_bounds(
            family, alpha, dim, 120, float(scale), 4, 11, str(out)
        )
        assert out.read_text() == expected

    def test_mixed_applicability_matches(self, tmp_path):
        # scale 0.05 leaves some pivots applicable and others not, so the
        # per-trial minima and maxima are folded across partial sweeps
        out = tmp_path / "mixed.json"
        argv = ["verify-bounds", "--family", "pareto", "--alpha", "3", "--trials", "12",
                "--n", "300", "--dim", "2", "--perturbation-scale", "0.05",
                "--seed", "5", "--out", str(out)]
        assert cli.main(argv) == 0
        payload = json.loads(out.read_text())
        assert 0 < payload["applicable_count"] < 6 * 12
        assert out.read_text() == per_pivot_verify_bounds(
            "pareto", 3.0, 2, 300, 0.05, 12, 5, str(out)
        )


class TestEnvelopeBytesArePinned:
    """The envelope's figures as the CLI writes them, pinned as float.hex:
    the m_n/b_n columns of ``experiment --records-out`` for both fits, and
    ``verify-bounds`` on the bounds-sweep benchmark's settings."""

    #: (m_n, b_n) per records row, in (n, rep_id) order.
    RECORDS_PINNED = {
        "sample_mean_cov": [
            ("0x1.e69389ac49d80p-3", "0x1.f13132b241849p-2"),
            ("0x1.7e335113a627bp-2", "0x1.62e42fefa39efp-1"),
            ("0x1.62a711f29e762p-3", "0x1.5344b3e4769d3p-2"),
            ("0x1.a30500a8a178dp-5", "0x1.3d2dc69a1009dp-4"),
            ("0x1.1b22605b72736p-4", "0x1.b03a0d12ed36dp-4"),
            ("0x1.5f9f948bb6ddep-4", "0x1.100f8434c4f96p-3"),
        ],
        "spatial_median_tyler": [
            ("0x1.0291e1d035357p-1", "0x1.62e42fefa39efp-1"),
            ("0x1.1c38cd4efeaa6p-1", "0x1.62e42fefa39efp-1"),
            ("0x1.cd643bf9e6eb9p-2", "0x1.62e42fefa39efp-1"),
            ("0x1.12854f61df1b6p-3", "0x1.b9de31b70e177p-3"),
            ("0x1.4aac0abcf4dadp-3", "0x1.0e89daa22f204p-2"),
            ("0x1.9079b2f1558e8p-3", "0x1.5186cab5a9a0dp-2"),
        ],
    }

    @pytest.mark.parametrize("method", sorted(RECORDS_PINNED))
    def test_records_envelope_columns(self, tmp_path, method):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "model": TestExperiment.TRUE_SIDE_MODEL, "n_values": [2000, 20000],
            "replications": 3, "base_seed": 8086, "estimator_method": method,
        }))
        recs = tmp_path / "records.csv"
        assert cli.main(
            ["experiment", "--config", str(cfg_path), "--out", str(tmp_path / "exp.json"),
             "--records-out", str(recs)]
        ) == 0
        rows = [line.split(",") for line in recs.read_text().splitlines()]
        got = [(float(r[7]).hex(), float(r[8]).hex()) for r in rows]
        assert got == self.RECORDS_PINNED[method]

    #: applicable_count, max_ratio_gap and bound_stats per dimension.
    VERIFY_PINNED = {
        2: (18, "0x1.61e514f43b340p-9", {
            "m_n": ("0x1.9f57c90b9edb1p-8", "0x1.bfc7a5c1441e6p-8", "0x1.e773688e5250fp-8"),
            "log_ratio_bound": (
                "0x1.d84dc4b4815f7p-8", "0x1.4bba1c91d3dcap-7", "0x1.8e2175781ab4cp-7"),
            "min_epsilon_slack": "0x1.00b6f96ab17adp-5",
        }),
        3: (18, "0x1.a873a33d6af00p-9", {
            "m_n": ("0x1.d5e3255b1561ep-9", "0x1.cc02f67955690p-8", "0x1.7915a2cb5b8dbp-7"),
            "log_ratio_bound": (
                "0x1.f6e9bbc9b18b6p-9", "0x1.51deddd863f8cp-7", "0x1.3b7182ab6fd09p-6"),
            "min_epsilon_slack": "0x1.961179dfebfc8p-6",
        }),
        4: (18, "0x1.ff6c66fe82c80p-10", {
            "m_n": ("0x1.017b56b49b54ap-7", "0x1.802d842afc92ep-7", "0x1.13438a4d7dd24p-6"),
            "log_ratio_bound": (
                "0x1.2527d89469198p-7", "0x1.1a0f17396d31fp-6", "0x1.c44be95914e94p-6"),
            "min_epsilon_slack": "0x1.b39da988c39c2p-5",
        }),
    }

    @pytest.mark.parametrize("dim", sorted(VERIFY_PINNED))
    def test_verify_bounds_figures(self, tmp_path, dim):
        out = tmp_path / "vb.json"
        assert cli.main(
            ["verify-bounds", "--family", "pareto", "--alpha", "3.0", "--n", "300",
             "--dim", str(dim), "--perturbation-scale", "0.001", "--trials", "3",
             "--seed", "2701", "--out", str(out)]
        ) == 0
        payload = json.loads(out.read_text())
        stats = payload["bound_stats"]
        got = (
            payload["applicable_count"],
            payload["max_ratio_gap"].hex(),
            {
                "m_n": tuple(stats["m_n"][key].hex() for key in ("min", "mean", "max")),
                "log_ratio_bound": tuple(
                    stats["log_ratio_bound"][key].hex() for key in ("min", "mean", "max")
                ),
                "min_epsilon_slack": stats["min_epsilon_slack"].hex(),
            },
        )
        assert got == self.VERIFY_PINNED[dim]
        assert payload["violations"] == 0


class TestParserReuse:
    """The parser is built once per process and keeps no state between
    calls: every call prints what it prints on a freshly built parser."""

    CALLS = [
        ["verify-bounds", "--family", "pareto", "--alpha", "3", "--n", "40",
         "--dim", "2", "--trials", "2", "--perturbation-scale", "1e-3", "--seed", "2"],
        ["verify-bounds", "--family", "pareto", "--n", "40"],  # missing flags: exit 2
        ["estimate", "--method", "bogus", "--data", "x.csv"],  # bad choice: exit 2
        ["--version"],
        ["simulate", "--family", "pareto", "--alpha", "3", "--dim", "2", "--n", "3",
         "--seed", "4"],
        ["verify-bounds", "--family", "pareto", "--alpha", "3", "--n", "40",
         "--dim", "2", "--trials", "2", "--perturbation-scale", "1e-3", "--seed", "2"],
    ]

    @staticmethod
    def _run(argv, capsys):
        code = cli.main(argv)
        out, err = capsys.readouterr()
        return code, out, err

    def test_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_reused_parser_matches_fresh(self, capsys):
        reused = [self._run(argv, capsys) for argv in self.CALLS]
        fresh = []
        for argv in self.CALLS:
            cli.build_parser.cache_clear()
            fresh.append(self._run(argv, capsys))
        assert [r[0] for r in reused] == [0, 2, 2, 0, 0, 0]
        assert reused == fresh
        assert reused[0] == reused[-1]
        assert "the following arguments are required" in reused[1][2]
        assert "sephill" in reused[3][1]

    def test_namespaces_do_not_share_defaults(self):
        parser = cli.build_parser()
        first = parser.parse_args(
            ["experiment", "--family", "pareto", "--alpha", "3", "--dim", "2"]
        )
        second = parser.parse_args(["estimate", "--data", "x.csv", "--k", "5"])
        assert first.workers == 1
        # experiment's inline defaults are applied by the inline path, so
        # a flag given beside --config can be told from one left out
        assert first.method is None and first.seed is None
        assert second.method is None
        assert not hasattr(second, "workers")
        assert second.func is cli.cmd_estimate


class TestExperiment:
    def _inline_args(self, out, workers="1", seed="3"):
        return [
            "experiment", "--family", "pareto", "--alpha", "5", "--dim", "2",
            "--n-values", "100,200", "--replications", "4",
            "--method", "mean-cov", "--seed", seed,
            "--workers", workers, "--out", str(out),
        ]

    def test_inline_run(self, tmp_path):
        out = tmp_path / "exp.json"
        assert cli.main(self._inline_args(out)) == 0
        payload = json.loads(out.read_text())
        assert payload["gamma"] == 0.2
        assert payload["estimator_method"] == "sample_mean_cov"
        assert payload["replications"] == 4
        assert [a["n"] for a in payload["aggregates"]] == [100, 200]
        assert [a["k"] for a in payload["aggregates"]] == [10, 15]
        assert payload["total_failures"] == 0
        assert payload["aggregates"][0]["count"] == 4
        assert payload["aggregates"][0]["target_mean"] == 0.0
        assert payload["aggregates"][0]["target_sd"] == 0.2
        assert payload["aggregates"][0]["ks_stat"] is not None
        assert payload["manifest"]["config"]["n_values"] == [100, 200]
        assert "workers" not in payload["manifest"]["config"]

    def test_one_dimensional_median_tyler_run_has_no_failures(self, tmp_path):
        # at d = 1 the median is taken in closed form; Weiszfeld steps do
        # not meet their rule within MAX_ITER on 10 of these 20 samples
        out = tmp_path / "d1.json"
        argv = [
            "experiment", "--family", "pareto", "--alpha", "5", "--dim", "1",
            "--n-values", "20000", "--replications", "20",
            "--method", "median-tyler", "--seed", "23", "--out", str(out),
        ]
        assert cli.main(argv) == 0
        payload = json.loads(out.read_text())
        assert payload["total_failures"] == 0
        assert payload["aggregates"][0]["count"] == 20
        assert payload["warnings"] == []

    def test_one_dimensional_median_tyler_at_odd_n_warns_nothing(self, tmp_path):
        # at odd n the median is a row of the sample; the d = 1 shape is
        # [[1.0]] without a Tyler step, so no row is dropped with a warning
        out = tmp_path / "d1_odd.json"
        argv = [
            "experiment", "--family", "pareto", "--alpha", "3", "--dim", "1",
            "--n-values", "1001", "--replications", "20",
            "--method", "median-tyler", "--seed", "3", "--out", str(out),
        ]
        assert cli.main(argv) == 0
        payload = json.loads(out.read_text())
        assert payload["total_failures"] == 0
        assert payload["warnings"] == []

    def test_worker_count_does_not_change_bytes(self, tmp_path):
        a = tmp_path / "serial.json"
        b = tmp_path / "threaded.json"
        assert cli.main(self._inline_args(a, workers="1")) == 0
        assert cli.main(self._inline_args(b, workers="4")) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_worker_warnings_keep_task_order(self, tmp_path):
        # replications warn inside the pool's workers; the JSON's warnings
        # list must come out as it does in-process.  The patch is made in a
        # fresh interpreter before any pool exists, so the forked workers
        # inherit it, and the pool gets two workers on any CPU count.
        root = Path(__file__).resolve().parent.parent
        script = (
            "import sys, warnings\n"
            "import sephill.montecarlo as mc\n"
            "from sephill import cli\n"
            "real = mc.run_replication\n"
            "def noisy(config, n, rep_id):\n"
            "    if rep_id in (1, 4):\n"
            "        warnings.warn(f'synthetic n={n} rep={rep_id}')\n"
            "    return real(config, n, rep_id)\n"
            "mc.run_replication = noisy\n"
            "mc.pool_size = lambda workers: workers\n"
            "for workers, out in zip(('1', '2'), sys.argv[1:]):\n"
            "    assert cli.main(['experiment', '--family', 'pareto', '--alpha', '5',\n"
            "        '--dim', '2', '--n-values', '100,200', '--replications', '6',\n"
            "        '--method', 'mean-cov', '--seed', '3', '--workers', workers,\n"
            "        '--out', out]) == 0\n"
            "    assert (mc._pool is None) == (workers == '1')\n"
        )
        serial, pooled = tmp_path / "w1.json", tmp_path / "w2.json"
        proc = subprocess.run(
            [sys.executable, "-c", script, str(serial), str(pooled)],
            env=dict(os.environ, PYTHONPATH=str(root / "src")),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert serial.read_bytes() == pooled.read_bytes()
        assert json.loads(serial.read_text())["warnings"] == [
            f"synthetic n={n} rep={rep}" for n in (100, 200) for rep in (1, 4)
        ]

    def test_config_file_equivalent_to_inline(self, tmp_path):
        inline_out = tmp_path / "inline.json"
        assert cli.main(self._inline_args(inline_out)) == 0
        cfg = {
            "model": {
                "family": "pareto",
                "alpha": 5.0,
                "mu": [0.0, 0.0],
                "sigma": [[1.0, 0.0], [0.0, 1.0]],
            },
            "n_values": [100, 200],
            "replications": 4,
            "base_seed": 3,
            "estimator_method": "sample_mean_cov",
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        file_out = tmp_path / "fromfile.json"
        assert cli.main(
            ["experiment", "--config", str(cfg_path), "--out", str(file_out)]
        ) == 0
        assert inline_out.read_bytes() == file_out.read_bytes()

    def test_aggregates_carry_aggregate_stats_fields(self, tmp_path):
        out = tmp_path / "exp.json"
        assert cli.main(self._inline_args(out)) == 0
        names = [f.name for f in dataclasses.fields(AggregateStats)]
        for agg in json.loads(out.read_text())["aggregates"]:
            assert list(agg) == names

    def test_records_out(self, tmp_path):
        out = tmp_path / "exp.json"
        recs = tmp_path / "records.csv"
        assert cli.main(
            self._inline_args(out) + ["--records-out", str(recs)]
        ) == 0
        lines = recs.read_text().strip().splitlines()
        assert len(lines) == 8  # 2 sample sizes x 4 replications
        first = lines[0].split(",")
        assert int(first[0]) == 0 and int(first[1]) == 100 and int(first[2]) == 10
        assert float(first[7]) > 0  # envelope constant
        assert first[9] == "0"  # not failed

    @pytest.mark.parametrize(
        "out, records_out",
        [("-", "-"), ("exp.out", "exp.out"), ("exp.out", "exp.out.manifest.json")],
        ids=["both-stdout", "one-file", "records-on-sidecar"],
    )
    def test_two_outputs_at_one_destination_exit_config(
        self, tmp_path, monkeypatch, capsys, out, records_out
    ):
        # one stream or one file (an output or its sidecar) cannot hold both
        # outputs apart
        monkeypatch.chdir(tmp_path)
        assert cli.main(self._inline_args(out) + ["--records-out", records_out]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: --out {out!r} and --records-out {records_out!r} share a destination "
            "(stdout, a file or its manifest sidecar); give each its own\n"
        )
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "outputs, flag, path",
        [
            (["--out", "cfg.json"], "--out", "cfg.json"),
            (["--out", "e.json", "--records-out", "cfg.json"], "--records-out", "cfg.json"),
            (["--out", "./sub/../cfg.json"], "--out", "./sub/../cfg.json"),
        ],
        ids=["out", "records-out", "two-spellings"],
    )
    def test_output_over_the_config_exits_config(
        self, tmp_path, monkeypatch, capsys, outputs, flag, path
    ):
        # the parent replaced the config with the JSON, exit 0, and a rerun
        # from it exited 2
        monkeypatch.chdir(tmp_path)
        config = Path(self._config(tmp_path))
        before = config.read_bytes()
        assert cli.main(["experiment", "--config", config.name, *outputs]) == 2
        assert capsys.readouterr().err == (
            f"error: {flag} {path!r} writes over the input --config {config.name!r} "
            "(the output or its manifest sidecar); give the output its own path\n"
        )
        assert config.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == [config.name]

    def test_output_over_the_sigma_file_exits_config(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "s.csv").write_text("1.0,0.0\n0.0,1.0\n")
        argv = self._inline_args("e.json") + ["--sigma", "s.csv", "--records-out", "s.csv"]
        assert cli.main(argv) == 2
        assert (tmp_path / "s.csv").read_text() == "1.0,0.0\n0.0,1.0\n"
        assert [p.name for p in tmp_path.iterdir()] == ["s.csv"]

    def test_failed_row_keeps_its_bytes(self, tmp_path, monkeypatch):
        import sephill.montecarlo as mc

        real = mc.run_replication

        def flaky(config, n, rep_id):
            if rep_id == 37:
                raise DegenerateSample("synthetic failure, for testing")
            return real(config, n, rep_id)

        monkeypatch.setattr(mc, "run_replication", flaky)
        recs = tmp_path / "records.csv"
        assert cli.main(
            ["experiment", "--family", "pareto", "--alpha", "5", "--dim", "2",
             "--n-values", "100", "--replications", "100", "--method",
             "mean-cov", "--seed", "1", "--workers", "1",
             "--out", str(tmp_path / "exp.json"), "--records-out", str(recs)]
        ) == 0
        lines = recs.read_text().splitlines()
        assert len(lines) == 100
        assert lines[37] == (
            "37,100,10,nan,nan,nan,nan,nan,nan,1,"
            "DegenerateSample: synthetic failure; for testing"
        )
        for line in lines[:37] + lines[38:]:
            assert line.endswith(",0,") and len(line.split(",")) == 11

    def test_frechet_has_no_target_mean(self, tmp_path):
        out = tmp_path / "f.json"
        assert cli.main(
            ["experiment", "--family", "frechet", "--alpha", "4", "--dim", "2",
             "--n-values", "100", "--replications", "3", "--method",
             "mean-cov", "--seed", "1", "--out", str(out)]
        ) == 0
        agg = json.loads(out.read_text())["aggregates"][0]
        assert agg["target_mean"] is None
        assert agg["ks_stat"] is None

    def test_exit_five_when_cap_exceeded(self, tmp_path, monkeypatch, capsys):
        import sephill.montecarlo as mc

        real = mc.run_replication

        def flaky(config, n, rep_id):
            if rep_id in (0, 1):
                raise DegenerateSample("synthetic failure for testing")
            return real(config, n, rep_id)

        monkeypatch.setattr(mc, "run_replication", flaky)
        out = tmp_path / "exp.json"
        code = cli.main(
            ["experiment", "--family", "pareto", "--alpha", "5", "--dim", "2",
             "--n-values", "100", "--replications", "50", "--method",
             "mean-cov", "--seed", "1", "--out", str(out)]
        )
        assert code == 5
        assert "synthetic failure" in capsys.readouterr().err
        assert not out.exists()

    def test_overflowing_draw_names_the_overflow_in_the_failure(self, tmp_path, capsys):
        # the failure tag used to read "NonFinite: distances must be finite"
        out = tmp_path / "exp.json"
        code = cli.main(
            ["experiment", "--family", "pareto", "--alpha", "1e-300", "--dim", "2",
             "--n-values", "50", "--replications", "2", "--method", "mean-cov",
             "--out", str(out)]
        )
        assert code == 5
        err = capsys.readouterr().err
        assert "DomainError: the pareto draw with alpha=1e-300 overflows the float range" in err
        assert not out.exists()

    def test_missing_required_inline_flag(self, tmp_path, capsys):
        code = cli.main(
            ["experiment", "--family", "pareto", "--alpha", "5", "--dim", "2",
             "--replications", "3", "--method", "mean-cov"]
        )
        assert code == 2
        assert "--n-values" in capsys.readouterr().err

    def test_config_missing_field(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"model": {"family": "pareto"}}))
        code = cli.main(["experiment", "--config", str(cfg_path)])
        assert code == 2

    def _config(self, tmp_path, **model):
        raw = {
            "model": {"family": "pareto", "alpha": 5.0, "mu": [0.0, 0.0],
                      "sigma": [[1.0, 0.0], [0.0, 1.0]], **model},
            "n_values": [100],
            "replications": 2,
            "base_seed": 3,
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        return str(path)

    @pytest.mark.parametrize(
        "sigma",
        [
            [[1.0, 2.0], [2.0, 1.0]],
            [[1.0, 0.5], [0.0, 1.0]],
            [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
            [[1.0, 0.0], [0.0]],
        ],
        ids=["indefinite", "asymmetric", "not-square", "ragged"],
    )
    def test_bad_config_sigma_exits_config_like_inline(self, tmp_path, sigma):
        out = str(tmp_path / "exp.json")
        cfg = self._config(tmp_path, sigma=sigma)
        assert cli.main(["experiment", "--config", cfg, "--out", out]) == 2
        sigma_csv = tmp_path / "sigma.csv"
        sigma_csv.write_text("\n".join(",".join(map(str, r)) for r in sigma) + "\n")
        assert cli.main(
            ["experiment", "--family", "pareto", "--alpha", "5", "--dim", "2",
             "--sigma", str(sigma_csv), "--n-values", "100",
             "--replications", "2", "--method", "mean-cov", "--out", out]
        ) == 2

    @pytest.mark.parametrize("entry", [math.inf, -math.inf, math.nan], ids=["inf", "minus-inf", "nan"])
    @pytest.mark.parametrize("via", ["config", "sigma-file"])
    def test_nonfinite_sigma_rejected_before_symmetry(self, tmp_path, capsys, via, entry):
        sigma = [[1.0, entry], [entry, 1.0]]
        if via == "config":
            cfg = self._config(tmp_path, sigma=sigma)
            argv = ["experiment", "--config", cfg]
            source = f"--config {cfg!r}: model.sigma"
        else:
            sigma_csv = tmp_path / "sigma.csv"
            sigma_csv.write_text("\n".join(",".join(map(str, r)) for r in sigma) + "\n")
            argv = ["experiment", "--family", "pareto", "--alpha", "5", "--dim", "2",
                    "--sigma", str(sigma_csv), "--n-values", "100",
                    "--replications", "2", "--method", "mean-cov"]
            source = "--sigma file"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main(argv + ["--out", str(tmp_path / "exp.json")])
        assert code == 2
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
        err = capsys.readouterr().err
        assert err == f"error: {source} entries must be finite\n"

    @pytest.mark.parametrize(
        "field, value, key",
        [
            ("model", [1], "model"),
            ("n_values", 100, "n_values"),
            ("k_values", 100, "k_values"),
            ("mu", 3.0, "model.mu"),
        ],
        ids=["model-not-object", "n-values-scalar", "k-values-scalar", "mu-scalar"],
    )
    def test_malformed_config_field_exits_config(
        self, tmp_path, capsys, field, value, key
    ):
        raw = json.loads(Path(self._config(tmp_path)).read_text())
        if field == "mu":
            raw["model"]["mu"] = value
        else:
            raw[field] = value
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(raw))
        assert cli.main(["experiment", "--config", str(cfg_path)]) == 2
        assert f"--config {str(cfg_path)!r}: {key} must be " in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, value",
        [
            ("replications", "abc"),
            ("replications", None),
            ("replications", 2.7),
            ("base_seed", "x"),
            ("k_beta", "x"),
            ("n_values", [100.9]),
        ],
        ids=["replications-string", "replications-null", "replications-fraction",
             "base-seed-string", "k-beta-string", "n-value-fraction"],
    )
    def test_bad_config_number_exits_config(
        self, tmp_path, capsys, field, value
    ):
        raw = json.loads(Path(self._config(tmp_path)).read_text())
        raw[field] = value
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(raw))
        assert cli.main(["experiment", "--config", str(cfg_path)]) == 2
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize(
        "model, key",
        [
            ({"alpha": "x"}, "model.alpha"),
            ({"alpha": [5.0]}, "model.alpha"),
            ({"alpha": True}, "model.alpha"),
            ({"alpha": math.inf}, "model.alpha"),
            ({"family": "t-radial", "alpha": [3]}, "model.alpha"),
            ({"family": "t-radial", "alpha": "3"}, "model.alpha"),
            ({"family": "t-radial", "alpha": math.nan}, "model.alpha"),
        ],
        ids=["alpha-string", "alpha-list", "alpha-bool", "alpha-inf",
             "t-radial-alpha-list", "t-radial-alpha-string", "t-radial-alpha-nan"],
    )
    def test_bad_config_variate_parameter_exits_config(
        self, tmp_path, capsys, model, key
    ):
        cfg = self._config(tmp_path, **model)
        out = tmp_path / "exp.json"
        assert cli.main(["experiment", "--config", cfg, "--out", str(out)]) == 2
        assert key in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "model, message",
        [
            ({"alpha": None}, "model.alpha is required for the pareto family"),
            (
                {"alpha": "2"},
                "invalid model.alpha: alpha must be a finite positive real, got '2'",
            ),
            (
                {"family": ["pareto"]},
                "model.family must be one of ('pareto', 'frechet', 't-radial'), "
                "got ['pareto']",
            ),
            ({"mu": [], "sigma": []}, "model.mu must not be empty"),
        ],
        ids=["alpha-left-out", "alpha-string", "family-list", "mu-empty"],
    )
    def test_config_errors_name_the_file_keys(self, tmp_path, capsys, model, message):
        # each of these used to name a flag that cannot go with --config;
        # a key updated to None is left out of the file
        raw = json.loads(Path(self._config(tmp_path)).read_text())
        raw["model"].update(model)
        raw["model"] = {k: v for k, v in raw["model"].items() if v is not None}
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(raw))
        out = tmp_path / "exp.json"
        argv = ["experiment", "--config", str(cfg_path), "--out", str(out)]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == f"error: --config {str(cfg_path)!r}: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "top, model, named",
        [
            ({"k_value": [5]}, {}, "k_value"),
            ({}, {"nu": 4}, "model.nu"),
            ({}, {"nu": None}, "model.nu"),
            ({"seed": 3}, {"dim": 2}, "keys seed, model.dim"),
        ],
        ids=["top-level-typo", "model-nu", "model-nu-null", "two-keys"],
    )
    def test_unknown_config_key_exits_config(self, tmp_path, capsys, top, model, named):
        # each of these used to be dropped unread: a k_value typo ran with
        # k_beta 0.5, and a model's nu beside its alpha was never drawn
        raw = json.loads(Path(self._config(tmp_path)).read_text())
        raw.update(top)
        raw["model"].update(model)
        cfg_path = tmp_path / "unknown.json"
        cfg_path.write_text(json.dumps(raw))
        out = tmp_path / "exp.json"
        assert cli.main(["experiment", "--config", str(cfg_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: --config {str(cfg_path)!r}: unknown key")
        assert err.endswith(f" {named}\n")
        assert not out.exists()

    @pytest.mark.parametrize(
        "sigma, message",
        [
            ([[1.0, math.inf], [math.inf, 1.0]], "model.sigma entries must be finite"),
            ([[1.0, 2.0], [2.0, 1.0]], "model.sigma is not positive definite: "),
            ([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
             "model.sigma has shape (2, 3), expected (2, 2)"),
            ([[1.0, 0.5], [0.0, 1.0]], "model.sigma is not symmetric within 1e-9"),
        ],
        ids=["nonfinite", "indefinite", "wrong-shape", "asymmetric"],
    )
    def test_config_scatter_errors_name_the_file(self, tmp_path, capsys, sigma, message):
        # these read a bare "sigma ..." while every other config error
        # names the file and the key
        cfg = self._config(tmp_path, sigma=sigma)
        out = tmp_path / "exp.json"
        assert cli.main(["experiment", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: --config {cfg!r}: {message}")
        assert not out.exists()

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda raw: raw["model"].pop("family"), "missing key model.family"),
            (lambda raw: raw.pop("n_values"), "missing key n_values"),
            (
                lambda raw: raw["model"].update(sigma=[[1.0, 0.0], [0.0]]),
                "model.sigma must be a list of equal-length rows",
            ),
            (
                lambda raw: raw["model"].update(mu=[math.inf, 0.0]),
                "model.mu entries must be finite",
            ),
            (
                lambda raw: raw.update(replications=True),
                "replications must be an integer, got True",
            ),
            (
                lambda raw: raw.update(n_values=[100, 100]),
                "'n_values' (--n-values): must be distinct, got [100, 100]",
            ),
            (
                lambda raw: raw.update(k_beta=1.5),
                "'k_beta' (--k-beta): beta must lie strictly between 0 and 1, got 1.5",
            ),
            (
                lambda raw: raw.update(n_values=[10, 20], k_values=[10, 5]),
                "'k_values' (--k-list): need 1 <= k < n, got k=10 for n=10",
            ),
            (
                lambda raw: raw.update(n_values=[3, 20]),
                "'n_values' (--n-values): need n >= 4 for a meaningful tail "
                "fraction, got 3",
            ),
        ],
        ids=["missing-family", "missing-n-values", "ragged-sigma", "nonfinite-mu",
             "replications-bool", "repeated-n", "k-beta-out-of-range",
             "k-values-out-of-range", "n-too-small-for-k-beta"],
    )
    def test_every_config_error_names_the_file_once(
        self, tmp_path, capsys, edit, message
    ):
        # the reader, the model and ExperimentConfig raise these without
        # the file; the reader adds it to each, once
        raw = json.loads(Path(self._config(tmp_path)).read_text())
        edit(raw)
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(raw))
        out = tmp_path / "exp.json"
        argv = ["experiment", "--config", str(cfg_path), "--out", str(out)]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == f"error: --config {str(cfg_path)!r}: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--k-beta", "1.5"],
             "'k_beta' (--k-beta): beta must lie strictly between 0 and 1, got 1.5"),
            (["--n-values", "10,20", "--k-list", "10,5"],
             "'k_values' (--k-list): need 1 <= k < n, got k=10 for n=10"),
            (["--n-values", "3,20"],
             "'n_values' (--n-values): need n >= 4 for a meaningful tail "
             "fraction, got 3"),
            (["--replications", "0"],
             "'replications' (--replications): must be at least 1, got 0"),
            (["--n-values", "100,100"],
             "'n_values' (--n-values): must be distinct, got [100, 100]"),
            (["--n-values", "10,20", "--k-list", "5", "--replications", "2"],
             "'k_values' (--k-list): must align with n_values (1 vs 2)"),
        ],
        ids=["k-beta-out-of-range", "k-values-out-of-range", "n-too-small-for-k-beta",
             "zero-replications", "repeated-n", "k-list-misaligned"],
    )
    def test_inline_errors_read_as_in_a_config(self, tmp_path, capsys, flags, message):
        out = tmp_path / "exp.json"
        assert cli.main(self._inline_args(out) + flags) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "method, k_rule",
        [
            (method, k_rule)
            for method in ("mean-cov", "median-tyler")
            for k_rule in (["--k-beta", "0.6"], ["--k-list", "10,20"])
        ],
        ids=["mean-cov-k-beta", "mean-cov-k-list", "median-tyler-k-beta",
             "median-tyler-k-list"],
    )
    def test_manifest_config_reruns_the_experiment(self, tmp_path, method, k_rule):
        # the reader and the manifest writer share ExperimentConfig's fields,
        # so a manifest's config is a --config file for the same experiment
        first, first_recs = tmp_path / "first.json", tmp_path / "first.csv"
        assert cli.main(
            ["experiment", "--family", "t-radial", "--alpha", "4", "--dim", "2",
             "--mu", "1,-2", "--n-values", "200,400", "--replications", "3",
             "--method", method, "--seed", "17", *k_rule,
             "--out", str(first), "--records-out", str(first_recs)]
        ) == 0
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(json.loads(first.read_text())["manifest"]["config"]))
        again, again_recs = tmp_path / "again.json", tmp_path / "again.csv"
        assert cli.main(
            ["experiment", "--config", str(cfg), "--out", str(again),
             "--records-out", str(again_recs)]
        ) == 0
        assert again.read_bytes() == first.read_bytes()
        assert again_recs.read_bytes() == first_recs.read_bytes()

    def test_config_with_k_beta_and_k_values_exits_config(self, tmp_path, capsys):
        # k_values used to win silently while the manifest kept k_beta
        raw = json.loads(Path(self._config(tmp_path)).read_text())
        raw.update(k_beta=0.5, k_values=[5])
        cfg_path = tmp_path / "both.json"
        cfg_path.write_text(json.dumps(raw))
        out = tmp_path / "exp.json"
        code = cli.main(["experiment", "--config", str(cfg_path), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "'k_beta'" in err and "'k_values'" in err
        assert not out.exists()

    def test_k_beta_with_k_list_exits_config(self, tmp_path, capsys):
        # --k-list used to win silently over a given --k-beta
        out = tmp_path / "exp.json"
        argv = self._inline_args(out) + ["--k-list", "5,7", "--k-beta", "0.9"]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert "--k-beta" in err and "--k-list" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, k_beta, ks",
        [
            ([], 0.5, [10, 15]),
            (["--k-beta", "0.6"], 0.6, [16, 25]),
            (["--k-list", "5,7"], None, [5, 7]),
        ],
        ids=["neither", "k-beta", "k-list"],
    )
    def test_manifest_records_the_k_rule_used(self, tmp_path, flags, k_beta, ks):
        out = tmp_path / "exp.json"
        assert cli.main(self._inline_args(out) + flags) == 0
        payload = json.loads(out.read_text())
        assert payload["manifest"]["config"]["k_beta"] == k_beta
        assert [a["k"] for a in payload["aggregates"]] == ks

    def test_integral_float_config_numbers_accepted(self, tmp_path):
        raw = json.loads(Path(self._config(tmp_path)).read_text())
        raw.update(n_values=[100.0], replications=2.0, base_seed=3.0)
        cfg_path = tmp_path / "floats.json"
        cfg_path.write_text(json.dumps(raw))
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert cli.main(["experiment", "--config", str(cfg_path), "--out", str(a)]) == 0
        assert cli.main(
            ["experiment", "--config", self._config(tmp_path), "--out", str(b)]
        ) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_config_not_an_object(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text("[1, 2]")
        assert cli.main(["experiment", "--config", str(cfg_path)]) == 2
        assert "JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize("base_seed", [3, None], ids=["given", "absent"])
    def test_config_base_seed_is_the_seed(self, tmp_path, base_seed):
        raw = json.loads(Path(self._config(tmp_path)).read_text())
        if base_seed is None:
            del raw["base_seed"]
        cfg_path = tmp_path / "seeded.json"
        cfg_path.write_text(json.dumps(raw))
        out, inline = tmp_path / "exp.json", tmp_path / "inline.json"
        assert cli.main(["experiment", "--config", str(cfg_path), "--out", str(out)]) == 0
        seed = 0 if base_seed is None else base_seed
        assert json.loads(out.read_text())["manifest"]["base_seed"] == seed
        assert cli.main(
            ["experiment", "--family", "pareto", "--alpha", "5", "--dim", "2",
             "--n-values", "100", "--replications", "2", "--seed", str(seed),
             "--out", str(inline)]
        ) == 0
        assert out.read_bytes() == inline.read_bytes()

    #: what may go beside --config; the file gives every other setting
    CONFIG_COMPANIONS = {"--config", "--workers", "--out", "--records-out", "-h"}

    def test_every_other_flag_is_refused_beside_config(self, tmp_path, capsys):
        parser = cli.build_parser()
        subparsers = next(
            a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
        )
        cfg = self._config(tmp_path)
        out, recs = tmp_path / "exp.json", tmp_path / "recs.csv"
        checked = []
        for action in subparsers.choices["experiment"]._actions:
            if self.CONFIG_COMPANIONS & set(action.option_strings):
                continue
            flag = action.option_strings[0]
            if action.nargs == 0:
                value = []
            elif action.choices is not None:
                value = [list(action.choices)[0]]
            elif action.type in (int, float):
                value = ["1"]
            else:
                value = ["x"]
            code = cli.main(
                ["experiment", "--config", cfg, flag, *value,
                 "--out", str(out), "--records-out", str(recs)]
            )
            err = capsys.readouterr().err
            assert code == 2, flag
            assert flag in err and "--config" in err, err
            assert not out.exists() and not recs.exists(), flag
            checked.append(flag)
        assert len(checked) == 11

    def test_inline_flags_beside_a_seedless_config_exit_config(self, tmp_path, capsys):
        # with --config these four used to be dropped without a word, and
        # the run recorded base seed 0, sample_mean_cov and k_beta 0.5
        raw = json.loads(Path(self._config(tmp_path)).read_text())
        del raw["base_seed"]
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(raw))
        out = tmp_path / "exp.json"
        code = cli.main(
            ["experiment", "--config", str(cfg_path), "--seed", "5",
             "--method", "median-tyler", "--k-beta", "0.9", "--dim", "7",
             "--out", str(out)]
        )
        assert code == 2
        err = capsys.readouterr().err
        for flag in ("--seed", "--method", "--k-beta", "--dim"):
            assert flag in err
        assert not out.exists()

    def test_null_config_k_beta_is_the_default(self, tmp_path):
        raw = json.loads(Path(self._config(tmp_path)).read_text())
        raw["k_beta"] = None
        cfg_path = tmp_path / "null.json"
        cfg_path.write_text(json.dumps(raw))
        out = tmp_path / "exp.json"
        assert cli.main(["experiment", "--config", str(cfg_path), "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["manifest"]["config"]["k_beta"] == 0.5
        assert [a["k"] for a in payload["aggregates"]] == [10]

    @pytest.mark.parametrize(
        "key",
        ["base_seed", "estimator_method", "k_beta", "k_values"],
    )
    def test_null_config_key_is_the_key_left_out(self, tmp_path, key):
        raw = json.loads(Path(self._config(tmp_path)).read_text())
        raw.update(estimator_method="spatial_median_tyler", k_values=[7])
        outputs = []
        for tag in ("null", "absent"):
            if tag == "null":
                raw[key] = None
            else:
                raw.pop(key)
            cfg_path = tmp_path / f"{tag}.json"
            cfg_path.write_text(json.dumps(raw))
            out, recs = tmp_path / f"{tag}.out.json", tmp_path / f"{tag}.csv"
            assert cli.main(
                ["experiment", "--config", str(cfg_path), "--out", str(out),
                 "--records-out", str(recs)]
            ) == 0
            outputs.append((out.read_bytes(), recs.read_bytes()))
        assert outputs[0] == outputs[1]

    def test_dimension_zero_exits_config(self, tmp_path):
        out = str(tmp_path / "exp.json")
        assert cli.main(
            ["experiment", "--family", "pareto", "--alpha", "5", "--dim", "0",
             "--n-values", "100", "--replications", "2", "--method",
             "mean-cov", "--out", out]
        ) == 2
        cfg = self._config(tmp_path, mu=[], sigma=[])
        assert cli.main(["experiment", "--config", cfg, "--out", out]) == 2

    def test_repeated_n_value_exits_config(self, tmp_path, capsys):
        # k_for finds the first 500, so k = 40 would be silently dropped
        out = tmp_path / "exp.json"
        assert cli.main(
            ["experiment", "--family", "pareto", "--alpha", "5", "--dim", "2",
             "--n-values", "500,500", "--k-list", "10,40", "--replications", "2",
             "--method", "mean-cov", "--seed", "1", "--out", str(out)]
        ) == 2
        assert "'n_values' (--n-values): must be distinct" in capsys.readouterr().err
        assert not out.exists()

    def test_repeated_config_n_value_exits_config(self, tmp_path, capsys):
        raw = json.loads(Path(self._config(tmp_path)).read_text())
        raw["n_values"] = [100, 200, 100]
        cfg_path = tmp_path / "dup.json"
        cfg_path.write_text(json.dumps(raw))
        out = tmp_path / "exp.json"
        assert cli.main(["experiment", "--config", str(cfg_path), "--out", str(out)]) == 2
        assert "'n_values' (--n-values): must be distinct" in capsys.readouterr().err
        assert not out.exists()

    def test_k_list_respected(self, tmp_path):
        out = tmp_path / "exp.json"
        assert cli.main(
            ["experiment", "--family", "pareto", "--alpha", "5", "--dim", "2",
             "--n-values", "100,200", "--k-list", "7,9", "--replications", "2",
             "--method", "mean-cov", "--seed", "1", "--out", str(out)]
        ) == 0
        payload = json.loads(out.read_text())
        assert [a["k"] for a in payload["aggregates"]] == [7, 9]
        assert [a["k"] for a in payload["true_aggregates"]] == [7, 9]
        # under the true parameters the estimator gap vanishes identically
        assert payload["true_aggregates"][0]["p95_scaled_gap"] == 0.0

    #: The aggregates ``experiment`` printed for this model with the
    #: former ``true_params`` method, which reran the true side alone.
    TRUE_SIDE_MODEL = {"family": "pareto", "alpha": 5.0, "mu": [1.0, -1.0],
                       "sigma": [[2.0, 0.3], [0.3, 0.5]]}
    TRUE_SIDE_PINNED = [
        {"n": 200, "k": 15, "count": 12, "failures": 0,
         "mean_normalized_error": -0.020062226481154414,
         "sd_normalized_error": 0.16275160341377587,
         "median_normalized_error": -0.007005635523815586,
         "q05_normalized_error": -0.23927957461576316,
         "q95_normalized_error": 0.24140496287220645,
         "median_abs_error": 0.017953176087043776, "p95_scaled_gap": 0.0,
         "target_mean": 0.0, "target_sd": 0.2, "ks_stat": 0.22121175712657482},
        {"n": 800, "k": 29, "count": 12, "failures": 0,
         "mean_normalized_error": 0.02138841203761326,
         "sd_normalized_error": 0.17612825210808442,
         "median_normalized_error": 0.03137322683457919,
         "q05_normalized_error": -0.2631935596753952,
         "q95_normalized_error": 0.26256389533383556,
         "median_abs_error": 0.017023046555042456, "p95_scaled_gap": 0.0,
         "target_mean": 0.0, "target_sd": 0.2, "ks_stat": 0.16817104573362507},
    ]

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("method", ["sample_mean_cov", "spatial_median_tyler"])
    def test_true_aggregates_are_pinned(self, tmp_path, method, workers):
        # the true side does not depend on the fit or the worker count
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "model": self.TRUE_SIDE_MODEL, "n_values": [200, 800],
            "replications": 12, "base_seed": 8086, "estimator_method": method,
        }))
        out = tmp_path / "exp.json"
        assert cli.main(
            ["experiment", "--config", str(cfg_path), "--workers", workers,
             "--out", str(out)]
        ) == 0
        payload = json.loads(out.read_text())
        assert payload["true_aggregates"] == self.TRUE_SIDE_PINNED
        assert payload["aggregates"] != self.TRUE_SIDE_PINNED
        # the new list sits right after the fitted one
        assert list(payload)[list(payload).index("aggregates") + 1] == "true_aggregates"

    def test_true_params_method_exits_config(self, tmp_path, capsys):
        out = tmp_path / "exp.json"
        assert cli.main(
            ["experiment", "--family", "pareto", "--alpha", "5", "--dim", "2",
             "--n-values", "100", "--replications", "2",
             "--method", "true-params", "--out", str(out)]
        ) == 2
        assert "true-params" in capsys.readouterr().err
        raw = json.loads(Path(self._config(tmp_path)).read_text())
        raw["estimator_method"] = "true_params"
        cfg_path = tmp_path / "true.json"
        cfg_path.write_text(json.dumps(raw))
        assert cli.main(["experiment", "--config", str(cfg_path), "--out", str(out)]) == 2
        assert "true_aggregates" in capsys.readouterr().err
        assert not out.exists()


def _error_kinds(cls=errors.SepHillError):
    """``cls`` and every class below it."""
    yield cls
    for sub in cls.__subclasses__():
        yield from _error_kinds(sub)


#: The exit code of every error kind, decided one by one: a kind missing
#: here fails TestExitCodes until its code is chosen.
EXIT_CODES = {
    errors.FailureCapExceeded: 5,
    errors.NumericFailure: 4,
    errors.DegenerateSample: 4,
    errors.NotConverged: 4,
    errors.SingularIterate: 4,
    errors.NotPositiveDefinite: 4,
    errors.NonSymmetric: 4,
    errors.NonPositivePivot: 4,
    errors.NonPositiveDistance: 4,
    errors.SepHillError: 2,
    errors.DimensionMismatch: 2,
    errors.NonFinite: 2,
    errors.KOutOfRange: 2,
    errors.LengthMismatch: 2,
    errors.DomainError: 2,
    errors.BetaOutOfRange: 2,
    errors.TooFewValues: 2,
    errors.ConfigError: 2,
    OSError: 3,
}


class TestExitCodes:
    @pytest.mark.parametrize(
        "kind", [*_error_kinds(), OSError], ids=lambda kind: kind.__name__
    )
    def test_each_error_kind_has_its_exit_code(self, kind, tmp_path, monkeypatch, capsys):
        assert kind in EXIT_CODES, f"{kind.__name__} has no decided exit code"

        def fail(*args, **kwargs):
            raise kind("boom")

        monkeypatch.setattr(cli, "sample_elliptical", fail)
        code = cli.main(["simulate", *SIMULATE, "--out", str(tmp_path / "x.csv")])
        assert code == EXIT_CODES[kind]
        assert capsys.readouterr().err == "error: boom\n"


class TestTopLevel:
    def test_import_leaves_out_scipy(self, tmp_path):
        # scipy takes most of a cold start and the package does not use
        # it, so neither the import nor a Pareto experiment may load it.
        # The process pool's modules load only when an experiment first
        # runs in parallel.
        root = Path(__file__).resolve().parent.parent
        script = (
            "import sys, sephill.cli\n"
            "def loaded(*prefixes):\n"
            "    return sorted(m for m in sys.modules if m.startswith(prefixes))\n"
            "print(loaded('scipy', 'multiprocessing', 'concurrent.futures.process'))\n"
            "code = sephill.cli.main(['experiment', '--family', 'pareto', '--alpha',"
            " '4', '--dim', '2', '--n-values', '200', '--replications', '3',"
            " '--seed', '1', '--out', sys.argv[1]])\n"
            "print(code, loaded('scipy'))\n"
        )
        out = tmp_path / "exp.json"
        proc = subprocess.run(
            [sys.executable, "-c", script, str(out)],
            env=dict(os.environ, PYTHONPATH=str(root / "src")),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["[]", "0 []"]
        assert json.loads(out.read_text())["aggregates"][0]["ks_stat"] is not None

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--dim", "2", "--n", "5"],
            ["verify-bounds", "--dim", "2", "--n", "20", "--trials", "1",
             "--perturbation-scale", "0.1"],
            ["experiment", "--dim", "2", "--n-values", "100", "--replications", "2"],
        ],
        ids=["simulate", "verify-bounds", "experiment"],
    )
    def test_nu_flag_is_gone(self, tmp_path, capsys, argv):
        # alpha is the tail index of every family, t-radial's degrees of
        # freedom included; a --nu beside --alpha used to be dropped unread
        out = tmp_path / "out"
        argv = [*argv, "--family", "t-radial", "--nu", "3", "--out", str(out)]
        assert cli.main(argv) == 2
        assert "unrecognized arguments: --nu 3" in capsys.readouterr().err
        assert not out.exists()

    def test_version_flag(self, capsys):
        assert cli.main(["--version"]) == 0
        assert "sephill" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--family", "pareto", "--alpha", "3", "--n", "5"],
            ["verify-bounds", "--family", "t-radial", "--alpha", "3", "--n", "20",
             "--trials", "1", "--perturbation-scale", "0.1"],
        ],
        ids=["simulate", "verify-bounds"],
    )
    def test_dimension_zero_exits_config(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        assert cli.main([*argv, "--dim", "0", "--out", str(out)]) == 2
        assert "--dim" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--n", "3"],
            ["verify-bounds", "--n", "20", "--trials", "1", "--perturbation-scale", "0.1"],
        ],
        ids=["simulate", "verify-bounds"],
    )
    def test_overflowing_draw_exits_config(self, tmp_path, capsys, argv):
        # simulate used to write inf rows after numpy's overflow warning,
        # and verify-bounds to report "sample entries must be finite"
        out = tmp_path / "out"
        code = cli.main(
            [*argv, "--family", "pareto", "--alpha", "1e-300", "--dim", "2",
             "--out", str(out)]
        )
        assert code == 2
        assert capsys.readouterr().err == (
            "error: the pareto draw with alpha=1e-300 overflows the float range\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["estimate", "--k", "1", "--method", "mean-cov", "--data"],
            ["simulate", "--family", "pareto", "--alpha", "3", "--dim", "2",
             "--n", "5", "--sigma"],
        ],
        ids=["estimate-data", "simulate-sigma"],
    )
    def test_empty_input_file_exits_config(self, tmp_path, capsys, argv):
        # numpy's own no-data warning must not come before, or instead of,
        # the error
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        out = tmp_path / "out"
        assert cli.main([*argv, str(empty), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {str(empty)!r} contains no data rows\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["simulate", *SIMULATE, "--mu", "a,b"],
             "--mu expects comma-separated numbers, got 'a,b'"),
            (["simulate", *SIMULATE, "--mu", "1,2,3"],
             "--mu has 3 entries, expected --dim = 2"),
            (["simulate", *SIMULATE, "--n", "0"], "--n must be at least 1, got 0"),
            (["estimate", "--data", "{data}", "--k", "1", "--mu", "0,0,0",
              "--sigma", "identity"],
             "--mu has 3 entries, data has 2 columns"),
            (["estimate", "--data", "{data}", "--k", "1"],
             "--method is required unless --mu/--sigma are given"),
            (["verify-bounds", *VERIFY, "--trials", "0"],
             "--trials must be at least 1, got 0"),
            (["verify-bounds", *VERIFY, "--n", "3"], "--n must be at least 4, got 3"),
            (["experiment", "--config", "{config}"],
             "--config {config!r}: could not parse as JSON: Expecting value: "
             "line 1 column 1 (char 0)"),
            (["experiment", "--family", "pareto", "--alpha", "3", "--dim", "2",
              "--n-values", "100", "--replications", "1", "--workers", "0"],
             "--workers must be at least 1, got 0"),
        ],
        ids=["mu-not-numbers", "mu-wrong-length", "simulate-n-zero",
             "estimate-mu-wrong-length", "estimate-no-method", "trials-zero",
             "verify-n-too-small", "config-not-json", "workers-zero"],
    )
    def test_bad_input_exits_config_before_writing(self, tmp_path, capsys, argv, message):
        paths = {
            "data": write_ladder_csv(tmp_path / "data.csv"),
            "config": str(tmp_path / "config.json"),
        }
        Path(paths["config"]).write_text("model: pareto\n")
        out = tmp_path / "out"
        argv = [arg.format(**paths) for arg in argv]
        assert cli.main([*argv, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message.format(**paths)}\n"
        assert not out.exists()

    def test_no_subcommand_is_usage_error(self, capsys):
        assert cli.main([]) == 2

    def test_unknown_subcommand(self, capsys):
        assert cli.main(["frobnicate"]) == 2


README = Path(__file__).resolve().parent.parent / "README.md"


def readme_commands() -> list[str]:
    """Every ``sephill ...`` command in README's "Command line" block, with
    its backslash continuations joined."""
    section = README.read_text().split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [line for line in lines if line.startswith("sephill ")]


@pytest.mark.parametrize(
    "command", readme_commands(), ids=lambda command: command.split()[1]
)
def test_readme_command_parses(command):
    # a flag the README shows but the parser has lost fails here
    try:
        cli.build_parser().parse_args(shlex.split(command)[1:])
    except SystemExit:
        pytest.fail(f"README command does not parse: {command}")


def test_readme_config_example_builds(tmp_path):
    section = README.read_text().split("## Experiment configuration file", 1)[1]
    example = section.split("```json\n", 1)[1].split("```", 1)[0]
    cfg_path = tmp_path / "exp-config.json"
    cfg_path.write_text(example)
    config = cli._experiment_config_from_file(str(cfg_path))
    assert config.k_beta is None
    assert [config.k_for(n) for n in config.n_values] == [45, 141]


def test_readme_config_keys_match_the_reader():
    # README lists one bullet per top-level key and, indented under
    # model, one per model key
    section = README.read_text().split("## Experiment configuration file", 1)[1]
    section = section.split("\n## ", 1)[0]
    top = re.findall(r"^- `(\w+)`", section, flags=re.M)
    model = re.findall(r"^  - `(\w+)`", section, flags=re.M)
    assert tuple(top) == cli._CONFIG_KEYS
    assert tuple(model) == cli._MODEL_KEYS
