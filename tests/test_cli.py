import csv
import dataclasses
import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from warpgrowth import _table
from warpgrowth.cli import _parse_fit_artifact, main
from warpgrowth.fpca import DEFAULT_GAMMAS, fit_fpca, modes_of_variation, score_rate_regression
from warpgrowth.growthfit import DEFAULT_WINDOW_LENGTHS, estimate_alphas, search_interval
from warpgrowth.simulate import SimTruth, default_truth, generate_replicate, save_truth
from warpgrowth.timeseries import Panel, TimeGrid, month_label, parse_panel, restrict, serialize_panel
from warpgrowth.warping import compute_warp_set, identity_deviation, warps_from_csv, warps_to_csv

from conftest import MALFORMED_UNIT_TABLES, edit_table, exponential_panel, run_python, snapshot


def write_panel(path, panel):
    path.write_text(serialize_panel(panel))
    return str(path)


#: Maps the ASCII digits to ARABIC-INDIC DIGIT ZERO..NINE (U+0660..U+0669).
ARABIC_INDIC_DIGITS = str.maketrans("0123456789", "".join(map(chr, range(0x660, 0x66A))))


def read_csv(path):
    with open(path) as fh:
        return [row for row in csv.reader(fh)]


@pytest.fixture
def exp_csv(tmp_path):
    panel = exponential_panel([0.004, 0.007, 0.01, 0.013, 0.016], n_points=90)
    return write_panel(tmp_path / "panel.csv", panel)


@pytest.fixture
def chain(exp_csv, tmp_path):
    """The output directory of fit and warp on ``exp_csv``."""
    out = tmp_path / "out"
    assert main(["fit", "--input", exp_csv, "--output-dir", str(out)]) == 0
    assert main(["warp", "--input", exp_csv, "--output-dir", str(out)]) == 0
    return out


class TestFitCommand:
    def test_exact_fixture_deterministic_window(self, exp_csv, tmp_path):
        out = tmp_path / "out"
        assert main(["fit", "--input", exp_csv, "--output-dir", str(out)]) == 0
        artifact = json.loads((out / "fit.json").read_text())
        assert artifact["window"] == {"start": 144, "end": 167}
        assert artifact["mean_r2"] == 1.0
        assert len(artifact["per_series"]) == 5
        assert artifact["alpha_estimates"]["per_series"][2]["alpha"] == pytest.approx(0.01, rel=1e-10)

    def test_artifact_round_trips_through_its_reader(self, tmp_path):
        # m02 is flat, so its rate is clamped; m04 has a gap, so restrict drops it.
        panel = exponential_panel([0.004, 0.0, 0.01, 0.013], n_points=90)
        values = panel.values.copy()
        values[3, 40] = np.nan
        path = write_panel(tmp_path / "panel.csv", Panel(panel.grid, panel.names, values))
        out = tmp_path / "out"
        assert main(["fit", "--input", path, "--output-dir", str(out)]) == 0
        restriction, fits = _parse_fit_artifact((out / "fit.json").read_text())
        kept, dropped = restrict(parse_panel(Path(path).read_text()), 144, 233)
        expected = estimate_alphas(kept, search_interval(kept, DEFAULT_WINDOW_LENGTHS).best_window)
        assert (restriction, dropped) == ((144, 233), ["m04"])
        assert (fits.window, fits.names) == (expected.window, ("m01", "m02", "m03"))
        for key in ("alpha", "intercept", "r2", "clamped"):
            assert getattr(fits, key).tobytes() == getattr(expected, key).tobytes(), key
        assert fits.clamped.tolist() == [False, True, False]

    def test_window_override_with_labels(self, exp_csv, tmp_path):
        out = tmp_path / "out"
        code = main(
            ["fit", "--input", exp_csv, "--output-dir", str(out), "--window", "1999-06:2004-06"]
        )
        assert code == 0
        artifact = json.loads((out / "fit.json").read_text())
        assert artifact["analysis"]["restriction"]["start"] == 150

    def test_missing_input_exits_2_without_outputs(self, tmp_path):
        out = tmp_path / "out"
        code = main(["fit", "--input", str(tmp_path / "nope.csv"), "--output-dir", str(out)])
        assert code == 2
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("cell", ["inf", "-inf", "1e-320"])
    def test_non_finite_or_subnormal_value_exits_2(self, tmp_path, capsys, cell):
        path = tmp_path / "bad.csv"
        path.write_text(f"date,A,B\n2000-01,100,5\n2000-02,101,{cell}\n2000-03,102,6\n")
        out = tmp_path / "out"
        assert main(["fit", "--input", str(path), "--output-dir", str(out)]) == 2
        assert "row 3, column 'B'" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_lengths_exit_4(self, exp_csv, tmp_path):
        code = main(
            ["fit", "--input", exp_csv, "--output-dir", str(tmp_path / "o"), "--window-lengths", "2"]
        )
        assert code == 4

    @pytest.mark.parametrize("window", ["x:y", "2013-07:1998-12", "2000-01:2000-01", "2000-13:2001-01"])
    def test_bad_window_flag_exits_4(self, exp_csv, tmp_path, capsys, window):
        out = tmp_path / "o"
        assert main(["fit", "--input", exp_csv, "--output-dir", str(out), "--window", window]) == 4
        assert "configuration error: --window" in capsys.readouterr().err
        assert not out.exists()

    def test_window_outside_the_panel_exits_2(self, exp_csv, tmp_path, capsys):
        # A well-formed window that the panel does not cover is an input error.
        out = tmp_path / "o"
        assert main(["fit", "--input", exp_csv, "--output-dir", str(out), "--window", "1990-01:2004-06"]) == 2
        err = capsys.readouterr().err
        assert "input error" in err and "outside grid" in err
        assert not out.exists()


class TestWarpCommand:
    def test_identity_fixture(self, exp_csv, tmp_path):
        out = tmp_path / "out"
        main(["fit", "--input", exp_csv, "--output-dir", str(out)])
        assert main(["warp", "--input", exp_csv, "--output-dir", str(out)]) == 0
        rows = read_csv(out / "warps.csv")
        assert rows[0][0] == "t_normalized"
        t = np.array([float(r[0]) for r in rows[1:]])
        for j in range(1, len(rows[0])):
            h = np.array([float(r[j]) for r in rows[1:]])
            assert np.abs(h - t).max() < 1e-10

    def test_flat_after_start_is_zero_warp(self, tmp_path):
        # Constant series: clamped rate, h identically zero, full setback.
        panel = Panel(TimeGrid(144, 60), ("flat",), np.full((1, 60), 120.0))
        path = write_panel(tmp_path / "flat.csv", panel)
        out = tmp_path / "out"
        main(["fit", "--input", path, "--output-dir", str(out)])
        assert main(["warp", "--input", path, "--output-dir", str(out)]) == 0
        rows = read_csv(out / "warps.csv")
        h = np.array([float(r[1]) for r in rows[1:]])
        assert np.all(h == 0.0)
        setbacks = read_csv(out / "setbacks.csv")
        assert setbacks[0] == ["name", "alpha", "h_end", "setback_normalized", "setback_months", "reliable"]
        assert float(setbacks[1][3]) == 1.0
        assert setbacks[1][5] == "0"

    def test_end_price_below_baseline_reports_setback(self, tmp_path):
        # Grows at the fitted rate for two years, then stalls: h(1) < 1.
        t = np.arange(60.0)
        x = 100.0 * np.exp(0.01 * np.minimum(t, 24.0))
        panel = Panel(TimeGrid(144, 60), ("stall",), [x])
        path = write_panel(tmp_path / "stall.csv", panel)
        out = tmp_path / "out"
        main(["fit", "--input", path, "--output-dir", str(out)])
        main(["warp", "--input", path, "--output-dir", str(out)])
        setbacks = read_csv(out / "setbacks.csv")
        assert float(setbacks[1][2]) < 1.0  # h at window end
        assert float(setbacks[1][3]) > 0.0  # positive setback


    def test_tiny_fit_rate_exits_3_naming_the_series(self, tmp_path, capsys):
        panel = exponential_panel([0.004, 0.01, 0.016], n_points=60, names=["a", "b", "c"])
        path = write_panel(tmp_path / "panel.csv", panel)
        out = tmp_path / "out"
        assert main(["fit", "--input", path, "--output-dir", str(out)]) == 0
        fit = out / "fit.json"
        artifact = json.loads(fit.read_text())
        artifact["alpha_estimates"]["per_series"][1]["alpha"] = 1e-320
        fit.write_text(json.dumps(artifact))
        with np.errstate(all="raise"):
            assert main(["warp", "--input", path, "--output-dir", str(out)]) == 3
        assert "series 'b'" in capsys.readouterr().err
        assert not (out / "warps.csv").exists() and not (out / "setbacks.csv").exists()

    @pytest.mark.parametrize("alpha", [float("inf"), 1e308])
    def test_overflowing_fit_rate_exits_3_naming_the_series(self, chain, exp_csv, capsys, alpha):
        edit_fit(chain / "fit.json", lambda artifact: artifact["alpha_estimates"]["per_series"][1].update(alpha=alpha))
        out = chain.parent / "again"
        with np.errstate(all="raise"):
            assert main(["warp", "--input", exp_csv, "--output-dir", str(out), "--fit", str(chain / "fit.json")]) == 3
        assert "numerical failure: series 'm02'" in capsys.readouterr().err
        assert not out.exists()


class TestFpcaCommand:
    def _warp_csv(self, tmp_path, rows, names):
        path = tmp_path / "warps.csv"
        t = np.linspace(0, 1, rows.shape[1])
        lines = ["t_normalized," + ",".join(names)]
        for i in range(rows.shape[1]):
            lines.append(",".join([f"{t[i]:.17g}", *(f"{rows[j, i]:.17g}" for j in range(rows.shape[0]))]))
        path.write_text("\n".join(lines) + "\n")
        return str(path)

    def test_two_series_rank_one(self, tmp_path):
        t = np.linspace(0, 1, 30)
        h1 = t + 0.2 * np.sin(np.pi * t)
        h2 = t - 0.2 * np.sin(np.pi * t)
        path = self._warp_csv(tmp_path, np.vstack([h1, h2]), ["a", "b"])
        out = tmp_path / "out"
        assert main(["fpca", "--input", path, "--output-dir", str(out), "--k", "2"]) == 0
        model = json.loads((out / "fpca_model.json").read_text())
        vals = model["eigenvalues"]
        assert vals[0] > 0
        assert all(abs(v) < 1e-12 * vals[0] for v in vals[1:])
        # Scores are +/- the centered norm.
        from warpgrowth.quadrature import trapezoid_weights

        w = trapezoid_weights(30)
        norm = np.sqrt(np.sum(w * (0.2 * np.sin(np.pi * t)) ** 2))
        scores = {r["name"]: r["scores"][0] for r in model["scores"]}
        assert abs(abs(scores["a"]) - norm) < 1e-10
        assert scores["a"] == pytest.approx(-scores["b"], rel=1e-10)

    def test_model_json_structure(self, tmp_path):
        t = np.linspace(0, 1, 41)
        rows = t + 0.1 * np.random.default_rng(0).standard_normal((6, 1)) * np.sin(np.pi * t)
        path = self._warp_csv(tmp_path, rows, [f"s{i}" for i in range(6)])
        out = tmp_path / "out"
        assert main(["fpca", "--input", path, "--output-dir", str(out), "--k", "2"]) == 0
        d = json.loads((out / "fpca_model.json").read_text())
        assert d["n_retained"] == 2
        assert len(d["eigenvalues"]) == 41
        assert len(d["scores"]) == 6
        assert {"name", "out_of_sample", "scores"} <= set(d["scores"][0])

    def test_exclusion_flags_in_score_table(self, tmp_path):
        rng = np.random.default_rng(0)
        t = np.linspace(0, 1, 25)
        rows = t + 0.1 * rng.standard_normal((5, 25))
        path = self._warp_csv(tmp_path, rows, ["a", "b", "c", "d", "e"])
        out = tmp_path / "out"
        code = main(
            ["fpca", "--input", path, "--output-dir", str(out), "--exclude", "b,e", "--k", "2"]
        )
        assert code == 0
        table = read_csv(out / "scores.csv")
        flags = {row[0]: row[1] for row in table[1:]}
        assert flags == {"a": "0", "b": "1", "c": "0", "d": "0", "e": "1"}
        assert (out / "modes_k1.csv").exists()
        assert (out / "modes_k2.csv").exists()
        assert (out / "eigenfunctions.csv").exists()

    def test_degenerate_regression_exits_3(self, exp_csv, tmp_path):
        # Identical growth rates in the fit artifact: zero-variance regressor.
        out = tmp_path / "out"
        panel = exponential_panel([0.01, 0.01, 0.01], n_points=60, names=["a", "b", "c"])
        path = write_panel(tmp_path / "same.csv", panel)
        main(["fit", "--input", path, "--output-dir", str(out)])
        main(["warp", "--input", path, "--output-dir", str(out)])
        code = main(
            [
                "fpca",
                "--input",
                str(out / "warps.csv"),
                "--output-dir",
                str(out),
                "--fit",
                str(out / "fit.json"),
                "--k",
                "2",
            ]
        )
        assert code == 3

    def test_overflowing_fit_rate_exits_3(self, exp_csv, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["fit", "--input", exp_csv, "--output-dir", str(out)]) == 0
        assert main(["warp", "--input", exp_csv, "--output-dir", str(out)]) == 0
        path = out / "fit.json"
        artifact = json.loads(path.read_text())
        artifact["alpha_estimates"]["per_series"][0]["alpha"] = -1e308
        path.write_text(json.dumps(artifact))
        fpca_out = tmp_path / "fpca"
        code = main(["fpca", "--input", str(out / "warps.csv"), "--output-dir", str(fpca_out), "--fit", str(path)])
        assert code == 3
        assert "not finite" in capsys.readouterr().err
        assert not (fpca_out / "score_alpha_regression.json").exists()

    def test_unreadable_fit_exits_2_and_names_it(self, chain, tmp_path, capsys):
        fpca_out = chain / "f"
        for name, text in (("missing.json", None), ("bad.json", "{")):
            path = tmp_path / name
            if text is not None:
                path.write_text(text)
            argv = ["fpca", "--input", str(chain / "warps.csv"), "--output-dir", str(fpca_out), "--fit", str(path)]
            assert main(argv) == 2
            assert str(path) in capsys.readouterr().err
            assert not fpca_out.exists()

    def test_no_fit_artifact_skips_the_regression(self, chain):
        fpca_out = chain / "f"
        assert main(["fpca", "--input", str(chain / "warps.csv"), "--output-dir", str(fpca_out), "--k", "2"]) == 0
        assert (fpca_out / "scores.csv").exists()
        assert not (fpca_out / "score_alpha_regression.json").exists()

    def test_in_sample_series_without_a_rate_exits_2(self, chain, capsys):
        path = chain / "fit.json"
        artifact = json.loads(path.read_text())
        gone = artifact["alpha_estimates"]["per_series"].pop(2)["name"]
        path.write_text(json.dumps(artifact))
        argv = ["fpca", "--input", str(chain / "warps.csv"), "--output-dir", str(chain / "f"), "--fit", str(path)]
        assert main(argv) == 2
        assert f"no fitted rate for series {gone!r}" in capsys.readouterr().err

    def test_truncated_warp_csv_exits_2(self, tmp_path, capsys):
        t = np.linspace(0, 1, 20)
        path = self._warp_csv(tmp_path, np.vstack([t, 2 * t, t**2]), ["a", "b", "c"])
        lines = Path(path).read_text().splitlines()
        Path(path).write_text("\n".join(lines[:16]) + "\n")  # header + the first 15 rows
        out = tmp_path / "out"
        assert main(["fpca", "--input", path, "--output-dir", str(out), "--k", "1"]) == 2
        assert "uniform 15-point grid" in capsys.readouterr().err
        assert not out.exists()

    def test_rerun_removes_the_optional_outputs_it_does_not_write(self, tmp_path):
        # 20 series write modes_k2.csv and the regression; 2 series write neither,
        # so the first run's copies must not stay next to the second run's model.
        panel = generate_replicate(default_truth(), np.random.default_rng(0)).panel
        chain = tmp_path / "chain"
        path = write_panel(tmp_path / "panel.csv", panel)
        assert main(["fit", "--input", path, "--output-dir", str(chain)]) == 0
        assert main(["warp", "--input", path, "--output-dir", str(chain)]) == 0
        header, *rows = read_csv(chain / "warps.csv")
        pair = tmp_path / "pair.csv"
        pair.write_text("".join(",".join(row[:3]) + "\n" for row in [header, *rows]))
        out = tmp_path / "out"
        optional = ("modes_k2.csv", "score_alpha_regression.json")
        for warps, n_sample in ((chain / "warps.csv", 20), (pair, 2)):
            argv = ["fpca", "--input", str(warps), "--output-dir", str(out), "--fit", str(chain / "fit.json")]
            assert main(argv) == 0
            assert json.loads((out / "fpca_model.json").read_text())["n_sample"] == n_sample
            assert [(out / name).exists() for name in optional] == [n_sample == 20] * 2

    def test_regression_takes_the_in_sample_rows_in_input_order(self, tmp_path):
        # Series columns out of name order and two held out: the artifact is the
        # regression of the in-sample rows as they come, as demo 02 calls it.
        panel = generate_replicate(dataclasses.replace(default_truth(), n=40), np.random.default_rng(4)).panel
        order = np.random.default_rng(5).permutation(panel.n_series)
        shuffled = Panel(panel.grid, [panel.names[i] for i in order], panel.values[order])
        path = write_panel(tmp_path / "panel.csv", shuffled)
        out = tmp_path / "out"
        assert main(["fit", "--input", path, "--output-dir", str(out)]) == 0
        assert main(["warp", "--input", path, "--output-dir", str(out)]) == 0
        argv = ["fpca", "--input", str(out / "warps.csv"), "--output-dir", str(out), "--exclude", "sim03,sim17"]
        assert main(argv) == 0
        fits = json.loads((out / "fit.json").read_text())["alpha_estimates"]["per_series"]
        rates = {row["name"]: row["alpha"] for row in fits}
        kept = [row for row in json.loads((out / "fpca_model.json").read_text())["scores"] if not row["out_of_sample"]]
        assert [row["name"] for row in kept] != sorted(row["name"] for row in kept)
        scores = np.array([row["scores"] for row in kept])
        lines = score_rate_regression(scores, np.array([rates[row["name"]] for row in kept]))
        expected = [
            {"component": k, "slope": line.slope, "intercept": line.intercept, "correlation": line.correlation}
            for k, line in enumerate(lines, start=1)
        ]
        artifact = json.loads((out / "score_alpha_regression.json").read_text())
        assert artifact == {"n": 38, "components": expected}

    def test_modes_read_back_as_a_unit_table(self, tmp_path):
        # Every float table the package writes reads back through read_unit_table.
        t = np.linspace(0, 1, 30)
        rows = t + 0.1 * np.random.default_rng(2).standard_normal((8, 30))
        path = self._warp_csv(tmp_path, rows, [f"s{i}" for i in range(8)])
        out = tmp_path / "out"
        assert main(["fpca", "--input", path, "--output-dir", str(out), "--k", "2"]) == 0
        model = fit_fpca(_table.read_file(path, warps_from_csv), k=2)
        header, data = _table.read_file(out / "eigenfunctions.csv", _table.read_unit_table, 2)
        assert header == ["t_normalized", "mean", "phi_1", "phi_2", "phi_scaled_1", "phi_scaled_2"]
        assert data[:, 1].tobytes() == model.mean.tobytes()
        assert data[:, 2:4].T.tobytes() == model.eigenfunctions.tobytes()
        scaled = model.eigenfunctions * np.sqrt(model.eigenvalues[:2])[:, None]
        assert data[:, 4:].T.tobytes() == scaled.tobytes()
        for k in (1, 2):
            header, data = _table.read_file(out / f"modes_k{k}.csv", _table.read_unit_table, 2)
            assert header == ["t_normalized", *(f"gamma_{g:g}" for g in DEFAULT_GAMMAS)]
            assert data[:, 0].tobytes() == model.grid.points.tobytes()
            assert data[:, 1:].T.tobytes() == modes_of_variation(model, k).tobytes()

    def test_overflowing_spectrum_exits_3_without_a_model(self, tmp_path, capsys):
        # One warp near 1e297 (what warp writes for a rate of 1e-300) squares past the float range.
        rows = np.tile(np.linspace(0, 1, 176), (20, 1)) + 0.01 * np.random.default_rng(3).standard_normal((20, 176))
        rows[3] *= 1e297
        path = self._warp_csv(tmp_path, rows, [f"s{i:02d}" for i in range(20)])
        out = tmp_path / "out"
        assert main(["fpca", "--input", path, "--output-dir", str(out)]) == 3
        assert "the covariance spectrum is not finite" in capsys.readouterr().err
        assert not (out / "fpca_model.json").exists()

    def test_bad_threshold_exit_4(self, tmp_path):
        t = np.linspace(0, 1, 10)
        path = self._warp_csv(tmp_path, np.vstack([t, 2 * t]), ["a", "b"])
        code = main(
            ["fpca", "--input", path, "--output-dir", str(tmp_path / "o"), "--var-threshold", "1.5"]
        )
        assert code == 4


class TestSimulateCommand:
    def test_default_truth_small_run(self, tmp_path):
        out = tmp_path / "out"
        code = main(
            ["simulate", "--output-dir", str(out), "--default-truth", "--replicates", "2", "--seed", "5"]
        )
        assert code == 0
        report = json.loads((out / "sim_report.json").read_text())
        assert report["n_replicates"] == 2
        assert report["n_failed"] == 0
        assert (out / "sim_replicates.csv").exists()
        assert "housing_study_reference" in report

    def test_custom_truth_exact_model(self, tmp_path):
        grid = TimeGrid(144, 120)
        u = np.linspace(0, 1, 120)
        truth = SimTruth(grid, u, np.empty((0, 120)), np.empty(0), n=6)
        manifest = save_truth(truth, tmp_path / "truth")
        out = tmp_path / "out"
        code = main(
            [
                "simulate",
                "--output-dir",
                str(out),
                "--truth",
                str(manifest),
                "--replicates",
                "2",
                "--seed",
                "1",
            ]
        )
        assert code == 0
        report = json.loads((out / "sim_report.json").read_text())
        assert report["aggregates"]["ase"]["mean"] < 1e-10

    def _saved_truth(self, tmp_path):
        grid = TimeGrid(144, 60)
        truth = SimTruth(grid, np.linspace(0, 1, 60), np.empty((0, 60)), np.empty(0), n=6)
        return save_truth(truth, tmp_path / "truth")

    def test_narrow_truth_csv_is_input_error(self, tmp_path, capsys):
        manifest = self._saved_truth(tmp_path)
        mean_csv = manifest.parent / json.loads(manifest.read_text())["mean_csv"]
        rows = mean_csv.read_text().splitlines()
        mean_csv.write_text("".join(row.split(",")[0] + "\n" for row in rows))
        code = main(["simulate", "--output-dir", str(tmp_path / "o"), "--truth", str(manifest)])
        assert code == 2
        err = capsys.readouterr().err
        assert "input error" in err and mean_csv.name in err
        assert not (tmp_path / "o").exists()

    def test_truth_csv_off_the_unit_grid_is_input_error(self, tmp_path, capsys):
        manifest = self._saved_truth(tmp_path)
        mean_csv = manifest.parent / json.loads(manifest.read_text())["mean_csv"]
        header, *rows = mean_csv.read_text().splitlines()
        mean_csv.write_text(header + "\n" + "".join("0.5," + row.split(",")[1] + "\n" for row in rows))
        code = main(["simulate", "--output-dir", str(tmp_path / "o"), "--truth", str(manifest)])
        assert code == 2
        assert "not point 0 of a uniform 60-point grid" in capsys.readouterr().err

    @pytest.mark.parametrize("key, column", [("mean_csv", "mean"), ("eigenfunctions_csv", "phi_1")])
    @pytest.mark.parametrize("edit, message", MALFORMED_UNIT_TABLES)
    def test_malformed_truth_csv_exits_2_naming_it(self, tmp_path, capsys, edit, message, key, column):
        # One component, so the eigenfunction CSV needs 2 columns like the mean CSV.
        truth = SimTruth(TimeGrid(144, 60), np.linspace(0, 1, 60), np.ones((1, 60)), np.array([1e-4]), n=6)
        manifest = save_truth(truth, tmp_path / "truth")
        path = manifest.parent / json.loads(manifest.read_text())[key]
        path.write_text(edit_table(path.read_text(), edit))
        out = tmp_path / "o"
        assert main(["simulate", "--output-dir", str(out), "--truth", str(manifest), "--replicates", "1"]) == 2
        err = capsys.readouterr().err
        assert f"input error: {path}: " in err and message.format(col=column) in err
        assert not out.exists()

    def test_non_finite_eigenvalue_is_configuration_error(self, tmp_path, capsys):
        manifest = save_truth(default_truth(), tmp_path / "truth")
        fields = json.loads(manifest.read_text())
        fields["eigenvalues"][1] = float("nan")
        manifest.write_text(json.dumps(fields))
        assert main(["simulate", "--output-dir", str(tmp_path / "o"), "--truth", str(manifest)]) == 4
        assert "configuration error: eigenvalues is not finite" in capsys.readouterr().err

    def test_truth_with_overflowing_trajectories_runs(self, tmp_path, capsys):
        # Eigenvalues x 1e8 keep the truth valid, but many candidate
        # trajectories overflow or fall below the normal range; they are
        # rejected like one over the cap, silently and never as an input error.
        manifest = save_truth(default_truth(), tmp_path / "truth")
        fields = json.loads(manifest.read_text())
        fields["eigenvalues"] = [v * 1e8 for v in fields["eigenvalues"]]
        manifest.write_text(json.dumps(fields))
        out = tmp_path / "o"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(
                ["simulate", "--output-dir", str(out), "--truth", str(manifest), "--replicates", "2", "--seed", "0"]
            )
        err = capsys.readouterr().err
        assert code in (0, 4), err
        if code == 4:
            assert "configuration error: acceptance rate" in err
        else:
            assert json.loads((out / "sim_report.json").read_text())["n_replicates"] == 2

    def test_two_series_truth_runs(self, tmp_path):
        manifest = save_truth(dataclasses.replace(default_truth(), n=2), tmp_path / "truth")
        out = tmp_path / "o"
        assert main(["simulate", "--output-dir", str(out), "--truth", str(manifest), "--replicates", "2"]) == 0
        header, *rows = read_csv(out / "sim_replicates.csv")
        assert [row[header.index("phi2_sq_err")] for row in rows] == ["nan", "nan"]

    def test_one_series_truth_exits_4(self, tmp_path, capsys):
        manifest = save_truth(dataclasses.replace(default_truth(), n=1), tmp_path / "truth")
        out = tmp_path / "o"
        assert main(["simulate", "--output-dir", str(out), "--truth", str(manifest), "--replicates", "2"]) == 4
        assert "configuration error: a study needs at least 2 series" in capsys.readouterr().err
        assert not out.exists()

    def test_truth_grid_shorter_than_every_window_exits_4(self, tmp_path, capsys):
        # No scanned window fits 23 months, so every replicate would fail its window search.
        truth = SimTruth(TimeGrid(144, 23), np.linspace(0, 1, 23), np.empty((0, 23)), np.empty(0), n=6)
        manifest = save_truth(truth, tmp_path / "truth")
        out = tmp_path / "o"
        assert main(["simulate", "--output-dir", str(out), "--truth", str(manifest), "--replicates", "3"]) == 4
        err = capsys.readouterr().err
        assert "configuration error: a study scans windows of at least 24 months, longer than the 23-month truth grid" in err
        assert not out.exists()

    def test_convergence_csv_equals_convergence_json(self, tmp_path):
        # The n rows and the slope row hold the JSON's sizes, errors and slopes, bit for bit.
        out = tmp_path / "o"
        argv = ["simulate", "--output-dir", str(out), "--default-truth", "--replicates", "1", "--convergence-sweep"]
        assert main(argv) == 0
        sweep = json.loads((out / "convergence.json").read_text())
        header, *rows, slope = read_csv(out / "convergence.csv")
        # The JSON's keys are sorted; the CSV keeps the sweep's estimand order.
        names = header[1:]
        assert header[0] == "n" and sorted(names) == sorted(sweep["errors"]) == sorted(sweep["slopes"])
        assert [int(row[0]) for row in rows] == sweep["sizes"]

        def bits(values):
            return [float(v).hex() for v in values]

        for i, row in enumerate(rows):
            assert bits(row[1:]) == bits(sweep["errors"][k][i] for k in names)
        assert slope[0] == "slope"
        assert bits(slope[1:]) == bits(sweep["slopes"][k] for k in names)

    def test_rerun_without_the_sweep_removes_its_outputs(self, tmp_path):
        # The first run's convergence.* must not stay next to the second run's report.
        out = tmp_path / "out"
        argv = ["simulate", "--output-dir", str(out), "--default-truth", "--replicates", "1"]
        assert main([*argv, "--seed", "0", "--convergence-sweep"]) == 0
        assert main([*argv, "--seed", "1"]) == 0
        assert sorted(p.name for p in out.iterdir()) == ["sim_replicates.csv", "sim_report.json"]

    def test_unknown_manifest_key_exits_4_naming_it(self, tmp_path, capsys):
        manifest = save_truth(default_truth(), tmp_path / "truth")
        manifest.write_text(json.dumps({**json.loads(manifest.read_text()), "alpha_rnage": [0.001, 0.002]}))
        out = tmp_path / "o"
        assert main(["simulate", "--output-dir", str(out), "--truth", str(manifest)]) == 4
        assert "configuration error: truth manifest: unknown keys ['alpha_rnage']" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("shift", [0, -5])
    def test_truth_end_not_after_start_exits_4(self, tmp_path, capsys, shift):
        manifest = save_truth(default_truth(), tmp_path / "truth")
        manifest.write_text(json.dumps({**json.loads(manifest.read_text()), "t1_month": 144 + shift}))
        out = tmp_path / "o"
        assert main(["simulate", "--output-dir", str(out), "--truth", str(manifest)]) == 4
        err = capsys.readouterr().err
        assert f"configuration error: truth manifest: t1_month {144 + shift} must come after t0_month 144" in err
        assert not out.exists()

    def test_requires_truth_choice(self, tmp_path):
        assert main(["simulate", "--output-dir", str(tmp_path / "o")]) == 4

    def test_zero_replicates_exit_4(self, tmp_path, capsys):
        code = main(
            ["simulate", "--output-dir", str(tmp_path / "o"), "--default-truth", "--replicates", "0"]
        )
        assert code == 4
        assert "configuration error: need at least 1 replicate, got 0" in capsys.readouterr().err


def edit_fit(path, edit):
    """Rewrite the fit artifact at ``path`` after ``edit(artifact)``."""
    artifact = json.loads(path.read_text())
    edit(artifact)
    path.write_text(json.dumps(artifact))


def anchor_deviations(out):
    return [row["anchor_deviation"] for row in json.loads((out / "diagnostics_summary.json").read_text())["per_series"]]


class TestDiagnoseCommand:
    def test_exponential_fixture_small_residuals(self, exp_csv, tmp_path):
        out = tmp_path / "out"
        assert main(["fit", "--input", exp_csv, "--output-dir", str(out)]) == 0
        assert main(["diagnose", "--input", exp_csv, "--output-dir", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == ["diagnostics_summary.json", "fit.json"]
        summary = json.loads((out / "diagnostics_summary.json").read_text())
        window = json.loads((out / "fit.json").read_text())["window"]
        assert summary["anchor_window"] == {"start": window["start"], "end": window["end"]}
        assert [row["name"] for row in summary["per_series"]] == ["m01", "m02", "m03", "m04", "m05"]
        for row in summary["per_series"]:
            assert row["anchor_deviation"] < 1e-10
            assert row["clamped"] is False
        worst = max(summary["per_series"], key=lambda row: row["anchor_deviation"])
        assert summary["worst"] == {"name": worst["name"], "anchor_deviation": worst["anchor_deviation"]}

    def test_tied_worst_series_is_the_first_name_in_any_column_order(self, tmp_path):
        rng = np.random.default_rng(0)
        values = np.exp(np.cumsum(rng.normal(0.005, 0.03, (3, 60)), axis=1)) * 100.0
        values[1] = values[0]
        for names in (("a", "b", "c"), ("b", "a", "c")):
            panel = write_panel(tmp_path / "panel.csv", Panel(TimeGrid(100, 60), names, values))
            out = tmp_path / "-".join(names)
            assert main(["fit", "--input", panel, "--output-dir", str(out)]) == 0
            assert main(["diagnose", "--input", panel, "--output-dir", str(out)]) == 0
            summary = json.loads((out / "diagnostics_summary.json").read_text())
            deviations = {row["name"]: row["anchor_deviation"] for row in summary["per_series"]}
            assert deviations["a"] == deviations["b"] == max(deviations.values())
            assert summary["worst"]["name"] == "a"

    def test_rescaled_rates_move_every_deviation(self, tmp_path):
        # The warps come from the same panel, so the anchor is what ties them to the rates.
        rep = generate_replicate(default_truth(), np.random.default_rng(0))
        panel = write_panel(tmp_path / "panel.csv", rep.panel)
        out = tmp_path / "out"
        assert main(["fit", "--input", panel, "--output-dir", str(out)]) == 0
        assert main(["diagnose", "--input", panel, "--output-dir", str(out)]) == 0
        before = anchor_deviations(out)

        def scale(artifact):
            for row in artifact["alpha_estimates"]["per_series"]:
                row["alpha"] *= 3.7

        edit_fit(out / "fit.json", scale)
        assert main(["diagnose", "--input", panel, "--output-dir", str(out)]) == 0
        after = anchor_deviations(out)
        assert len(after) == len(before) == rep.panel.n_series
        assert all(a != b for a, b in zip(after, before))

    def test_overflowing_residuals_exit_3_without_outputs(self, exp_csv, chain, tmp_path, capsys):
        # A rate of 2e-310 leaves each warp finite (up to about 1e307), but the sums of 'm04' and 'm05' overflow.
        def tiny(artifact):
            for row in artifact["alpha_estimates"]["per_series"]:
                row["alpha"] = 2e-310

        edit_fit(chain / "fit.json", tiny)
        out = tmp_path / "diag"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["diagnose", "--input", exp_csv, "--output-dir", str(out), "--fit", str(chain / "fit.json")])
        assert code == 3
        assert "numerical failure: series 'm04': anchor deviation is not finite" in capsys.readouterr().err
        assert not out.exists()

    def test_cli_runs_the_study_estimator(self, tmp_path):
        # This replicate's window is 146..169, after the panel's first month:
        # the CLI's warps must still be the study's, from the panel start.
        rep = generate_replicate(default_truth(), np.random.default_rng(0))
        panel = write_panel(tmp_path / "panel.csv", rep.panel)
        out = tmp_path / "out"
        for command in ("fit", "warp", "diagnose"):
            assert main([command, "--input", panel, "--output-dir", str(out)]) == 0
        warps = compute_warp_set(rep.panel, estimate_alphas(rep.panel, search_interval(rep.panel).best_window))
        assert (out / "warps.csv").read_bytes() == warps_to_csv(warps).encode()
        assert anchor_deviations(out) == identity_deviation(warps).tolist()
        summary = json.loads((out / "diagnostics_summary.json").read_text())
        assert summary["anchor_window"] == {"start": 144, "end": 169}

    @pytest.mark.parametrize("command", ["warp", "diagnose"])
    def test_rate_that_makes_the_warp_subnormal_exits_3(self, tmp_path, capsys, command):
        # 1e306 per month times 175 months is finite, but each log ratio divided by it is subnormal.
        rep = generate_replicate(default_truth(), np.random.default_rng(0))
        panel = write_panel(tmp_path / "panel.csv", rep.panel)
        fit = tmp_path / "fit"
        assert main(["fit", "--input", panel, "--output-dir", str(fit)]) == 0
        edit_fit(fit / "fit.json", lambda artifact: artifact["alpha_estimates"]["per_series"][0].update(alpha=1e306))
        out = tmp_path / "out"
        assert main([command, "--input", panel, "--output-dir", str(out), "--fit", str(fit / "fit.json")]) == 3
        err = capsys.readouterr().err
        assert "numerical failure: series 'sim01': alpha 1e+306" in err and "subnormal" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["warp", "diagnose"])
    @pytest.mark.parametrize(
        "window, problem",
        [
            ((170, 150), "window: start 170 must come before end 150"),
            ((150, 150), "window: start 150 must come before end 150"),
            ((150, 400), "window 150..400 lies outside analysis.restriction 144..233"),
            ((100, 150), "window 100..150 lies outside analysis.restriction 144..233"),
        ],
        ids=["inverted", "empty", "past-the-panel", "before-the-panel"],
    )
    def test_contradictory_window_exits_2(self, exp_csv, chain, tmp_path, capsys, command, window, problem):
        path = chain / "fit.json"
        edit_fit(path, lambda artifact: artifact.update(window={"start": window[0], "end": window[1]}))
        out = tmp_path / "o"
        assert main([command, "--input", exp_csv, "--output-dir", str(out), "--fit", str(path)]) == 2
        assert f"input error: {path}: {problem}" in capsys.readouterr().err
        assert not out.exists()


class TestDeterminism:
    @pytest.mark.parametrize(
        "respell",
        [lambda cell: f" {cell}\x1f", lambda cell: cell.translate(ARABIC_INDIC_DIGITS)],
        ids=["padded", "arabic-indic"],
    )
    def test_padded_and_arabic_indic_copies_give_the_same_artifacts(self, exp_csv, tmp_path, respell):
        # Every body cell of the panel and of warps.csv respelled, quoted, with
        # "\r\n" line ends. A padded cell is stripped with str.strip. Only
        # float reads Arabic-Indic digits, so read_table reads both files of
        # that copy with its csv fallback. Either way the chain writes the same bytes.
        def respelled(src, dst):
            rows = read_csv(src)
            rows[1:] = [[respell(cell) for cell in row] for row in rows[1:]]
            with open(dst, "w", newline="", encoding="utf-8") as fh:
                csv.writer(fh, quoting=csv.QUOTE_ALL, lineterminator="\r\n").writerows(rows)
            return str(dst)

        results = []
        for panel, name in ((exp_csv, "plain"), (respelled(exp_csv, tmp_path / "panel_respelled.csv"), "respelled")):
            out = tmp_path / name
            assert main(["fit", "--input", panel, "--output-dir", str(out)]) == 0
            assert main(["warp", "--input", panel, "--output-dir", str(out)]) == 0
            warps = str(out / "warps.csv")
            if name == "respelled":
                warps = respelled(warps, tmp_path / "warps_respelled.csv")
            assert main(["fpca", "--input", warps, "--output-dir", str(out)]) == 0
            assert main(["diagnose", "--input", panel, "--output-dir", str(out)]) == 0
            results.append(snapshot(out))
        assert results[0] == results[1]


class TestInputBoundary:
    """Bad input files exit 2 with a message naming the file; bad flags exit 4."""

    def test_panel_cell_over_csv_field_limit(self, tmp_path, capsys):
        path = tmp_path / "huge.csv"
        # The second cell spells the valid level 1, which numpy's tokenizer would take.
        for cell in ("9" * 200_000, "1." + "0" * 200_000):
            path.write_text("date,A\n2000-01,100\n2000-02," + cell + "\n")
            assert main(["fit", "--input", str(path), "--output-dir", str(tmp_path / "o")]) == 2
            err = capsys.readouterr().err
            assert str(path) in err and "field larger than field limit" in err

        # Under the field limit the cell is read, and the message echoes it truncated.
        for cell in ("x" * 100_000, "9" * 100_000):  # not a number; a number that overflows
            path.write_text("date,A\n2000-01,100\n2000-02," + cell + "\n")
            assert main(["fit", "--input", str(path), "--output-dir", str(tmp_path / "o")]) == 2
            err = capsys.readouterr().err
            assert str(path) in err and "row 3, column 'A'" in err and len(err) < 500

    def test_warp_cell_over_csv_field_limit(self, chain, capsys):
        path = chain / "warps.csv"
        lines = path.read_text().splitlines()
        head, last = lines[3].rsplit(",", 1)[0], lines[0].rsplit(",", 1)[1]
        for cell in ("9" * 200_000, "1." + "0" * 200_000):  # the second a valid number
            lines[3] = head + "," + cell
            path.write_text("\n".join(lines) + "\n")
            assert main(["fpca", "--input", str(path), "--output-dir", str(chain / "f")]) == 2
            err = capsys.readouterr().err
            assert str(path) in err and "line 4: field larger than field limit" in err

        lines[3] = head + "," + "x" * 100_000
        path.write_text("\n".join(lines) + "\n")
        assert main(["fpca", "--input", str(path), "--output-dir", str(chain / "f")]) == 2
        err = capsys.readouterr().err
        assert str(path) in err and f"row 4, column {last!r}" in err and len(err) < 500

    def test_fit_artifact_alpha_of_wrong_type(self, exp_csv, chain, capsys):
        path = chain / "fit.json"
        artifact = json.loads(path.read_text())
        artifact["alpha_estimates"]["per_series"][1]["alpha"] = "x"
        path.write_text(json.dumps(artifact))
        assert main(["warp", "--input", exp_csv, "--output-dir", str(chain)]) == 2
        err = capsys.readouterr().err
        assert f"{path}: alpha_estimates.per_series[1]: 'alpha' must be float, got 'x'" in err

    def test_fit_row_missing_alpha_names_the_row(self, exp_csv, chain, capsys):
        path = chain / "fit.json"
        artifact = json.loads(path.read_text())
        del artifact["alpha_estimates"]["per_series"][3]["alpha"]
        path.write_text(json.dumps(artifact))
        assert main(["diagnose", "--input", exp_csv, "--output-dir", str(chain)]) == 2
        assert "alpha_estimates.per_series[3] is missing 'alpha'" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [["--k", "999"], ["--k", "0"], ["--exclude", "nope"]])
    def test_out_of_range_fpca_flags_are_configuration_errors(self, chain, capsys, flags):
        code = main(["fpca", "--input", str(chain / "warps.csv"), "--output-dir", str(chain / "f"), *flags])
        assert code == 4
        assert "configuration error" in capsys.readouterr().err

    def test_negative_seed_is_configuration_error(self, tmp_path):
        code = main(["simulate", "--output-dir", str(tmp_path / "o"), "--default-truth", "--seed", "-1"])
        assert code == 4

    def test_panel_with_a_byte_order_mark_reads_as_without(self, exp_csv, tmp_path):
        # A spreadsheet's "CSV UTF-8" export starts with U+FEFF.
        marked = tmp_path / "marked.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + Path(exp_csv).read_bytes())
        for path, out in ((exp_csv, "plain"), (marked, "marked")):
            assert main(["fit", "--input", str(path), "--output-dir", str(tmp_path / out)]) == 0
        assert (tmp_path / "marked" / "fit.json").read_bytes() == (tmp_path / "plain" / "fit.json").read_bytes()

    def test_fit_artifact_with_a_byte_order_mark_reads_as_without(self, exp_csv, chain):
        fit = chain / "fit.json"
        fit.write_bytes(b"\xef\xbb\xbf" + fit.read_bytes())
        assert main(["warp", "--input", exp_csv, "--output-dir", str(chain / "marked"), "--fit", str(fit)]) == 0
        assert (chain / "marked" / "warps.csv").read_bytes() == (chain / "warps.csv").read_bytes()

    def test_non_utf8_panel(self, tmp_path, capsys):
        path = tmp_path / "latin1.csv"
        path.write_bytes("date,Zürich\n2000-01,100\n2000-02,101\n".encode("latin-1"))
        assert main(["fit", "--input", str(path), "--output-dir", str(tmp_path / "o")]) == 2
        assert str(path) in capsys.readouterr().err


class TestBugsAreNotExitCodes:
    """A builtin exception raised inside the package is a bug: it propagates out of main."""

    @pytest.mark.parametrize("error", [ValueError, KeyError, IndexError])
    def test_builtin_error_propagates(self, exp_csv, tmp_path, monkeypatch, error):
        def broken(*args, **kwargs):
            raise error("internal bug")

        monkeypatch.setattr("warpgrowth.cli.search_interval", broken)
        with pytest.raises(error, match="internal bug"):
            main(["fit", "--input", exp_csv, "--output-dir", str(tmp_path / "o")])


class TestImportHygiene:
    def test_package_import_leaves_scipy_unloaded(self, exp_csv, tmp_path):
        code = """
import sys
import numpy as np
from warpgrowth import TimeGrid, WarpSet, default_truth, fit_fpca
from warpgrowth.cli import main


def sample(grid, rows):
    return WarpSet(grid, [f"s{i}" for i in range(len(rows))], rows)


truth = default_truth()
grid = TimeGrid(0, truth.grid.n_points)
curves = [truth.mean + 0.01 * i * truth.eigenfunctions[i % 3] for i in range(5)]
assert fit_fpca(sample(grid, curves), k=2).n_retained == 2  # n < m: thin SVD
small = TimeGrid(0, 4)
rows = np.random.default_rng(0).standard_normal((6, 4))
assert fit_fpca(sample(small, rows), k=2).n_retained == 2  # n >= m: eigendecompose

panel, out = sys.argv[1:]
for command in ("fit", "warp", "diagnose"):
    assert main([command, "--input", panel, "--output-dir", out]) == 0
assert main(["fpca", "--input", out + "/warps.csv", "--output-dir", out, "--k", "2"]) == 0
assert main(["simulate", "--default-truth", "--replicates", "2", "--seed", "0", "--output-dir", out + "/sim"]) == 0
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
assert not loaded, loaded
"""
        run_python(code, exp_csv, tmp_path / "out")
        assert (tmp_path / "out" / "score_alpha_regression.json").exists()


class TestMonthLabelHelp:
    def test_summary_uses_labels(self, exp_csv, tmp_path, capsys):
        out = tmp_path / "out"
        main(["fit", "--input", exp_csv, "--output-dir", str(out)])
        captured = capsys.readouterr()
        assert month_label(144) in captured.out
