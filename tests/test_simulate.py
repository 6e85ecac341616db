import dataclasses
import itertools
import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from warpgrowth.errors import ConfigError, NumericalError
from warpgrowth.fpca import FpcaModel, fit_fpca
from warpgrowth.growthfit import WindowFits
from warpgrowth.quadrature import trapezoid_weights
from warpgrowth.simulate import (
    Replicate,
    SimReport,
    SimTruth,
    averaged_relative_squared_error,
    convergence_sweep,
    default_truth,
    generate_replicate,
    load_truth,
    relative_integrated_squared_error,
    run_study,
    save_truth,
    sign_aligned_sq_error,
)
from warpgrowth.simulate import _CHUNK, _spline_coefficients, _spline_values
from warpgrowth.timeseries import Panel, TimeGrid
from warpgrowth.warping import WarpSet

from conftest import exponential_panel, rate_fits, warp_set
from oracles import generate_replicate_per_candidate


def identity_truth(n=20, alpha_range=(0.003, 0.018), x0_range=(85.0, 100.0), m=176, **kw):
    """Zero-noise truth whose mean is the identity warp: exact exponentials."""
    grid = TimeGrid(144, m)
    u = np.linspace(0.0, 1.0, m)
    phi = np.empty((0, m))
    lam = np.empty(0)
    return SimTruth(grid, u, phi, lam, n=n, alpha_range=alpha_range, x0_range=x0_range, **kw)


#: The default truth with its eigenvalues scaled by 1e8: valid, but most of
#: its trajectories overflow or underflow.
WIDE_TRUTH = replace(default_truth(), eigenvalues=default_truth().eigenvalues * 1e8)


class TestSimTruthValidation:
    def test_default_truth_is_valid(self):
        truth = default_truth()
        assert truth.grid.start_month == 144
        assert truth.grid.end_month == 319
        assert truth.n_components == 10
        assert truth.two_component_fraction == pytest.approx(0.96, abs=1e-6)
        assert truth.mean[0] == 0.0
        assert np.abs(truth.eigenfunctions[:, 0]).max() < 1e-6

    def test_default_truth_orthonormal(self):
        truth = default_truth()
        w = trapezoid_weights(truth.grid.n_points)
        gram = (truth.eigenfunctions * w) @ truth.eigenfunctions.T
        assert np.abs(gram - np.eye(10)).max() < 1e-8

    def test_non_orthonormal_rejected(self):
        grid = TimeGrid(144, 50)
        u = np.linspace(0, 1, 50)
        phi = np.vstack([np.ones(50), np.ones(50)])
        with pytest.raises(ConfigError):
            SimTruth(grid, u, phi, np.array([1.0, 0.5]))

    def test_increasing_eigenvalues_rejected(self):
        grid = TimeGrid(144, 50)
        u = np.linspace(0, 1, 50)
        w = trapezoid_weights(50)
        f = np.sin(2 * np.pi * u)
        f = f / np.sqrt(np.sum(w * f**2))
        g = np.cos(2 * np.pi * u)
        g = g - np.sum(w * g * f) * f
        g = g / np.sqrt(np.sum(w * g**2))
        with pytest.raises(ConfigError):
            SimTruth(grid, u, np.vstack([f, g]), np.array([0.1, 0.5]))

    @pytest.mark.parametrize("field", ["mean", "eigenfunctions", "eigenvalues"])
    def test_non_finite_field_rejected(self, field):
        m = 50
        arrays = {"mean": np.linspace(0, 1, m), "eigenfunctions": np.ones((1, m)), "eigenvalues": np.array([0.01])}
        arrays[field].flat[-1] = math.nan
        with pytest.raises(ConfigError, match=f"^{field} is not finite$"):
            SimTruth(TimeGrid(144, m), **arrays)

    def test_bad_ranges_rejected(self):
        with pytest.raises(ConfigError):
            identity_truth(alpha_range=(0.0, 0.01))
        with pytest.raises(ConfigError):
            identity_truth(x0_range=(100.0, 85.0))

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"n": 2.5}, "n must be an integer in [1, inf), got 2.5"),
            ({"n": True}, "n must be an integer in [1, inf), got True"),
            ({"n": 0}, "n must be an integer in [1, inf), got 0"),
            ({"cap": 0.0}, "cap must be positive"),
            ({"alpha_range": (0.003, math.inf)}, "alpha_range must be finite"),
            ({"x0_range": (85.0, math.inf)}, "x0_range must be finite"),
            ({"eigenfunctions": np.ones(176), "eigenvalues": np.ones(1)}, "eigenfunctions must be (K, 176)"),
            ({"eigenvalues": np.array([0.2, 0.1])}, "2 eigenvalues for 10 eigenfunctions"),
        ],
        ids=["fractional-n", "bool-n", "zero-n", "zero-cap", "infinite-alpha", "infinite-x0", "1d-phi", "lambda-count"],
    )
    def test_bad_field_rejected_naming_it(self, change, message):
        with pytest.raises(ConfigError, match="^" + re.escape(message)):
            replace(default_truth(), **change)

    def test_numpy_integer_n_is_an_int(self):
        truth = replace(default_truth(), n=np.int64(5))
        assert type(truth.n) is int and truth.n == 5

    def test_arrays_are_read_only(self):
        truth = default_truth()
        for key in ("mean", "eigenfunctions", "eigenvalues"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(truth, key)[0] = 5.0
        with pytest.raises(ConfigError, match=r"^mean has shape \(49,\), grid has 50 points$"):
            SimTruth(TimeGrid(144, 50), np.zeros(49), np.ones((1, 50)), np.array([0.01]))


#: Records that hold arrays, each built afresh by a call, equal field by field from call to call.
ARRAY_RECORDS = [
    pytest.param(lambda: exponential_panel([0.01, 0.02], n_points=12), id="Panel"),
    pytest.param(lambda: rate_fits(("a", "b"), [0.01, 0.02], (144, 155)), id="WindowFits"),
    pytest.param(lambda: warp_set(TimeGrid(0, 5), np.ones((2, 5))), id="WarpSet"),
    pytest.param(lambda: fit_fpca(warp_set(TimeGrid(0, 5), [[0, 1, 2, 3, 4], [0, 2, 2, 2, 4]]), k=1), id="FpcaModel"),
    pytest.param(default_truth, id="SimTruth"),
    pytest.param(lambda: generate_replicate(default_truth(), np.random.default_rng(0)), id="Replicate"),
]


def array_fields(record) -> dict:
    """The record's array fields, by name."""
    fields = {f.name: getattr(record, f.name) for f in dataclasses.fields(record)}
    return {key: a for key, a in fields.items() if isinstance(a, np.ndarray)}


@pytest.mark.parametrize("build", ARRAY_RECORDS)
def test_array_records_compare_by_identity(build):
    # Field-wise == on arrays raises ValueError; such a record equals only itself.
    record, twin = build(), build()
    assert (record == twin) is False and (record != twin) is True
    assert (record == record) is True
    assert not any(a.flags.writeable for a in array_fields(record).values())


GRID = TimeGrid(0, 5)

#: Each array record as ``(build, inputs)``: ``build`` makes it from the dict of
#: C-contiguous arrays that ``inputs()`` returns, which the caller keeps.
FROM_CALLER_ARRAYS = [
    pytest.param(lambda a: Panel(GRID, ("a", "b"), a["values"]), lambda: {"values": np.full((2, 5), 2.0)}, id="Panel"),
    pytest.param(
        lambda a: WindowFits((0, 4), ("a", "b"), a["alpha"], a["intercept"], a["r2"], a["clamped"]),
        lambda: {"alpha": np.full(2, 0.01), "intercept": np.zeros(2), "r2": np.ones(2), "clamped": np.zeros(2, bool)},
        id="WindowFits",
    ),
    pytest.param(lambda a: WarpSet(GRID, ("a", "b"), a["values"]), lambda: {"values": np.ones((2, 5))}, id="WarpSet"),
    pytest.param(
        lambda a: FpcaModel(GRID, a["mean"], a["vals"], a["phi"], a["scores"], ("a", "b"), a["held"]),
        lambda: {
            "mean": np.zeros(5),
            "vals": np.zeros(5),
            "phi": np.ones((1, 5)),
            "scores": np.zeros((2, 1)),
            "held": np.zeros(2, bool),
        },
        id="FpcaModel",
    ),
    pytest.param(
        lambda a: SimTruth(GRID, a["mean"], a["phi"], a["vals"]),
        lambda: {"mean": np.linspace(0.0, 1.0, 5), "phi": np.ones((1, 5)), "vals": np.array([0.01])},
        id="SimTruth",
    ),
    pytest.param(
        lambda a: Replicate(Panel(GRID, ("a", "b"), a["values"]), a["alphas"], a["warps"], a["scores"], 2),
        lambda: {"values": np.full((2, 5), 2.0), "alphas": np.ones(2), "warps": np.ones((2, 5)), "scores": np.ones((2, 1))},
        id="Replicate",
    ),
]


@pytest.mark.parametrize("build, inputs", FROM_CALLER_ARRAYS)
def test_records_keep_their_own_read_only_copies(build, inputs):
    held = inputs()
    record = build(held)
    assert all(a.flags.writeable for a in held.values())
    stored = {key: a.copy() for key, a in array_fields(record).items()}
    for a in held.values():
        a[...] = ~a if a.dtype == bool else 7.0
    for key, a in array_fields(record).items():
        assert np.array_equal(a, stored[key])
        assert not a.flags.writeable and a.flags.c_contiguous


class TestBumpSpline:
    """The default truth's cubic spline, checked by its defining conditions."""

    KNOTS = [
        ([0.0, 0.25, 0.45, 0.65, 0.85, 1.0], [0.0, 0.18, 0.42, 0.05, -0.42, -0.38]),  # default_truth
        ([0.0, 0.1, 0.35, 0.4, 0.8, 1.0], [0.3, -1.0, 2.5, 2.4, 0.0, 1.0]),
    ]

    @staticmethod
    def ends(c, h):
        """Value, first and second derivative of each piece at its right end."""
        return (
            ((c[0] * h + c[1]) * h + c[2]) * h + c[3],
            (3.0 * c[0] * h + 2.0 * c[1]) * h + c[2],
            6.0 * c[0] * h + 2.0 * c[1],
        )

    @pytest.mark.parametrize("x, y", KNOTS)
    def test_interpolates_knots(self, x, y):
        x, y = np.array(x), np.array(y)
        s = _spline_values(_spline_coefficients(x, y), x, x)
        assert np.abs(s - y).max() <= 1e-15

    @pytest.mark.parametrize("x, y", KNOTS)
    def test_clamped_left_natural_right(self, x, y):
        x, y = np.array(x), np.array(y)
        c = _spline_coefficients(x, y)
        scale = np.abs(c).max()
        _, _, second = self.ends(c, np.diff(x))
        assert abs(c[2, 0]) <= 1e-14 * scale  # s'(x_0) = 0
        assert abs(second[-1]) <= 1e-14 * scale  # s''(x_5) = 0

    @pytest.mark.parametrize("x, y", KNOTS)
    def test_c2_at_interior_knots(self, x, y):
        x, y = np.array(x), np.array(y)
        c = _spline_coefficients(x, y)
        scale = np.abs(c).max()
        value, first, second = self.ends(c, np.diff(x))
        assert np.abs(value[:-1] - c[3, 1:]).max() <= 1e-15
        assert np.abs(first[:-1] - c[2, 1:]).max() <= 1e-14 * scale
        assert np.abs(second[:-1] - 2.0 * c[1, 1:]).max() <= 1e-14 * scale


class TestGenerateReplicate:
    def test_zero_noise_warps_equal_mean(self):
        truth = identity_truth(n=5, alpha_range=(0.003, 0.005))
        rep = generate_replicate(truth, np.random.default_rng(0))
        for i in range(5):
            assert np.array_equal(rep.warps[i], truth.mean - truth.mean[0])
        # Trajectories still differ through alpha and the initial value.
        assert not np.allclose(rep.panel.values[0], rep.panel.values[1])

    def test_cap_never_exceeded(self):
        truth = identity_truth(n=20)
        rep = generate_replicate(truth, np.random.default_rng(1))
        assert rep.panel.values.max() <= 300.0
        # Trajectories that overflow or fall below the normal range are rejected too.
        rep = generate_replicate(replace(WIDE_TRUTH, n=20), np.random.default_rng(0))
        assert rep.panel.values.max() <= 300.0
        assert rep.panel.values.min() >= np.finfo(float).tiny

    def test_rejection_truncates_rates(self):
        # Identity mean over 175 months: alpha above ~log(300/x0)/175 is
        # always rejected, so accepted rates sit well below the upper bound.
        truth = identity_truth(n=20)
        rep = generate_replicate(truth, np.random.default_rng(2))
        assert rep.alphas.max() < 0.0080
        assert rep.alphas.min() >= 0.003

    def test_always_rejected_raises_config_error(self):
        # mu(t) = t - T0 with alpha pinned at 0.01 and x0 at 90 gives
        # X(T1) = 90 * exp(0.01 * 175) = 517.9 > 300 for every draw.
        truth = identity_truth(n=1, alpha_range=(0.01, 0.01), x0_range=(90.0, 90.0))
        x_end = 90.0 * math.exp(0.01 * 175)
        assert x_end > 300.0
        with pytest.raises(ConfigError, match="acceptance"):
            generate_replicate(truth, np.random.default_rng(3))

    def test_fixed_seed_bit_identical(self):
        truth = default_truth()
        rep1 = generate_replicate(truth, np.random.default_rng(42))
        rep2 = generate_replicate(truth, np.random.default_rng(42))
        assert np.array_equal(rep1.alphas, rep2.alphas)
        assert np.array_equal(rep1.scores, rep2.scores)
        assert rep1.panel.values.tobytes() == rep2.panel.values.tobytes()

    def test_draw_order_is_scores_rate_initial(self):
        # One chunk of 32 candidates: all 32 score vectors, then 32 rates,
        # then 32 initial values. With n = 1 the first accepted candidate
        # ends the draw, so the generator has taken exactly one chunk.
        assert _CHUNK == 32
        truth = replace(default_truth(), n=1)
        rng = np.random.default_rng(9)
        rep = generate_replicate(truth, rng)
        ref = np.random.default_rng(9)
        xi = ref.standard_normal((32, 10))
        alpha = ref.uniform(0.003, 0.018, 32)
        x0 = ref.uniform(85.0, 100.0, 32)
        i = rep.attempts - 1
        assert 0 <= i < 32
        assert np.array_equal(rep.scores[0], xi[i])
        assert rep.alphas[0] == alpha[i]
        assert rep.panel.values[0, 0] == x0[i]  # the warp is anchored at 0, so X(T0) = x0 exactly
        assert rng.standard_normal() == ref.standard_normal()

    @settings(max_examples=40, deadline=None)
    @given(
        kind=st.sampled_from(["default", "identity", "wide"]),
        n=st.integers(min_value=1, max_value=20),
        cap=st.floats(min_value=170.0, max_value=400.0),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @example(kind="default", n=20, cap=300.0, seed=0)
    @example(kind="identity", n=1, cap=300.0, seed=1)
    @example(kind="default", n=1, cap=170.0, seed=2)
    @example(kind="identity", n=20, cap=170.0, seed=3)
    @example(kind="wide", n=2, cap=300.0, seed=0)
    def test_matches_per_candidate_oracle(self, kind, n, cap, seed):
        truth = {"default": default_truth(), "identity": identity_truth(), "wide": WIDE_TRUTH}[kind]
        truth = replace(truth, n=n, cap=cap)
        try:
            values, alphas, warps, scores, attempts = generate_replicate_per_candidate(
                truth, np.random.default_rng(seed)
            )
        except ConfigError:
            with pytest.raises(ConfigError, match="acceptance"):
                generate_replicate(truth, np.random.default_rng(seed))
            return
        rep = generate_replicate(truth, np.random.default_rng(seed))
        assert rep.attempts == attempts
        assert np.array_equal(rep.panel.values, values)
        assert np.array_equal(rep.alphas, alphas)
        assert np.array_equal(rep.warps, warps)
        assert np.array_equal(rep.scores, scores)


class TestMetrics:
    def test_ase_hand_value(self):
        ase = averaged_relative_squared_error(np.array([1.1, 2.0]), np.array([1.0, 2.0]))
        assert ase == pytest.approx(0.005, rel=1e-12)

    def test_ase_permutation_invariant_bitwise(self):
        rng = np.random.default_rng(0)
        a_true = rng.uniform(0.003, 0.018, 50)
        a_hat = a_true * (1 + 0.05 * rng.standard_normal(50))
        perm = rng.permutation(50)
        assert averaged_relative_squared_error(a_hat, a_true) == averaged_relative_squared_error(
            a_hat[perm], a_true[perm]
        )

    def test_rise_permutation_invariant_bitwise(self):
        rng = np.random.default_rng(1)
        t = np.linspace(0, 1, 40)
        h = rng.standard_normal((6, 40)) * 0.3 + t
        h_hat = h + 0.01 * rng.standard_normal((6, 40))
        v1, _ = relative_integrated_squared_error(h_hat, h, t, 0.2)
        perm = rng.permutation(6)
        v2, _ = relative_integrated_squared_error(h_hat[perm], h[perm], t, 0.2)
        assert v1 == v2

    def test_rise_excludes_tiny_norms(self):
        t = np.linspace(0, 1, 30)
        h = np.vstack([np.zeros(30), t])
        h_hat = h + 0.01
        value, excluded = relative_integrated_squared_error(h_hat, h, t, 0.1)
        assert excluded == 1
        assert np.isfinite(value)

    def test_rise_all_excluded_is_nan(self):
        t = np.linspace(0, 1, 30)
        h = np.zeros((2, 30))
        value, excluded = relative_integrated_squared_error(h, h, t, 0.1)
        assert excluded == 2
        assert math.isnan(value)

    def test_sign_alignment(self):
        w = trapezoid_weights(20)
        f = np.sin(np.linspace(0, 3, 20))
        assert sign_aligned_sq_error(-f, f, w) == 0.0
        assert sign_aligned_sq_error(f, f, w) == 0.0


class TestRunStudy:
    def test_deterministic_report(self):
        truth = default_truth()
        r1 = run_study(truth, 3, seed=7)
        r2 = run_study(truth, 3, seed=7)
        assert r1.to_json_dict() == r2.to_json_dict()
        assert r1.replicates_to_csv() == r2.replicates_to_csv()

    def test_reports_of_equal_runs_compare_equal(self):
        # Each run builds its own truth, equal only to itself; reports compare by seed and replicates.
        assert run_study(default_truth(), 2, seed=7) == run_study(default_truth(), 2, seed=7)

    def test_threads_do_not_change_results(self):
        truth = default_truth()
        r1 = run_study(truth, 4, seed=3, n_jobs=1)
        r2 = run_study(truth, 4, seed=3, n_jobs=3)
        assert r1.to_json_dict() == r2.to_json_dict()

    def test_exact_model_truth_near_zero_errors(self):
        truth = identity_truth(n=8)
        report = run_study(truth, 2, seed=5)
        assert report.n_failed == 0
        assert report.aggregates["ase"]["mean"] < 1e-12
        rise = report.aggregates["rise"]["mean"]
        assert math.isnan(rise) or rise < 1e-10

    def test_window_found_near_anchor_on_default_truth(self):
        truth = default_truth()
        report = run_study(truth, 10, seed=11)
        start = report.aggregates["window_start"]["mean"]
        end = report.aggregates["window_end"]["mean"]
        assert 144 <= start <= 160
        assert 160 <= end <= 190

    def test_metrics_nonnegative_and_fractions_bounded(self):
        truth = default_truth()
        report = run_study(truth, 5, seed=13)
        for rep in report.replicates:
            assert not rep.failed
            assert rep.ase >= 0.0
            assert rep.rise >= 0.0
            assert all(v >= 0.0 for v in rep.phi_sq_err)
            assert all(v >= 0.0 for v in rep.eigenvalue_rel_sq_err)
            assert 0.0 <= rep.var_explained_2 <= 1.0

    def test_two_series_score_one_component(self):
        # Two series leave one component of sample variance: each replicate fits and scores one.
        report = run_study(replace(default_truth(), n=2), 3)
        assert report.n_failed == 0
        assert all(len(r.phi_sq_err) == len(r.eigenvalue_rel_sq_err) == 1 for r in report.replicates)
        assert len(report.aggregates["mise_phi"]) == 1
        header, *rows = [line.split(",") for line in report.replicates_to_csv().splitlines()]
        columns = [header.index(name) for name in ("phi2_sq_err", "lambda2_rel_sq_err")]
        assert all(row[c] == "nan" for row in rows for c in columns)
        assert all(row[header.index("phi1_sq_err")] != "nan" for row in rows)

    def test_replicate_count_validated(self):
        with pytest.raises(ConfigError):
            run_study(default_truth(), 0)

    def test_one_series_truth_is_rejected_before_any_draw(self, monkeypatch):
        # FPCA needs two series, so no replicate of an n = 1 truth could succeed.
        def draw(*args):
            raise AssertionError("a replicate was drawn")

        monkeypatch.setattr("warpgrowth.simulate.generate_replicate", draw)
        with pytest.raises(ConfigError, match="got truth n = 1"):
            run_study(replace(default_truth(), n=1), 3)

    def test_grid_shorter_than_every_window_is_rejected_before_any_draw(self, monkeypatch):
        # No window of DEFAULT_WINDOW_LENGTHS fits 23 months; the sweep, which searches none, still runs.
        truth = identity_truth(n=5, m=23)
        assert convergence_sweep(truth, (2, 3), repeats=1).sizes == (2, 3)

        def draw(*args):
            raise AssertionError("a replicate was drawn")

        monkeypatch.setattr("warpgrowth.simulate.generate_replicate", draw)
        with pytest.raises(ConfigError, match="windows of at least 24 months, longer than the 23-month truth grid"):
            run_study(truth, 3)


def failing_fit_fpca(failing):
    """``fit_fpca``, except that the calls numbered in ``failing`` (from 1) raise NumericalError."""
    calls = itertools.count(1)

    def fit(*args, **kwargs):
        if next(calls) in failing:
            raise NumericalError("injected")
        return fit_fpca(*args, **kwargs)

    return fit


class TestFailedReplicates:
    def test_failed_replicates_are_recorded_and_not_aggregated(self, monkeypatch):
        truth = default_truth()
        full = run_study(truth, 4, 0)
        monkeypatch.setattr("warpgrowth.simulate.fit_fpca", failing_fit_fpca({2, 4}))
        report = run_study(truth, 4, 0)
        assert report.n_failed == 2
        assert [r.failed for r in report.replicates] == [False, True, False, True]
        for i in (1, 3):
            failed = report.replicates[i]
            assert failed.attempts == full.replicates[i].attempts
            assert failed.error.startswith("NumericalError: ")
        header, *rows = [line.split(",") for line in report.replicates_to_csv().splitlines()]
        metrics = "mean_r2 ase rise phi1_sq_err phi2_sq_err lambda1_rel_sq_err lambda2_rel_sq_err var_explained_2".split()
        for i in (1, 3):
            assert [rows[i][header.index(c)] for c in ("window_start", "window_end")] == ["", ""]
            assert [rows[i][header.index(c)] for c in metrics] == ["nan"] * len(metrics)
        assert report.aggregates == SimReport(truth, 0, (full.replicates[0], full.replicates[2])).aggregates

    def test_every_replicate_failed_aggregates_only_the_count(self, monkeypatch):
        monkeypatch.setattr("warpgrowth.simulate.fit_fpca", failing_fit_fpca(range(1, 4)))
        report = run_study(default_truth(), 3, 0)
        assert report.n_failed == 3
        assert report.aggregates == {"n_succeeded": 0}


class TestConvergenceSweep:
    def test_zero_noise_mean_error_vanishes(self):
        truth = identity_truth(n=5, m=60)
        result = convergence_sweep(truth, (10, 40), repeats=3, seed=1)
        # Identical draws: only averaging round-off remains.
        assert max(result.errors["mean"]) <= 1e-14
        assert max(result.errors["covariance"]) <= 1e-14
        assert set(result.errors) == {"mean", "covariance"}

    def test_slopes_negative_on_default_truth(self):
        truth = default_truth()
        result = convergence_sweep(truth, (25, 100), repeats=8, seed=2)
        for name, slope in result.slopes.items():
            assert slope < 0.0, name

    def test_sizes_validated(self):
        with pytest.raises(ConfigError):
            convergence_sweep(default_truth(), (100,))
        with pytest.raises(ConfigError):
            convergence_sweep(default_truth(), (100, 50))
        # A covariance needs two draws: 0 would average an empty slice, -1 fail inside numpy.
        for sizes in ((0, 5), (-1, 5), (1, 5)):
            with pytest.raises(ConfigError, match="a covariance needs two draws"):
                convergence_sweep(default_truth(), sizes, 1)

    def test_repeats_validated(self):
        # Zero repeats would average nothing into all-NaN errors and slopes.
        with pytest.raises(ConfigError, match="repeats must be at least 1, got 0"):
            convergence_sweep(default_truth(), (25, 100), repeats=0)


class TestTruthIO:
    def test_save_load_round_trip(self, tmp_path):
        truth = default_truth()
        manifest = save_truth(truth, tmp_path)
        # The seed is a run option, not part of the truth.
        assert "seed" not in json.loads(manifest.read_text())
        again = load_truth(manifest)
        assert again.grid == truth.grid
        assert again.n == truth.n
        assert again.x0_range == truth.x0_range
        assert again.alpha_range == truth.alpha_range
        assert again.cap == truth.cap
        assert np.array_equal(again.mean, truth.mean)
        assert np.array_equal(again.eigenfunctions, truth.eigenfunctions)
        assert np.array_equal(again.eigenvalues, truth.eigenvalues)

    def test_optional_keys_default_to_sim_truth(self, tmp_path):
        # A manifest with only the required keys gets SimTruth's own defaults.
        manifest = save_truth(default_truth(), tmp_path)
        obj = json.loads(manifest.read_text())
        optional = [f for f in dataclasses.fields(SimTruth) if f.default is not dataclasses.MISSING]
        for f in optional:
            del obj[f.name]
        manifest.write_text(json.dumps(obj))
        again = load_truth(manifest)
        assert [getattr(again, f.name) for f in optional] == [f.default for f in optional]
        assert [f.name for f in optional] == ["n", "x0_range", "alpha_range", "cap"]

    @pytest.mark.parametrize("key, value", [("alpha_rnage", [0.001, 0.002]), ("seed", 3)])
    def test_unknown_key_is_a_configuration_error(self, tmp_path, key, value):
        # A misspelled optional key would otherwise take the default silently.
        manifest = save_truth(default_truth(), tmp_path)
        manifest.write_text(json.dumps({**json.loads(manifest.read_text()), key: value}))
        with pytest.raises(ConfigError, match=f"unknown keys \\['{key}'\\]"):
            load_truth(manifest)

    def test_missing_manifest_key(self, tmp_path):
        path = tmp_path / "truth.json"
        path.write_text('{"t0_month": 144}')
        with pytest.raises(ConfigError):
            load_truth(path)
