import dataclasses
import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from warpgrowth.errors import ConfigError
from warpgrowth.quadrature import trapezoid_weights
from warpgrowth.simulate import (
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
from warpgrowth.timeseries import TimeGrid

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

    def test_replicate_count_validated(self):
        with pytest.raises(ConfigError):
            run_study(default_truth(), 0)


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
        truth = default_truth(seed=99)
        manifest = save_truth(truth, tmp_path)
        again = load_truth(manifest)
        assert again.grid == truth.grid
        assert again.n == truth.n
        assert again.seed == 99
        assert again.x0_range == truth.x0_range
        assert again.alpha_range == truth.alpha_range
        assert again.cap == truth.cap
        assert np.array_equal(again.mean, truth.mean)
        assert np.array_equal(again.eigenfunctions, truth.eigenfunctions)
        assert np.array_equal(again.eigenvalues, truth.eigenvalues)

    def test_optional_keys_default_to_sim_truth(self, tmp_path):
        # A manifest with only the required keys gets SimTruth's own defaults.
        manifest = save_truth(default_truth(seed=99), tmp_path)
        obj = json.loads(manifest.read_text())
        optional = [f for f in dataclasses.fields(SimTruth) if f.default is not dataclasses.MISSING]
        for f in optional:
            del obj[f.name]
        manifest.write_text(json.dumps(obj))
        again = load_truth(manifest)
        assert [getattr(again, f.name) for f in optional] == [f.default for f in optional]
        assert [f.name for f in optional] == ["n", "x0_range", "alpha_range", "cap", "seed"]

    def test_missing_manifest_key(self, tmp_path):
        path = tmp_path / "truth.json"
        path.write_text('{"t0_month": 144}')
        with pytest.raises(ConfigError):
            load_truth(path)
