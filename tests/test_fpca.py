import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from warpgrowth.errors import (
    ConfigError,
    DegenerateRegressorError,
    EmptySampleError,
    GridError,
    NumericalError,
    SampleSizeError,
)
from warpgrowth.fpca import (
    _FACTOR_RANK_DIVISOR,
    DEFAULT_GAMMAS,
    _spectrum,
    covariance_function,
    eigendecompose,
    fit_fpca,
    mean_function,
    modes_of_variation,
    project_scores,
    score_rate_regression,
)
from warpgrowth.quadrature import trapezoid_weights
from warpgrowth.timeseries import TimeGrid
from warpgrowth.warping import WarpSet

from conftest import run_python, warp_set
from oracles import oracle_eigendecompose


def make_warpset(rows, start_month=0, names=None):
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    grid = TimeGrid(start_month, rows.shape[1])
    return warp_set(grid, rows, names or [f"w{i:02d}" for i in range(rows.shape[0])])


class TestMeanFunction:
    def test_single_warp(self):
        t = np.linspace(0, 1, 5)
        ws = make_warpset([t])
        assert np.array_equal(mean_function(ws), t)

    def test_symmetric_pair_cancels(self):
        t = np.linspace(0, 1, 7)
        ws = make_warpset([t, -t])
        assert np.abs(mean_function(ws)).max() == 0.0

    def test_three_multiples(self):
        t = np.linspace(0, 1, 9)
        ws = make_warpset([t, 2 * t, 3 * t])
        np.testing.assert_allclose(mean_function(ws), 2 * t, rtol=0, atol=1e-15)

    def test_empty_sample(self):
        grid = TimeGrid(0, 4)
        with pytest.raises(EmptySampleError):
            mean_function(WarpSet(grid, (), np.empty((0, 4))))


class TestCovarianceFunction:
    def test_identical_warps_zero(self):
        t = np.linspace(0, 1, 6)
        ws = make_warpset([t, t, t])
        assert np.abs(covariance_function(ws)).max() <= 1e-15

    def test_rank_one_pair(self):
        f = np.array([0.2, -0.5, 1.0, 0.3])
        ws = make_warpset([f, -f])
        np.testing.assert_allclose(covariance_function(ws), np.outer(f, f), atol=1e-15)

    def test_two_point_hand_case(self):
        # Warps {(0,1),(0,3)}: divisor-n covariance of {1,3} is 1.
        ws = make_warpset([[0.0, 1.0], [0.0, 3.0]])
        np.testing.assert_allclose(covariance_function(ws), [[0.0, 0.0], [0.0, 1.0]], atol=1e-15)

    def test_constant_offset_does_not_round_into_the_surface(self):
        # Centring before the product: h'h / n - mu mu' would lose about 1e-7 here to cancellation.
        h = 0.01 * np.random.default_rng(3).standard_normal((30, 176)).cumsum(axis=1)
        shifted = covariance_function(make_warpset(h + 1e4))
        assert np.abs(shifted - covariance_function(make_warpset(h))).max() <= 1e-12

    def test_needs_two_series(self):
        ws = make_warpset([np.linspace(0, 1, 4)])
        with pytest.raises(SampleSizeError):
            covariance_function(ws)

    def test_overflowing_surface_is_a_numerical_error(self):
        # Called directly, as the convergence sweep calls it; tier-1 turns any RuntimeWarning into an error.
        rows = np.random.default_rng(5).standard_normal((200, 176))
        rows[3] *= 1e297
        with pytest.raises(NumericalError, match="covariance surface is not finite"):
            covariance_function(make_warpset(rows))


class TestEigendecompose:
    def test_rank_one_surface(self):
        m = 9
        grid = TimeGrid(0, m)
        w = trapezoid_weights(m)
        f = np.sin(np.linspace(0.3, 2.2, m)) + 0.4
        c = np.sqrt(np.sum(w * f**2))
        vals, phi = eigendecompose(np.outer(f, f), grid)
        assert vals[0] == pytest.approx(c**2, rel=1e-12)
        assert np.abs(vals[1:]).max() < 1e-12 * c**2
        align = np.sign(np.dot(phi[0], f))
        np.testing.assert_allclose(align * phi[0], f / c, atol=1e-10)

    def test_zero_surface(self):
        grid = TimeGrid(0, 5)
        vals, _ = eigendecompose(np.zeros((5, 5)), grid)
        assert np.all(vals == 0.0)

    @pytest.mark.parametrize("entry", [np.inf, 1.5e308], ids=["inf", "overflowing"])
    def test_non_finite_surface_is_a_numerical_error_without_warnings(self, entry):
        # An infinite surface gives inf - inf in the symmetry check, a huge one overflows g + g.T.
        with pytest.raises(NumericalError, match="non-finite"):
            eigendecompose(np.full((176, 176), entry), TimeGrid(0, 176))

    def test_asymmetric_rejected(self):
        grid = TimeGrid(0, 3)
        g = np.array([[1.0, 0.5, 0.0], [0.2, 1.0, 0.0], [0.0, 0.0, 1.0]])
        with pytest.raises(NumericalError):
            eigendecompose(g, grid)

    def test_orthonormal_under_quadrature(self):
        rng = np.random.default_rng(5)
        m = 12
        grid = TimeGrid(0, m)
        a = rng.standard_normal((m, m))
        vals, phi = eigendecompose(a @ a.T, grid)
        w = trapezoid_weights(m)
        gram = (phi * w) @ phi.T
        assert np.abs(gram - np.eye(m)).max() < 1e-8

    def test_sign_rule_nonnegative_integral(self):
        rng = np.random.default_rng(6)
        m = 8
        grid = TimeGrid(0, m)
        a = rng.standard_normal((m, m))
        _, phi = eigendecompose(a @ a.T, grid)
        w = trapezoid_weights(m)
        integrals = phi @ w
        for k in range(m):
            assert integrals[k] > -1e-12

    def test_matches_jacobi_oracle_hand_grid(self):
        # 3-point grid with a hand-built surface.
        grid = TimeGrid(0, 3)
        g = np.array([[2.0, 0.3, 0.1], [0.3, 1.5, -0.2], [0.1, -0.2, 0.8]])
        vals, phi = eigendecompose(g, grid)
        ovals, ophi = oracle_eigendecompose(g, grid)
        np.testing.assert_allclose(vals, ovals, atol=1e-10)
        for k in range(3):
            d = min(np.abs(phi[k] - ophi[k]).max(), np.abs(phi[k] + ophi[k]).max())
            assert d < 1e-8

    def test_matches_jacobi_oracle_random_surfaces(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            m = int(rng.integers(3, 13))
            grid = TimeGrid(0, m)
            a = rng.standard_normal((m, m))
            g = a @ a.T
            vals, phi = eigendecompose(g, grid)
            ovals, ophi = oracle_eigendecompose(g, grid)
            for k in range(m):
                tol = 1e-10 * max(1.0, abs(ovals[k]))
                assert abs(vals[k] - ovals[k]) <= tol
                d = min(np.abs(phi[k] - ophi[k]).max(), np.abs(phi[k] + ophi[k]).max())
                assert d < 1e-8


def eigh_path(g, m):
    """``eigh`` of the weighted surface, as ``eigendecompose`` solves every surface it does not factor."""
    g = (g + g.T) / 2.0
    sqrt_w = np.sqrt(trapezoid_weights(m))
    vals, vecs = np.linalg.eigh(g * np.outer(sqrt_w, sqrt_w))
    return _spectrum(vals[::-1], vecs[:, ::-1], m)


def weighted_basis(m, r, seed):
    """``r`` functions orthonormal under the quadrature, and their weighted vectors (orthonormal columns)."""
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((m, r)))
    return q.T / np.sqrt(trapezoid_weights(m)), q


def rank_r_surface(m, r, seed=0):
    """A PSD surface of rank ``r``: eigenvalues 1e-3 / k, k = 1..r, so each gap is at least 1e-3 / r^2."""
    f, _ = weighted_basis(m, r, seed)
    return sum(1e-3 / k * np.outer(fk, fk) for k, fk in enumerate(f, start=1))


FACTOR_CASES = [
    (m, r) for m in (9, 12, 41, 176) for r in sorted({1, max(1, m // _FACTOR_RANK_DIVISOR // 2), m // _FACTOR_RANK_DIVISOR})
]


def ornstein_uhlenbeck_surface(m):
    """``exp(-|s - t|)``: positive definite, so of full rank."""
    u = np.linspace(0.0, 1.0, m)
    return np.exp(-np.abs(np.subtract.outer(u, u)))


def indefinite_surface(m):
    """``b b' - v v' / 4`` with ``v`` orthogonal to ``b``, weighted: a positive diagonal and one negative eigenvalue.

    The factorization stops after one column, so only the certificate sees the negative eigenvalue.
    """
    _, q = weighted_basis(m, 2, seed=m)
    b = np.abs(q[:, 0]) + 1.0
    v = q[:, 1] - (q[:, 1] @ b) / (b @ b) * b
    v *= np.min(b) / np.abs(v).max()
    sqrt_w = np.sqrt(trapezoid_weights(m))
    g = (np.outer(b, b) - np.outer(v, v) / 4.0) / np.outer(sqrt_w, sqrt_w)
    assert np.all(np.diag(g) > 0.0) and eigh_path(g, m)[0][-1] < 0.0
    return g


DECLINED_SURFACES = {
    "rank-past-the-cut-off": lambda m: rank_r_surface(m, m // _FACTOR_RANK_DIVISOR + 1, seed=m),
    "full-rank": ornstein_uhlenbeck_surface,
    "indefinite-positive-diagonal": indefinite_surface,
    "zero": lambda m: np.zeros((m, m)),
}


class TestLowRankFactorPath:
    """Surfaces of rank at most m // _FACTOR_RANK_DIVISOR take the pivoted Cholesky factor; every other keeps the eigh bits."""

    @pytest.mark.parametrize("m, r", FACTOR_CASES)
    def test_factored_spectrum_matches_eigh(self, m, r):
        grid = TimeGrid(0, m)
        g = rank_r_surface(m, r, seed=m + r)
        vals, phi = eigendecompose(g, grid)
        ref_vals, ref_phi = eigh_path(g, m)
        lam1 = ref_vals[0]
        assert np.abs(vals - ref_vals).max() <= 1e-12 * lam1
        # Past the rank the factor path gives exact zeros, where eigh gives rounding noise.
        assert np.count_nonzero(vals[r:]) == 0 and np.all(vals[:r] > 0.0)
        w = trapezoid_weights(m)
        for k in range(r):
            align = np.sign(np.sum(w * phi[k] * ref_phi[k]))
            assert np.abs(phi[k] - align * ref_phi[k]).max() <= 1e-10
        if m <= 12:
            ovals, ophi = oracle_eigendecompose(g, grid)
            assert np.abs(vals - ovals).max() <= 1e-12 * lam1
            for k in range(r):
                assert min(np.abs(phi[k] - s * ophi[k]).max() for s in (1.0, -1.0)) <= 1e-10
        # All m functions, the completed null space included: orthonormal, and signed by the rule.
        assert phi.shape == (m, m)
        assert np.abs((phi * w) @ phi.T - np.eye(m)).max() <= 1e-12
        integrals = phi @ w
        assert np.all(integrals >= -1e-12)
        assert np.all(phi[np.abs(integrals) <= 1e-12, -1] >= 0.0)

    @pytest.mark.parametrize("m", [12, 41, 176])
    @pytest.mark.parametrize("surface", DECLINED_SURFACES.values(), ids=DECLINED_SURFACES)
    def test_declined_surface_keeps_the_eigh_bits(self, surface, m):
        g = surface(m)
        vals, phi = eigendecompose(g, TimeGrid(0, m))
        ref_vals, ref_phi = eigh_path(g, m)
        assert np.array_equal(vals, ref_vals) and np.array_equal(phi, ref_phi)


def smooth_sample(n=12, m=41, seed=0):
    rng = np.random.default_rng(seed)
    t = np.linspace(0, 1, m)
    basis = np.vstack([np.sin(np.pi * k * t) for k in range(1, 5)])
    coef = rng.standard_normal((n, 4)) * np.array([0.3, 0.15, 0.08, 0.03])
    return make_warpset(t + coef @ basis)


class TestFitAndProject:
    def test_projecting_mean_gives_zero(self):
        ws = smooth_sample()
        model = fit_fpca(ws, k=4)
        mean_ws = make_warpset([model.mean], names=["mean"])
        scores = project_scores(mean_ws, model)
        assert np.abs(scores).max() < 1e-12

    def test_projecting_synthetic_direction(self):
        ws = smooth_sample()
        model = fit_fpca(ws, k=4)
        lam1 = model.eigenvalues[0]
        curve = model.mean + 2.0 * np.sqrt(lam1) * model.eigenfunctions[0]
        scores = project_scores(make_warpset([curve], names=["probe"]), model)
        assert scores[0, 0] == pytest.approx(2.0 * np.sqrt(lam1), rel=1e-10)
        assert np.abs(scores[0, 1:]).max() < 1e-10 * np.sqrt(lam1)

    def test_exact_low_rank_sample(self):
        # Sample spanned by 2 orthonormal functions: 2 components explain all.
        m = 33
        t = np.linspace(0, 1, m)
        w = trapezoid_weights(m)
        b1 = np.sin(2 * np.pi * t)
        b1 /= np.sqrt(np.sum(w * b1**2))
        b2 = np.cos(2 * np.pi * t)
        b2 -= np.sum(w * b2 * b1) * b1
        b2 /= np.sqrt(np.sum(w * b2**2))
        rng = np.random.default_rng(2)
        coef = rng.standard_normal((10, 2)) * np.array([0.5, 0.2])
        ws = make_warpset(coef @ np.vstack([b1, b2]))
        model = fit_fpca(ws, var_threshold=0.999)
        assert model.n_retained == 2
        assert model.var_explained.sum() == pytest.approx(1.0, abs=1e-10)
        # Retained eigenfunctions span the same 2-dimensional space.
        for phi in model.eigenfunctions:
            proj = np.sum(w * phi * b1) * b1 + np.sum(w * phi * b2) * b2
            assert np.abs(phi - proj).max() < 1e-8

    def test_grid_mismatch_rejected(self):
        ws = smooth_sample(m=41)
        model = fit_fpca(ws, k=2)
        other = smooth_sample(m=21)
        with pytest.raises(GridError):
            project_scores(other, model)

    def test_exclusion_and_out_of_sample_flags(self):
        ws = smooth_sample(n=8)
        model = fit_fpca(ws, exclude=("w00", "w03"), k=3)
        assert model.n_sample == 6
        flags = dict(zip(model.score_names, model.out_of_sample))
        assert flags["w00"] and flags["w03"]
        assert sum(flags.values()) == 2
        # Excluded series do not influence the mean.
        included = make_warpset([h for name, h in zip(ws.names, ws.values) if name not in ("w00", "w03")])
        np.testing.assert_allclose(model.mean, mean_function(included), atol=1e-15)

    def test_exclusion_of_unknown_name(self):
        ws = smooth_sample(n=4)
        with pytest.raises(ConfigError):
            fit_fpca(ws, exclude=("nope",))

    @pytest.mark.parametrize("threshold", [5.0, float("nan"), 0.0, -0.5])
    def test_var_threshold_outside_unit_interval_rejected(self, threshold):
        with pytest.raises(ConfigError, match="var_threshold must be in"):
            fit_fpca(smooth_sample(n=4), var_threshold=threshold)

    def test_too_few_after_exclusion(self):
        ws = smooth_sample(n=3)
        with pytest.raises(SampleSizeError):
            fit_fpca(ws, exclude=("w00", "w01"))

    def test_in_sample_scores_centered(self):
        ws = smooth_sample(n=15)
        model = fit_fpca(ws, k=5)
        col_means = model.scores.mean(axis=0)
        lam = np.maximum(model.eigenvalues[:5], 1e-30)
        assert np.all(np.abs(col_means) <= 1e-8 * np.sqrt(lam) + 1e-15)

    def test_score_variance_matches_eigenvalue(self):
        ws = smooth_sample(n=15)
        model = fit_fpca(ws, k=5)
        n = model.n_sample
        for k in range(4):
            var_k = float(np.sum(model.scores[:, k] ** 2)) / n
            assert var_k == pytest.approx(float(model.eigenvalues[k]), rel=1e-8, abs=1e-15)

    def test_variance_accounting(self):
        ws = smooth_sample(n=14, seed=3)
        model = fit_fpca(ws, k=3)
        g = covariance_function(ws)
        diag_integral = float(np.sum(model.weights * np.diag(g)))
        assert model.total_variance == pytest.approx(diag_integral, rel=1e-8)

    def test_reconstruction_nonincreasing_and_exact_at_full_rank(self):
        n = 9
        ws = smooth_sample(n=n, seed=4)
        model = fit_fpca(ws, k=n - 1)
        w = model.weights
        h = ws.values - model.mean
        energies = (h**2 @ w)
        prev = energies.copy()
        for kk in range(1, n):
            recon = model.scores[:, :kk] @ model.eigenfunctions[:kk]
            errs = ((h - recon) ** 2) @ w
            assert np.all(errs <= prev + 1e-12)
            prev = errs
        assert np.all(prev <= 1e-8 * energies + 1e-16)

    def test_permutation_gives_bit_identical_eigenfunctions(self):
        ws = smooth_sample(n=10, seed=8)
        perm = [7, 2, 9, 0, 4, 1, 8, 3, 6, 5]
        permuted = warp_set(ws.grid, ws.values[perm], [ws.names[i] for i in perm])
        m1 = fit_fpca(ws, k=4)
        m2 = fit_fpca(permuted, k=4)
        assert np.array_equal(m1.eigenfunctions, m2.eigenfunctions)
        assert np.array_equal(m1.eigenvalues, m2.eigenvalues)
        assert np.array_equal(m1.mean, m2.mean)
        # Per-series scores also agree, row-aligned by name.
        for name in ws.names:
            i1 = m1.score_names.index(name)
            i2 = m2.score_names.index(name)
            assert np.array_equal(m1.scores[i1], m2.scores[i2])


def quadrature_gram(phi, w):
    return (phi * w) @ phi.T


class TestSampleSpectrum:
    """fit_fpca's n < m SVD path against eigendecompose of the covariance."""

    def test_generic_sample_matches_covariance_path(self):
        rng = np.random.default_rng(11)
        n, m = 12, 41
        t = np.linspace(0, 1, m)
        ws = make_warpset(t + 0.1 * rng.standard_normal((n, m)))
        model = fit_fpca(ws, k=n - 1)
        vals, phi = eigendecompose(covariance_function(ws), ws.grid)
        lam1 = vals[0]
        assert model.eigenvalues.shape == (m,)
        assert np.abs(model.eigenvalues - vals).max() <= 1e-12 * lam1
        assert model.total_variance == pytest.approx(float(vals.sum()), rel=1e-12)
        w = model.weights
        gaps = np.minimum(vals[:-1] - vals[1:], np.r_[np.inf, vals[:-2] - vals[1:-1]])
        separated = [k for k in range(n - 1) if gaps[k] > 1e-3 * lam1]
        assert len(separated) >= n - 3
        for k in separated:
            # Same sign rule on both paths: compare without re-aligning.
            d = model.eigenfunctions[k] - phi[k]
            assert np.sqrt(np.sum(w * d**2)) < 1e-8

    def test_paper_size_sample_matches_eigh_of_the_weighted_covariance(self):
        # eigendecompose may factor a covariance of rank n - 1 <= m // 6 as well, so the slow path here is eigh itself.
        rng = np.random.default_rng(12)
        n, m = 20, 176
        t = np.linspace(0, 1, m)
        ws = make_warpset(t + 0.01 * rng.standard_normal((n, m)).cumsum(axis=1))
        model = fit_fpca(ws, k=m)
        w = model.weights
        lam, vecs = np.linalg.eigh(covariance_function(ws) * np.sqrt(np.outer(w, w)))
        lam, vecs = lam[::-1], vecs[:, ::-1]
        assert np.abs(model.eigenvalues - lam).max() <= 1e-12 * lam[0]
        gaps = np.minimum(lam[:-1] - lam[1:], np.r_[np.inf, lam[:-2] - lam[1:-1]])
        separated = [k for k in range(n - 1) if gaps[k] > 1e-3 * lam[0]]
        assert len(separated) >= 5
        for k in separated:
            ref = vecs[:, k] / np.sqrt(w)
            ref /= np.sqrt(np.sum(w * ref**2))
            align = np.sign(np.sum(w * ref * model.eigenfunctions[k]))
            assert np.abs(model.eigenfunctions[k] - align * ref).max() < 1e-8

    def test_near_equal_pair_spans_same_subspace(self):
        m = 33
        t = np.linspace(0, 1, m)
        w = trapezoid_weights(m)
        basis = []
        # The third function has a clearly nonzero integral, so its sign is
        # fixed by the rule rather than by rounding at the right endpoint.
        for f in (np.sin(2 * np.pi * t), np.cos(2 * np.pi * t), t**2):
            for b in basis:
                f = f - np.sum(w * f * b) * b
            basis.append(f / np.sqrt(np.sum(w * f**2)))
        # Orthogonal, mean-zero score columns: eigenvalues 1, 1 + 1e-10, 0.04.
        c1 = np.array([1.0, -1.0, 1.0, -1.0, 0.0, 0.0]) * np.sqrt(1.5)
        c2 = np.array([1.0, 1.0, -1.0, -1.0, 0.0, 0.0]) * np.sqrt(1.5 * (1.0 + 1e-10))
        c3 = np.array([0.0, 0.0, 0.0, 0.0, 1.0, -1.0]) * np.sqrt(0.12)
        ws = make_warpset(t + np.column_stack([c1, c2, c3]) @ np.vstack(basis))
        model = fit_fpca(ws, k=3)
        vals, phi = eigendecompose(covariance_function(ws), ws.grid)
        np.testing.assert_allclose(model.eigenvalues[:3], vals[:3], rtol=0, atol=1e-12)
        proj_svd = model.eigenfunctions[:2].T @ model.eigenfunctions[:2]
        proj_eig = phi[:2].T @ phi[:2]
        assert np.abs(proj_svd - proj_eig).max() < 1e-8
        d = model.eigenfunctions[2] - phi[2]
        assert np.sqrt(np.sum(w * d**2)) < 1e-8

    def test_k_above_sample_rank(self):
        ws = smooth_sample(n=5, m=21, seed=9)
        for k in (5, 10, 21):
            model = fit_fpca(ws, k=k)
            assert model.eigenfunctions.shape == (k, 21)
            gram = quadrature_gram(model.eigenfunctions, model.weights)
            assert np.abs(gram - np.eye(k)).max() < 1e-10
            # Rank 4: five centred rows, one linear dependency.
            assert np.abs(model.eigenvalues[4:]).max() <= 1e-12 * model.eigenvalues[0]
            assert np.all(np.isfinite(model.scores))

    def test_zero_variance_sample(self):
        t = np.linspace(0, 1, 15)
        ws = make_warpset([t, t, t, t])
        model = fit_fpca(ws)
        vals, _ = eigendecompose(covariance_function(ws), ws.grid)
        # The centred sample is exactly zero; the covariance path only
        # reaches zero within rounding of h'h / n - mu mu'.
        assert np.all(model.eigenvalues == 0.0)
        assert np.abs(vals).max() <= 1e-15
        assert model.total_variance == 0.0
        assert model.n_retained == 15
        gram = quadrature_gram(model.eigenfunctions, model.weights)
        assert np.abs(gram - np.eye(15)).max() < 1e-10
        assert np.all(model.scores == 0.0)

    @pytest.mark.parametrize("n", [20, 200], ids=["svd", "eigh"])
    def test_overflowing_spectrum_is_a_numerical_error(self, n):
        # Tier-1 turns any RuntimeWarning into an error, so neither path may warn on the way.
        rows = np.random.default_rng(5).standard_normal((n, 176))
        rows[3] *= 1e297
        with pytest.raises(NumericalError, match="not finite|non-finite"):
            fit_fpca(make_warpset(rows))

    def test_in_sample_scores_equal_projection(self):
        ws = smooth_sample(n=10, seed=12)
        model = fit_fpca(ws, exclude=("w02",), k=3)
        assert np.array_equal(model.scores, project_scores(ws, model))


class TestSignRuleTies:
    """An eigenfunction odd about t = 1/2 has a zero integral; its sign is set by phi(1)."""

    @staticmethod
    def odd_even_pair(m):
        # Exactly odd f (f[m-1-i] == -f[i]) and even g on a symmetric grid.
        t = np.linspace(0, 1, m)
        half = t[: m // 2] - 0.5
        f = np.concatenate([half, [0.0], -half[::-1]])
        g = 1.0 + np.cos(2.0 * np.pi * t)
        g = (g + g[::-1]) / 2.0
        w = trapezoid_weights(m)
        return t, f / np.sqrt(np.sum(w * f**2)), g / np.sqrt(np.sum(w * g**2))

    @pytest.mark.parametrize("n, m", [(8, 41), (44, 21)], ids=["svd-n<m", "eigh-n>=m"])
    def test_odd_eigenfunction_ends_nonnegative(self, n, m):
        t, f, g = self.odd_even_pair(m)
        c1 = np.tile([1.0, -1.0], n // 2) * 0.3  # mean-zero, orthogonal score columns
        c2 = np.tile([1.0, 1.0, -1.0, -1.0], n // 4) * 0.1
        model = fit_fpca(make_warpset(t + np.outer(c1, f) + np.outer(c2, g)), k=2)
        phi1 = model.eigenfunctions[0]
        assert abs(float(phi1 @ model.weights)) <= 1e-12
        assert phi1[-1] >= 0.0
        np.testing.assert_allclose(phi1, f, rtol=0, atol=1e-10)
        assert float(model.eigenfunctions[1] @ model.weights) > 0.0

    def test_rule_not_solver_picks_the_sign(self):
        m = 21
        _, f, _ = self.odd_even_pair(m)
        v = f * np.sqrt(trapezoid_weights(m))
        vals = np.array([1.0])
        _, up = _spectrum(vals, v[:, None], m)
        _, down = _spectrum(vals, -v[:, None], m)
        assert np.array_equal(up[0], down[0])
        assert up[0, -1] > 0.0


class TestModesOfVariation:
    def test_gamma_zero_is_mean(self):
        model = fit_fpca(smooth_sample(), k=2)
        curves = modes_of_variation(model, 1)
        idx = DEFAULT_GAMMAS.index(0.0)
        assert np.array_equal(curves[idx], model.mean)

    def test_plus_minus_mirror_about_mean(self):
        model = fit_fpca(smooth_sample(), k=2)
        curves = modes_of_variation(model, 2)
        minus, plus = (curves[DEFAULT_GAMMAS.index(g)] for g in (-1.0, 1.0))
        avg = (minus + plus) / 2.0
        np.testing.assert_allclose(avg, model.mean, atol=1e-12)

    def test_zero_eigenvalue_collapses_to_mean(self):
        t = np.linspace(0, 1, 9)
        ws = make_warpset([t, t, t])
        model = fit_fpca(ws, k=2)
        curves = modes_of_variation(model, 2)
        for curve in curves:
            np.testing.assert_allclose(curve, model.mean, atol=1e-12)

    def test_component_out_of_range(self):
        model = fit_fpca(smooth_sample(), k=2)
        with pytest.raises(ConfigError):
            modes_of_variation(model, 3)


class TestScoreRateRegression:
    def test_exact_line(self):
        lines = score_rate_regression(np.array([[2.0], [4.0], [6.0]]), np.array([1.0, 2.0, 3.0]))
        assert lines[0].slope == pytest.approx(2.0, rel=1e-14)
        assert lines[0].intercept == pytest.approx(0.0, abs=1e-14)
        assert lines[0].correlation == pytest.approx(1.0, rel=1e-14)

    def test_constant_scores(self):
        lines = score_rate_regression(np.array([[5.0], [5.0], [5.0]]), np.array([1.0, 2.0, 3.0]))
        assert lines[0].slope == 0.0
        assert lines[0].correlation == 0.0

    def test_perfect_negative(self):
        lines = score_rate_regression(
            np.array([[3.0], [2.0], [1.0]]), np.array([0.001, 0.002, 0.003])
        )
        assert lines[0].correlation == pytest.approx(-1.0, rel=1e-12)

    def test_degenerate_rates(self):
        with pytest.raises(DegenerateRegressorError):
            score_rate_regression(np.array([[1.0], [2.0], [3.0]]), np.array([1.0, 1.0, 1.0]))

    def test_too_few_points(self):
        with pytest.raises(SampleSizeError):
            score_rate_regression(np.array([[1.0], [2.0]]), np.array([1.0, 2.0]))

    def test_one_dimensional_scores_are_one_row(self):
        # One score per rate comes as a column; a 1-D vector is not guessed to be one.
        with pytest.raises(ConfigError, match="^1 score rows vs 3 rates$"):
            score_rate_regression(np.array([2.0, 4.0, 6.0]), np.array([1.0, 2.0, 3.0]))

    @pytest.mark.parametrize(
        "scores, alphas",
        [
            ([[1.0], [2.0], [3.0]], [-1e308, 0.01, 0.02]),  # sum of squares overflows
            ([[-1.0], [1.0], [0.0]], [1.7e308, -1.7e308, 0.01]),  # used to give NaN slope
            ([[1.0], [2.0], [3.0]], [1.7e308, 1.7e308, 0.01]),  # math.fsum of the rates overflows
            ([[1.0], [2.0], [3.0]], [np.inf, -np.inf, 0.01]),  # math.fsum of the rates meets inf - inf
            ([[1.7e308], [1.7e308], [0.0]], [0.01, 0.02, 0.03]),  # math.fsum of a score column overflows
        ],
    )
    def test_overflowing_rates_are_numerical_errors(self, scores, alphas):
        with np.errstate(all="raise"), pytest.raises(NumericalError):
            score_rate_regression(np.array(scores), np.array(alphas))

    def test_underflowing_correlation_is_a_numerical_error(self):
        # sxx ~ 5e-300 times syy ~ 5e-32 underflows to 0 while the scores vary.
        scores = np.array([[0.0], [1e-16], [3e-16], [2e-16]])
        with np.errstate(all="raise"), pytest.raises(NumericalError, match="underflows"):
            score_rate_regression(scores, np.array([1e-150, 2e-150, 3e-150, 4e-150]))

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), order=st.integers(3, 40).flatmap(lambda n: st.permutations(range(n))))
    def test_row_order_leaves_every_line_bit_identical(self, seed, order):
        # Rates and two score columns as in a housing panel; the sums over rows must not depend on their order.
        rng = np.random.default_rng(seed)
        alphas = rng.uniform(0.003, 0.018, len(order))
        scores = rng.standard_normal((len(order), 2)) - 30 * alphas[:, None]
        lines = score_rate_regression(scores, alphas)
        permuted = score_rate_regression(scores[order], alphas[order])
        assert [line_bits(line) for line in permuted] == [line_bits(line) for line in lines]

    def test_blas_thread_count_leaves_every_line_bit_identical(self):
        # On a one-core machine both runs use one thread, and the test passes trivially.
        code = """
import numpy as np
from warpgrowth.fpca import score_rate_regression
rng = np.random.default_rng(5)
a = rng.uniform(0.003, 0.018, 20000)
s = rng.standard_normal((20000, 2)) - 30 * a[:, None]
p = rng.permutation(20000)
for line in score_rate_regression(s[p], a[p]):
    print(line.slope.hex(), line.intercept.hex(), line.correlation.hex())
"""
        runs = [run_python(code, threads=threads) for threads in ("1", "2")]
        assert runs[0] == runs[1]
        assert len(runs[0].splitlines()) == 2


def line_bits(line):
    """The exact bits of a regression line's fields, as ``float.hex`` strings."""
    return tuple(float(value).hex() for value in (line.slope, line.intercept, line.correlation))
