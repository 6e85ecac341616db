"""Functional principal component analysis of a warping-function sample.

The sample covariance uses divisor n (not n - 1), all inner products use
trapezoid quadrature on the shared unit grid, and the covariance
operator is diagonalized through the weighted symmetric eigenproblem of
``W^{1/2} G W^{1/2}``. Eigenfunction signs follow a deterministic rule:
flip so the quadrature integral of each eigenfunction is nonnegative,
breaking exact ties by the sign at the right endpoint.

:func:`fit_fpca` takes one of two spectral paths. With fewer series than
grid points (n < m) the covariance has rank at most n - 1, and the
spectrum comes from a thin SVD of the weighted centred sample
``(H - mu) W^{1/2} / sqrt(n)``, padded with zeros to length m. Otherwise
it forms the m x m surface with :func:`covariance_function` and solves it
with :func:`eigendecompose`. :func:`eigendecompose` is the path checked
against the Jacobi oracle of the acceptance suite, and the tests check the
SVD path against it. Both paths share one tail for the eigenvalue floor,
quadrature normalization and the sign rule.

Mean and covariance sums run in name-sorted series order, so refitting a
permuted sample reproduces the model bit for bit.

The module computes and returns arrays and knows no file format; the
``fpca`` command of :mod:`warpgrowth.cli` renders the model, its
eigenfunctions, scores and modes of variation as files.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    DegenerateRegressorError,
    EmptySampleError,
    GridError,
    NumericalError,
    SampleSizeError,
)
from .quadrature import trapezoid_weights
from .timeseries import TimeGrid
from .warping import WarpSet

#: Cumulative variance-explained threshold used when no explicit component
#: count is requested.
DEFAULT_VAR_THRESHOLD = 0.999

DEFAULT_GAMMAS = (-2.0, -1.0, 0.0, 1.0, 2.0)


@dataclass(frozen=True)
class FpcaModel:
    """Fitted FPCA model.

    ``eigenvalues`` holds the full spectrum in nonincreasing order with
    tiny negatives floored at zero; ``eigenfunctions`` and
    ``var_explained`` cover the retained components only. ``scores`` are
    the quadrature projections of the centered warps onto each retained
    eigenfunction, one row per input series in input order;
    ``out_of_sample`` flags series that were excluded from estimation and
    only projected afterwards.
    """

    grid: TimeGrid
    mean: np.ndarray
    eigenvalues: np.ndarray
    eigenfunctions: np.ndarray
    var_explained: np.ndarray
    n_retained: int
    scores: np.ndarray
    score_names: tuple[str, ...]
    out_of_sample: np.ndarray
    n_sample: int

    @property
    def weights(self) -> np.ndarray:
        return trapezoid_weights(self.grid.n_points)

    @property
    def total_variance(self) -> float:
        return float(self.eigenvalues.sum())


@dataclass(frozen=True)
class ModesOfVariation:
    """Mean perturbed along one eigenfunction: mu + gamma * sqrt(lambda) * phi."""

    component: int
    gammas: tuple[float, ...]
    curves: np.ndarray  # (len(gammas), n_points)


@dataclass(frozen=True)
class RegressionLine:
    """Simple least squares line of score on growth rate, with correlation."""

    slope: float
    intercept: float
    correlation: float


def _sorted_matrix(warps: WarpSet, exclude=()) -> np.ndarray:
    """Warp rows in name order, less the ``exclude`` names, so sums over series do not depend on their order."""
    order = sorted((i for i, name in enumerate(warps.names) if name not in exclude), key=warps.names.__getitem__)
    return warps.values[order]


def mean_function(warps: WarpSet) -> np.ndarray:
    """Pointwise sample mean of the warps."""
    if warps.n_series == 0:
        raise EmptySampleError("cannot average an empty warp sample")
    return _sorted_matrix(warps).mean(axis=0)


def covariance_function(warps: WarpSet) -> np.ndarray:
    """Sample covariance surface G(s, t) with divisor n, symmetrized.

    ``G(s, t) = (1/n) sum_i h_i(s) h_i(t) - mu(s) mu(t)``.
    """
    if warps.n_series < 2:
        raise SampleSizeError(f"covariance needs at least 2 series, got {warps.n_series}")
    return _covariance(_sorted_matrix(warps))


def _covariance(h: np.ndarray) -> np.ndarray:
    mu = h.mean(axis=0)
    g = (h.T @ h) / h.shape[0] - np.outer(mu, mu)
    return (g + g.T) / 2.0


def eigendecompose(g: np.ndarray, grid: TimeGrid) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and orthonormal eigenfunctions of the covariance operator.

    Solves the symmetric eigenproblem of ``W^{1/2} G W^{1/2}`` with
    trapezoid weights ``W`` by ``numpy.linalg.eigh`` and maps eigenvectors
    back to functions ``phi_k = W^{-1/2} v_k``, normalized so the
    quadrature norm is 1.
    Returns the full spectrum in nonincreasing order (one function per
    grid point); negatives within rounding of zero are floored at 0.
    This is the reference path: the acceptance suite checks it against a
    Jacobi oracle, and :func:`fit_fpca` uses it whenever n >= m.

    Raises
    ------
    NumericalError
        If ``g`` is asymmetric beyond tolerance, not finite, or the
        eigensolver fails.
    """
    g = np.asarray(g, dtype=float)
    m = grid.n_points
    if g.shape != (m, m):
        raise GridError(f"covariance is {g.shape}, grid has {m} points")
    scale = max(1.0, float(np.abs(g).max()))
    if float(np.abs(g - g.T).max()) > 1e-8 * scale:
        raise NumericalError("covariance surface is asymmetric beyond tolerance")
    g = (g + g.T) / 2.0
    sqrt_w = np.sqrt(trapezoid_weights(m))
    vals, vecs = _solve(np.linalg.eigh, g * np.outer(sqrt_w, sqrt_w))
    return _spectrum(vals[::-1], vecs[:, ::-1], m)


def _solve(solver, a: np.ndarray, **kwargs):
    """Run ``solver``, a ``numpy.linalg`` routine, on ``a``.

    Non-finite input or a LAPACK failure raises NumericalError.
    """
    if not np.isfinite(a).all():
        raise NumericalError(f"cannot run {solver.__name__} on non-finite values")
    try:
        return solver(a, **kwargs)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"{solver.__name__} failed: {exc}") from None


def _spectrum(vals: np.ndarray, vecs: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Shared tail of both spectral paths: functions from weighted eigenvectors.

    ``vals`` are eigenvalues of ``W^{1/2} G W^{1/2}`` in nonincreasing order
    and the columns of ``vecs`` the matching orthonormal eigenvectors (at
    most ``m`` of them). Floors tiny negative eigenvalues at zero, pads the
    spectrum with zeros to length ``m``, maps the vectors to functions
    ``phi_k = W^{-1/2} v_k`` of unit quadrature norm and applies the sign
    rule: nonnegative quadrature integral, exact ties broken by a
    nonnegative value at the right endpoint.
    """
    floor = 1e-10 * max(float(vals[0]), 0.0)
    vals = np.where((vals < 0.0) & (vals >= -floor), 0.0, vals)
    vals = np.concatenate([vals, np.zeros(m - vals.shape[0])])

    w = trapezoid_weights(m)
    phi = vecs.T / np.sqrt(w)
    phi = phi / np.sqrt(phi**2 @ w)[:, None]
    integrals = phi @ w
    flip = (integrals < -1e-12) | ((np.abs(integrals) <= 1e-12) & (phi[:, -1] < 0.0))
    return vals, np.where(flip[:, None], -phi, phi)


def _sample_spectrum(h: np.ndarray, mu: np.ndarray, full: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Spectrum of the divisor-n sample covariance from a thin SVD of the sample.

    The right singular vectors of ``(H - mu) W^{1/2} / sqrt(n)``, from
    ``numpy.linalg.svd``, are the eigenvectors of ``W^{1/2} G W^{1/2}`` and
    its squared singular values the eigenvalues, so the m x m surface is
    never formed. Returns the spectrum padded with zeros to length m and
    ``min(n, m)`` eigenfunctions, or all ``m`` (an orthonormal completion)
    when ``full`` is set.
    """
    n, m = h.shape
    sqrt_w = np.sqrt(trapezoid_weights(m))
    a = (h - mu) * (sqrt_w / np.sqrt(n))
    _, sv, vt = _solve(np.linalg.svd, a, full_matrices=full)
    return _spectrum(sv**2, vt.T, m)


def _scores(h: np.ndarray, mu: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Quadrature projections ``s_ik = <h_i - mu, phi_k>``, one row per warp."""
    return (h - mu) @ (phi * trapezoid_weights(h.shape[1])).T


def project_scores(warps: WarpSet, model: FpcaModel) -> np.ndarray:
    """Project warps onto the model: ``s_ik = <h_i - mu, phi_k>``.

    Works for in-sample and held-out series alike; each row depends only on
    its own warp. Rows follow the warp-set order.

    Raises
    ------
    GridError
        If the warps are not on the model grid.
    """
    if warps.grid.n_points != model.grid.n_points:
        raise GridError("warps are not on the model's grid")
    return _scores(warps.values, model.mean, model.eigenfunctions)


def fit_fpca(
    warps: WarpSet,
    exclude: tuple[str, ...] | list[str] = (),
    k: int | None = None,
    var_threshold: float = DEFAULT_VAR_THRESHOLD,
) -> FpcaModel:
    """Fit the FPCA model, optionally holding named series out of estimation.

    Excluded series do not enter the mean or covariance; their scores are
    projections onto the fitted components, flagged out-of-sample. The
    number of retained components is ``k`` when given, otherwise the
    smallest count whose cumulative variance fraction reaches
    ``var_threshold`` (at least one).

    With fewer included series than grid points the spectrum comes from a
    thin SVD of the weighted centred sample instead of an eigensolve of the
    m x m covariance; the eigenvalues are padded with zeros to length m, so
    ``eigenvalues`` and ``total_variance`` mean the same on both paths.
    Components beyond the sample rank are an orthonormal completion of the
    null space. Scores use the same projection as :func:`project_scores`.

    Raises
    ------
    ConfigError
        If ``exclude`` names a series not in the sample, ``k`` is outside
        ``[1, m]`` for an ``m``-point grid, or ``var_threshold`` is outside
        ``(0, 1]``.
    SampleSizeError
        If fewer than 2 series remain after exclusion.
    NumericalError
        If the sample or its covariance is not finite, or a solver fails.
    """
    exclude = tuple(exclude)
    unknown = [name for name in exclude if name not in warps.names]
    if unknown:
        raise ConfigError(f"excluded names not in the sample: {unknown}")
    if k is not None and not 1 <= k <= warps.grid.n_points:
        raise ConfigError(f"k must be in [1, {warps.grid.n_points}], got {k}")
    if not 0 < var_threshold <= 1:
        raise ConfigError(f"var_threshold must be in (0, 1], got {var_threshold}")
    h = _sorted_matrix(warps, exclude)
    if h.shape[0] < 2:
        raise SampleSizeError(f"need at least 2 series after exclusion, got {h.shape[0]}")

    mu = h.mean(axis=0)
    if h.shape[0] < h.shape[1]:
        vals, phi = _sample_spectrum(h, mu)
    else:
        vals, phi = eigendecompose(_covariance(h), warps.grid)

    total = float(vals.sum())
    fractions = vals / total if total > 0.0 else np.zeros_like(vals)
    if k is not None:
        n_retained = int(k)
    else:
        cumulative = np.cumsum(fractions)
        reached = np.nonzero(cumulative >= var_threshold - 1e-15)[0]
        n_retained = int(reached[0]) + 1 if reached.size else vals.shape[0]
    if n_retained > phi.shape[0]:
        # More components than the thin SVD gives: complete the basis. The
        # added functions span the null space, so the spectrum is unchanged.
        _, phi = _sample_spectrum(h, mu, full=True)

    scores = _scores(warps.values, mu, phi[:n_retained])
    return FpcaModel(
        grid=warps.grid,
        mean=mu,
        eigenvalues=vals,
        eigenfunctions=phi[:n_retained],
        var_explained=fractions[:n_retained],
        n_retained=n_retained,
        scores=scores,
        score_names=warps.names,
        out_of_sample=np.array([name in exclude for name in warps.names]),
        n_sample=h.shape[0],
    )


def modes_of_variation(model: FpcaModel, k: int, gammas=DEFAULT_GAMMAS) -> ModesOfVariation:
    """Curves ``mu + gamma * sqrt(lambda_k) * phi_k`` for each gamma.

    ``k`` is 1-based and must refer to a retained component, and
    ``gammas`` must hold at least one value (ConfigError otherwise).
    """
    if not 1 <= k <= model.n_retained:
        raise ConfigError(f"component {k} outside retained range [1, {model.n_retained}]")
    gammas = tuple(float(g) for g in gammas)
    if not gammas:
        raise ConfigError("modes of variation need at least one gamma")
    lam = max(float(model.eigenvalues[k - 1]), 0.0)
    phi = model.eigenfunctions[k - 1]
    curves = np.vstack([model.mean + g * np.sqrt(lam) * phi for g in gammas])
    return ModesOfVariation(k, gammas, curves)


def score_rate_regression(scores: np.ndarray, alphas: np.ndarray) -> list[RegressionLine]:
    """Per-component least squares of score on growth rate.

    ``scores`` holds one row per rate and one column per component.
    Returns slope, intercept and Pearson correlation for each score column.
    A constant score column gets slope 0 and correlation 0.

    Raises
    ------
    ConfigError
        If the score rows and the rates differ in number; a 1-D ``scores``
        is one row.
    SampleSizeError
        If fewer than 3 observations are supplied.
    DegenerateRegressorError
        If the rates have zero variance.
    NumericalError
        If a sum of squares or cross-products (or the product of the two
        sums of squares) is not finite, as when rates near the float range
        overflow, or if that product underflows below the normal range
        while the score column varies, as for rates near 1e-150.
    """
    scores = np.atleast_2d(np.asarray(scores, dtype=float))
    alphas = np.asarray(alphas, dtype=float)
    if scores.shape[0] != alphas.shape[0]:
        raise ConfigError(f"{scores.shape[0]} score rows vs {alphas.shape[0]} rates")
    if alphas.shape[0] < 3:
        raise SampleSizeError(f"regression needs at least 3 points, got {alphas.shape[0]}")
    with np.errstate(over="ignore", invalid="ignore"):
        xc = alphas - alphas.mean()
        sxx = float(np.sum(xc**2))
        yc = [col - col.mean() for col in scores.T]
        sxy = [float(np.dot(xc, y)) for y in yc]
        syy = [float(np.sum(y**2)) for y in yc]
    if not np.isfinite([sxx, *sxy, *syy, *(sxx * yy for yy in syy)]).all():
        raise NumericalError("score-rate regression sums are not finite")
    if sxx == 0.0:
        raise DegenerateRegressorError("growth rates have zero variance")
    if any(0.0 < yy and sxx * yy < np.finfo(float).tiny for yy in syy):
        raise NumericalError("score-rate regression: the product of the sums of squares underflows")
    lines = []
    for col, xy, yy in zip(scores.T, sxy, syy):
        slope = xy / sxx
        intercept = float(col.mean() - slope * alphas.mean())
        corr = xy / np.sqrt(sxx * yy) if yy > 0.0 else 0.0
        lines.append(RegressionLine(slope, intercept, float(corr)))
    return lines
