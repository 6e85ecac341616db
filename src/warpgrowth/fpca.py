"""Functional principal component analysis of a warping-function sample.

The sample covariance uses divisor n (not n - 1), all inner products use
trapezoid quadrature on the shared unit grid, and the covariance
operator is diagonalized through the weighted symmetric eigenproblem of
``W^{1/2} G W^{1/2}``. Eigenfunction signs follow a deterministic rule:
flip so the quadrature integral of each eigenfunction is nonnegative,
breaking exact ties by the sign at the right endpoint.

One SVD kernel takes the spectrum from a row factor ``R`` of
``W^{1/2} G W^{1/2} = R^T R``. With fewer series than grid points (n < m)
:func:`fit_fpca` feeds it the weighted centred sample
``(H - mu) W^{1/2} / sqrt(n)``; otherwise it forms the m x m surface with
:func:`covariance_function`, and :func:`eigendecompose` feeds the kernel
the transposed pivoted Cholesky factor of a surface of numerical rank at
most ``m // 6`` (29 at m = 176), as the convergence sweep's covariances
have; the kernel returns only the r functions its thin SVD resolves.
Every other surface goes to ``numpy.linalg.eigh``. All routes share one
tail for the eigenvalue floor, quadrature normalization and the sign rule;
the acceptance suite checks :func:`eigendecompose` against a Jacobi
oracle, and the tests check the kernel against ``eigh``.

Mean and covariance sums run in name-sorted series order, so refitting a
permuted sample reproduces the model bit for bit. :func:`score_rate_regression`
takes its sums with :func:`math.fsum`, so its lines do not depend on row
order either.

The module computes and returns arrays and knows no file format; the
``fpca`` command of :mod:`warpgrowth.cli` renders the model, its
eigenfunctions, scores and modes of variation as files.
"""

from __future__ import annotations

import math
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
from .timeseries import TimeGrid, freeze_fields
from .warping import WarpSet

#: Cumulative variance-explained threshold used when no explicit component
#: count is requested.
DEFAULT_VAR_THRESHOLD = 0.999

DEFAULT_GAMMAS = (-2.0, -1.0, 0.0, 1.0, 2.0)

#: :func:`eigendecompose` factors a weighted covariance of numerical rank at
#: most ``m // _FACTOR_RANK_DIVISOR`` and hands any other to ``eigh``. At
#: m = 176 (2-vCPU x86-64, numpy 2.4, OpenBLAS) the factor path beat ``eigh``
#: through rank 58 at 1 and 2 BLAS threads (rank 29: 1.1 against 2.1 ms a call
#: at 1, 1.2 against 2.6 ms at 2) and lost at rank 88. A declined surface pays
#: about 0.3 ms. Moving the cut-off would move surfaces between paths, and their bits.
_FACTOR_RANK_DIVISOR = 6


@dataclass(frozen=True, eq=False)
class FpcaModel:
    """Fitted FPCA model, as read-only arrays.

    ``eigenvalues`` holds the full spectrum in nonincreasing order with
    tiny negatives floored at zero; ``eigenfunctions`` holds the retained
    components only. ``scores`` are the quadrature projections of the
    centered warps onto each retained eigenfunction, one row per input
    series in input order; ``out_of_sample`` flags series that were
    excluded from estimation and only projected afterwards.
    """

    grid: TimeGrid
    mean: np.ndarray
    eigenvalues: np.ndarray
    eigenfunctions: np.ndarray
    scores: np.ndarray
    score_names: tuple[str, ...]
    out_of_sample: np.ndarray

    def __post_init__(self):
        n, k, m = len(self.score_names), len(self.eigenfunctions), self.grid.n_points
        fields = (("mean", float, (m,)), ("eigenvalues", float, (m,)), ("eigenfunctions", float, (k, m)))
        fields += (("scores", float, (n, k)), ("out_of_sample", bool, (n,)))
        freeze_fields(self, fields, f"FPCA model of {n} series on {m} points")

    @property
    def weights(self) -> np.ndarray:
        return trapezoid_weights(self.grid.n_points)

    @property
    def total_variance(self) -> float:
        return float(self.eigenvalues.sum())

    @property
    def n_retained(self) -> int:
        return self.eigenfunctions.shape[0]

    @property
    def n_sample(self) -> int:
        return int(np.count_nonzero(~self.out_of_sample))

    @property
    def var_explained(self) -> np.ndarray:
        """The retained components' shares of the total variance."""
        return _shares(self.eigenvalues)[: self.n_retained]


def _shares(eigenvalues: np.ndarray) -> np.ndarray:
    """Each eigenvalue's share of their sum; all zero when the sum is not positive."""
    total = float(eigenvalues.sum())
    return eigenvalues / total if total > 0.0 else np.zeros_like(eigenvalues)


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

    ``G(s, t) = (1/n) sum_i (h_i(s) - mu(s)) (h_i(t) - mu(t))``, centred
    before the product, so a constant offset of the warps does not round
    into it. NumericalError if the surface is not finite, as when the
    warps' squares overflow.
    """
    if warps.n_series < 2:
        raise SampleSizeError(f"covariance needs at least 2 series, got {warps.n_series}")
    with np.errstate(over="ignore", invalid="ignore"):
        g = _covariance(_sorted_matrix(warps))
    if not np.isfinite(g).all():
        raise NumericalError("the covariance surface is not finite (the warps are too large)")
    return g


def _covariance(h: np.ndarray) -> np.ndarray:
    c = h - h.mean(axis=0)
    g = (c.T @ c) / h.shape[0]
    return (g + g.T) / 2.0


def eigendecompose(g: np.ndarray, grid: TimeGrid) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and orthonormal eigenfunctions of the covariance operator.

    Solves the symmetric eigenproblem of ``A = W^{1/2} G W^{1/2}`` with
    trapezoid weights ``W`` and maps eigenvectors back to functions
    ``phi_k = W^{-1/2} v_k``, normalized so the quadrature norm is 1.
    Returns the full spectrum in nonincreasing order, negatives within
    rounding of zero floored at 0, and one function per grid point (``eigh``)
    or per factor column (the factor path below).
    This is the reference path: the acceptance suite checks it against a
    Jacobi oracle, and :func:`fit_fpca` uses it whenever n >= m.

    ``A`` is first factored by pivoted Cholesky as ``L L^T``, ``L`` of m x r,
    stopping once the largest remaining pivot is at most
    ``tol = m * eps * max(diag(A))``. The factor is used only when
    ``r <= m // 6`` and ``max|A - L L^T| <= tol``; then the eigenvalues are
    the squared singular values of ``L`` and the eigenvectors the r right
    singular vectors of the thin SVD of ``L^T``.
    By Weyl's inequality each eigenvalue of ``L L^T`` lies within
    ``m * tol = m^2 * eps * max(diag(A))`` of that of ``A``, and those past
    the numerical rank come out exactly 0, where ``eigh`` returns rounding
    noise of about 1e-17. A surface of higher rank, an indefinite one whose
    residual fails the check, and the zero surface are solved by
    ``numpy.linalg.eigh``.

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
    with np.errstate(over="ignore", invalid="ignore"):  # _solve rejects the inf or NaN left
        scale = max(1.0, float(np.abs(g).max()))
        if float(np.abs(g - g.T).max()) > 1e-8 * scale:
            raise NumericalError("covariance surface is asymmetric beyond tolerance")
        g = (g + g.T) / 2.0
        sqrt_w = np.sqrt(trapezoid_weights(m))
        a = g * np.outer(sqrt_w, sqrt_w)
        factor = _low_rank_factor(a)
        if factor is not None:
            return _factor_spectrum(factor.T)
        vals, vecs = _solve(np.linalg.eigh, a)
    return _spectrum(vals[::-1], vecs[:, ::-1], m)


def _low_rank_factor(a: np.ndarray) -> np.ndarray | None:
    """An m x r factor ``L`` with ``a = L L^T`` to within the pivot tolerance, or None.

    Pivoted Cholesky factorization, the rank-revealing factorization of a
    semidefinite matrix (Higham, 1990): each step pivots on the largest
    remaining diagonal entry, and the factorization stops once that entry
    is at most ``tol = m * eps * max(diag(a))``, the default tolerance of
    LAPACK's ``dpstrf``. Returns None, so the caller solves ``a`` in full,
    when ``a`` has no positive finite diagonal, when more than
    ``m // _FACTOR_RANK_DIVISOR`` columns would be needed, or when
    ``max|a - L L^T|`` exceeds ``tol``, as it does for an indefinite ``a``.
    """
    m = a.shape[0]
    d = np.diag(a).copy()
    tol = m * np.finfo(float).eps * float(d.max())
    if not 0.0 < tol < np.inf:
        return None
    factor = np.zeros((m, m // _FACTOR_RANK_DIVISOR))
    pivots = []  # L is lower triangular in pivot order: later columns are exactly 0 in these rows
    for r in range(factor.shape[1] + 1):
        p = int(np.argmax(d))
        if d[p] <= tol:
            break
        if r == factor.shape[1]:
            return None
        column = (a[:, p] - factor[:, :r] @ factor[p, :r]) / math.sqrt(d[p])
        column[pivots] = 0.0
        factor[:, r] = column
        pivots.append(p)
        d -= column * column
        d[p] = 0.0
    factor = factor[:, :r]
    return factor if float(np.abs(a - factor @ factor.T).max()) <= tol else None


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
    """Shared tail of the SVD and ``eigh`` paths: functions from weighted eigenvectors.

    ``vals`` are eigenvalues of ``W^{1/2} G W^{1/2}`` in nonincreasing order
    and the columns of ``vecs`` the matching orthonormal eigenvectors (at
    most ``m`` of them). Floors tiny negative eigenvalues at zero, pads the
    spectrum with zeros to length ``m``, maps the vectors to functions
    ``phi_k = W^{-1/2} v_k`` of unit quadrature norm and applies the sign
    rule: nonnegative quadrature integral, exact ties broken by a
    nonnegative value at the right endpoint; NumericalError for an eigenvalue that is not finite.
    """
    if not np.isfinite(vals).all():
        raise NumericalError("the covariance spectrum is not finite (the warps are too large)")
    floor = 1e-10 * max(float(vals[0]), 0.0)
    vals = np.where((vals < 0.0) & (vals >= -floor), 0.0, vals)
    vals = np.concatenate([vals, np.zeros(m - vals.shape[0])])

    w = trapezoid_weights(m)
    phi = vecs.T / np.sqrt(w)
    phi = phi / np.sqrt(phi**2 @ w)[:, None]
    integrals = phi @ w
    flip = (integrals < -1e-12) | ((np.abs(integrals) <= 1e-12) & (phi[:, -1] < 0.0))
    return vals, np.where(flip[:, None], -phi, phi)


def _factor_spectrum(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Spectrum of ``A = R^T R`` from the thin SVD of its row factor ``R`` (r x m).

    The right singular vectors of ``R`` are the eigenvectors of ``A`` and its
    squared singular values the eigenvalues, so ``A`` is never solved in full.
    Returns the spectrum padded with zeros to length m and ``min(r, m)`` eigenfunctions.
    """
    _, sv, vt = _solve(np.linalg.svd, rows, full_matrices=False)
    return _spectrum(sv**2, vt.T, rows.shape[1])


def _complete(phi: np.ndarray) -> np.ndarray:
    """``phi``, r < m functions orthonormal under quadrature, then m - r more completing the basis.

    They are the complement columns of a complete QR of the weighted ``phi``, through :func:`_spectrum`.
    """
    r, m = phi.shape
    q, _ = np.linalg.qr((phi * np.sqrt(trapezoid_weights(m))).T, mode="complete")
    return np.vstack([phi, _spectrum(np.zeros(m - r), q[:, r:], m)[1]])


def _scores(h: np.ndarray, mu: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """``s_ik = <h_i - mu, phi_k>`` by row sums, not a matrix product, so row ``i`` depends only on ``h_i``."""
    centred = h - mu
    columns = [(centred * p).sum(axis=1) for p in phi * trapezoid_weights(h.shape[1])]
    return np.array(columns).reshape(len(phi), len(h)).T


def project_scores(warps: WarpSet, model: FpcaModel) -> np.ndarray:
    """Project warps onto the model: ``s_ik = <h_i - mu, phi_k>``.

    Works for in-sample and held-out series alike. Rows follow the warp-set order, and each row
    is bit for bit the projection of that warp alone.

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
    Components past the functions the SVD resolves (one per sample row or
    factor column) complete the basis in the null space. Scores use the same projection as :func:`project_scores`.

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

    with np.errstate(over="ignore", invalid="ignore"):  # _solve or _spectrum rejects the inf or NaN left
        mu = h.mean(axis=0)
        n, m = h.shape
        if n < m:
            rows = (h - mu) * (np.sqrt(trapezoid_weights(m)) / np.sqrt(n))
            vals, phi = _factor_spectrum(rows)
        else:
            vals, phi = eigendecompose(_covariance(h), warps.grid)

    if k is None:
        reached = np.flatnonzero(np.cumsum(_shares(vals)) >= var_threshold - 1e-15)
        k = int(reached[0]) + 1 if reached.size else vals.shape[0]
    n_retained = int(k)
    if n_retained > phi.shape[0]:
        phi = _complete(phi)

    return FpcaModel(
        grid=warps.grid,
        mean=mu,
        eigenvalues=vals,
        eigenfunctions=phi[:n_retained],
        scores=_scores(warps.values, mu, phi[:n_retained]),
        score_names=warps.names,
        out_of_sample=np.array([name in exclude for name in warps.names]),
    )


def modes_of_variation(model: FpcaModel, k: int) -> np.ndarray:
    """Curves ``mu + gamma * sqrt(lambda_k) * phi_k``, one row per gamma of :data:`DEFAULT_GAMMAS`.

    ``k`` is 1-based and must refer to a retained component (ConfigError otherwise).
    """
    if not 1 <= k <= model.n_retained:
        raise ConfigError(f"component {k} outside retained range [1, {model.n_retained}]")
    root = np.sqrt(max(float(model.eigenvalues[k - 1]), 0.0))
    return np.vstack([model.mean + g * root * model.eigenfunctions[k - 1] for g in DEFAULT_GAMMAS])


def score_rate_regression(scores: np.ndarray, alphas: np.ndarray) -> list[RegressionLine]:
    """Per-component least squares of score on growth rate.

    ``scores`` holds one row per rate and one column per component.
    Returns slope, intercept and Pearson correlation for each score column.
    A constant score column gets slope 0 and correlation 0. Every mean and
    every sum over rows is a :func:`math.fsum` sum of elementwise terms, so
    the lines depend on neither the order of the rows nor the BLAS thread
    count.

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
    n = alphas.shape[0]
    if n < 3:
        raise SampleSizeError(f"regression needs at least 3 points, got {n}")
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            x_mean = math.fsum(alphas.tolist()) / n
            y_means = [math.fsum(col.tolist()) / n for col in scores.T]
            xc = alphas - x_mean
            yc = [col - mean for col, mean in zip(scores.T, y_means)]
            sxx = math.fsum((xc * xc).tolist())
            sxy = [math.fsum((xc * y).tolist()) for y in yc]
            syy = [math.fsum((y * y).tolist()) for y in yc]
    except (OverflowError, ValueError):  # math.fsum: a partial sum overflows, or inf meets -inf
        raise NumericalError("score-rate regression sums are not finite") from None
    if not np.isfinite([sxx, *sxy, *syy, *(sxx * yy for yy in syy)]).all():
        raise NumericalError("score-rate regression sums are not finite")
    if sxx == 0.0:
        raise DegenerateRegressorError("growth rates have zero variance")
    if any(0.0 < yy and sxx * yy < np.finfo(float).tiny for yy in syy):
        raise NumericalError("score-rate regression: the product of the sums of squares underflows")
    lines = []
    for y_mean, xy, yy in zip(y_means, sxy, syy):
        slope = xy / sxx
        corr = xy / math.sqrt(sxx * yy) if yy > 0.0 else 0.0
        lines.append(RegressionLine(slope, y_mean - slope * x_mean, corr))
    return lines
