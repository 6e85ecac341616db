"""Monte Carlo study of the full estimation pipeline.

Each replicate draws warping functions from a known truth
``h_i = mu + sum_k sqrt(lambda_k) xi_ik phi_k`` with standard normal
scores, builds price trajectories
``X_i(t) = X_i(T0) exp(alpha_i (h_i(t) - h_i(T0)))`` on a monthly grid,
rejects candidates whose trajectory exceeds the cap, and runs the window
search, rate estimation, warp recovery and FPCA exactly as on real data.
Error metrics follow the study design: averaged relative squared error
for the rates, relative integrated squared error for the warps, and
sign-aligned integrated squared errors for the eigenfunctions.

Truth components are stored in normalized units (the analysis window maps
to [0, 1]; eigenfunctions orthonormal under the grid quadrature), so a
model fitted on real data can be fed back in as the truth. Generation
rescales to calendar months internally: a normalized warp value u
corresponds to ``u * elapsed_months`` months of market time.

Candidates are drawn and scored in fixed chunks of ``_CHUNK``, with the
warps summed term by term rather than by a matrix product, so generated
data do not depend on BLAS. A candidate is rejected when its trajectory
exceeds the cap or falls below the smallest normal float; the others fill
the replicate's n x m panel in index order, and the replicate records how
many candidates that took. Randomness is counter-based (Philox), one
stream per ``(seed, replicate index)``, and replicates run in index order.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from ._table import json_field, read_file, read_unit_table, write_output, write_rows, write_unit_table
from .errors import ConfigError, WarpGrowthError
from .fpca import _covariance, _spectrum, eigendecompose, fit_fpca
from .growthfit import DEFAULT_WINDOW_LENGTHS, estimate_alphas, search_interval
from .quadrature import trapezoid_weights
from .timeseries import Panel, TimeGrid, freeze_fields, freeze_integer
from .warping import compute_warp_set

#: Default simulation grid: December 1998 through July 2013 in month
#: indices (January 1987 is month 1).
DEFAULT_T0 = 144
DEFAULT_T1 = 319

#: Norm floor below which a warp is excluded from the relative error.
RISE_NORM_FLOOR = 1e-8

#: Reference values from the original 19-market housing-index study, kept
#: for side-by-side context in reports. They are not reproducible targets:
#: they depend on the mean/eigenfunctions estimated from the housing data,
#: which are not available in numeric form.
HOUSING_STUDY_REFERENCE = {
    "ase_mean": 0.011,
    "ase_sd": 0.041,
    "window_start_mean": 146.31,
    "window_start_sd": 7.58,
    "window_end_mean": 169.43,
    "window_end_sd": 7.93,
    "rise_mean": 0.032,
    "mise_phi_1": 0.029,
    "mise_phi_2": 0.053,
    "eigenvalue_rel_sq_err_1": 0.825,
    "eigenvalue_rel_sq_err_2": 0.135,
    "var_explained_2_mean": 0.96,
    "var_explained_2_min": 0.855,
    "var_explained_2_max": 0.988,
}


@dataclass(frozen=True, eq=False)
class SimTruth:
    """Ground truth for the simulation study.

    ``mean`` (per grid point), ``eigenfunctions`` (one row per component)
    and ``eigenvalues`` are read-only arrays in normalized units on
    ``grid.points``, the grid's [0, 1] rescaling; all three must be finite,
    and the eigenfunctions orthonormal under the trapezoid quadrature. ``grid``
    fixes the calendar months the normalized window corresponds to; ``n``
    is an int. ConfigError names the first field that breaks a rule.
    """

    grid: TimeGrid
    mean: np.ndarray
    eigenfunctions: np.ndarray
    eigenvalues: np.ndarray
    n: int = 20
    x0_range: tuple[float, float] = (85.0, 100.0)
    alpha_range: tuple[float, float] = (0.003, 0.018)
    cap: float = 300.0

    def __post_init__(self):
        mean, phi, lam = (np.asarray(a, dtype=float) for a in (self.mean, self.eigenfunctions, self.eigenvalues))
        m = self.grid.n_points
        if mean.shape != (m,):
            raise ConfigError(f"mean has shape {mean.shape}, grid has {m} points")
        if phi.ndim != 2 or phi.shape[1] != m:
            raise ConfigError(f"eigenfunctions must be (K, {m}), got {phi.shape}")
        if lam.shape != (phi.shape[0],):
            raise ConfigError(f"{lam.shape[0]} eigenvalues for {phi.shape[0]} eigenfunctions")
        for name, a in (("mean", mean), ("eigenfunctions", phi), ("eigenvalues", lam)):
            if not np.isfinite(a).all():
                raise ConfigError(f"{name} is not finite")
        if lam.size and (np.any(lam < 0) or np.any(np.diff(lam) > 0)):
            raise ConfigError("eigenvalues must be nonnegative and nonincreasing")
        if phi.shape[0]:
            w = trapezoid_weights(m)
            gram = (phi * w) @ phi.T
            if float(np.abs(gram - np.eye(phi.shape[0])).max()) > 1e-8:
                raise ConfigError("eigenfunctions are not orthonormal under the grid quadrature")
        freeze_integer(self, "n", 1, math.inf, ConfigError)
        for key in ("x0_range", "alpha_range"):
            ends = getattr(self, key)
            if len(ends) != 2 or not 0 < ends[0] <= ends[1] < math.inf:
                raise ConfigError(f"{key} must be finite, positive and nondecreasing, got {ends}")
        if not self.cap > 0:
            raise ConfigError(f"cap must be positive, got {self.cap}")
        fields = (("mean", float, mean.shape), ("eigenfunctions", float, phi.shape), ("eigenvalues", float, lam.shape))
        freeze_fields(self, fields, "truth")

    @property
    def n_components(self) -> int:
        return self.eigenvalues.shape[0]

    @property
    def two_component_fraction(self) -> float:
        """Fraction of total variance carried by the first two components."""
        return _two_component_fraction(self.eigenvalues)


def _two_component_fraction(eigenvalues: np.ndarray) -> float:
    """Share of the first two eigenvalues in their sum; NaN for fewer than two or a nonpositive sum."""
    total = float(eigenvalues.sum())
    return float(eigenvalues[:2].sum()) / total if total > 0.0 and eigenvalues.shape[0] >= 2 else float("nan")


def _spline_coefficients(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Cubic spline through ``(x, y)`` with ``s'(x[0]) = 0`` and ``s''(x[-1]) = 0``.

    Solves the spline's linear system for the knot second derivatives
    ``M``: the clamped left end ``2 h_0 M_0 + h_0 M_1 = 6 (y_1 - y_0) / h_0``,
    one C2 continuity row per interior knot, and the natural right end
    ``M_{-1} = 0``. Returns power-basis coefficients of shape
    ``(4, len(x) - 1)``: row ``k`` multiplies ``(v - x_i) ** (3 - k)`` on
    ``[x_i, x_{i+1}]``.
    """
    h = np.diff(x)
    slope = np.diff(y) / h
    n = x.shape[0]
    a = np.zeros((n, n))
    rhs = np.zeros(n)
    a[0, :2] = 2.0 * h[0], h[0]
    rhs[0] = 6.0 * slope[0]
    for i in range(1, n - 1):
        a[i, i - 1 : i + 2] = h[i - 1], 2.0 * (h[i - 1] + h[i]), h[i]
        rhs[i] = 6.0 * (slope[i] - slope[i - 1])
    a[-1, -1] = 1.0
    m = np.linalg.solve(a, rhs)
    return np.vstack([np.diff(m) / (6.0 * h), m[:-1] / 2.0, slope - h * (2.0 * m[:-1] + m[1:]) / 6.0, y[:-1]])


def _spline_values(coefficients: np.ndarray, x: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Evaluate the piecewise cubic from :func:`_spline_coefficients` at ``v`` within ``[x[0], x[-1]]``."""
    i = np.clip(np.searchsorted(x, v, side="right") - 1, 0, x.shape[0] - 2)
    dv = v - x[i]
    c = coefficients[:, i]
    return ((c[0] * dv + c[1]) * dv + c[2]) * dv + c[3]


def default_truth() -> SimTruth:
    """Bundled synthetic truth shaped like the housing-index application.

    The mean warp follows calendar time exactly on the first 23 months,
    then runs through a boom (peak near 55% of the window), a bust
    bottoming out around 87%, and a mild late recovery; a small
    superimposed oscillation keeps the disturbed stretch visibly curved at
    the scale of the scanned windows, so the window search is not fooled
    by locally straight boom segments. The basis consists of the first ten
    orthonormalized monomial perturbations ``u^2..u^11`` (each vanishing
    at the window start with zero slope, so generated samples stay
    anchored and near-exponential early on), with geometric eigenvalues
    ``0.01 * 0.2^(k-1)``; the first two components carry 96% of the total
    variance. The boom-bust bump is a cubic spline through six knots,
    clamped at the left end (zero slope where the disturbance starts) and
    natural at the right end (zero second derivative).
    """
    grid = TimeGrid(DEFAULT_T0, DEFAULT_T1 - DEFAULT_T0 + 1)
    m = grid.n_points
    u = np.linspace(0.0, 1.0, m)
    u0 = 23.0 / grid.elapsed_months

    knots_v = np.array([0.0, 0.25, 0.45, 0.65, 0.85, 1.0])
    knots_b = np.array([0.0, 0.18, 0.42, 0.05, -0.42, -0.38])
    bump = _spline_coefficients(knots_v, knots_b)
    mean = u.copy()
    late = u > u0
    v = (u[late] - u0) / (1.0 - u0)
    ripple = 0.03 * 4.0 * v * (1.0 - v) * np.sin(2.0 * np.pi * 7.0 * v)
    mean[late] += _spline_values(bump, knots_v, v) + ripple

    n_components = 10
    w = trapezoid_weights(m)
    monomials = np.column_stack([u ** (k + 2) for k in range(n_components)])
    q, _ = np.linalg.qr(np.sqrt(w)[:, None] * monomials)
    # Unit quadrature norm and the sign rule of every fitted model's eigenfunctions.
    _, phi = _spectrum(np.zeros(n_components), q, m)

    eigenvalues = 0.01 * 0.2 ** np.arange(n_components)
    return SimTruth(grid, mean, phi, eigenvalues)


@dataclass(frozen=True, eq=False)
class Replicate:
    """One generated dataset with its generating quantities, as read-only arrays.

    ``warps`` holds the anchored normalized truth ``h_i - h_i(0)`` that the
    estimation pipeline targets; ``scores`` are the standard normal draws.
    ``attempts`` counts the candidates drawn up to and including the last
    one accepted, so ``n / attempts`` is the replicate's acceptance rate.
    """

    panel: Panel
    alphas: np.ndarray
    warps: np.ndarray
    scores: np.ndarray
    attempts: int

    def __post_init__(self):
        n, m = self.panel.values.shape
        fields = (("alphas", float, (n,)), ("warps", float, (n, m)), ("scores", float, (n, np.shape(self.scores)[-1])))
        freeze_fields(self, fields, f"replicate of {n} series")


#: Candidates drawn and scored per step of :func:`generate_replicate`.
_CHUNK = 32


def generate_replicate(truth: SimTruth, rng: np.random.Generator) -> Replicate:
    """Draw one accepted sample of n series from the truth.

    Candidates come in chunks of ``_CHUNK``. Each chunk draws, in this
    order, the scores ``xi`` (``_CHUNK`` x K standard normals), the rates
    and the initial values (``_CHUNK`` uniforms each) from ``rng``. Its
    warps are summed elementwise in a fixed order, ``h = mu`` then
    ``h += sqrt(lambda_k) xi_k phi_k`` for k = 1..K, so a candidate's bits
    do not depend on the chunk around it or on BLAS. A candidate is
    rejected wholesale when its trajectory exceeds the cap or falls below
    the smallest normal float (a value no :class:`Panel` holds); the
    others are accepted in index order until n are in.

    Raises
    ------
    ConfigError
        If the acceptance rate is below 1% after at least 10,000 draws,
        checked at the end of each chunk.
    """
    n, n_comp = truth.n, truth.n_components
    m = truth.grid.n_points
    months = float(truth.grid.elapsed_months)
    root_lam = np.sqrt(truth.eigenvalues)
    floor = np.finfo(float).tiny

    values = np.empty((n, m))
    alphas = np.empty(n)
    warps = np.empty((n, m))
    scores = np.empty((n, n_comp))
    accepted = 0
    attempts = 0
    while accepted < n:
        xi = rng.standard_normal((_CHUNK, n_comp))
        alpha = rng.uniform(*truth.alpha_range, _CHUNK)
        x0 = rng.uniform(*truth.x0_range, _CHUNK)
        # An overflow leaves inf or NaN in x, or 0 after exp(-inf): each fails a test below.
        with np.errstate(over="ignore", invalid="ignore"):
            c = xi * root_lam
            h = np.repeat(truth.mean[None], _CHUNK, axis=0)
            for k in range(n_comp):
                h += c[:, k : k + 1] * truth.eigenfunctions[k]
            h -= h[:, :1]
            x = x0[:, None] * np.exp((alpha * months)[:, None] * h)
        ok = np.flatnonzero((x.max(axis=1) <= truth.cap) & (x.min(axis=1) >= floor))[: n - accepted]
        rows = slice(accepted, accepted + ok.size)
        values[rows], alphas[rows], warps[rows], scores[rows] = x[ok], alpha[ok], h[ok], xi[ok]
        accepted += ok.size
        if accepted == n:
            attempts += int(ok[-1]) + 1
        else:
            attempts += _CHUNK
            if attempts >= 10_000 and accepted / attempts < 0.01:
                raise ConfigError(
                    f"acceptance rate {accepted / attempts:.2%} after {attempts} draws; "
                    f"truth is incompatible with the cap {truth.cap}"
                )
    names = tuple(f"sim{i + 1:02d}" for i in range(n))
    return Replicate(Panel(truth.grid, names, values), alphas, warps, scores, attempts)


def _fsum_mean(values) -> float:
    return math.fsum(values) / len(values) if len(values) else float("nan")


def averaged_relative_squared_error(alpha_hat: np.ndarray, alpha_true: np.ndarray) -> float:
    """ASE = (1/n) sum_i (alpha_hat_i - alpha_i)^2 / alpha_i^2.

    Summed with :func:`math.fsum`, so the value is invariant to series order.
    """
    ratios = ((np.asarray(alpha_hat) - np.asarray(alpha_true)) / np.asarray(alpha_true)) ** 2
    return _fsum_mean(ratios)


def relative_integrated_squared_error(
    h_hat: np.ndarray, h_true: np.ndarray, t: np.ndarray, t_from: float
) -> tuple[float, int]:
    """Mean over series of ||h_hat - h||^2 / ||h||^2 on the region t > t_from.

    Series whose true warp has norm below ``RISE_NORM_FLOOR`` on the region
    are excluded; their count is returned alongside the average. Returns
    NaN if every series is excluded.
    """
    mask = t > t_from
    if mask.sum() < 2:
        return float("nan"), h_true.shape[0]
    w = trapezoid_weights(int(mask.sum()), length=float(t[-1] - t[mask][0]))
    num = ((h_hat[:, mask] - h_true[:, mask]) ** 2) @ w
    den = (h_true[:, mask] ** 2) @ w
    keep = np.sqrt(den) >= RISE_NORM_FLOOR
    excluded = int((~keep).sum())
    if not keep.any():
        return float("nan"), excluded
    return _fsum_mean(num[keep] / den[keep]), excluded


def sign_aligned_sq_error(phi_hat: np.ndarray, phi_true: np.ndarray, weights: np.ndarray) -> float:
    """min(||phi_hat - phi||^2, ||phi_hat + phi||^2) under the quadrature."""
    minus = float(np.dot(weights, (phi_hat - phi_true) ** 2))
    plus = float(np.dot(weights, (phi_hat + phi_true) ** 2))
    return min(minus, plus)


@dataclass(frozen=True)
class ReplicateMetrics:
    """Per-replicate outcome; failed replicates carry the error text.

    ``attempts`` is the generator's candidate count (:class:`Replicate`),
    kept for failed replicates too.
    """

    index: int
    attempts: int
    failed: bool = False
    error: str | None = None
    window_start: int | None = None
    window_end: int | None = None
    mean_r2: float = float("nan")
    ase: float = float("nan")
    rise: float = float("nan")
    rise_excluded: int = 0
    phi_sq_err: tuple[float, ...] = ()
    eigenvalue_rel_sq_err: tuple[float, ...] = ()
    var_explained_2: float = float("nan")


@dataclass(frozen=True)
class SimReport:
    """Study outcome: the truth, the seed and the per-replicate metrics; the aggregates derive from them."""

    truth: SimTruth = field(compare=False)  # a truth is equal only to itself; reports compare by seed and replicates
    seed: int
    replicates: tuple[ReplicateMetrics, ...]

    @property
    def n_replicates(self) -> int:
        return len(self.replicates)

    @property
    def n_failed(self) -> int:
        return sum(1 for r in self.replicates if r.failed)

    @property
    def aggregates(self) -> dict:
        """Cross-replicate means and spreads of the succeeded replicates' metrics; failed ones count only in ``n_failed``."""
        ok = [r for r in self.replicates if not r.failed]
        aggregates: dict = {"n_succeeded": len(ok)}
        if ok:
            aggregates["acceptance_rate"] = self.truth.n * len(ok) / sum(r.attempts for r in ok)
            for key in ("ase", "rise", "window_start", "window_end"):
                aggregates[key] = _mean_sd([float(getattr(r, key)) for r in ok])
            # One column per scored component; every replicate scores the same number.
            aggregates["mise_phi"] = [_fsum_mean(col) for col in zip(*(r.phi_sq_err for r in ok))]
            aggregates["eigenvalue_rel_sq_err"] = [_fsum_mean(col) for col in zip(*(r.eigenvalue_rel_sq_err for r in ok))]
            ve2 = [r.var_explained_2 for r in ok if not math.isnan(r.var_explained_2)]
            stats = _mean_sd(ve2)
            if ve2:
                stats["min"] = min(ve2)
                stats["max"] = max(ve2)
            aggregates["var_explained_2"] = stats
        return aggregates

    def to_json_dict(self) -> dict:
        return {
            "n_replicates": self.n_replicates,
            "seed": self.seed,
            "n_failed": self.n_failed,
            "truth_two_component_fraction": self.truth.two_component_fraction,
            "aggregates": self.aggregates,
            "housing_study_reference": HOUSING_STUDY_REFERENCE,
            "replicates": [asdict(r) for r in self.replicates],
        }

    def replicates_to_csv(self) -> str:
        header = (
            "replicate,failed,attempts,window_start,window_end,mean_r2,ase,rise,rise_excluded,"
            "phi1_sq_err,phi2_sq_err,lambda1_rel_sq_err,lambda2_rel_sq_err,var_explained_2"
        ).split(",")
        rows = (
            [
                r.index,
                int(r.failed),
                r.attempts,
                "" if r.window_start is None else r.window_start,
                "" if r.window_end is None else r.window_end,
                r.mean_r2, r.ase, r.rise, r.rise_excluded,
                *(*r.phi_sq_err, math.nan, math.nan)[:2],
                *(*r.eigenvalue_rel_sq_err, math.nan, math.nan)[:2],
                r.var_explained_2,
            ]
            for r in self.replicates
        )
        return write_rows(header, rows)


def _seed(seed: int) -> int:
    if int(seed) < 0:
        raise ConfigError(f"seed must be nonnegative, got {seed}")
    return int(seed)


def _philox(seed: int, *key: int) -> np.random.Generator:
    """The Philox stream of ``seed`` keyed by ``key``: ``(0, index)`` per replicate, ``(1, size, repeat)`` in the sweep."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=key)))


def _run_one_replicate(truth: SimTruth, seed: int, index: int) -> ReplicateMetrics:
    rng = _philox(seed, 0, index)
    rep = generate_replicate(truth, rng)
    try:
        search = search_interval(rep.panel, DEFAULT_WINDOW_LENGTHS)
        estimates = estimate_alphas(rep.panel, search.best_window)
        warpset = compute_warp_set(rep.panel, estimates)
        # Up to two components, fewer than the series; a replicate scores those the truth also has.
        model = fit_fpca(warpset, k=min(2, truth.n - 1))
        n_scored = min(truth.n_components, model.n_retained)

        t = warpset.grid.points
        ase = averaged_relative_squared_error(estimates.alpha, rep.alphas)
        rise, rise_excluded = relative_integrated_squared_error(warpset.values, rep.warps, t, t[warpset.t0_index])
        phi_hat, lam_hat, lam = model.eigenfunctions[:n_scored], model.eigenvalues.tolist(), truth.eigenvalues.tolist()
        phi_errs = tuple(sign_aligned_sq_error(*pair, model.weights) for pair in zip(phi_hat, truth.eigenfunctions))
        lam_errs = tuple((lam_hat[k] - lam[k]) ** 2 / lam[k] ** 2 if lam[k] > 0 else math.nan for k in range(n_scored))

        return ReplicateMetrics(
            index=index,
            attempts=rep.attempts,
            window_start=search.best_window[0],
            window_end=search.best_window[1],
            mean_r2=search.mean_r2,
            ase=ase,
            rise=rise,
            rise_excluded=rise_excluded,
            phi_sq_err=phi_errs,
            eigenvalue_rel_sq_err=lam_errs,
            var_explained_2=_two_component_fraction(model.eigenvalues),
        )
    except WarpGrowthError as exc:
        return ReplicateMetrics(index=index, attempts=rep.attempts, failed=True, error=f"{type(exc).__name__}: {exc}")


def _mean_sd(values: list[float]) -> dict:
    arr = np.array([v for v in values if not math.isnan(v)])
    if arr.size == 0:
        return {"mean": float("nan"), "sd": float("nan")}
    sd = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
    return {"mean": _fsum_mean(arr), "sd": sd}


def run_study(truth: SimTruth, n_replicates: int, seed: int = 0, n_jobs: int = 1) -> SimReport:
    """Repeat generation + full estimation and aggregate the error metrics.

    Replicates run in index order, each on its own Philox stream keyed by
    (seed, index), so the report is byte-identical for identical inputs.
    ``n_jobs`` has no effect: replicates hold the interpreter lock for most
    of their time, and a thread pool ran slower than this loop. Failed
    replicates are recorded, not dropped. ConfigError, before any draw,
    for no replicates, a truth ``n`` below 2 (FPCA needs two series) or a
    truth grid shorter than every scanned window length.
    """
    if n_replicates < 1:
        raise ConfigError(f"need at least 1 replicate, got {n_replicates}")
    if truth.n < 2:
        raise ConfigError(f"a study needs at least 2 series per replicate for FPCA, got truth n = {truth.n}")
    m, shortest = truth.grid.n_points, min(DEFAULT_WINDOW_LENGTHS)
    if m < shortest:
        raise ConfigError(f"a study scans windows of at least {shortest} months, longer than the {m}-month truth grid")
    seed = _seed(seed)
    return SimReport(truth, seed, tuple(_run_one_replicate(truth, seed, i) for i in range(n_replicates)))


@dataclass(frozen=True)
class ConvergenceResult:
    """Sup-norm estimation errors against the truth as n grows."""

    sizes: tuple[int, ...]
    repeats: int
    errors: dict  # estimand -> list of mean sup-norm errors, one per size

    @property
    def slopes(self) -> dict:
        """Per estimand, the least squares slope of log mean error against log n; NaN unless every error is positive."""
        log_n = np.log(np.array(self.sizes, dtype=float))
        return {
            k: float(np.polyfit(log_n, np.log(errs), 1)[0]) if all(e > 0 for e in errs) else float("nan")
            for k, errs in self.errors.items()
        }

    def to_json_dict(self) -> dict:
        return {
            "sizes": list(self.sizes),
            "repeats": self.repeats,
            "errors": {k: list(v) for k, v in self.errors.items()},
            "slopes": self.slopes,
        }

    def to_csv(self) -> str:
        names = list(self.errors)
        rows = [[n, *(self.errors[k][i] for k in names)] for i, n in enumerate(self.sizes)]
        return write_rows(["n", *names], [*rows, ["slope", *self.slopes.values()]])


def convergence_sweep(
    truth: SimTruth, sizes, repeats: int = 50, seed: int = 0
) -> ConvergenceResult:
    """Estimate mean/covariance/leading-eigenpair errors at increasing n.

    Warps are drawn directly from the truth (no price-trajectory round
    trip); per size and repeat, the sup-norm errors of the empirical mean,
    covariance surface, first eigenfunction (sign-aligned) and first
    eigenvalue are recorded; :attr:`ConvergenceResult.slopes` fits their
    log-log decay. ConfigError unless ``sizes`` holds at least 2
    increasing entries, each at least 2 (a covariance needs two draws),
    and ``repeats`` is at least 1.
    """
    sizes = tuple(int(n) for n in sizes)
    if len(sizes) < 2 or any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise ConfigError(f"sizes must be at least 2 increasing entries, got {sizes}")
    if sizes[0] < 2:
        raise ConfigError(f"sizes must be at least 2, since a covariance needs two draws, got {sizes}")
    if repeats < 1:
        raise ConfigError(f"repeats must be at least 1, got {repeats}")
    seed = _seed(seed)

    root_lam = np.sqrt(truth.eigenvalues)
    g_true = (truth.eigenfunctions.T * truth.eigenvalues) @ truth.eigenfunctions
    has_components = truth.n_components >= 1 and float(truth.eigenvalues[0]) > 0
    estimands = ["mean", "covariance"] + (["phi_1", "lambda_1"] if has_components else [])

    per_size = []  # per size, the mean over the repeats of each estimand's error
    for si, n in enumerate(sizes):
        rows = []  # one row of sup-norm errors per repeat, in estimands order
        for rep in range(repeats):
            xi = _philox(seed, 1, si, rep).standard_normal((n, truth.n_components))
            h = truth.mean + (xi * root_lam) @ truth.eigenfunctions
            g_hat = _covariance(h)
            row = [float(np.abs(h.mean(axis=0) - truth.mean).max()), float(np.abs(g_hat - g_true).max())]
            if has_components:
                vals, phi = eigendecompose(g_hat, truth.grid)
                phi_err = min(float(np.abs(phi[0] - sign * truth.eigenfunctions[0]).max()) for sign in (1.0, -1.0))
                row += [phi_err, abs(float(vals[0]) - float(truth.eigenvalues[0]))]
            rows.append(row)
        per_size.append([_fsum_mean(col) for col in zip(*rows)])
    errors = {k: list(col) for k, col in zip(estimands, zip(*per_size))}
    return ConvergenceResult(sizes, repeats, errors)


def save_truth(truth: SimTruth, directory: str | Path) -> Path:
    """Write the manifest ``truth.json`` into ``directory``, with ``truth_mean.csv`` and ``truth_eigenfunctions.csv``.

    Returns the manifest path; :func:`load_truth` reads it back.
    """
    directory = Path(directory)
    mean_path = directory / "truth_mean.csv"
    write_output(mean_path, write_unit_table(["mean"], [truth.mean]))
    phi_path = directory / "truth_eigenfunctions.csv"
    phi_names = [f"phi_{k + 1}" for k in range(truth.n_components)]
    write_output(phi_path, write_unit_table(phi_names, [truth.eigenfunctions]))

    manifest = {
        "t0_month": truth.grid.start_month,
        "t1_month": truth.grid.end_month,
        "n": truth.n,
        "x0_range": list(truth.x0_range),
        "alpha_range": list(truth.alpha_range),
        "cap": truth.cap,
        "eigenvalues": [float(v) for v in truth.eigenvalues],
        "mean_csv": mean_path.name,
        "eigenfunctions_csv": phi_path.name,
    }
    manifest_path = directory / "truth.json"
    write_output(manifest_path, manifest)
    return manifest_path


def load_truth(manifest_path: str | Path) -> SimTruth:
    """Load a truth manifest written by :func:`save_truth` (or by hand).

    The mean and eigenfunction CSVs are read like a warp CSV, by
    :func:`~warpgrowth._table.read_unit_table`, with a mean column or one
    column per eigenvalue after ``t_normalized``; a malformed one raises
    SchemaError or GridError naming it. An optional field the manifest
    leaves out (``n``, ``x0_range``, ``alpha_range``, ``cap``) takes
    :class:`SimTruth`'s default. A missing required, a mistyped or an
    unknown field (``seed`` included: the seed belongs to the run), or a
    truth :class:`SimTruth` rejects, raises ConfigError.
    """
    manifest_path = Path(manifest_path)
    manifest = read_file(manifest_path, json.loads)

    def get(key: str, kind, *default):
        return json_field(manifest, key, kind, "truth manifest", ConfigError, *default)

    t0, t1, eigenvalues = get("t0_month", int), get("t1_month", int), get("eigenvalues", [float])
    if t1 <= t0:
        raise ConfigError(f"truth manifest: t1_month {t1} must come after t0_month {t0}")
    optional = {"n": int, "x0_range": [float], "alpha_range": [float], "cap": float}
    known = ("t0_month", "t1_month", "eigenvalues", "mean_csv", "eigenfunctions_csv", *optional)
    unknown = sorted(manifest.keys() - set(known))
    if unknown:
        raise ConfigError(f"truth manifest: unknown keys {unknown}; the known keys are {list(known)}")
    base = manifest_path.parent
    mean = read_file(base / get("mean_csv", str), read_unit_table, 2)[1][:, 1]
    # One component per row, laid out like default_truth's eigenfunctions.
    phi = read_file(base / get("eigenfunctions_csv", str), read_unit_table, 1 + len(eigenvalues))[1][:, 1:].T
    # An optional field the manifest leaves out keeps SimTruth's default.
    given = {}
    for key, kind in optional.items():
        if key in manifest:
            given[key] = tuple(get(key, kind)) if kind == [float] else get(key, kind)
    return SimTruth(TimeGrid(t0, t1 - t0 + 1), mean, phi, eigenvalues, **given)
