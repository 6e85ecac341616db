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

Each replicate's panel is one n x m array, filled row by row as candidates
are accepted. Randomness is counter-based (Philox), one stream per
``(seed, replicate index)``, and replicates run in index order.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from ._table import check_unit_grid, json_field, read_file, read_table, write_rows, write_table
from .errors import ConfigError, SchemaError, WarpGrowthError
from .fpca import eigendecompose, fit_fpca
from .growthfit import DEFAULT_WINDOW_LENGTHS, estimate_alphas, search_interval
from .quadrature import trapezoid_weights
from .timeseries import Panel, TimeGrid
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


@dataclass(frozen=True)
class SimTruth:
    """Ground truth for the simulation study.

    ``mean`` (per grid point), ``eigenfunctions`` (one row per component)
    and ``eigenvalues`` are in normalized units on the grid's [0, 1]
    rescaling; eigenfunctions must be orthonormal under the trapezoid
    quadrature. ``grid`` fixes the calendar months the normalized window
    corresponds to.
    """

    grid: TimeGrid
    mean: np.ndarray
    eigenfunctions: np.ndarray
    eigenvalues: np.ndarray
    n: int = 20
    x0_range: tuple[float, float] = (85.0, 100.0)
    alpha_range: tuple[float, float] = (0.003, 0.018)
    cap: float = 300.0
    seed: int = 0

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float)
        phi = np.asarray(self.eigenfunctions, dtype=float)
        lam = np.asarray(self.eigenvalues, dtype=float)
        m = self.grid.n_points
        if mean.shape != (m,):
            raise ConfigError(f"mean has shape {mean.shape}, grid has {m} points")
        if phi.ndim != 2 or phi.shape[1] != m:
            raise ConfigError(f"eigenfunctions must be (K, {m}), got {phi.shape}")
        if lam.shape != (phi.shape[0],):
            raise ConfigError(f"{lam.shape[0]} eigenvalues for {phi.shape[0]} eigenfunctions")
        if lam.size and (np.any(lam < 0) or np.any(np.diff(lam) > 0)):
            raise ConfigError("eigenvalues must be nonnegative and nonincreasing")
        if phi.shape[0]:
            w = trapezoid_weights(m)
            gram = (phi * w) @ phi.T
            if float(np.abs(gram - np.eye(phi.shape[0])).max()) > 1e-8:
                raise ConfigError("eigenfunctions are not orthonormal under the grid quadrature")
        if self.n < 1:
            raise ConfigError(f"sample size must be positive, got {self.n}")
        if len(self.x0_range) != 2 or not (0 < self.x0_range[0] <= self.x0_range[1]):
            raise ConfigError(f"invalid x0 range {self.x0_range}")
        if len(self.alpha_range) != 2 or not (0 < self.alpha_range[0] <= self.alpha_range[1]):
            raise ConfigError(f"invalid alpha range {self.alpha_range}")
        if not self.cap > 0:
            raise ConfigError(f"cap must be positive, got {self.cap}")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "eigenfunctions", phi)
        object.__setattr__(self, "eigenvalues", lam)

    @property
    def n_components(self) -> int:
        return self.eigenvalues.shape[0]

    @property
    def two_component_fraction(self) -> float:
        """Fraction of total variance carried by the first two components."""
        total = float(self.eigenvalues.sum())
        if total <= 0.0 or self.n_components < 2:
            return float("nan")
        return float(self.eigenvalues[:2].sum()) / total

    def anchored_mean(self) -> np.ndarray:
        return self.mean - self.mean[0]


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


def default_truth(seed: int = 0) -> SimTruth:
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
    phi = (q / np.sqrt(w)[:, None]).T
    phi /= np.sqrt((phi**2 @ w))[:, None]
    flip = (phi @ w) < 0
    phi[flip] = -phi[flip]

    eigenvalues = 0.01 * 0.2 ** np.arange(n_components)
    return SimTruth(grid, mean, phi, eigenvalues, seed=seed)


@dataclass(frozen=True)
class Replicate:
    """One generated dataset with its generating quantities.

    ``warps`` holds the anchored normalized truth ``h_i - h_i(0)`` that the
    estimation pipeline targets; ``scores`` are the standard normal draws.
    """

    panel: Panel
    alphas: np.ndarray
    warps: np.ndarray
    scores: np.ndarray


def generate_replicate(truth: SimTruth, rng: np.random.Generator) -> Replicate:
    """Draw one accepted sample of n series from the truth.

    Candidates are drawn as (score vector, rate, initial value) and
    rejected wholesale whenever the trajectory exceeds the cap.

    Raises
    ------
    ConfigError
        If the acceptance rate drops below 1% over 10,000 draws.
    """
    m = truth.grid.n_points
    months = float(truth.grid.elapsed_months)
    root_lam = np.sqrt(truth.eigenvalues)

    values = np.empty((truth.n, m))
    alphas = np.empty(truth.n)
    warps = np.empty((truth.n, m))
    scores = np.empty((truth.n, truth.n_components))
    accepted = 0
    attempts = 0
    while accepted < truth.n:
        xi = rng.standard_normal(truth.n_components)
        alpha = rng.uniform(*truth.alpha_range)
        x0 = rng.uniform(*truth.x0_range)
        attempts += 1
        h = truth.mean + (root_lam * xi) @ truth.eigenfunctions
        h_anchored = h - h[0]
        x = x0 * np.exp(alpha * months * h_anchored)
        if x.max() > truth.cap:
            if attempts >= 10_000 and accepted / attempts < 0.01:
                raise ConfigError(
                    f"acceptance rate {accepted / attempts:.2%} after {attempts} draws; "
                    f"truth is incompatible with the cap {truth.cap}"
                )
            continue
        values[accepted] = x
        alphas[accepted] = alpha
        warps[accepted] = h_anchored
        scores[accepted] = xi
        accepted += 1
    names = tuple(f"sim{i + 1:02d}" for i in range(truth.n))
    return Replicate(Panel(TimeGrid(truth.grid.start_month, m), names, values), alphas, warps, scores)


def _fsum_mean(values) -> float:
    vals = sorted(float(v) for v in values)
    return math.fsum(vals) / len(vals) if vals else float("nan")


def averaged_relative_squared_error(alpha_hat: np.ndarray, alpha_true: np.ndarray) -> float:
    """ASE = (1/n) sum_i (alpha_hat_i - alpha_i)^2 / alpha_i^2.

    Summed in sorted order, so the value is invariant to series reordering.
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
    """Per-replicate outcome; failed replicates carry the error text."""

    index: int
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
    """Study outcome: per-replicate metrics plus cross-replicate aggregates."""

    n_replicates: int
    seed: int
    truth_two_component_fraction: float
    replicates: tuple[ReplicateMetrics, ...]
    aggregates: dict = field(default_factory=dict)
    reference: dict = field(default_factory=lambda: dict(HOUSING_STUDY_REFERENCE))

    @property
    def n_failed(self) -> int:
        return sum(1 for r in self.replicates if r.failed)

    def to_json_dict(self) -> dict:
        return {
            "n_replicates": self.n_replicates,
            "seed": self.seed,
            "n_failed": self.n_failed,
            "truth_two_component_fraction": self.truth_two_component_fraction,
            "aggregates": self.aggregates,
            "housing_study_reference": self.reference,
            "replicates": [asdict(r) for r in self.replicates],
        }

    def replicates_to_csv(self) -> str:
        header = (
            "replicate,failed,window_start,window_end,mean_r2,ase,rise,rise_excluded,"
            "phi1_sq_err,phi2_sq_err,lambda1_rel_sq_err,lambda2_rel_sq_err,var_explained_2"
        ).split(",")
        rows = (
            [
                r.index,
                int(r.failed),
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


def _seed(truth: SimTruth, seed: int | None) -> int:
    seed = truth.seed if seed is None else int(seed)
    if seed < 0:
        raise ConfigError(f"seed must be nonnegative, got {seed}")
    return seed


def _replicate_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(0, index))))


def _run_one_replicate(truth: SimTruth, seed: int, index: int) -> ReplicateMetrics:
    rng = _replicate_rng(seed, index)
    rep = generate_replicate(truth, rng)
    try:
        search = search_interval(rep.panel, DEFAULT_WINDOW_LENGTHS)
        estimates = estimate_alphas(rep.panel, search.best_window)
        warpset = compute_warp_set(
            rep.panel, estimates, window_start_month=rep.panel.grid.start_month, t0_month=search.best_window[1]
        )
        n_metric = min(2, truth.n_components)
        k_fit = max(2, min(truth.n_components, truth.n - 1)) if truth.n >= 3 else None
        model = fit_fpca(warpset, k=k_fit)

        t = warpset.grid.points
        t0_norm = warpset.grid.to_normalized(search.best_window[1])
        ase = averaged_relative_squared_error(estimates.fits.alpha, rep.alphas)
        rise, rise_excluded = relative_integrated_squared_error(warpset.values, rep.warps, t, t0_norm)

        weights = model.weights
        phi_errs = []
        lam_errs = []
        for k in range(n_metric):
            phi_errs.append(sign_aligned_sq_error(model.eigenfunctions[k], truth.eigenfunctions[k], weights))
            lam_true = float(truth.eigenvalues[k])
            lam_hat = float(model.eigenvalues[k])
            lam_errs.append((lam_hat - lam_true) ** 2 / lam_true**2 if lam_true > 0 else float("nan"))
        total = float(model.eigenvalues.sum())
        ve2 = float(model.eigenvalues[:2].sum()) / total if total > 0 else float("nan")

        return ReplicateMetrics(
            index=index,
            window_start=search.best_window[0],
            window_end=search.best_window[1],
            mean_r2=search.mean_r2,
            ase=ase,
            rise=rise,
            rise_excluded=rise_excluded,
            phi_sq_err=tuple(phi_errs),
            eigenvalue_rel_sq_err=tuple(lam_errs),
            var_explained_2=ve2,
        )
    except WarpGrowthError as exc:
        return ReplicateMetrics(index=index, failed=True, error=f"{type(exc).__name__}: {exc}")


def _mean_sd(values: list[float]) -> dict:
    arr = np.array([v for v in values if not math.isnan(v)])
    if arr.size == 0:
        return {"mean": float("nan"), "sd": float("nan")}
    sd = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
    return {"mean": _fsum_mean(arr), "sd": sd}


def run_study(truth: SimTruth, n_replicates: int, seed: int | None = None, n_jobs: int = 1) -> SimReport:
    """Repeat generation + full estimation and aggregate the error metrics.

    Replicates run in index order, each on its own Philox stream keyed by
    (seed, index), so the report is byte-identical for identical inputs.
    ``n_jobs`` has no effect: replicates hold the interpreter lock for most
    of their time, and a thread pool ran slower than this loop. Failed
    replicates are recorded, not dropped.
    """
    if n_replicates < 1:
        raise ConfigError(f"need at least 1 replicate, got {n_replicates}")
    seed = _seed(truth, seed)

    results = [_run_one_replicate(truth, seed, i) for i in range(n_replicates)]

    ok = [r for r in results if not r.failed]
    aggregates: dict = {"n_succeeded": len(ok)}
    if ok:
        aggregates["ase"] = _mean_sd([r.ase for r in ok])
        aggregates["rise"] = _mean_sd([r.rise for r in ok])
        aggregates["window_start"] = _mean_sd([float(r.window_start) for r in ok])
        aggregates["window_end"] = _mean_sd([float(r.window_end) for r in ok])
        n_metric = min(len(r.phi_sq_err) for r in ok)
        aggregates["mise_phi"] = [
            _fsum_mean([r.phi_sq_err[k] for r in ok]) for k in range(n_metric)
        ]
        aggregates["eigenvalue_rel_sq_err"] = [
            _fsum_mean([r.eigenvalue_rel_sq_err[k] for r in ok]) for k in range(n_metric)
        ]
        ve2 = [r.var_explained_2 for r in ok if not math.isnan(r.var_explained_2)]
        stats = _mean_sd(ve2)
        if ve2:
            stats["min"] = min(ve2)
            stats["max"] = max(ve2)
        aggregates["var_explained_2"] = stats
    return SimReport(
        n_replicates=n_replicates,
        seed=seed,
        truth_two_component_fraction=truth.two_component_fraction,
        replicates=tuple(results),
        aggregates=aggregates,
    )


@dataclass(frozen=True)
class ConvergenceResult:
    """Sup-norm estimation errors against the truth as n grows."""

    sizes: tuple[int, ...]
    repeats: int
    errors: dict  # estimand -> list of mean sup-norm errors, one per size
    slopes: dict  # estimand -> log-log slope

    def to_json_dict(self) -> dict:
        return {
            "sizes": list(self.sizes),
            "repeats": self.repeats,
            "errors": {k: list(v) for k, v in self.errors.items()},
            "slopes": dict(self.slopes),
        }

    def to_csv(self) -> str:
        names = list(self.errors)
        rows = [[n, *(self.errors[k][i] for k in names)] for i, n in enumerate(self.sizes)]
        return write_rows(["n", *names], [*rows, ["slope", *(self.slopes[k] for k in names)]])


def convergence_sweep(
    truth: SimTruth, sizes, repeats: int = 50, seed: int | None = None
) -> ConvergenceResult:
    """Estimate mean/covariance/leading-eigenpair errors at increasing n.

    Warps are drawn directly from the truth (no price-trajectory round
    trip); per size and repeat, the sup-norm errors of the empirical mean,
    covariance surface, first eigenfunction (sign-aligned) and first
    eigenvalue are recorded. The returned slopes are least squares fits of
    log mean error against log n.
    """
    sizes = tuple(int(n) for n in sizes)
    if len(sizes) < 2 or any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise ConfigError(f"sizes must be at least 2 increasing entries, got {sizes}")
    seed = _seed(truth, seed)

    m = truth.grid.n_points
    grid = TimeGrid(truth.grid.start_month, m, normalized=True)
    root_lam = np.sqrt(truth.eigenvalues)
    g_true = (truth.eigenfunctions.T * truth.eigenvalues) @ truth.eigenfunctions
    has_components = truth.n_components >= 1 and float(truth.eigenvalues[0]) > 0

    estimands = ["mean", "covariance"] + (["phi_1", "lambda_1"] if has_components else [])
    errors: dict[str, list[float]] = {k: [] for k in estimands}
    for si, n in enumerate(sizes):
        sums = {k: [] for k in estimands}
        for rep in range(repeats):
            rng = np.random.Generator(
                np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(1, si, rep)))
            )
            xi = rng.standard_normal((n, truth.n_components))
            h = truth.mean + (xi * root_lam) @ truth.eigenfunctions
            mu_hat = h.mean(axis=0)
            g_hat = (h.T @ h) / n - np.outer(mu_hat, mu_hat)
            sums["mean"].append(float(np.abs(mu_hat - truth.mean).max()))
            sums["covariance"].append(float(np.abs(g_hat - g_true).max()))
            if has_components:
                vals, phi = eigendecompose((g_hat + g_hat.T) / 2.0, grid)
                diff_minus = float(np.abs(phi[0] - truth.eigenfunctions[0]).max())
                diff_plus = float(np.abs(phi[0] + truth.eigenfunctions[0]).max())
                sums["phi_1"].append(min(diff_minus, diff_plus))
                sums["lambda_1"].append(abs(float(vals[0]) - float(truth.eigenvalues[0])))
        for k in estimands:
            errors[k].append(_fsum_mean(sums[k]))

    log_n = np.log(np.array(sizes, dtype=float))
    slopes = {}
    for k in estimands:
        errs = np.array(errors[k])
        if np.any(errs <= 0):
            slopes[k] = float("nan")
        else:
            slopes[k] = float(np.polyfit(log_n, np.log(errs), 1)[0])
    return ConvergenceResult(sizes, repeats, errors, slopes)


def save_truth(truth: SimTruth, directory: str | Path, stem: str = "truth") -> Path:
    """Write a truth manifest plus its mean/eigenfunction CSV companions.

    Returns the manifest path; :func:`load_truth` reads it back.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    t = np.linspace(0.0, 1.0, truth.grid.n_points)

    mean_path = directory / f"{stem}_mean.csv"
    mean_path.write_text(write_table(["t_normalized", "mean"], [t, truth.mean]), newline="")
    phi_path = directory / f"{stem}_eigenfunctions.csv"
    phi_header = ["t_normalized", *(f"phi_{k + 1}" for k in range(truth.n_components))]
    phi_path.write_text(write_table(phi_header, [t, truth.eigenfunctions]), newline="")

    manifest = {
        "t0_month": truth.grid.start_month,
        "t1_month": truth.grid.end_month,
        "n": truth.n,
        "x0_range": list(truth.x0_range),
        "alpha_range": list(truth.alpha_range),
        "cap": truth.cap,
        "seed": truth.seed,
        "eigenvalues": [float(v) for v in truth.eigenvalues],
        "mean_csv": mean_path.name,
        "eigenfunctions_csv": phi_path.name,
    }
    manifest_path = directory / f"{stem}.json"
    with open(manifest_path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest_path


def _read_truth_table(path: Path, n_columns: int) -> np.ndarray:
    """A truth CSV: a uniform ``t_normalized`` column first, ``n_columns`` or more in all."""
    data = read_file(path, read_table)[1]
    if data.shape[1] < n_columns:
        raise SchemaError(f"truth CSV {str(path)!r} has {data.shape[1]} columns, needs at least {n_columns}")
    check_unit_grid(data[:, 0])
    return data


def load_truth(manifest_path: str | Path) -> SimTruth:
    """Load a truth manifest written by :func:`save_truth` (or by hand).

    A missing or mistyped manifest field raises ConfigError; a malformed
    file raises SchemaError or GridError.
    """
    manifest_path = Path(manifest_path)
    manifest = read_file(manifest_path, json.loads)

    def get(key: str, kind, *default):
        return json_field(manifest, key, kind, "truth manifest", ConfigError, *default)

    t0, t1, eigenvalues = get("t0_month", int), get("t1_month", int), get("eigenvalues", [float])
    base = manifest_path.parent
    mean = _read_truth_table(base / get("mean_csv", str), 2)[:, 1].copy()
    # One component per row, laid out like default_truth's eigenfunctions.
    phi = _read_truth_table(base / get("eigenfunctions_csv", str), 1 + len(eigenvalues))[:, 1:].copy().T
    return SimTruth(
        grid=TimeGrid(t0, t1 - t0 + 1),
        mean=mean,
        eigenfunctions=phi,
        eigenvalues=np.array(eigenvalues, dtype=float),
        n=get("n", int, 20),
        x0_range=tuple(get("x0_range", [float], (85.0, 100.0))),
        alpha_range=tuple(get("alpha_range", [float], (0.003, 0.018))),
        cap=get("cap", float, 300.0),
        seed=get("seed", int, 0),
    )
