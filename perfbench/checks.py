"""Output checks that feed ``error_rate``.

Every reference here is computed by the benchmark's own code (numpy only),
never by the package under test. Each check returns a list of failure
messages; an empty list means it passed.
"""

from __future__ import annotations

import hashlib
import io
import math
from pathlib import Path

import numpy as np

#: Lower clamp of the fixed-intercept growth rate in the model.
ALPHA_FLOOR = 1e-8
#: Window lengths the CLI scans by default (2-, 3- and 5-year windows).
WINDOW_LENGTHS = (24, 36, 60)
RATE_REL_TOL = 1e-12
EIGEN_REL_TOL = 1e-9
#: Windows whose mean R^2 differ by less than this are a near-tie, not a failure.
NEAR_TIE = 1e-12
#: Criterion 6 of the acceptance suite, which sets it for the sweep at seed 0.
CRITERION_6_SLOPE = -0.4
#: The slope bound for a sweep at any other seed. Over seeds 1000-1039 the slopes
#: averaged -0.50 with a standard deviation of 0.044 (mean) and 0.057 (lambda_1),
#: so -0.4 rejects about one correct sweep in twenty. -0.25 lies over four
#: standard deviations out and still rejects errors that do not decay with n.
DECAY_SLOPE = -0.25


class Checks:
    """Counts checks made and keeps failure messages and near-tie notes."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.notes: list[str] = []

    def record(self, name: str, failures: list[str]) -> None:
        self.attempted += 1
        if failures:
            more = f" (+{len(failures) - 1} more)" if len(failures) > 1 else ""
            self.failures.append(f"{name}: {failures[0]}{more}")

    @property
    def failed(self) -> int:
        return len(self.failures)


def trapezoid_weights(m: int) -> np.ndarray:
    w = np.full(m, 1.0 / (m - 1))
    w[[0, -1]] /= 2.0
    return w


def _mean_r2(r2: np.ndarray) -> float:
    return math.fsum(sorted(r2.tolist())) / r2.size


def scan_windows(logs: np.ndarray, start_month: int):
    """Brute-force window scan: a least-squares line per window and series.

    Returns the best window under the tie rule (largest mean R^2, then
    earliest start, then shortest length) and the mean R^2 of every window.
    """
    n, m = logs.shape
    mean_r2: dict[tuple[int, int], float] = {}
    best_key = None
    best = None
    for length in WINDOW_LENGTHS:
        if length > m:
            continue
        design = np.column_stack([np.ones(length), np.arange(length, dtype=float)])
        for offset in range(m - length + 1):
            y = logs[:, offset : offset + length].T
            coef = np.linalg.lstsq(design, y, rcond=None)[0]
            sse = ((y - design @ coef) ** 2).sum(axis=0)
            sst = ((y - y.mean(axis=0)) ** 2).sum(axis=0)
            safe = np.where(sst > 0.0, sst, 1.0)
            r2 = np.clip(np.where(sst > 0.0, 1.0 - sse / safe, 1.0), 0.0, 1.0)
            start = start_month + offset
            window = (start, start + length - 1)
            mean_r2[window] = _mean_r2(r2)
            key = (mean_r2[window], -start, -length)
            if best_key is None or key > best_key:
                best_key, best = key, window
    return best, mean_r2


def check_window(fit: dict, logs: np.ndarray, start_month: int, notes: list[str]) -> list[str]:
    """The fitted window must be the brute-force best; near-ties become notes."""
    best, mean_r2 = scan_windows(logs, start_month)
    got = (fit["window"]["start"], fit["window"]["end"])
    if got == best:
        return []
    if got not in mean_r2:
        return [f"window {got} is not one of the scanned windows"]
    gap = abs(mean_r2[best] - mean_r2[got])
    if gap < NEAR_TIE:
        notes.append(f"near-tie: fitted window {got}, brute-force {best}, mean R2 gap {gap:.3g}")
        return []
    return [f"window {got} differs from brute-force {best} (mean R2 gap {gap:.3g})"]


def check_rates(fit: dict, logs: np.ndarray, names: tuple[str, ...], start_month: int) -> list[str]:
    """Rates must equal the closed-form fixed-intercept estimate on the fitted window."""
    rows = fit["alpha_estimates"]["per_series"]
    got_names = tuple(r["name"] for r in rows)
    if got_names != tuple(names):
        return [f"rate table lists {len(got_names)} series, expected the {len(names)} kept series in order"]
    lo = fit["window"]["start"] - start_month
    hi = fit["window"]["end"] - start_month
    tau = np.arange(hi - lo + 1, dtype=float)
    d = logs[:, lo : hi + 1] - logs[:, [lo]]
    denominator = math.fsum((tau**2).tolist())
    failures = []
    for row, di in zip(rows, d):
        ref = max(math.fsum((tau * di).tolist()) / denominator, ALPHA_FLOOR)
        if abs(row["alpha"] - ref) > RATE_REL_TOL * abs(ref):
            failures.append(f"{row['name']}: alpha {row['alpha']!r} vs closed form {ref!r}")
    return failures


def check_dropped(fit: dict, gapped: tuple[str, ...]) -> list[str]:
    got = list(fit["analysis"]["dropped_series"])
    if got != list(gapped):
        return [f"dropped {len(got)} series, the generator gapped {len(gapped)}"]
    return []


def reference_eigenvalues(warps_csv: str) -> np.ndarray:
    """Spectrum of the explicitly weighted covariance W^1/2 G W^1/2, descending."""
    data = np.loadtxt(io.StringIO(warps_csv), delimiter=",", skiprows=1, ndmin=2)
    h = data[:, 1:].T
    centred = h - h.mean(axis=0)
    g = centred.T @ centred / h.shape[0]
    root_w = np.sqrt(trapezoid_weights(h.shape[1]))
    return np.linalg.eigh(root_w[:, None] * g * root_w[None, :])[0][::-1]


def check_eigenvalues(model: dict, warps_csv: str) -> list[str]:
    """The retained (at least two) leading eigenvalues must match numpy's eigh."""
    ref = reference_eigenvalues(warps_csv)
    got = model["eigenvalues"]
    k = max(2, model["n_retained"])
    failures = []
    for i in range(k):
        if abs(got[i] - ref[i]) > EIGEN_REL_TOL * abs(ref[i]):
            failures.append(f"lambda_{i + 1} {got[i]!r} vs eigh {ref[i]!r}")
    return failures


def digest_dir(directory: Path) -> dict[str, str]:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(Path(directory).iterdir())
        if p.is_file()
    }


def check_identical(reference: dict[str, str], other: dict[str, str]) -> list[str]:
    if reference == other:
        return []
    differ = sorted(k for k in reference.keys() | other.keys() if reference.get(k) != other.get(k))
    return [f"artifacts differ: {', '.join(differ)}"]


def check_study(report: dict) -> list[str]:
    """Criterion 5 of the acceptance suite on a 100-replicate study report."""
    failures = []
    agg = report["aggregates"]
    if report["n_failed"] != 0:
        failures.append(f"{report['n_failed']} replicates failed")
        if not report["n_failed"] < report["n_replicates"]:
            return failures
    ase = agg["ase"]["mean"]
    mise1 = agg["mise_phi"][0]
    ve2_gap = abs(agg["var_explained_2"]["mean"] - report["truth_two_component_fraction"])
    if not ase < 0.05:
        failures.append(f"ASE {ase} >= 0.05")
    if not mise1 < 0.15:
        failures.append(f"MISE1 {mise1} >= 0.15")
    if not ve2_gap < 0.05:
        failures.append(f"|VE2 - truth| {ve2_gap} >= 0.05")
    return failures


def check_sweep(result: dict, limit: float = CRITERION_6_SLOPE) -> list[str]:
    """n^-1/2-type decay: log-log slopes of the mean and leading-eigenvalue errors at most ``limit``."""
    slopes = result["slopes"]
    return [f"slope {k} {slopes[k]} > {limit}" for k in ("mean", "lambda_1") if not slopes[k] <= limit]
