"""Independent brute-force oracles used to cross-check numerical routines."""

from collections import namedtuple

import numpy as np

OlsFit = namedtuple("OlsFit", "alpha intercept r2")


def jacobi_diagonalize(a, sweeps=60):
    """Symmetric eigensolver by cyclic Jacobi rotations, descending order."""
    a = np.array(a, dtype=float)
    n = a.shape[0]
    v = np.eye(n)
    for _ in range(sweeps):
        off = np.sqrt(np.sum(np.triu(a, 1) ** 2))
        if off < 1e-14 * max(1.0, np.abs(np.diag(a)).max()):
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if abs(a[p, q]) < 1e-300:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * a[p, q])
                t = np.sign(theta) / (abs(theta) + np.sqrt(theta**2 + 1.0)) if theta != 0 else 1.0
                c = 1.0 / np.sqrt(t**2 + 1.0)
                s = t * c
                rot = np.eye(n)
                rot[p, p] = rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                a = rot.T @ a @ rot
                v = v @ rot
    order = np.argsort(np.diag(a))[::-1]
    return np.diag(a)[order], v[:, order]


def oracle_eigendecompose(g, grid):
    """Weighted covariance eigendecomposition via explicit loops + Jacobi."""
    m = grid.n_points
    dt = 1.0 / (m - 1)
    w = np.array([dt / 2 if i in (0, m - 1) else dt for i in range(m)])
    b = np.empty((m, m))
    for i in range(m):
        for j in range(m):
            b[i, j] = np.sqrt(w[i]) * g[i, j] * np.sqrt(w[j])
    vals, vecs = jacobi_diagonalize(b)
    funcs = np.empty((m, m))
    for k in range(m):
        phi = vecs[:, k] / np.sqrt(w)
        funcs[k] = phi / np.sqrt(np.sum(w * phi**2))
    return vals, funcs


def csv_table_per_cell(header, columns):
    """Column table written cell by cell: csv.writer rows of ``f"{v:.17g}"`` strings."""
    import csv
    import io

    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    for i in range(len(columns[0]) if columns else 0):
        writer.writerow([f"{c[i]:.17g}" for c in columns])
    return out.getvalue()


def read_table_per_cell(text, first=float):
    """Header, (rows, columns) float array and blank mask of a CSV table, read by ``csv.reader`` one stripped cell at a time.

    Blank lines are skipped. Column 0 goes through ``first``; any other
    cell through ``float``, an empty one being NaN and blank. Raises the
    ValueError whose message ``warpgrowth._table.read_table`` gives its
    SchemaError: the first row, in file order, of another width than the
    header or holding a cell that is not a number.
    """
    import csv
    import io
    import reprlib

    rows = [row for row in csv.reader(io.StringIO(text)) if row]
    if not rows:
        return [], np.empty((0, 0)), np.empty((0, 0), dtype=bool)
    header, body = rows[0], rows[1:]
    values = np.empty((len(body), len(header)))
    blank = np.zeros(values.shape, dtype=bool)
    for i, row in enumerate(body):
        if len(row) != len(header):
            raise ValueError(f"row {i + 2}: expected {len(header)} cells, got {len(row)}")
        for j, (name, cell) in enumerate(zip(header, row)):
            cell = cell.strip()
            if j > 0 and not cell:
                values[i, j], blank[i, j] = np.nan, True
                continue
            try:
                values[i, j] = first(cell) if j == 0 else float(cell)
            except ValueError:
                raise ValueError(f"row {i + 2}, column {name!r}: cannot parse {reprlib.repr(cell)}") from None
    return header, values, blank


def csv_rows_per_row(header, rows):
    """Mixed rows written one ``csv.writer`` row at a time, floats as ``f"{v:.17g}"`` strings.

    The writer that served the setbacks, scores, replicate, convergence and
    panel CSVs before they moved to ``warpgrowth._table.write_rows``.
    """
    import csv
    import io

    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([f"{c:.17g}" if isinstance(c, float) else c for c in row])
    return out.getvalue()


def free_fit_per_series(panel, window, i=0):
    """Free-intercept OLS of row ``i`` of a ``Panel`` on one window, written out with numpy sums.

    The values are anchored at the window-start log value, so a flat window
    has zero total variation and scores r2 = 1.
    """
    from warpgrowth.errors import MissingDataError, WindowError

    start, end = window
    lo = panel.grid.index_of(start)
    hi = panel.grid.index_of(end)
    if hi - lo + 1 < 3:
        raise WindowError(f"window [{start}, {end}] has fewer than 3 points")
    if panel.missing[i, lo : hi + 1].any():
        raise MissingDataError(f"series {panel.names[i]!r} has missing values inside window [{start}, {end}]")
    y = np.log(panel.values[i, lo : hi + 1])
    tau = np.arange(hi - lo + 1, dtype=float)
    d = y - y[0]
    tc = tau - tau.mean()
    stt = float(np.sum(tc**2))
    dc = d - d.mean()
    alpha = float(np.dot(tc, dc)) / stt
    intercept = float(y[0] + d.mean() - alpha * tau.mean())
    resid = dc - alpha * tc
    sst = float(np.sum(dc**2))
    r2 = 1.0 if sst == 0.0 else min(1.0, max(0.0, 1.0 - float(np.sum(resid**2)) / sst))
    return OlsFit(alpha, intercept, r2)


def free_ols_per_month(logs):
    """Free-intercept OLS of every series on one (length, n_series) window of logs, summed month by month.

    Each sum starts at zero and adds one month at a time in order: the
    window mean of the logs less the first month's, then Sxy and SST of
    the centred logs, then SSE of the residuals. Returns
    ``OlsFit(alpha, intercept, r2)`` of (n_series,) arrays, r2 being
    ``1 - SSE / SST`` clipped to [0, 1] and 1 where ``SST == 0``.
    """
    length, n = logs.shape
    tbar = (length - 1) / 2.0
    tc = np.arange(length, dtype=float) - tbar
    stt = float(np.sum(tc**2))
    mean = np.zeros(n)
    for j in range(1, length):
        mean += logs[j] - logs[0]
    mean = mean / length + logs[0]
    sxy, sst, sse = np.zeros(n), np.zeros(n), np.zeros(n)
    for j in range(length):
        yc = logs[j] - mean
        sxy += tc[j] * yc
        sst += yc * yc
    alpha = sxy / stt
    for j in range(length):
        resid = logs[j] - mean - alpha * tc[j]
        sse += resid * resid
    with np.errstate(invalid="ignore", divide="ignore"):
        r2 = np.clip(np.where(sst > 0.0, 1.0 - sse / sst, 1.0), 0.0, 1.0)
    return OlsFit(alpha, mean - alpha * tbar, r2)


def generate_replicate_per_candidate(truth, rng):
    """``generate_replicate`` with the same chunked draws, each candidate built and tested on its own.

    Every chunk draws ``_CHUNK`` score vectors, then ``_CHUNK`` rates, then
    ``_CHUNK`` initial values. Candidate ``i`` sums its warp term by term
    from the mean, anchors it at the first grid point and is kept when its
    trajectory stays within ``[tiny, cap]``. Returns
    (values, alphas, warps, scores, attempts), attempts counting through
    the last candidate kept, or raises the same ConfigError when fewer
    than 1% of at least 10,000 draws were kept at a chunk's end.
    """
    from warpgrowth.errors import ConfigError
    from warpgrowth.simulate import _CHUNK

    months = float(truth.grid.elapsed_months)
    root_lam = np.sqrt(truth.eigenvalues)
    tiny = np.finfo(float).tiny
    kept = []
    attempts = 0
    while len(kept) < truth.n:
        xi = rng.standard_normal((_CHUNK, truth.n_components))
        alpha = rng.uniform(*truth.alpha_range, _CHUNK)
        x0 = rng.uniform(*truth.x0_range, _CHUNK)
        for i in range(_CHUNK):
            attempts += 1
            c = xi[i] * root_lam
            h = truth.mean.copy()
            for k in range(truth.n_components):
                h += c[k] * truth.eigenfunctions[k]
            h = h - h[0]
            with np.errstate(over="ignore", invalid="ignore"):
                x = x0[i] * np.exp(alpha[i] * months * h)
            if x.max() <= truth.cap and x.min() >= tiny:
                kept.append((x, alpha[i], h, xi[i]))
                if len(kept) == truth.n:
                    break
        if len(kept) < truth.n and attempts >= 10_000 and len(kept) / attempts < 0.01:
            raise ConfigError(f"acceptance rate {len(kept) / attempts:.2%} after {attempts} draws")
    values, alphas, warps, scores = (np.array(column) for column in zip(*kept))
    return values, alphas, warps, scores.reshape(truth.n, truth.n_components), attempts
