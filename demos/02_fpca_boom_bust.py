"""Boom/bust decomposition of a warping-function sample by functional PCA.

Draws a sample of warping functions around a boom-bust mean, fits the FPCA
model, and reads off the two leading modes: the first eigenfunction tracks
how strongly a market expresses the average boom cycle, the second
separates deep-bust from mild-bust markets. Two engineered outliers are
held out of estimation and projected onto the fitted components afterwards,
and the component scores are regressed on the growth rates.
"""

import numpy as np

from warpgrowth import (
    WarpSet,
    fit_fpca,
    modes_of_variation,
    score_rate_regression,
)
from warpgrowth.fpca import DEFAULT_GAMMAS
from warpgrowth.simulate import default_truth

rng = np.random.default_rng(8)
truth = default_truth()
m = truth.grid.n_points
grid = truth.grid
t = np.linspace(0.0, 1.0, m)

# 17 ordinary markets drawn from the bundled boom-bust truth, plus two
# deliberately extreme ones that will be treated as outliers.
n_regular = 17
xi = rng.standard_normal((n_regular, truth.n_components))
rows = truth.mean + (xi * np.sqrt(truth.eigenvalues)) @ truth.eigenfunctions
outlier_a = truth.mean + 4.5 * np.sqrt(truth.eigenvalues[0]) * truth.eigenfunctions[0]
outlier_b = truth.mean - 5.0 * np.sqrt(truth.eigenvalues[1]) * truth.eigenfunctions[1]

# The sample is one warp set, a row per market. It holds only the warps:
# FPCA needs no growth rates, which enter only the regression at the end.
names = [f"market{i:02d}" for i in range(n_regular)] + ["outlier_boom", "outlier_bust"]
sample = WarpSet(grid, names, np.vstack([rows, outlier_a, outlier_b]))

# ---------------------------------------------------------------------------
# Fit with the outliers excluded; they still receive projected scores.
# ---------------------------------------------------------------------------
model = fit_fpca(sample, exclude=("outlier_boom", "outlier_bust"), k=4)
print(f"estimation sample: {model.n_sample} markets, {model.n_retained} components retained")
print("variance explained:", ", ".join(f"{v:.1%}" for v in model.var_explained))
print(f"first two components together: {model.var_explained[:2].sum():.1%}")

print("\nprojected scores (score_1 ~ boom strength, score_2 ~ bust depth):")
for i, name in enumerate(model.score_names):
    if model.out_of_sample[i]:
        s = model.scores[i]
        print(f"  {name:13s} ({s[0]:+.3f}, {s[1]:+.3f})  [projected, out of sample]")

# ---------------------------------------------------------------------------
# Modes of variation: mu + gamma sqrt(lambda_k) phi_k for gamma in -2..2.
# The gamma sweep visualizes what each component does to the mean cycle.
# ---------------------------------------------------------------------------
for k in (1, 2):
    curves = modes_of_variation(model, k)
    mid = m // 2
    end = m - 1
    print(f"\nmode {k}: value at mid-window / end of window per gamma")
    for g, curve in zip(DEFAULT_GAMMAS, curves):
        print(f"  gamma {g:+.0f}: {curve[mid]:6.3f} / {curve[end]:6.3f}")

# ---------------------------------------------------------------------------
# Are stronger cycles tied to lower baseline growth? Regress the in-sample
# scores on synthetic per-market growth rates that decline with score_1.
# ---------------------------------------------------------------------------
in_scores = model.scores[~model.out_of_sample]
alphas = 0.0075 - 0.01 * in_scores[:, 0] + 0.0005 * rng.standard_normal(n_regular)
lines = score_rate_regression(in_scores[:, :2], alphas)
print("\nscore-vs-rate regressions:")
for k, line in enumerate(lines, start=1):
    print(f"  component {k}: slope {line.slope:9.2f}, correlation {line.correlation:+.2f}")
print("a negative correlation for component 1 says slower-growing markets")
print("expressed the boom-bust cycle more strongly.")
