"""Monte Carlo validation of the whole estimation chain.

Generates panels from the bundled boom-bust truth, runs window search, rate
estimation, warp recovery and FPCA on each, and reports the study's error
metrics: averaged relative squared error of the rates (ASE), relative
integrated squared error of the warps (RISE), sign-aligned integrated
squared errors of the leading eigenfunctions (MISE), and the variance
fraction captured by two components. A convergence sweep then checks that
mean/covariance/eigenpair estimates tighten as the sample grows.

The replicate count is kept small here so the script runs in seconds; the
acceptance suite runs the full 100-replicate version.
"""

from warpgrowth.simulate import HOUSING_STUDY_REFERENCE, convergence_sweep, default_truth, run_study

truth = default_truth()
print(f"truth: {truth.n_components} components on months "
      f"{truth.grid.start_month}..{truth.grid.end_month}, "
      f"two-component variance fraction {truth.two_component_fraction:.1%}")
print(f"sampling: n={truth.n} series per replicate, initial values "
      f"{truth.x0_range}, rates {truth.alpha_range}, trajectories capped at {truth.cap:.0f}")

report = run_study(truth, n_replicates=25, seed=0)
agg = report.aggregates
print(f"\n{report.n_replicates} replicates, {report.n_failed} failed")
print(f"fitting window found: start {agg['window_start']['mean']:.2f} "
      f"(sd {agg['window_start']['sd']:.2f}), end {agg['window_end']['mean']:.2f} "
      f"(sd {agg['window_end']['sd']:.2f})")
print(f"ASE:  mean {agg['ase']['mean']:.4f}, sd {agg['ase']['sd']:.4f}")
print(f"RISE: mean {agg['rise']['mean']:.4f}, sd {agg['rise']['sd']:.4f}")
print(f"MISE: phi_1 {agg['mise_phi'][0]:.4f}, phi_2 {agg['mise_phi'][1]:.4f}")
print(f"eigenvalue rel sq errors: {agg['eigenvalue_rel_sq_err'][0]:.3f}, "
      f"{agg['eigenvalue_rel_sq_err'][1]:.3f}")
ve2 = agg["var_explained_2"]
print(f"variance explained by 2 components: mean {ve2['mean']:.1%} "
      f"(range {ve2['min']:.1%}..{ve2['max']:.1%}; truth {truth.two_component_fraction:.1%})")

ref = HOUSING_STUDY_REFERENCE
print("\nfor context, the original 19-market housing study reported:")
print(f"  ASE {ref['ase_mean']} (sd {ref['ase_sd']}), RISE {ref['rise_mean']}, "
      f"MISE {ref['mise_phi_1']}/{ref['mise_phi_2']}, VE2 mean {ref['var_explained_2_mean']:.0%}")
print("those depend on the mean/eigenfunctions estimated from the housing data")
print("(available only as figures), so they are context, not targets.")

# ---------------------------------------------------------------------------
# Consistency: sup-norm errors of the empirical mean, covariance surface and
# leading eigenpair should shrink roughly like n^{-1/2}.
# ---------------------------------------------------------------------------
sweep = convergence_sweep(truth, sizes=(25, 100, 400), repeats=20, seed=0)
print("\nconvergence sweep (mean sup-norm error by sample size):")
print("  n      " + "  ".join(f"{k:>11s}" for k in sweep.errors))
for i, n in enumerate(sweep.sizes):
    print(f"  {n:<5d}  " + "  ".join(f"{sweep.errors[k][i]:11.3e}" for k in sweep.errors))
print("  slope  " + "  ".join(f"{sweep.slopes[k]:11.3f}" for k in sweep.errors))
