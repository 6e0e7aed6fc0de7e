"""Walk through the generative model on a synthetic cohort.

Simulates a two-group cohort, shows what one patient record looks like, and
checks the simulator against the closed-form feature moments and expected
visit rate (the executable content of the identifiability algebra).
"""

import numpy as np

from dispro import (
    SimConfig,
    expected_visit_rate,
    marginal_feature_moments,
    simulate_dataset,
)
from dispro.simulate import sample_features_at, sample_visit_rates

cfg = SimConfig(n_patients=500, n_bins=50, bin_width=0.02, seed=12)
data, truth = simulate_dataset(cfg)

print(f"cohort: {data.n_patients} patients, {data.n_features} features, "
      f"{cfg.n_bins} bins of width {cfg.bin_width}")
pat = data.patients[0]
print(f"\npatient {pat.patient_id} (group {pat.group.index}):")
print("  visit bins:", pat.visit_bins().tolist())
print("  features at first visit:", np.round(pat.features[0], 2).tolist())
init_sev, rate = truth.latent(pat.patient_id)
print(f"  true initial severity {init_sev:.2f}, rate {rate:.2f}")

shared, groups = truth.param_bundles()
rng = np.random.Generator(np.random.Philox(99))

print("\nclosed-form moments vs 100k Monte Carlo draws (group 1, t = 0.5):")
mean, cov = marginal_feature_moments(shared, groups[1], 0.5)
X = sample_features_at(shared, groups[1], 0.5, 100_000, rng)
for j in range(data.n_features):
    print(f"  feature {j}: mean {mean[j]: .3f} vs {X[:, j].mean(): .3f}   "
          f"var {cov[j, j]: .3f} vs {X[:, j].var(): .3f}")

print("\nexpected visit rate vs Monte Carlo:")
for t in (0.0, 0.25, 0.5, 1.0):
    lam = sample_visit_rates(shared, groups[1], t, 100_000, rng)
    print(f"  t={t:4.2f}: closed form {expected_visit_rate(shared, groups[1], t):8.3f}"
          f"   empirical {lam.mean():8.3f}")
