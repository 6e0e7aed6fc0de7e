"""Fit the full model on one synthetic cohort and compare the posterior to
the generating truth.

Desk-scale settings (150 patients, 2 chains) so this runs in about a minute.
"""

import numpy as np

from dispro import SimConfig, simulate_dataset
from dispro.fitting import fit_model, global_names, max_global_rhat
from dispro.inference import severity_estimate
from dispro.sampler import SamplerConfig, ess, rhat

cfg = SimConfig(n_patients=150, n_bins=40, bin_width=1 / 40.0, seed=2025)
data, truth = simulate_dataset(cfg)
print(f"fitting {data.n_patients} patients...")

draws = fit_model(data, config=SamplerConfig(chains=2, warmup=400, draws=400,
                                             seed=1, target_accept=0.85))
print(f"max global R-hat {max_global_rhat(draws):.3f}; "
      f"{draws.divergent.mean():.1%} divergent\n")

print(f"{'parameter':<20} {'posterior':>10} {'truth':>10} {'R-hat':>7} {'ESS':>6}")
for name in global_names(draws):
    tv = truth.params.get(name, float('nan'))
    print(f"{name:<20} {draws.mean(name):>10.3f} {tv:>10.3f} "
          f"{rhat(draws, name):>7.3f} {ess(draws, name):>6.0f}")

pat = data.patients[0]
m, s = severity_estimate(draws, pat.patient_id, t=10)
true_sev = truth.true_severity(pat.patient_id, 10 * cfg.bin_width)
print(f"\nseverity of {pat.patient_id} at bin 10: "
      f"{m:.2f} +/- {s:.2f} (truth {true_sev:.2f})")

sev_err = []
for p in data.patients:
    est = severity_estimate(draws, p.patient_id, t=0)[0]
    sev_err.append(est - truth.true_severity(p.patient_id, 0.0))
print(f"mean initial-severity error over cohort: {np.mean(sev_err):+.3f}")
