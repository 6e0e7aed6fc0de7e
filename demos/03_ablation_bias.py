"""One ablation trial: fit the full model and the three disparity-blind
variants on the same cohort and tabulate the per-group severity bias each
blindness induces, plus the shift in who gets flagged as high-risk."""

from dispro.ablation import ModelVariant, run_bias_trial
from dispro.sampler import SamplerConfig

reports, profiles = run_bias_trial(
    seed=7, n_patients=150, n_bins=40,
    config=SamplerConfig(chains=2, warmup=300, draws=300, seed=7,
                         target_accept=0.85))

print(f"{'variant':<24} {'bias under':>11} {'bias other':>11} "
      f"{'corr under':>11} {'corr other':>11}")
for variant, rep in reports.items():
    print(f"{variant.value:<24} {rep.bias_of(True):>11.3f} "
          f"{rep.bias_of(False):>11.3f} {rep.correlation_of(True):>11.3f} "
          f"{rep.correlation_of(False):>11.3f}")

print("\nshare of visits flagged high-risk (top quartile), by group:")
under = reports[ModelVariant.FULL].underserved_group
for variant, prof in profiles.items():
    shares = ", ".join(f"group {g}: {s:.1%}"
                       for g, s in sorted(prof.items()))
    print(f"  {variant.value:<24} {shares}")
print(f"\n(underserved group by drawn initial severity: group {under})")
