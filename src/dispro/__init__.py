"""Disparity-aware Bayesian disease progression modeling.

A numpy/scipy toolkit that simulates synthetic cohorts from a latent-severity
progression model with group-level disparities, fits the model with an
in-house no-U-turn Hamiltonian Monte Carlo sampler, and stress-tests it:
parameter recovery, ablation-bias experiments, numerically verified
conditional-expectation bias bounds, and reconstruction/forecasting baselines.
"""

__version__ = "0.1.0"

from .types import (  # noqa: F401
    ConfigurationError,
    DataError,
    Dataset,
    GroupId,
    GroupParams,
    InvalidParameterError,
    PatientLatents,
    PatientRecord,
    SharedParams,
)
from .priors import (  # noqa: F401
    Normal,
    PriorSpec,
    TruncatedNormal,
    factor_seeded_priors,
    simulation_priors,
    weakly_informative_priors,
)
from .model import (  # noqa: F401
    ModelVariant,
    ProgressionModel,
    expected_visit_rate,
    log_lik_emission,
    log_lik_visits,
    log_prior,
    marginal_feature_moments,
)
from .simulate import SimConfig, TruthSidecar, draw_true_params, simulate_dataset  # noqa: F401
