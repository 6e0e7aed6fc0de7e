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
    PatientRecord,
    SharedParams,
)
from .priors import PRIORS, Normal, TruncatedNormal  # noqa: F401
from .model import (  # noqa: F401
    ModelVariant,
    ProgressionModel,
    expected_visit_rate,
    marginal_feature_moments,
)
from .simulate import SimConfig, TruthSidecar, draw_true_params, simulate_dataset  # noqa: F401
