from .gradients import (
    DESCENT_IDS,
    ESTIMATOR_IDS,
    ESTIMATORS,
    JACKKNIFE_IDS,
    phi_rows,
    recipe,
    theta_rows,
)
from .surrogates import SurrogateLoss, surrogate_loss
from .weights import (
    LogWeightBatch,
    iwae_bound,
    jvi1_coefficients,
    jvi1_estimate,
    log_weights,
    loo_logsumexp,
    normalized_log_weights,
    normalized_weights,
    squared_normalized_weights,
)

__all__ = [
    "DESCENT_IDS",
    "ESTIMATORS",
    "ESTIMATOR_IDS",
    "JACKKNIFE_IDS",
    "LogWeightBatch",
    "SurrogateLoss",
    "iwae_bound",
    "jvi1_coefficients",
    "jvi1_estimate",
    "log_weights",
    "loo_logsumexp",
    "normalized_log_weights",
    "normalized_weights",
    "phi_rows",
    "recipe",
    "squared_normalized_weights",
    "surrogate_loss",
    "theta_rows",
]
