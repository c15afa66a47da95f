from .gradients import (
    DESCENT_IDS,
    ESTIMATOR_IDS,
    ESTIMATORS,
    phi_row_set,
    phi_rows,
    recipe,
    theta_rows,
)
from .surrogates import SurrogateLoss, surrogate_loss
from .weights import (
    ChunkWeights,
    LogWeightBatch,
    context_weights,
    jvi1_coefficients,
    jvi1_estimate,
    log_weights,
    normalized_log_weights,
)

__all__ = [
    "ChunkWeights",
    "DESCENT_IDS",
    "ESTIMATORS",
    "ESTIMATOR_IDS",
    "LogWeightBatch",
    "SurrogateLoss",
    "context_weights",
    "jvi1_coefficients",
    "jvi1_estimate",
    "log_weights",
    "normalized_log_weights",
    "phi_row_set",
    "phi_rows",
    "recipe",
    "surrogate_loss",
    "theta_rows",
]
