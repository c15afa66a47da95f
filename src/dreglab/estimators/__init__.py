from .gradients import (
    ESTIMATOR_IDS,
    ESTIMATORS,
    difference,
    phi_row_set,
    phi_rows,
    recipe,
    theta_rows,
)
from .weights import (
    ChunkWeights,
    context_weights,
    jvi1_coefficients,
    normalized_log_weights,
)

__all__ = [
    "ChunkWeights",
    "ESTIMATORS",
    "ESTIMATOR_IDS",
    "context_weights",
    "difference",
    "jvi1_coefficients",
    "normalized_log_weights",
    "phi_row_set",
    "phi_rows",
    "recipe",
    "theta_rows",
]
