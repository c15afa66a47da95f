"""dreglab: a laboratory for multi-sample Monte Carlo gradient estimators.

Scalar-tape autodiff with first-class stop-gradient, reparameterized
Gaussian building blocks, the estimator family (importance-weighted
bounds, doubly reparameterized and wake-style inference-network
gradients, jackknife bias correction), and the measurement protocol
(SNR, bias, variance, paired tests) wired to a config-driven CLI.
"""

__version__ = "0.8.0"

from .tape import TapeGraph, TapeScalar, stop_gradient, finite_diff_check

__all__ = [
    "TapeGraph",
    "TapeScalar",
    "stop_gradient",
    "finite_diff_check",
    "__version__",
]
