"""dreglab: a laboratory for multi-sample Monte Carlo gradient estimators.

Counter-based noise streams, two model families with closed-form
vectorized weight contexts, the estimator family (importance-weighted
bounds, doubly reparameterized and wake-style inference-network
gradients, jackknife bias correction) as one coefficient table, and the
measurement protocol (SNR, bias, variance, paired tests) wired to a
config-driven CLI.  The scalar-tape reference that checks the bulk
route lives with the tests, in ``tests/reference``.
"""

__version__ = "0.14.0"

__all__ = ["__version__"]
