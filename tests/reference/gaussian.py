"""Reparameterized diagonal Gaussians and factorized Bernoullis on
"generic elements".

Every function here accepts vectors whose entries are either plain
floats or TapeScalars, and returns the matching kind, so lifting
parameters onto a tape changes nothing about how densities are written.
"""

import math
from dataclasses import dataclass

from dreglab.gaussian import LOG_TWO_PI

from .tape import TapeScalar, softplus, tape_sum


def _is_node(u):
    return isinstance(u, TapeScalar)


def gexp(u):
    return u.exp() if _is_node(u) else math.exp(u)


def gsquare(u):
    return u.square() if _is_node(u) else u * u


def gsum(seq):
    seq = list(seq)
    nodes = [u for u in seq if _is_node(u)]
    if not nodes:
        return math.fsum(seq)
    g = nodes[0].graph
    return tape_sum([u if _is_node(u) else g.constant(u) for u in seq])


@dataclass
class DiagGaussian:
    """Diagonal Gaussian with mean and log-scale vectors (generic elements).

    Fixed-variance distributions freeze their log-scale by passing
    tape constants (leaves that backward never reports), so no gradient
    flows into the scale.
    """

    mean: list
    log_scale: list

    def __post_init__(self):
        if len(self.mean) != len(self.log_scale):
            raise ValueError("mean and log-scale dimensions disagree")

    @property
    def d(self):
        return len(self.mean)


def sample_reparam(q, eps):
    """z = mean + exp(log-scale) * eps, elementwise; differentiable in q."""
    if len(eps) != q.d:
        raise ValueError(f"noise dimension {len(eps)} != distribution dimension {q.d}")
    return [m + gexp(ls) * float(e) for m, ls, e in zip(q.mean, q.log_scale, eps)]


def log_prob(q, z):
    if len(z) != q.d:
        raise ValueError(f"point dimension {len(z)} != distribution dimension {q.d}")
    terms = []
    for m, ls, zj in zip(q.mean, q.log_scale, z):
        u = (zj - m) * gexp(-ls)
        terms.append(-0.5 * LOG_TWO_PI - ls - 0.5 * gsquare(u))
    return gsum(terms)


def bernoulli_log_prob(logits, x):
    """Sum_j [x_j log sigma(l_j) + (1-x_j) log(1-sigma(l_j))], stable form.

    Uses x*l - softplus(l); the softplus keeps both logit signs exact.
    """
    if len(logits) != len(x):
        raise ValueError("logits and observation dimensions disagree")
    terms = []
    for l, xj in zip(logits, x):
        xv = float(xj)
        if xv not in (0.0, 1.0):
            raise ValueError(f"observation entry {xj!r} is not binary")
        terms.append(xv * l - softplus(l))
    return gsum(terms)
