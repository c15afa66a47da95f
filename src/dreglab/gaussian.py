"""Reparameterized diagonal Gaussians, factorized Bernoullis, and noise streams.

Model code is written against "generic elements": every function here
accepts vectors whose entries are either plain floats or TapeScalars,
and returns the matching kind.  Lifting parameters onto a tape therefore
changes nothing about how densities are written.

Randomness is counter-based.  Every consumer draws from a Philox stream
keyed by a short integer tuple (seed, stream-id, counters...), so any
noise block is reproducible from its key alone, with no dependence on
draw order.  Stream ids are centralized in `Streams` to keep purposes
from colliding.  Noise is always a plain float array: `noise_block`
returns one of any shape, `noise_slabs` yields the same block in
consecutive row slabs, and every consumer (weight contexts, the tape
route, surrogates) takes eps as such an array.
"""

import math
from dataclasses import dataclass

import numpy as np

from .tape import TapeScalar, tape_sum

LOG_TWO_PI = math.log(2.0 * math.pi)


class Streams:
    """Stream-id registry. One id per independent random purpose."""

    PARAM_PERTURB = 1
    TRIAL_X = 2
    MEASURE = 3
    REFERENCE = 4
    INIT = 5
    DATA = 6
    BINARIZE = 7
    TRAIN_NOISE = 8
    EVAL_NOISE = 9
    TRIAL_THETA = 10


def stream_rng(*key):
    """Philox generator keyed by a tuple of non-negative ints."""
    for k in key:
        if int(k) != k or k < 0:
            raise ValueError(f"stream key entries must be non-negative ints, got {key!r}")
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([int(k) for k in key])))


def noise_slabs(seed, stream, draw, shape, rows):
    """The block ``noise_block(seed, stream, draw, shape)`` in row slabs.

    Yields one slab of ``r`` leading rows per entry r of ``rows``, drawn
    in order from the block's one generator, so the concatenation of the
    slabs along axis 0 is bit-equal to the whole block.  ``rows`` must
    sum to ``shape[0]``.
    """
    n, *rest = (shape,) if isinstance(shape, int) else shape
    if sum(rows) != n:
        raise ValueError(f"slab rows {rows!r} do not sum to the block's {n}")
    key = draw if isinstance(draw, tuple) else (draw,)
    rng = stream_rng(seed, stream, *key)
    for r in rows:
        yield rng.standard_normal((r, *rest))


def noise_block(seed, stream, draw, shape):
    """Standard-normal array of ``shape`` keyed by (seed, stream, draw).

    ``draw`` may be an int or a tuple of ints (multi-level draw key).
    """
    n = shape if isinstance(shape, int) else shape[0]
    return next(noise_slabs(seed, stream, draw, shape, [n]))


# generic-element helpers: float in, float out; TapeScalar in, TapeScalar out

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
    from .tape import softplus

    if len(logits) != len(x):
        raise ValueError("logits and observation dimensions disagree")
    terms = []
    for l, xj in zip(logits, x):
        xv = float(xj)
        if xv not in (0.0, 1.0):
            raise ValueError(f"observation entry {xj!r} is not binary")
        terms.append(xv * l - softplus(l))
    return gsum(terms)
