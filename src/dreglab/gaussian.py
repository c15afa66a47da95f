"""Counter-based noise streams.

Every consumer draws from a Philox stream
keyed by a short integer tuple (seed, stream-id, counters...), so any
noise block is reproducible from its key alone, with no dependence on
draw order.  Stream ids are centralized in `Streams` to keep purposes
from colliding.  Noise is always a plain float array: `noise_block`
returns one of any shape, `noise_slabs` draws the same block in
consecutive row slabs into buffers its caller owns, and every weight
context takes eps as such an array.
"""

import math

import numpy as np

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


def noise_slabs(seed, stream, draw, shape, rows, buffers):
    """The block ``noise_block(seed, stream, draw, shape)`` in row slabs.

    Yields one slab of ``r`` leading rows per entry r of ``rows``, drawn
    in order from the block's one generator, so the concatenation of the
    slabs along axis 0 is bit-equal to the whole block.  ``rows`` must
    sum to ``shape[0]``.  Each slab is drawn in place into the leading
    entries of the next flat float64 array from the iterator ``buffers``
    and yielded as a C-contiguous view of them; a caller that passes one
    array again (a ring) must be done with the slab it held before it
    asks for the next.
    """
    n, *rest = (shape,) if isinstance(shape, int) else shape
    if sum(rows) != n:
        raise ValueError(f"slab rows {rows!r} do not sum to the block's {n}")
    key = draw if isinstance(draw, tuple) else (draw,)
    rng = stream_rng(seed, stream, *key)
    width = math.prod(rest)
    for r in rows:
        slab = next(buffers)[:r * width].reshape(r, *rest)
        rng.standard_normal(out=slab)
        yield slab


def noise_block(seed, stream, draw, shape):
    """Standard-normal array of ``shape`` keyed by (seed, stream, draw).

    ``draw`` may be an int or a tuple of ints (multi-level draw key).
    """
    n = shape if isinstance(shape, int) else shape[0]
    block = np.empty(shape).reshape(-1)
    return next(noise_slabs(seed, stream, draw, shape, [n], iter([block])))
