"""Measurement statistics: moments, SNR, paired tests, EMA traces.

Every bulk measurement is one pipeline: a noise key gives a chunk of
noise, the chunk gives weight contexts, the contexts give estimator
rows, and the rows fold into RunningMoments.  `fold_rows` is that
pipeline, written once, for any row stream; the CLI experiments and the
acceptance gate call it with their own keys and estimator rows.  The
chunk is the key unit: its noise comes from one Philox stream.  The
slab, at most MERGE_ROWS rows and SLAB normals (2 MiB) of a chunk, is
the merge, memory and pipeline unit: its rows fold into moments at
once, in slab order, and one worker thread draws up to two slabs ahead
while the calling thread contracts the current one.  The noise is drawn
in place into a ring of three slab slots, one array allocated once per
fold (a ragged slab uses a slot's leading part), so a fold of many
chunks does not fault fresh pages in for each, and it never holds more
than three slabs of noise or one slab of rows.  A fixed chunk schedule
gives bit-stable results whatever the thread timing.
"""

import math
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import accumulate, cycle, groupby

import numpy as np

from .gaussian import noise_slabs

# normals per slab (2 MiB of float64) at most, the unit in which
# `fold_rows` draws noise, builds weight contexts and merges moments
SLAB = 1 << 18
# rows per slab at most, whatever k * latent
MERGE_ROWS = 1024
# rows per noise chunk, the key unit, in every CLI fold (perfbench
# counts toy steps in chunks of this size)
CHUNK = 16384


@dataclass
class RunningMoments:
    """Count, mean, and sum of squared deviations per coordinate."""

    n: int
    mean: np.ndarray
    m2: np.ndarray

    @classmethod
    def from_samples(cls, rows):
        rows = np.asarray(rows, dtype=np.float64)
        if rows.ndim != 2:
            raise ValueError("expected an (n, d) sample matrix")
        mean = rows.mean(axis=0)
        d = rows - mean
        d *= d
        m2 = np.sum(d, axis=0)
        return cls(rows.shape[0], mean, m2)

    def merge(self, other):
        """Pairwise-stable combine of two disjoint sample sets."""
        n = self.n + other.n
        delta = other.mean - self.mean
        mean = self.mean + delta * (other.n / n)
        m2 = self.m2 + other.m2 + delta * delta * (self.n * other.n / n)
        return RunningMoments(n, mean, m2)

    @property
    def variance(self):
        if self.n < 2:
            raise ValueError("variance needs at least two samples")
        return self.m2 / (self.n - 1)

    @property
    def snr(self):
        """|mean| / sd per coordinate from the unbiased variance, NaN
        where the variance is exactly 0."""
        variance = self.variance
        defined = variance > 0.0
        snr = np.full_like(variance, np.nan)
        snr[defined] = np.abs(self.mean[defined]) / np.sqrt(variance[defined])
        return snr

    def t_test(self):
        """One-sample two-sided t-test against zero per coordinate: (t, p)
        arrays.

        p is exact at every n: the two-sided Student t tail of |t| on
        n - 1 degrees of freedom (`_t_tail`, a continued fraction for the
        incomplete beta function).  Where the variance is exactly 0, a
        zero mean gives t = 0, p = 1, and any other mean an infinite t
        of its sign and p = 0; a NaN variance gives t = p = NaN.
        """
        sd = np.sqrt(self.variance)
        # a nonzero mean over sd = 0 is already an infinite t of its sign
        with np.errstate(divide="ignore", invalid="ignore"):
            t = self.mean / (sd / math.sqrt(self.n))
        t[(sd == 0.0) & (self.mean == 0.0)] = 0.0
        return t, np.array([_t_tail(float(v), self.n - 1) for v in t])


def _log_gamma_ratio(a):
    """log Gamma(a + 1/2) - log Gamma(a), without the cancellation of lgamma."""
    if a < 64.0:
        return math.log(math.gamma(a + 0.5) / math.gamma(a))
    # Stirling: sum over even n of (2^(1-n) - 2) B_n / (n (n-1) a^(n-1))
    r = 1.0 / (a * a)
    series = 1 / 8 - r * (1 / 192 - r * (1 / 640 - r * (17 / 14336 - r * 31 / 18432)))
    return 0.5 * math.log(a) - series / a


def _bfrac(a, b, x, y, lam):
    """Continued fraction for I_x(a, b) / (x^a y^b / B(a, b)), lam = (a + b) y - b.

    BFRAC of DiDonato and Morris (ACM TOMS 708, 1992), rescaled every
    step; it converges for lam >= 0.
    """
    c = 1.0 + lam
    c0 = b / a
    c1 = 1.0 + 1.0 / a
    yp1 = y + 1.0
    n, p, s = 0.0, 1.0, a + 1.0
    an, bn, anp1, bnp1 = 0.0, 1.0, 1.0, c / c1
    r = c1 / c
    while True:
        n += 1.0
        t = n / a
        w = n * (b - n) * x
        e = a / s
        alpha = p * (p + c0) * e * e * (w * x)
        e = (1.0 + t) / (c1 + t + t)
        beta = n + w / s + e * (c + n * yp1)
        p = 1.0 + t
        s += 2.0
        an, anp1 = anp1, alpha * an + beta * anp1
        bn, bnp1 = bnp1, alpha * bn + beta * bnp1
        r0, r = r, anp1 / bnp1
        if abs(r - r0) <= 1e-15 * r:
            return r
        an /= bnp1
        bn /= bnp1
        anp1, bnp1 = r, 1.0


def _t_tail(t, nu):
    """Two-sided Student t tail P(|T| >= |t|) on nu degrees of freedom.

    p = I_x(nu/2, 1/2) with x = nu / (nu + t^2).  y = 1 - x, log x =
    -log1p(t^2 / nu) and lam = (nu/2 + 1/2) y - 1/2 are taken from
    q = t^2 / nu, so none of them cancels at large nu; where lam < 0
    (|t| < 1) the fraction runs on the complement I_y(1/2, nu/2).
    Within 1e-13 relative of the exact tail for nu from 1 to 1e7 and
    every p >= 1e-280.
    """
    q = t * t / nu
    if q == 0.0:
        return 1.0
    if q == math.inf:
        return 0.0
    if math.isnan(q):
        return math.nan
    a = 0.5 * nu
    log_x = -math.log1p(q)
    x = 1.0 / (1.0 + q)
    y = q * x
    # x^a y^(1/2) / B(a, 1/2)
    front = math.exp(a * log_x + 0.5 * (math.log(q) + log_x)
                     + _log_gamma_ratio(a)) / math.sqrt(math.pi)
    lam = (a + 0.5) * y - 0.5
    if lam >= 0.0:
        return front * _bfrac(a, 0.5, x, y, lam)
    return 1.0 - front * _bfrac(0.5, a, y, x, -lam)


class VarianceTraceEma:
    """Debiased EMA covariance trace over a gradient stream.

    Tracks per-coordinate first and second moments with the given decay;
    `trace` reports mean_j(E[g_j^2] - E[g_j]^2) after the standard
    1 - decay^t correction on both moments, over every coordinate or
    over a chosen block of them.
    """

    def __init__(self, decay):
        if not 0.0 < decay < 1.0:
            raise ValueError("decay must lie in (0, 1)")
        self.decay = decay
        self.t = 0
        self._m1 = None
        self._m2 = None

    def update(self, grad):
        """Fold one gradient into the moments, in place, with the
        rounding of m1 = d m1 + (1 - d) g and m2 = d m2 + (1 - d) g g;
        `trace` reads the trace."""
        grad = np.asarray(grad, dtype=np.float64)
        if self._m1 is None:
            self._m1 = np.zeros_like(grad)
            self._m2 = np.zeros_like(grad)
            self._term = np.empty_like(grad)
        self.t += 1
        d = self.decay
        term = np.multiply(grad, 1.0 - d, out=self._term)
        self._m1 *= d
        self._m1 += term
        self._m2 *= d
        self._m2 += np.multiply(term, grad, out=term)

    def trace(self, idx=slice(None)):
        """The trace over the coordinates ``idx`` (all by default)."""
        if self.t == 0:
            raise ValueError("no updates yet")
        corr = 1.0 - self.decay**self.t
        m1 = self._m1[idx] / corr
        m2 = self._m2[idx] / corr
        # nonnegative in exact arithmetic; clip rounding residue
        return max(0.0, float(np.mean(m2 - m1 * m1)))


def fold_rows(model, params, x, k, n, rows_of, *, seed, stream,
              draw_prefix=(), chunk_size=CHUNK):
    """Moments of n draws of every named row stream, folded slab by slab.

    Chunk c, of m = chunk_size rows (CHUNK by default; the last chunk
    takes the rest), reads noise_block(seed, stream, (*draw_prefix, c),
    (m, k, model.latent)).  A chunk is cut into the fewest even slabs of
    at most max(1, min(MERGE_ROWS, SLAB // (k * latent))) rows, and each
    slab gets one weight context on ``x`` (one observation, which a
    context shares across its rows).  Each (name, rows) pair that
    ``rows_of(ctx)`` yields is folded with `RunningMoments.from_samples`
    and merged into that name's moments in slab order.  Every name in a
    chunk reads the same noise, so differences of rows are
    common-random-number pairs.  Returns {name: RunningMoments}; they
    depend on chunk_size, MERGE_ROWS and SLAB, never on the thread
    timing.

    The chunk is the key unit, and the slab the merge, memory and
    pipeline unit.  A chunk's noise is drawn from its one generator
    (`noise_slabs`).  Slab s is drawn in place into slot s mod 3 of a
    ring, the three rows of one array allocated once per fold at the
    largest slab size, as a C-contiguous view of its leading entries;
    the ring's order runs on across chunk boundaries.  The fold needs
    its contract: row i depends on noise row i alone, and every slab
    yields the same names, each with (rows, d) rows of the d it had in
    the first slab; a slab that breaks it raises ValueError, naming its
    rows within the chunk.

    While slab s is contracted, one worker thread draws up to two slabs
    ahead (NumPy's normal fill releases the GIL), into the two slots
    that slab s does not hold; a slot is refilled only after the slab it
    held has been folded, so the noise a fold holds is three slabs at
    most, whatever the thread timing.  The results cannot depend on that
    overlap: a chunk's Philox stream is keyed by its index alone
    (counter-based, Salmon et al. 2011), only the worker draws, and the
    merges run on the calling thread in slab order.  A one-slab fold
    starts no thread, and the worker is joined before this returns or
    raises.
    """
    sizes = [min(chunk_size, n - done) for done in range(0, n, chunk_size)]
    step = max(1, min(MERGE_ROWS, SLAB // (k * model.latent)))
    # every slab, in draw order: its chunk, its first row in the chunk and rows
    plan = [(chunk, first, m)
            for chunk, size in enumerate(sizes)
            for first, m in _spans(_even_cut(size, step))]
    depth = 3 if len(plan) > 1 else 0  # slab s and the two after it
    # the noise ring: slab s is drawn into slot s % 3 (a one-slab fold
    # has one slot), so a fold never holds more than three slabs of noise.
    # One array, not one per slot: glibc trims a free heap top past twice
    # the largest mmapped block freed, a slab's temporaries swing it by
    # about two slots, and 1-slot blocks refaulted every warm bias-test slab
    slot = max((m for *_, m in plan), default=0) * k * model.latent
    ring = cycle(np.empty((max(depth, 1), slot)))
    draws = (eps for chunk, slabs in groupby(plan, key=lambda slab: slab[0])
             for eps in noise_slabs(seed, stream, (*draw_prefix, chunk),
                                    (sizes[chunk], k, model.latent),
                                    [m for *_, m in slabs], ring))
    moments = {}  # name -> RunningMoments, named by the first slab

    def fold(chunk, first, m, eps):
        where = f"chunk {chunk}, rows {first}:{first + m}"
        parts = {}
        for name, rows in rows_of(model.weight_context(params, x, eps)):
            rows = np.asarray(rows)
            if name in parts or not (name in moments or chunk == first == 0):
                raise _contract_error(f"{where}: {name!r} is new or repeated")
            d = (moments[name].mean.size if name in moments
                 else rows.shape[1] if rows.ndim == 2 else "d")
            # without it, (m, 1) rows would broadcast into (d,) moments
            if rows.shape != (m, d):
                raise _contract_error(f"{where}: {name!r} rows have shape "
                                      f"{rows.shape}, not ({m}, {d})")
            parts[name] = RunningMoments.from_samples(rows)
        missing = sorted(map(repr, moments.keys() - parts.keys()))
        if missing:
            raise _contract_error(f"{where}: no rows for {', '.join(missing)}")
        for name, part in parts.items():
            moments[name] = part if name not in moments else moments[name].merge(part)

    # at iteration s the worker is sent slab s + 2, whose slot held slab
    # s - 1, folded at iteration s - 1: no slot is refilled while in use
    with ThreadPoolExecutor(1) as pool:  # no thread until the first submit
        ahead = deque()
        for s, slab in enumerate(plan):
            while len(ahead) < depth and s + len(ahead) < len(plan):
                ahead.append(pool.submit(next, draws))
            fold(*slab, ahead.popleft().result() if ahead else next(draws))
    return moments


def _spans(cut):
    """(first row, rows) of each part of a cut, in order."""
    return zip(accumulate(cut, initial=0), cut)


def _even_cut(m, step):
    """Row counts of the fewest parts of at most ``step`` rows that cover
    ``m`` rows, differing by at most one: a chunk's slabs.

    Even cuts keep a one-row slab out of any chunk of two or more rows
    while step >= 3 (at step 2, out of a chunk of even rows), so no slab
    folds a single row, and none sends `VaeContext`'s 2-D matmuls
    through BLAS gemv, which a one-row batch does.
    """
    count = -(-m // step)
    return [m // count + (i < m % count) for i in range(count)]


def _contract_error(detail):
    return ValueError("rows_of broke the fold contract (row i depends on "
                      "noise row i alone; every slab yields the same "
                      f"names, each with 2-D rows of one shape): {detail}")

