"""Measurement statistics: moments, SNR, paired tests, slopes, EMA traces.

Every bulk measurement is one pipeline: a noise key gives a chunk of
noise, the chunk gives weight contexts, the contexts give estimator
rows, and the rows fold into RunningMoments.  `fold_rows` is that
pipeline, written once, for any row stream; the CLI experiments and the
acceptance gate call it with their own keys and estimator rows.  The
chunk is the key and merge unit: its noise comes from one Philox
stream, and its rows fold into moments at once, in chunk order.  The
slab, at most SLAB normals of a chunk, is the memory and pipeline unit:
one worker thread draws slabs ahead while the calling thread contracts
the current one.  Each slab's rows are copied into row buffers that a
fold allocates once and reuses for every chunk (a ragged last chunk
uses their leading rows), so a fold of many chunks does not fault fresh
pages in for each.  Rows are per sample, so the moments are those of
whole-chunk contexts, and a fixed chunk schedule gives bit-stable
results whatever the thread timing.
"""

import math
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import accumulate

import numpy as np
from scipy.special import stdtr

from .gaussian import noise_slabs

# normals per slab (8 MiB of float64), the unit in which `fold_rows`
# draws noise and builds weight contexts
SLAB = 1 << 20


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


@dataclass
class EstimatorStats:
    """Per-coordinate summary of one estimator's gradient samples."""

    mean: np.ndarray
    variance: np.ndarray
    bias_sq: np.ndarray
    snr: np.ndarray  # NaN where the variance is exactly 0


def stats_from_moments(moments, reference_mean):
    """Summary statistics of one estimator's folded gradient samples.

    Variance is the unbiased sample variance; SNR_j = |mean_j| / sd_j,
    undefined (NaN) where the variance is exactly zero; bias is squared
    distance to the declared reference mean.
    """
    reference_mean = np.asarray(reference_mean, dtype=np.float64)
    variance = moments.variance
    defined = variance > 0.0
    snr = np.full_like(variance, np.nan)
    snr[defined] = np.abs(moments.mean[defined]) / np.sqrt(variance[defined])
    return EstimatorStats(
        mean=moments.mean,
        variance=variance,
        bias_sq=(moments.mean - reference_mean) ** 2,
        snr=snr,
    )


@dataclass
class TTestResult:
    t_statistic: float
    p_value: float
    n: int
    coordinate: int = None


def t_test_from_moments(mean, variance, n, coordinate=None):
    """One-sample two-sided t-test against zero, from summary moments.

    p is exact at every n: twice the Student t CDF of -|t| on n - 1
    degrees of freedom (`scipy.special.stdtr`).  Degenerate inputs do
    not raise: zero mean with zero variance gives (t=0, p=1), and zero
    variance with nonzero mean gives p=0 with an infinite statistic.
    """
    if n < 2:
        raise ValueError("t-test needs n >= 2")
    if variance < 0.0:
        raise ValueError("variance must be non-negative")
    mean = float(mean)
    sd = math.sqrt(variance)
    if sd == 0.0:
        if mean == 0.0:
            return TTestResult(0.0, 1.0, n, coordinate)
        return TTestResult(math.copysign(math.inf, mean), 0.0, n, coordinate)
    t = mean / (sd / math.sqrt(n))
    p = 2.0 * float(stdtr(n - 1, -abs(t)))
    return TTestResult(t, min(p, 1.0), n, coordinate)


@dataclass
class SlopeFit:
    slope: float
    stderr: float


def loglog_slope(points):
    """Least-squares slope of log(statistic) against log(K)."""
    points = list(points)
    if len(points) < 3:
        raise ValueError("slope fit needs at least 3 points")
    ks = np.array([float(k) for k, _ in points])
    ys = np.array([float(v) for _, v in points])
    if np.any(np.diff(ks) <= 0):
        raise ValueError("K values must be strictly increasing")
    if np.any(ys <= 0):
        raise ValueError("statistics must be positive for a log-log fit")
    lx = np.log(ks)
    ly = np.log(ys)
    lx_c = lx - lx.mean()
    sxx = float(np.sum(lx_c * lx_c))
    slope = float(np.sum(lx_c * ly) / sxx)
    resid = ly - (ly.mean() + slope * lx_c)
    dof = len(points) - 2
    stderr = math.sqrt(float(np.sum(resid * resid)) / dof / sxx) if dof > 0 else 0.0
    return SlopeFit(slope, stderr)


class VarianceTraceEma:
    """Debiased EMA covariance trace over a gradient stream.

    Tracks per-coordinate first and second moments with the given decay;
    the reported value is mean_j(E[g_j^2] - E[g_j]^2) after the standard
    1 - decay^t correction on both moments.
    """

    def __init__(self, decay):
        if not 0.0 < decay < 1.0:
            raise ValueError("decay must lie in (0, 1)")
        self.decay = decay
        self.t = 0
        self._m1 = None
        self._m2 = None

    def update(self, grad):
        grad = np.asarray(grad, dtype=np.float64)
        if self._m1 is None:
            self._m1 = np.zeros_like(grad)
            self._m2 = np.zeros_like(grad)
        self.t += 1
        d = self.decay
        self._m1 = d * self._m1 + (1.0 - d) * grad
        self._m2 = d * self._m2 + (1.0 - d) * grad * grad
        return self.value

    @property
    def value(self):
        if self.t == 0:
            raise ValueError("no updates yet")
        corr = 1.0 - self.decay**self.t
        m1 = self._m1 / corr
        m2 = self._m2 / corr
        # nonnegative in exact arithmetic; clip rounding residue
        return max(0.0, float(np.mean(m2 - m1 * m1)))


def fold_rows(model, params, x, k, n, rows_of, *, seed, stream,
              draw_prefix=(), chunk_size):
    """Moments of n draws of every named row stream, folded chunk by chunk.

    Chunk c reads noise_block(seed, stream, (*draw_prefix, c), (m, k,
    model.latent)).  Its rows come from weight contexts on ``x`` (one
    observation, which a context shares across its rows), and each
    (name, rows) pair that ``rows_of(ctx)`` yields is folded into that
    name's RunningMoments, one `RunningMoments.from_samples` per chunk,
    merged in chunk order.  Every name in a chunk reads the same noise,
    so differences of rows are common-random-number pairs.  Returns
    {name: RunningMoments}.

    The chunk is the key and merge unit; the slab is the memory and
    pipeline unit.  A chunk's noise is drawn from its one generator
    (`noise_slabs`) in the fewest even slabs of at most max(1, SLAB //
    (k * latent)) rows, and each slab gets its own context, whose rows
    are copied into one buffer per name.  The buffers are allocated once
    per fold, at the largest chunk size, and reused by every chunk; a
    ragged last chunk fills and folds their leading rows, a C-contiguous
    view.  That needs the fold contract: row i depends on noise row i
    alone, and every slab yields the same names, each with rows of the
    shape it had in the first slab; a slab that breaks it raises
    ValueError.  Under it, the buffers hold the rows that one
    whole-chunk context would give, bit for bit (`_even_cut` says why no
    slab has a single row).

    While slab s is contracted, one worker thread draws up to two slabs
    ahead (NumPy's normal fill releases the GIL).  The results cannot
    depend on that overlap: a chunk's Philox stream is keyed by its
    index alone (counter-based, Salmon et al. 2011), only the worker
    draws, and the merges run on the calling thread in chunk order.  A
    one-slab fold starts no thread, and the worker is joined before this
    returns or raises.
    """
    sizes = [min(chunk_size, n - done) for done in range(0, n, chunk_size)]
    step = max(1, SLAB // (k * model.latent))
    cuts = [_even_cut(m, step) for m in sizes]
    plan = [(chunk, start, m)  # every slab, in draw order
            for chunk, cut in enumerate(cuts)
            for start, m in zip(accumulate(cut, initial=0), cut)]
    draws = (eps for chunk, cut in enumerate(cuts)
             for eps in noise_slabs(seed, stream, (*draw_prefix, chunk),
                                    (sizes[chunk], k, model.latent), cut))
    moments = {}
    buffers = {}  # name -> row buffer, made in chunk 0 and reused by every chunk

    def fold(chunk, start, m, eps):
        where = f"chunk {chunk}, rows {start}:{start + m}"
        named = set()
        for name, rows in rows_of(model.weight_context(params, x, eps)):
            rows = np.asarray(rows)
            if chunk == start == 0 and name not in buffers:
                buffers[name] = np.empty((sizes[0], *rows.shape[1:]))
            if name not in buffers or name in named:
                raise _contract_error(f"{where}: {name!r} is new or repeated")
            want = (m, *buffers[name].shape[1:])
            if rows.shape != want:
                raise _contract_error(f"{where}: {name!r} rows have shape "
                                      f"{rows.shape}, not {want}")
            buffers[name][start:start + m] = rows
            named.add(name)
        if len(named) != len(buffers):
            missing = sorted(map(repr, buffers.keys() - named))
            raise _contract_error(f"{where}: no rows for {', '.join(missing)}")
        if start + m == sizes[chunk]:
            for name, rows in buffers.items():
                part = RunningMoments.from_samples(rows[:sizes[chunk]])
                moments[name] = part if name not in moments else moments[name].merge(part)

    depth = 3 if len(plan) > 1 else 0  # slab s and the two after it
    with ThreadPoolExecutor(1) as pool:  # no thread until the first submit
        ahead = deque()
        for s, slab in enumerate(plan):
            while len(ahead) < depth and s + len(ahead) < len(plan):
                ahead.append(pool.submit(next, draws))
            fold(*slab, ahead.popleft().result() if ahead else next(draws))
    return moments


def _even_cut(m, step):
    """Row counts of the fewest slabs of at most ``step`` rows that cover
    ``m`` rows, differing by at most one.

    Even cuts keep a one-row slab out of any chunk of two or more rows
    while step >= 2: a one-row batch sends `VaeContext`'s 2-D matmuls
    through BLAS gemv instead of gemm, whose sums round differently.
    """
    count = -(-m // step)
    return [m // count + (i < m % count) for i in range(count)]


def _contract_error(detail):
    return ValueError("rows_of broke the fold contract (row i depends on "
                      "noise row i alone; every slab yields the same "
                      f"names, each with rows of one shape): {detail}")

