"""Measurement statistics: moments, SNR, paired tests, slopes, EMA traces.

Every bulk measurement is one pipeline: a noise key gives a chunk of
noise, the chunk gives one weight context, the context gives estimator
rows, and the rows fold into RunningMoments.  `fold_rows` is that
pipeline, written once; the reference mean, the CLI experiments and the
acceptance gate call it with their own keys and row streams.  The merge
is deterministic, so a fixed chunk schedule gives bit-stable results.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy import stats as _scipy_stats

from .estimators.gradients import phi_rows
from .gaussian import Streams, noise_block

# below this many pairs the t CDF is evaluated exactly; above, the
# normal approximation is indistinguishable at reporting precision
EXACT_T_CUTOFF = 10_000


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
        m2 = np.sum((rows - mean) ** 2, axis=0)
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

    estimator_id: str
    k: int
    n: int
    mean: np.ndarray
    variance: np.ndarray
    bias_sq: np.ndarray
    snr: np.ndarray
    snr_defined: np.ndarray  # False where variance is exactly 0


def stats_from_moments(moments, reference_mean, k=None, estimator_id=None):
    """Summary statistics of one estimator's folded gradient samples.

    Variance is the unbiased sample variance; SNR_j = |mean_j| / sd_j,
    undefined (NaN, flagged) where the variance is exactly zero; bias
    is squared distance to the declared reference mean.
    """
    reference_mean = np.asarray(reference_mean, dtype=np.float64)
    variance = moments.variance
    defined = variance > 0.0
    snr = np.full_like(variance, np.nan)
    snr[defined] = np.abs(moments.mean[defined]) / np.sqrt(variance[defined])
    return EstimatorStats(
        estimator_id=estimator_id,
        k=k,
        n=moments.n,
        mean=moments.mean,
        variance=variance,
        bias_sq=(moments.mean - reference_mean) ** 2,
        snr=snr,
        snr_defined=defined,
    )


@dataclass
class TTestResult:
    t_statistic: float
    p_value: float
    n: int
    coordinate: int = None


def t_test_from_moments(mean, variance, n, coordinate=None):
    """One-sample two-sided t-test against zero, from summary moments.

    Degenerate inputs do not raise: zero mean with zero variance gives
    (t=0, p=1), and zero variance with nonzero mean gives p=0 with an
    infinite statistic.
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
    if n < EXACT_T_CUTOFF:
        p = 2.0 * float(_scipy_stats.t.sf(abs(t), n - 1))
    else:
        p = math.erfc(abs(t) / math.sqrt(2.0))
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


@dataclass
class ReferenceMean:
    mean: np.ndarray
    stderr: np.ndarray
    n: int
    k: int


def fold_rows(model, params, x, k, n, rows_of, *, seed, stream,
              draw_prefix=(), chunk_size):
    """Moments of n draws of every named row stream, folded chunk by chunk.

    Chunk c draws noise_block(seed, stream, (*draw_prefix, c), (m, k,
    model.latent)), builds one weight context on ``x`` (one observation,
    which the context shares across the chunk), and merges each (name, rows)
    pair that ``rows_of(ctx)`` yields into that name's RunningMoments.
    Every name in a chunk reads the same noise, so differences of rows
    are common-random-number pairs.  Returns {name: RunningMoments}.
    """
    moments = {}
    done = 0
    chunk = 0
    while done < n:
        m = min(chunk_size, n - done)
        eps = noise_block(seed, stream, (*draw_prefix, chunk), (m, k, model.latent))
        for name, rows in rows_of(model.weight_context(params, x, eps)):
            part = RunningMoments.from_samples(rows)
            moments[name] = part if name not in moments else moments[name].merge(part)
        done += m
        chunk += 1
    return moments


def reference_mean(model, params, x, k, n_ref, seed=0, chunk_size=16384,
                   draw_prefix=()):
    """Monte Carlo mean of the standard total-derivative phi gradient.

    The bias baseline: every estimator's bias is measured against this
    vector.  Folded by `fold_rows` on the reference stream, so the
    result for a given (seed, n_ref, chunk_size) is bit-stable.
    ``draw_prefix`` namespaces the chunk keys when several references
    share one seed.
    """
    moments = fold_rows(model, params, x, k, n_ref,
                        lambda ctx: [("iwae", phi_rows("iwae", ctx))],
                        seed=seed, stream=Streams.REFERENCE,
                        draw_prefix=draw_prefix, chunk_size=chunk_size)["iwae"]
    return ReferenceMean(
        mean=moments.mean,
        stderr=np.sqrt(moments.variance / moments.n),
        n=moments.n,
        k=k,
    )
