"""The weight kernels of log importance weights.

`ChunkWeights` is the one entry point to the weight kernels.  It turns
one context's log weights into everything the estimator family reads,
each built once on first use: log wt, wt, wt^2, the IWAE bound
(`iwae_bound`), the jackknife bound (`jvi1_bound`) and the jackknife
coefficients (c, c2).  Normalized weights are softmax of log-weights
with the max subtracted; squared normalized weights are exp(2 log wt).
Raw weights are never exponentiated on their own.  The IWAE bound
reuses the same normalization: the row max of log wt is exactly
-log sum exp(lw - max).

Both jackknife quantities are closed forms in log wt, wt and one
complement sum per row.  Off a row's argmax t, wt_i <= 1/2, so each
leave-one-out share T_i / W = 1 - wt_i (W the total weight, T_i the
total without sample i) lies in [1/2, 1] and is exact from wt; only the
argmax's share S_t = sum_{j != t} wt_j can be tiny, and it alone is
taken in log space.  The jackknife bound is then

    jvi1 = bound + (K-1) log((K-1)/K)
                 - ((K-1)/K) (sum_{i != t} log1p(-wt_i) + log S_t)

It calls its two costly kernels through this module's namespace:
`normalized_log_weights` on the array of log weights and
`jvi1_coefficients` on the `ChunkWeights` itself.
"""

import math
from functools import cached_property

import numpy as np


def _checked_max(lw):
    """The row max of lw with the sample axis kept; raises on a row that
    is no usable weight batch."""
    m = lw.max(axis=-1, keepdims=True)  # NaN wins the max, then +inf, and -inf only if all are
    if not np.all(np.isfinite(m)):
        if np.any(np.isnan(m)):
            raise ValueError("degenerate weight batch: NaN log-weight")
        if np.any(m == np.inf):
            raise ValueError("degenerate weight batch: +inf log-weight")
        raise ValueError("degenerate weight batch: every log-weight is -inf")
    return m


def normalized_log_weights(lw):
    """(lw - max) - log sum exp(lw - max), in place on the shifted copy.

    Shifting first keeps the error of log wt to a few eps of its own size;
    lw - (max + log sum) would add eps * |max lw| whatever the spread.
    """
    shifted = lw - _checked_max(lw)
    shifted -= np.log(np.sum(np.exp(shifted), axis=-1, keepdims=True))
    return shifted


def jvi1_coefficients(weights):
    """Per-sample coefficients (c, c2) of the jackknife gradient forms,
    from a `ChunkWeights`.

    c contracts total derivatives (the linear combination applied to the
    standard per-term gradients); c2 contracts the path term only (the
    same combination with each term's squared-weight substitution).
    With W the total weight and T_i = W - w_i the complement sum of
    sample i:

        c_j  = K wt_j   - ((K-1)/K) sum_{i != j} w_j / T_i
        c2_j = K wt_j^2 - ((K-1)/K) sum_{i != j} (w_j / T_i)^2

    Both inner sums come in closed form from wt and wt^2.  Let t be the
    row's argmax.  Off it wt_i <= 1/2, so r_i = W / T_i = 1 / (1 - wt_i)
    lies in [1, 2] and loses nothing to cancellation; set r_t = 0.  Only
    T_t can be tiny, and q_j = w_j / T_t (q_t = 0) is the softmax of
    log wt over j != t, taken in log space, so it is at most 1 and stays
    finite when T_t underflows.  Then

        sum_{i != j} w_j / T_i     = q_j   + wt_j   (sum r   - r_j)
        sum_{i != j} (w_j / T_i)^2 = q_j^2 + wt_j^2 (sum r^2 - r_j^2)

    Near equal weights (K-1)/K times the second sum nearly equals
    K wt_j^2, and subtracting the two loses digits.  So c2 is taken from
    v_i = r_i^2 - 1 = u_i (2 + u_i) instead, with u_i = wt_i / (1 - wt_i)
    exact off the argmax and v_t = -1 on it:

        c2_j = wt_j^2 ((2K-1)/K - ((K-1)/K)(sum v - v_j)) - ((K-1)/K) q_j^2

    The bracket is of order 1 rather than K, so nothing of size K wt_j^2
    cancels.
    """
    top, q, _ = _complement(weights.log_wt)
    k = q.shape[-1]
    r = 1.0 - weights.wt
    np.put_along_axis(r, top, np.inf, axis=-1)  # masked before dividing
    np.divide(1.0, r, out=r)  # r_i = W / T_i off the argmax, 0 on it
    v = weights.wt * r  # u_i = r_i - 1 = wt_i / (1 - wt_i), 0 on the argmax
    v *= v + 2.0  # v_i = r_i^2 - 1
    np.put_along_axis(v, top, -1.0, axis=-1)
    loo1 = np.subtract(r.sum(axis=-1, keepdims=True), r, out=r)
    loo1 *= weights.wt
    loo1 += q
    a = (k - 1) / k
    c = np.multiply(loo1, -a, out=loo1)
    c += k * weights.wt
    c2 = np.subtract(v.sum(axis=-1, keepdims=True), v, out=v)
    c2 *= -a
    c2 += (2 * k - 1) / k
    c2 *= weights.wt2
    q *= q
    q *= a
    c2 -= q
    return c, c2


def _complement(log_wt):
    """(t, q, log S_t) per row: the argmax t (sample axis kept), the
    softmax q of log wt over j != t (q_t = 0), and the log of
    S_t = sum_{j != t} wt_j, taken in log space."""
    if log_wt.shape[-1] < 2:
        raise ValueError("jackknife needs K >= 2")
    top = log_wt.argmax(axis=-1)[..., None]
    q = log_wt.copy()
    np.put_along_axis(q, top, -np.inf, axis=-1)
    m2 = q.max(axis=-1, keepdims=True)
    if not np.all(m2 > -np.inf):
        raise ValueError("degenerate weight batch: jackknife needs two finite log-weights")
    q -= m2
    np.exp(q, out=q)
    s = q.sum(axis=-1, keepdims=True)
    q /= s  # q_j = w_j / T_t
    return top, q, m2 + np.log(s)


class ChunkWeights:
    """The weight kernels of one context's log weights, each built once.

    Every estimator recipe and training objective run against one
    context reads this object, so they share a single normalization and
    a single `jvi1_coefficients` call.  The jackknife bound takes its own
    `_complement` pass rather than keeping t and log S_t from the
    coefficients' one: only jackknife training steps read both, on small
    (batch, K) arrays, while keeping them raised the peak RSS of
    `bias-test`, which reads the coefficients alone.
    """

    def __init__(self, lw):
        self.lw = np.asarray(lw, dtype=np.float64)

    @cached_property
    def log_wt(self):
        return normalized_log_weights(self.lw)

    @cached_property
    def wt(self):
        return np.exp(self.log_wt)

    @cached_property
    def wt2(self):
        wt2 = 2.0 * self.log_wt
        return np.exp(wt2, out=wt2)  # in place: one (n, K) array less at peak

    @cached_property
    def iwae_bound(self):
        """The IWAE bound per row, max lw + log sum exp(lw - max) - log K."""
        k = self.lw.shape[-1]
        return self.lw.max(axis=-1) - self.log_wt.max(axis=-1) - math.log(k)

    @cached_property
    def jvi1(self):
        return jvi1_coefficients(self)

    @property
    def c(self):
        """The jackknife coefficients, d jvi1 / d log w."""
        return self.jvi1[0]

    @property
    def c2(self):
        """The jackknife coefficients' DReG partner."""
        return self.jvi1[1]

    @cached_property
    def jvi1_bound(self):
        """The jackknife bound per row, in the closed form of the module
        docstring."""
        top, _, log_s = _complement(self.log_wt)
        k = self.lw.shape[-1]
        loo = np.negative(self.wt)
        np.put_along_axis(loo, top, 0.0, axis=-1)  # wt_t may be 1
        np.log1p(loo, out=loo)  # log(T_i / W) = log1p(-wt_i) off the argmax
        np.put_along_axis(loo, top, log_s, axis=-1)
        a = (k - 1) / k
        return self.iwae_bound + (k - 1) * math.log1p(-1.0 / k) - a * loo.sum(axis=-1)


def context_weights(ctx):
    """The `ChunkWeights` of a weight context, built on first request and
    kept on the context."""
    weights = getattr(ctx, "chunk_weights", None)
    if weights is None:
        weights = ctx.chunk_weights = ChunkWeights(ctx.lw)
    return weights
