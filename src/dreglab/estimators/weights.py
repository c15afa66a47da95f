"""Log importance weights: the tape route and the weight kernels.

`log_weights` builds the K-sample weight batch on a tape and extracts
every per-sample partial the estimator family needs, one backward per
root.  It is the reference implementation: exact but scalar, so bulk
measurement goes through the models' closed-form contexts instead, and
the tests hold the two routes together at near machine precision.

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
`jvi1_coefficients` on the `ChunkWeights` itself.  `jvi1_estimate` is
the jackknife spelled out on tape nodes, the reference the gradient
tests differentiate.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..gaussian import log_prob, sample_reparam
from ..tape import TapeGraph, log_sum_exp, stop_gradient, tape_sum
from ..models.params import lift


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


def jvi1_estimate(lws):
    """First-order jackknife debiasing of the K-sample bound, on the tape.

    K * IWAE_K - ((K-1)/K) * sum_i IWAE_{K-1} without sample i, with the
    leave-one-out sums spelled out over a sequence of TapeScalars; the
    closed form of the module docstring is `ChunkWeights.jvi1_bound`.
    """
    lws = list(lws)
    k = len(lws)
    if k < 2:
        raise ValueError("jackknife needs K >= 2")
    full = log_sum_exp(lws) - math.log(k)
    loo_terms = []
    for i in range(k):
        rest = lws[:i] + lws[i + 1 :]
        loo_terms.append(log_sum_exp(rest) - math.log(k - 1))
    return k * full - (k - 1) / k * tape_sum(loo_terms)


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


@dataclass
class LogWeightBatch:
    """One K-sample weight batch with tape-extracted partials.

    Shapes: lw (K,), dlogw_dz (K, d), dlogw_dtheta (K, P_theta),
    dlogq_dphi (K, P_phi) with z held fixed, jac_mean and jac_log_scale
    (d, P_phi) so that dz_i/dphi = jac_mean + (z_i - mean) * jac_log_scale
    row-wise.

    The contraction methods mirror the closed-form contexts (c has shape
    (K,), outputs are flat gradient vectors), so every estimator recipe
    runs unchanged on either route.
    """

    lw: np.ndarray
    dlogw_dz: np.ndarray
    dlogw_dtheta: np.ndarray
    dlogq_dphi: np.ndarray
    jac_mean: np.ndarray
    jac_log_scale: np.ndarray
    z: np.ndarray
    mean: np.ndarray

    @property
    def k(self):
        return self.lw.shape[0]

    def path(self, c):
        u = c[:, None] * self.dlogw_dz  # (K, d)
        left = u.sum(axis=0) @ self.jac_mean
        right = (u * (self.z - self.mean[None, :])).sum(axis=0) @ self.jac_log_scale
        return left + right

    def score(self, c):
        return c @ self.dlogq_dphi

    def theta(self, c):
        return c @ self.dlogw_dtheta


def log_weights(model, params, x, eps):
    """Build the weight batch on a tape and read off every partial.

    One graph, then per-sample backwards: from each log w_i (z-node
    adjoints give dlog w_i/dz_i, theta leaves give dlog w_i/dtheta),
    from each z-stopped log q_i (phi leaves give the score partial), and
    from each encoder output (phi jacobians of mean and log-scale).
    eps is the (K, d) noise array.  Requires disjoint roles; shared
    parameters go through the surrogate route instead.
    """
    if params.has_shared:
        raise ValueError("per-sample partial extraction requires disjoint roles")
    k, d = np.shape(eps)
    graph = TapeGraph()
    lp = lift(graph, params)
    q = model.inference(lp, x)
    phi_ids = [lp.node_ids[i] for i in params.phi_indices]
    theta_ids = [lp.node_ids[i] for i in params.theta_indices]

    z_nodes = []
    lw_nodes = []
    lq_fixed_nodes = []
    for i in range(k):
        z = sample_reparam(q, eps[i])
        z_nodes.append(z)
        lw_nodes.append(model.log_joint(lp, x, z) - log_prob(q, z))
        lq_fixed_nodes.append(log_prob(q, [stop_gradient(zj) for zj in z]))

    lw = np.array([n.value for n in lw_nodes])
    _checked_max(lw)  # raises on a degenerate batch

    dlogw_dz = np.empty((k, d))
    dlogw_dtheta = np.empty((k, len(theta_ids)))
    dlogq_dphi = np.empty((k, len(phi_ids)))
    for i in range(k):
        grads = graph.backward(lw_nodes[i], wrt=z_nodes[i])
        dlogw_dz[i] = [grads[zj.idx] for zj in z_nodes[i]]
        dlogw_dtheta[i] = [grads[t] for t in theta_ids]
        grads = graph.backward(lq_fixed_nodes[i])
        dlogq_dphi[i] = [grads[t] for t in phi_ids]

    jac_mean = np.empty((d, len(phi_ids)))
    jac_log_scale = np.empty((d, len(phi_ids)))
    for j in range(d):
        grads = graph.backward(q.mean[j])
        jac_mean[j] = [grads[t] for t in phi_ids]
        grads = graph.backward(q.log_scale[j])
        jac_log_scale[j] = [grads[t] for t in phi_ids]

    return LogWeightBatch(
        lw=lw,
        dlogw_dz=dlogw_dz,
        dlogw_dtheta=dlogw_dtheta,
        dlogq_dphi=dlogq_dphi,
        jac_mean=jac_mean,
        jac_log_scale=jac_log_scale,
        z=np.array([[zj.value for zj in z] for z in z_nodes]),
        mean=np.array([m.value for m in q.mean]),
    )
