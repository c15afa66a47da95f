"""Log importance weights: the tape route and the normalization kernel.

`log_weights` builds the K-sample weight batch on a tape and extracts
every per-sample partial the estimator family needs, one backward per
root.  It is the reference implementation: exact but scalar, so bulk
measurement goes through the models' closed-form contexts instead, and
the tests hold the two routes together at near machine precision.

Normalized weights are always softmax of log-weights with the max
subtracted; squared normalized weights are exp(2 (log w - log sum w)).
Raw weights are never exponentiated on their own.  `ChunkWeights` holds
these kernels for one context so that every estimator recipe run on it
shares one normalization and one set of jackknife coefficients.

The jackknife coefficients are a closed form in log wt, wt and wt^2.
Off a row's argmax wt_i <= 1/2, so each leave-one-out ratio
W / T_i = 1 / (1 - wt_i) (W the total weight, T_i the total without
sample i) lies in [1, 2] and is exact from wt; only the argmax's
complement sum T_t can be tiny, and it alone is taken in log space.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..gaussian import log_prob, sample_reparam
from ..tape import TapeGraph, TapeScalar, log_sum_exp, stop_gradient, tape_sum
from ..models.params import lift


def _raw(lw):
    return np.asarray(lw.log_w if hasattr(lw, "log_w") else lw, dtype=np.float64)


def _check_batch(lw):
    m = lw.max(axis=-1)  # NaN wins the max, then +inf, and -inf only if all are
    if not np.all(np.isfinite(m)):
        if np.any(np.isnan(m)):
            raise ValueError("degenerate weight batch: NaN log-weight")
        if np.any(m == np.inf):
            raise ValueError("degenerate weight batch: +inf log-weight")
        raise ValueError("degenerate weight batch: every log-weight is -inf")
    return lw


def _log_total(lw):
    m = lw.max(axis=-1, keepdims=True)
    return m + np.log(np.sum(np.exp(lw - m), axis=-1, keepdims=True))


def normalized_log_weights(lw):
    """(lw - max) - log sum exp(lw - max), in place on the shifted copy.

    Shifting first keeps the error of log wt to a few eps of its own size;
    lw - (max + log sum) would add eps * |max lw| whatever the spread.
    """
    lw = _check_batch(_raw(lw))
    shifted = lw - lw.max(axis=-1, keepdims=True)
    shifted -= np.log(np.sum(np.exp(shifted), axis=-1, keepdims=True))
    return shifted


def normalized_weights(lw):
    return np.exp(normalized_log_weights(lw))


def squared_normalized_weights(lw):
    """w-tilde squared without squaring small floats: exp(2 log w-tilde)."""
    return np.exp(2.0 * normalized_log_weights(lw))


def iwae_bound(lw):
    """log-sum-exp(log w) - log K, along the sample axis."""
    lw = _check_batch(_raw(lw))
    out = _log_total(lw)[..., 0] - math.log(lw.shape[-1])
    return float(out) if out.ndim == 0 else out


def loo_logsumexp(lw):
    """Leave-one-out log-sum-exp along the last axis, stable per entry.

    For non-argmax entries the complement sum keeps the max term, so the
    direct subtraction S - a_i loses nothing; the argmax entry is
    recomputed against the second max.
    """
    lw = np.asarray(lw, dtype=np.float64)
    if lw.shape[-1] < 2:
        raise ValueError("leave-one-out needs K >= 2")
    m1 = lw.max(axis=-1, keepdims=True)
    a = np.exp(lw - m1)
    total = a.sum(axis=-1, keepdims=True)
    with np.errstate(divide="ignore"):
        out = m1 + np.log(total - a)
    top = lw.argmax(axis=-1)
    masked = lw.copy()
    np.put_along_axis(masked, top[..., None], -np.inf, axis=-1)
    m2 = masked.max(axis=-1, keepdims=True)
    safe = m2 + np.log(np.sum(np.exp(masked - m2), axis=-1, keepdims=True))
    np.put_along_axis(out, top[..., None], safe, axis=-1)
    return out


def jvi1_estimate(lw):
    """First-order jackknife debiasing of the K-sample bound.

    K * IWAE_K - ((K-1)/K) * sum_i IWAE_{K-1} without sample i.  Accepts
    a LogWeightBatch, a plain array, or a list of TapeScalars (the tape
    form is what gradient identity tests differentiate).
    """
    if isinstance(lw, (list, tuple)) and lw and isinstance(lw[0], TapeScalar):
        return _jvi1_nodes(list(lw))
    lw = _check_batch(_raw(lw))
    k = lw.shape[-1]
    if k < 2:
        raise ValueError("jackknife needs K >= 2")
    _check_jackknife(np.partition(lw, -2, axis=-1)[..., -2])
    full = iwae_bound(lw)
    loo = loo_logsumexp(lw) - math.log(k - 1)
    out = k * full - (k - 1) / k * np.sum(loo, axis=-1)
    return float(out) if np.ndim(out) == 0 else out


def _jvi1_nodes(lws):
    k = len(lws)
    if k < 2:
        raise ValueError("jackknife needs K >= 2")
    full = log_sum_exp(lws) - math.log(k)
    loo_terms = []
    for i in range(k):
        rest = lws[:i] + lws[i + 1 :]
        loo_terms.append(log_sum_exp(rest) - math.log(k - 1))
    return k * full - (k - 1) / k * tape_sum(loo_terms)


def jvi1_coefficients(lw):
    """Per-sample coefficients (c, c2) of the jackknife gradient forms.

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

    lw is a plain array, a LogWeightBatch, or a `ChunkWeights`, whose
    cached wt and wt^2 are then reused.
    """
    weights = lw if isinstance(lw, ChunkWeights) else ChunkWeights(lw)
    log_wt = weights.log_wt
    k = log_wt.shape[-1]
    if k < 2:
        raise ValueError("jackknife needs K >= 2")
    top = log_wt.argmax(axis=-1)[..., None]
    q = log_wt.copy()
    np.put_along_axis(q, top, -np.inf, axis=-1)
    m2 = q.max(axis=-1, keepdims=True)
    _check_jackknife(m2)
    q -= m2
    np.exp(q, out=q)
    q /= q.sum(axis=-1, keepdims=True)  # q_j = w_j / T_t
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


def _check_jackknife(second_max):
    if not np.all(second_max > -np.inf):
        raise ValueError("degenerate weight batch: jackknife needs two finite log-weights")


class ChunkWeights:
    """The weight kernels of one context's log weights, each built once.

    wt, wt^2 and the jackknife pair are computed on first use and kept,
    so the estimator recipes run against one context share a single
    normalization and a single `jvi1_coefficients` call.  That call
    reads the cached log wt, wt and wt^2: off a row's argmax wt_i <= 1/2,
    so every leave-one-out ratio W / T_i = 1 / (1 - wt_i) is exact from
    wt, and only the argmax's complement sum needs log space.
    """

    def __init__(self, lw):
        self.lw = lw

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
    def jvi1(self):
        return jvi1_coefficients(self)


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

    Shapes: log_w (K,), dlogw_dz (K, d), dlogw_dtheta (K, P_theta),
    dlogq_dphi (K, P_phi) with z held fixed, jac_mean and jac_log_scale
    (d, P_phi) so that dz_i/dphi = jac_mean + (z_i - mean) * jac_log_scale
    row-wise.

    The contraction methods mirror the closed-form contexts (c has shape
    (K,), outputs are flat gradient vectors), so every estimator recipe
    runs unchanged on either route.
    """

    log_w: np.ndarray
    dlogw_dz: np.ndarray
    dlogw_dtheta: np.ndarray
    dlogq_dphi: np.ndarray
    jac_mean: np.ndarray
    jac_log_scale: np.ndarray
    z: np.ndarray
    mean: np.ndarray

    @property
    def lw(self):
        return self.log_w

    @property
    def k(self):
        return self.log_w.shape[0]

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

    log_w = np.array([n.value for n in lw_nodes])
    _check_batch(log_w)

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
        log_w=log_w,
        dlogw_dz=dlogw_dz,
        dlogw_dtheta=dlogw_dtheta,
        dlogq_dphi=dlogq_dphi,
        jac_mean=jac_mean,
        jac_log_scale=jac_log_scale,
        z=np.array([[zj.value for zj in z] for z in z_nodes]),
        mean=np.array([m.value for m in q.mean]),
    )
