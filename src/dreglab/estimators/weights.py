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
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..gaussian import NoiseBatch, log_prob, sample_reparam
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
    lw = _check_batch(_raw(lw))
    return lw - _log_total(lw)


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
    With T_i the complement sum of sample i (log T_i from
    `loo_logsumexp`):

        c_j  = K wt_j   - ((K-1)/K) sum_{i != j} w_j / T_i
        c2_j = K wt_j^2 - ((K-1)/K) sum_{i != j} (w_j / T_i)^2

    Each inner sum is a leave-one-out sum over i, so it is taken in log
    space by `loo_logsumexp` as well; every ratio w_j / T_i (i != j) is
    at most 1, and nothing is subtracted from a huge 1/T_i.
    """
    lw = _check_batch(_raw(lw))
    k = lw.shape[-1]
    if k < 2:
        raise ValueError("jackknife needs K >= 2")
    log_wt = lw - _log_total(lw)
    log_t = loo_logsumexp(lw)
    loo1 = np.exp(lw + loo_logsumexp(-log_t))
    loo2 = np.exp(2.0 * lw + loo_logsumexp(-2.0 * log_t))
    c = k * np.exp(log_wt) - (k - 1) / k * loo1
    c2 = k * np.exp(2.0 * log_wt) - (k - 1) / k * loo2
    return c, c2


class ChunkWeights:
    """The weight kernels of one context's log weights, each built once.

    wt, wt^2 and the jackknife pair are computed on first use and kept,
    so the estimator recipes run against one context share a single
    normalization and a single `jvi1_coefficients` call.
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
        return jvi1_coefficients(self.lw)


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
    row-wise.  `noise` keeps the generating NoiseBatch.

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
    noise: NoiseBatch

    @property
    def lw(self):
        return self.log_w

    @property
    def k(self):
        return self.log_w.shape[0]

    def dz_dphi(self, i):
        return self.jac_mean + (self.z[i] - self.mean)[:, None] * self.jac_log_scale

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
    Requires disjoint roles; shared parameters go through the surrogate
    route instead.
    """
    if params.has_shared:
        raise ValueError("per-sample partial extraction requires disjoint roles")
    if not isinstance(eps, NoiseBatch):
        raise TypeError("eps must be a NoiseBatch")
    k, d = eps.k, eps.d
    graph = TapeGraph()
    lp = lift(graph, params)
    q = model.inference(lp, x)
    phi_ids = [lp.node_ids[i] for i in params.phi_indices]
    theta_ids = [lp.node_ids[i] for i in params.theta_indices]

    z_nodes = []
    lw_nodes = []
    lq_fixed_nodes = []
    for i in range(k):
        z = sample_reparam(q, eps.eps[i])
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
        noise=eps,
    )
