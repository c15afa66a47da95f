"""The weight route on the tape: per-sample partials and the jackknife.

`log_weights` builds the K-sample weight batch on a tape and extracts
every per-sample partial the estimator family needs, one backward per
root.  It is exact but scalar; the tests hold it and the models'
closed-form contexts together at near machine precision.
`jvi1_estimate` is the jackknife spelled out on tape nodes, the
reference the gradient tests differentiate.
"""

import math
from dataclasses import dataclass

import numpy as np

from dreglab.estimators import normalized_log_weights

from .gaussian import log_prob, sample_reparam
from .models import lift
from .tape import TapeGraph, log_sum_exp, stop_gradient, tape_sum


def jvi1_estimate(lws):
    """First-order jackknife debiasing of the K-sample bound, on the tape.

    K * IWAE_K - ((K-1)/K) * sum_i IWAE_{K-1} without sample i, with the
    leave-one-out sums spelled out over a sequence of TapeScalars; the
    closed form is `ChunkWeights.jvi1_bound`.
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
    eps is the (K, d) noise array.  Requires a model whose phi and theta
    are disjoint; a shared toy goes through the surrogate route instead.
    """
    if getattr(model, "shared", False):
        raise ValueError("per-sample partial extraction requires an unshared model")
    k, d = np.shape(eps)
    graph = TapeGraph()
    lp = lift(graph, params)
    q = model.inference(lp, x)
    phi_ids = list(lp.node_ids[params.phi_indices])
    theta_ids = list(lp.node_ids[params.theta_indices])

    z_nodes = []
    lw_nodes = []
    lq_fixed_nodes = []
    for i in range(k):
        z = sample_reparam(q, eps[i])
        z_nodes.append(z)
        lw_nodes.append(model.log_joint(lp, x, z) - log_prob(q, z))
        lq_fixed_nodes.append(log_prob(q, [stop_gradient(zj) for zj in z]))

    lw = np.array([n.value for n in lw_nodes])
    normalized_log_weights(lw)  # raises on a degenerate batch

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
