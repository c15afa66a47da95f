"""The gradient estimator family over a common contraction interface.

Every estimator here is a linear contraction of per-sample partials
with coefficients built from the normalized weights:

    iwae        phi: path(wt) - score(wt)      theta: theta(wt)
    stl         phi: path(wt)                  theta: theta(wt)
    iwae-dreg   phi: path(wt^2)                theta: theta(wt)
    rws-wake    phi: -score(wt)     (descent)  theta: theta(wt)
    rws-dreg    phi: path(wt^2-wt)  (descent)  theta: theta(wt)
    dreg-alpha  phi: path(a*wt + (1-2a)*wt^2)  theta: theta(wt)
    jvi1        phi: path(c) - score(c)        theta: theta(c)
    jvi1-dreg   phi: path(c2)                  theta: theta(c)

where wt are normalized weights, wt^2 their squares computed in log
space, and (c, c2) the jackknife combination coefficients.  All of them
come from the context's `ChunkWeights`, so the recipes run against one
context normalize its log weights once.  The two wake-sleep rows return
gradients to descend (they drive a KL minimization); everything else is
an ascent direction on its bound.
The contraction interface is served by both the closed-form model
contexts (vectorized, bulk) and the tape-extracted LogWeightBatch
(reference); tests pin the routes against each other.
"""

from dataclasses import dataclass

import numpy as np

from .weights import LogWeightBatch, context_weights, normalized_weights

ESTIMATOR_IDS = (
    "iwae",
    "stl",
    "iwae-dreg",
    "rws-wake",
    "rws-dreg",
    "dreg-alpha",
    "jvi1",
    "jvi1-dreg",
)

DESCENT_IDS = ("rws-wake", "rws-dreg")


@dataclass
class GradEstimate:
    estimator_id: str
    k: int
    phi_grad: np.ndarray
    theta_grad: np.ndarray
    alpha: float = None

    def __post_init__(self):
        if self.estimator_id not in ESTIMATOR_IDS:
            raise ValueError(f"unknown estimator id {self.estimator_id!r}")
        if (self.alpha is not None) != (self.estimator_id == "dreg-alpha"):
            raise ValueError("alpha must be present exactly for dreg-alpha")
        for arr in (self.phi_grad, self.theta_grad):
            if arr is not None and not np.all(np.isfinite(arr)):
                raise ValueError("non-finite gradient estimate")


def phi_rows(kind, ctx, alpha=None):
    """Inference-network gradient rows for one weight context."""
    w = context_weights(ctx)
    if kind == "iwae":
        return ctx.path(w.wt) - ctx.score(w.wt)
    if kind == "stl":
        return ctx.path(w.wt)
    if kind == "iwae-dreg":
        return ctx.path(w.wt2)
    if kind == "rws-wake":
        return -ctx.score(w.wt)
    if kind == "rws-dreg":
        return ctx.path(w.wt2 - w.wt)
    if kind == "dreg-alpha":
        if alpha is None or not 0.0 <= alpha <= 1.0:
            raise ValueError("dreg-alpha needs alpha in [0, 1]")
        return ctx.path(alpha * w.wt + (1.0 - 2.0 * alpha) * w.wt2)
    if kind == "jvi1":
        c, _ = w.jvi1
        return ctx.path(c) - ctx.score(c)
    if kind == "jvi1-dreg":
        _, c2 = w.jvi1
        return ctx.path(c2)
    raise ValueError(f"unknown estimator kind {kind!r}")


def theta_rows(kind, ctx):
    w = context_weights(ctx)
    if kind in ("jvi1", "jvi1-dreg"):
        c, _ = w.jvi1
        return ctx.theta(c)
    return ctx.theta(w.wt)


def _single(model, params, x, eps, kind, alpha=None):
    ctx = model.weight_context(params, x, eps.eps)
    phi = phi_rows(kind, ctx, alpha=alpha)[0]
    theta = theta_rows(kind, ctx)[0]
    return GradEstimate(kind, eps.k, phi, theta, alpha=alpha)


def iwae_grad_standard(model, params, x, eps):
    """Self-normalized total-derivative gradient of the K-sample bound."""
    return _single(model, params, x, eps, "iwae")


def iwae_grad_stl(model, params, x, eps):
    """Score term dropped; biased for K > 1, exact at the posterior."""
    return _single(model, params, x, eps, "stl")


def iwae_grad_dreg(model, params, x, eps):
    """Doubly reparameterized inference gradient: squared-weight path term."""
    return _single(model, params, x, eps, "iwae-dreg")


def rws_theta_grad(model, params, x, eps):
    """Wake-phase generative gradient; identical to the iwae theta rows."""
    ctx = model.weight_context(params, x, eps.eps)
    theta = theta_rows("iwae", ctx)[0]
    return GradEstimate("rws-wake", eps.k, None, theta)


def rws_wake_phi_grad(model, params, x, eps):
    """Self-normalized wake update for the inference network.

    Returned with the minimization sign: stepping against this gradient
    descends the exclusive KL surrogate.
    """
    return _single(model, params, x, eps, "rws-wake")


def rws_dreg_phi_grad(model, params, x, eps):
    """Doubly reparameterized wake update, same descent convention."""
    return _single(model, params, x, eps, "rws-dreg")


def dreg_alpha_phi_grad(alpha, model, params, x, eps):
    """Convex family between the squared-weight and wake path terms."""
    return _single(model, params, x, eps, "dreg-alpha", alpha=alpha)


def jvi1_grad(model, params, x, eps):
    """Gradient of the first-order jackknife combination (total form)."""
    return _single(model, params, x, eps, "jvi1")


def jvi1_dreg_grad(model, params, x, eps):
    """Jackknife combination with each term's squared-weight substitute."""
    return _single(model, params, x, eps, "jvi1-dreg")


def decompose_total_derivative(lwb):
    """Per-sample (score-term, path-term) split of the standard phi-grad.

    score-term_i = -wt_i * dlog q(z_i|x)/dphi (z fixed); path-term_i =
    wt_i * (dlog w_i/dz_i)(dz_i/dphi).  Summed over i the two add up to
    the standard total-derivative gradient.
    """
    if not isinstance(lwb, LogWeightBatch):
        raise TypeError("decomposition works on a tape-extracted LogWeightBatch")
    wt = normalized_weights(lwb.log_w)
    k = lwb.k
    score_terms = -(wt[:, None] * lwb.dlogq_dphi)
    path_terms = np.empty_like(score_terms)
    for i in range(k):
        path_terms[i] = wt[i] * (lwb.dlogw_dz[i] @ lwb.dz_dphi(i))
    return score_terms, path_terms
