"""Stochastic training loop for the VAE family.

One loop serves every estimator mode.  The inference and generative
parameter blocks occupy disjoint slices of the flat vector, so a single
Adam step with the phi slice filled from the mode's phi recipe and the
theta slice from its theta recipe is exactly the two-update scheme: each
block moves under its own gradient source.

Sign convention: Adam minimizes.  Bound-style recipes are ascent
directions and enter negated; the wake-phase recipes already point
downhill on their own objective and enter as-is.
"""

import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset, dynamic_binarize
from .diagnostics import VarianceTraceEma
from .estimators import (
    ESTIMATOR_IDS,
    context_weights,
    phi_rows,
    recipe,
    theta_rows,
)
from .gaussian import Streams, noise_block, stream_rng

# draw indices under Streams.EVAL_NOISE
_EVAL_BINARIZE_DRAW = 0
_EVAL_EPS_DRAW = 1


class Adam:
    """Flat-vector Adam minimizer with bias-corrected moments."""

    def __init__(self, size, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        if lr <= 0:
            raise ValueError("lr must be positive")
        if not (0.0 <= beta1 < 1.0 and 0.0 <= beta2 < 1.0):
            raise ValueError("betas must lie in [0, 1)")
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = np.zeros(size)
        self.v = np.zeros(size)

    def update(self, flat, grad):
        grad = np.asarray(grad, dtype=np.float64)
        if grad.shape != self.m.shape:
            raise ValueError("gradient size mismatch")
        self.t += 1
        self.m = self.beta1 * self.m + (1.0 - self.beta1) * grad
        self.v = self.beta2 * self.v + (1.0 - self.beta2) * grad * grad
        m_hat = self.m / (1.0 - self.beta1 ** self.t)
        v_hat = self.v / (1.0 - self.beta2 ** self.t)
        return flat - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


@dataclass(frozen=True)
class TrainRow:
    """One logged point: objective and bound at the pre-update state."""

    step: int
    train_objective: float
    heldout_bound: float
    var_trace_theta: float
    var_trace_phi: float


@dataclass
class TrainResult:
    rows: list
    params: object
    diverged: bool
    failed_step: int = -1
    cause: str = ""  # why the failing step failed, when diverged


def train_model(fam, train, valid, mode, k, *, steps, batch_size,
                lr=1e-3, beta1=0.9, beta2=0.999, adam_eps=1e-8,
                eval_every=20, eval_k=None, trace_decay=0.99,
                alpha=None, seed=0):
    """Optimize a model on binarized data, logging bound and traces.

    ``train`` and ``valid`` are intensity Datasets; binarization happens
    here, per epoch for training and once (fixed) for evaluation.  Rows
    are appended every ``eval_every`` steps plus a final row at
    ``steps``; each reflects the parameters before that step's update,
    with variance traces over the batch-mean gradients seen so far.

    On a non-finite gradient or objective, or a weight kernel's
    ValueError, the loop stops and returns the parameters from before
    the failing step with ``diverged`` set and ``cause`` naming the
    non-finite value or quoting the kernel.
    """
    if mode not in ESTIMATOR_IDS:
        raise ValueError(f"unknown training mode {mode!r}")
    entry = recipe(mode, alpha)
    if not isinstance(train, Dataset) or not isinstance(valid, Dataset):
        raise ValueError("train and valid must be Datasets")
    if train.obs != fam.obs or valid.obs != fam.obs:
        raise ValueError("dataset width does not match the model")
    if steps < 1 or batch_size < 1 or eval_every < 1:
        raise ValueError("steps, batch_size, eval_every must be positive")
    if k < 1:
        raise ValueError("k must be positive")
    if k < entry.min_k:
        raise ValueError(f"{mode!r} needs k >= {entry.min_k} (its min_k)")
    eval_k = k if eval_k is None else eval_k

    p = fam.init_params(seed)
    opt = Adam(p.size, lr=lr, beta1=beta1, beta2=beta2, eps=adam_eps)
    phi_idx = p.phi_indices
    theta_idx = p.theta_indices
    trace_phi = VarianceTraceEma(trace_decay)
    trace_theta = VarianceTraceEma(trace_decay)

    # held-out set: one fixed binarization, one fixed noise block
    u = stream_rng(seed, Streams.EVAL_NOISE, _EVAL_BINARIZE_DRAW)
    x_eval = (u.random(valid.images.shape) < valid.images).astype(np.float64)
    eval_eps = noise_block(seed, Streams.EVAL_NOISE, _EVAL_EPS_DRAW,
                           (valid.n, eval_k, fam.latent))

    def heldout_bound(params):
        ctx = fam.weight_context(params, x_eval, eval_eps)
        return float(np.mean(context_weights(ctx).iwae_bound))

    n = train.n
    rows = []
    epoch = -1
    binarized = None
    step = 0
    cause = ""
    diverged = False
    while step <= steps:
        step_epoch = (step * batch_size) // n
        if step_epoch != epoch:
            epoch = step_epoch
            binarized = dynamic_binarize(train, seed, epoch)
        start = (step * batch_size) % n
        xb = binarized[np.arange(start, start + batch_size) % n]
        eps = noise_block(seed, Streams.TRAIN_NOISE, step,
                          (batch_size, k, fam.latent))
        try:
            # blown-up parameters overflow inside exp; the finite check
            # below is the detector, so keep numpy quiet about it
            with np.errstate(over="ignore", invalid="ignore"):
                ctx = fam.weight_context(p, xb, eps)
                phi_mean = phi_rows(mode, ctx, alpha).mean(axis=0)
                theta_mean = theta_rows(mode, ctx).mean(axis=0)
                objective = float(np.mean(getattr(context_weights(ctx), entry.bound)))
            for name, finite in (("phi gradient", np.isfinite(phi_mean).all()),
                                 ("theta gradient",
                                  np.isfinite(theta_mean).all()),
                                 ("objective", math.isfinite(objective))):
                if not finite:
                    raise ValueError(f"non-finite {name}")
        except (ValueError, FloatingPointError, OverflowError) as exc:
            diverged, cause = True, str(exc)
            break
        trace_phi.update(phi_mean)
        trace_theta.update(theta_mean)
        if step % eval_every == 0 or step == steps:
            rows.append(TrainRow(step, objective, heldout_bound(p),
                                 trace_theta.value, trace_phi.value))
        if step == steps:
            break
        grad = np.zeros(p.size)
        grad[phi_idx] = phi_mean if entry.descent else -phi_mean
        grad[theta_idx] = -theta_mean
        p = p.with_flat(opt.update(p.flat, grad))
        step += 1
    return TrainResult(rows, p, diverged, step if diverged else -1, cause)
