"""Stochastic training loop for the VAE family.

One loop serves every estimator mode.  The inference and generative
parameter blocks occupy disjoint slices of the flat vector, so a single
Adam step with the phi slice filled from the mode's phi recipe and the
theta slice from its theta recipe is exactly the two-update scheme: each
block moves under its own gradient source.

The loop reads batch sums, not per-image rows: each step's weight
context is built with ``sums=True``, so the table's `phi_rows` and
`theta_rows` return the sum over the mini-batch of the per-image rows,
taken in each contraction's last product, and the step divides it by
the batch size.  Adam's moments, the variance trace's moments, the
gradient and the parameters are updated in place in buffers made once
per run.  One trace follows the whole batch-mean gradient, and its
value over the phi and over the theta block is computed only where a
row is logged.

Adam minimizes, and every recipe's rows are an ascent direction, so
both blocks enter the step negated.
"""

import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset, dynamic_binarize
from .diagnostics import VarianceTraceEma
from .estimators import (
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
        self._work = np.empty((2, size))

    def update(self, flat, grad):
        """One step of the float64 array ``flat``, in place; returns it.

        The moments are updated in place too, with the rounding of
        m = beta1 m + (1 - beta1) g, v = beta2 v + (1 - beta2) g g and
        flat - lr m_hat / (sqrt(v_hat) + eps).  Anything else for
        ``flat`` (another dtype, a list, a read-only array) is a
        ValueError, not a silent copy or cast."""
        if not isinstance(flat, np.ndarray) or flat.dtype != np.float64:
            raise ValueError("Adam.update writes flat in place: it must be a "
                             "float64 ndarray")
        if not flat.flags.writeable:
            raise ValueError("Adam.update writes flat in place: it is read-only")
        if flat.shape != self.m.shape:
            raise ValueError("parameter size mismatch")
        grad = np.asarray(grad, dtype=np.float64)
        if grad.shape != self.m.shape:
            raise ValueError("gradient size mismatch")
        self.t += 1
        term, step = self._work
        self.m *= self.beta1
        self.m += np.multiply(grad, 1.0 - self.beta1, out=term)
        self.v *= self.beta2
        term = np.multiply(grad, 1.0 - self.beta2, out=term)
        self.v += np.multiply(term, grad, out=term)
        denom = np.divide(self.v, 1.0 - self.beta2 ** self.t, out=term)
        np.sqrt(denom, out=denom)
        denom += self.eps
        np.divide(self.m, 1.0 - self.beta1 ** self.t, out=step)
        step *= self.lr
        step /= denom
        flat -= step
        return flat


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
    here, once (fixed) for evaluation and per epoch for training.  The
    batches read the training split in order, epoch after epoch, and
    each row takes its own epoch's draw, also in a batch that wraps past
    the end of the split into the next epoch.  Rows
    are appended every ``eval_every`` steps plus a final row at
    ``steps``; each reflects the parameters before that step's update,
    with variance traces over the batch-mean gradients seen so far.

    On a non-finite gradient or objective, or a weight kernel's
    ValueError, the loop stops and returns the parameters from before
    the failing step with ``diverged`` set and ``cause`` naming the
    non-finite value or quoting the kernel.
    """
    entry = recipe(mode, alpha)
    if not isinstance(train, Dataset) or not isinstance(valid, Dataset):
        raise ValueError("train and valid must be Datasets")
    if train.obs != fam.obs or valid.obs != fam.obs:
        raise ValueError("dataset width does not match the model")
    if steps < 1 or batch_size < 1 or eval_every < 1:
        raise ValueError("steps, batch_size, eval_every must be positive")
    eval_k = k if eval_k is None else eval_k
    for name, value in (("k", k), ("eval_k", eval_k)):
        if value < 1:
            raise ValueError(f"{name} must be positive")
    if k < entry.min_k:
        raise ValueError(f"{mode!r} needs k >= {entry.min_k} (its min_k)")

    p = fam.init_params(seed)
    opt = Adam(p.size, lr=lr, beta1=beta1, beta2=beta2, eps=adam_eps)
    phi_idx = p.phi_indices
    theta_idx = p.theta_indices
    # one trace over the whole batch-mean gradient, read per block
    trace = VarianceTraceEma(trace_decay)
    mean = np.zeros(p.size)
    grad = np.empty(p.size)

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
    xb = np.empty((batch_size, train.obs))
    for step in range(steps + 1):
        # the run reads the split in order, epoch after epoch: its row g
        # is image g % n under epoch g // n's draw, made once per epoch
        first = step * batch_size
        for e in range(first // n, (first + batch_size - 1) // n + 1):
            if e != epoch:
                epoch, binarized = e, dynamic_binarize(train, seed, e)
            lo, hi = max(first, e * n), min(first + batch_size, (e + 1) * n)
            xb[lo - first:hi - first] = binarized[lo - e * n:hi - e * n]
        eps = noise_block(seed, Streams.TRAIN_NOISE, step,
                          (batch_size, k, fam.latent))
        try:
            # blown-up parameters overflow inside exp; the finite check
            # below is the detector, so keep numpy quiet about it
            with np.errstate(over="ignore", invalid="ignore"):
                ctx = fam.weight_context(p, xb, eps, sums=True)
                mean[phi_idx] = phi_rows(mode, ctx, alpha)
                mean[theta_idx] = theta_rows(mode, ctx)
                mean /= batch_size
                objective = float(np.mean(getattr(context_weights(ctx), entry.bound)))
            if not np.isfinite(mean).all():
                block = "phi" if not np.isfinite(mean[phi_idx]).all() else "theta"
                raise ValueError(f"non-finite {block} gradient")
            if not math.isfinite(objective):
                raise ValueError("non-finite objective")
        except (ValueError, FloatingPointError, OverflowError) as exc:
            return TrainResult(rows, p, True, step, str(exc))
        trace.update(mean)
        if step % eval_every == 0 or step == steps:
            rows.append(TrainRow(step, objective, heldout_bound(p),
                                 trace.trace(theta_idx), trace.trace(phi_idx)))
        if step < steps:
            opt.update(p.flat, np.negative(mean, out=grad))
    return TrainResult(rows, p, False)
