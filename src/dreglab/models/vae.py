"""Small MLP variational autoencoder with factorized Bernoulli outputs.

Encoder: x -> tanh -> tanh -> (mean, log-scale), each hidden layer of
`hidden` units, latent dimension `latent`.  Decoder: z -> tanh -> tanh
-> logits over `obs` pixels.  Prior is N(0, I).

`weight_context` builds the batched context that training and bulk
measurement use.  Both nets are the same tanh-tanh-linear MLP, so it is
stated once: `_forward` runs it (the encoder, and `Vae.decode`, which
also draws the synthetic dataset), `_backward` takes output seeds
to each layer's pre-activation grads, and `_rows` turns those grads and
the layer inputs into W1, b1, W2, b2, W3, b3 rows.  dlog w_i/dtheta and
the decoder part of dlog w_i/dz_i both come from backpropagating the
residual x - sigmoid(logits_i); since backprop is linear in its seed, a
context runs that backward once (`VaeContext._pullback`) and `theta(c)`
weights each draw's grads by c.  The decoder runs on one flat (B*K, .)
layout, so each of its products is a single 2-D gemm.

Every contraction ends in one product, sum_i c_i g_i u_i^T over a group
of layer rows (B*K decoder rows, or B encoder rows).  Per-image rows
(B, P) take one group per image; a context built with ``sums=True``
takes all rows as one group, so its contractions return the batch sum
(P,) of those rows.  Training reads batch sums; the measurement folds
read rows.

Weight layout is row-major (out, in): W[j, k] multiplies input k into
output j.  Initialization is uniform +-sqrt(6 / (fan_in + fan_out)) for
weights and zero for biases.
"""

import functools
import math

import numpy as np

from .. import gaussian
from ..gaussian import Streams
from .params import build_params


def _sigmoid(u, e=None):
    """Logistic where(u >= 0, 1, e) / (1 + e) from e = exp(-|u|), so it
    never overflows; a caller that already holds e passes it.  Since
    e <= 1, the where is max(e, u >= 0), which does not branch."""
    if e is None:
        e = np.exp(-np.abs(u))
    out = np.greater_equal(u, 0.0, out=np.empty(np.shape(u)))
    np.maximum(out, e, out=out)
    out /= e + 1.0
    return out


def _glorot(rng, fan_out, fan_in):
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=fan_out * fan_in)


class Vae:
    def __init__(self, latent=10, hidden=20, obs=64):
        if min(latent, hidden, obs) <= 0:
            raise ValueError("dimensions must be positive")
        self.latent = latent
        self.hidden = hidden
        self.obs = obs

    def template(self):
        h, dz, dx = self.hidden, self.latent, self.obs
        return [
            ("enc_w1", h * dx, "phi"),
            ("enc_b1", h, "phi"),
            ("enc_w2", h * h, "phi"),
            ("enc_b2", h, "phi"),
            ("enc_w3", 2 * dz * h, "phi"),
            ("enc_b3", 2 * dz, "phi"),
            ("dec_w1", h * dz, "theta"),
            ("dec_b1", h, "theta"),
            ("dec_w2", h * h, "theta"),
            ("dec_b2", h, "theta"),
            ("dec_w3", dx * h, "theta"),
            ("dec_b3", dx, "theta"),
        ]

    def init_params(self, seed):
        rng = gaussian.stream_rng(seed, Streams.INIT)
        h, dz, dx = self.hidden, self.latent, self.obs
        chunks = [
            _glorot(rng, h, dx), np.zeros(h),
            _glorot(rng, h, h), np.zeros(h),
            _glorot(rng, 2 * dz, h), np.zeros(2 * dz),
            _glorot(rng, h, dz), np.zeros(h),
            _glorot(rng, h, h), np.zeros(h),
            _glorot(rng, dx, h), np.zeros(dx),
        ]
        return build_params(self.template(), np.concatenate(chunks))

    def decode(self, p, z):
        """Batched decoder forward: z (..., latent) to (h1, h2, logits)."""
        return _forward(_layers(p, "dec", self.latent, self.hidden), z)

    def weight_context(self, p, x, eps, sums=False):
        return VaeContext(self, p, x, eps, sums)


def _layers(p, net, fan_in, hidden):
    """[(W1, b1), (W2, b2), (W3, b3)] of the "enc" or "dec" MLP, W as (out, in)."""
    return [(p.view(f"{net}_w{i}").reshape(-1, n), p.view(f"{net}_b{i}"))
            for i, n in ((1, fan_in), (2, hidden), (3, hidden))]


def _forward(layers, u):
    """tanh-tanh-linear forward of u (..., in): (h1, h2, out)."""
    (w1, b1), (w2, b2), (w3, b3) = layers
    h1 = u @ w1.T
    h1 += b1
    h2 = np.tanh(h1, out=h1) @ w2.T
    h2 += b2
    out = np.tanh(h2, out=h2) @ w3.T
    out += b3
    return h1, h2, out


def _backward(layers, h1, h2, seed):
    """Output seeds to each layer's pre-activation grads (g1, g2, seed),
    all with h1's and h2's rows: a (B, K, out) seed is taken as the
    flat (B*K, out) rows of a decoder run.

    The grad at the MLP's input is g1 @ W1.
    """
    _, (w2, _), (w3, _) = layers
    seed = seed.reshape(h2.shape[:-1] + seed.shape[-1:])
    g2 = seed @ w3
    g2 *= 1.0 - h2**2
    g1 = g2 @ w2
    g1 *= 1.0 - h1**2
    return g1, g2, seed


def _rows(grads, inputs, groups, c=None):
    """W1, b1, W2, b2, W3, b3 rows (groups, P) of layer rows cut into
    ``groups`` runs of consecutive rows.

    grads and inputs are per-layer (..., out) and (..., in) rows and c,
    if given, their coefficients.  A run's W row is g.T @ (c u), in
    row-major (out, in) order, and its b row g.T @ c; without c they are
    g.T @ u and the column sums of g.
    """
    if c is not None:
        c = c.reshape(groups, -1, 1)
    pieces = []
    for g, u in zip(grads, inputs):
        g, u = g.reshape(groups, -1, g.shape[-1]), u.reshape(groups, -1, u.shape[-1])
        gt = g.swapaxes(1, 2)
        if c is None:
            pieces += [(gt @ u).reshape(groups, -1), g.sum(axis=1)]
        else:
            pieces += [(gt @ (c * u)).reshape(groups, -1), (gt @ c)[:, :, 0]]
    return np.concatenate(pieces, axis=1)


class VaeContext:
    """Batched weight context for a mini-batch of observations.

    x has shape (B, obs) with binary entries, or (obs,) for one
    observation shared by the whole batch; eps has shape (B, K, latent)
    or (K, latent).  lw is (B, K); contractions take c of shape (B, K)
    and return `_rows` with one group per image, (B, P_phi) or
    (B, P_theta) in layout order, or with ``sums`` the one row (P,) of
    one group of all rows, their batch sum.  The decoder's activations
    d_h1 and d_h2 are flat (B*K, hidden) rows; z and logits (B, K, .).
    """

    def __init__(self, family, p, x, eps, sums=False):
        x = np.asarray(x, dtype=np.float64)
        eps = np.asarray(eps, dtype=np.float64)
        if eps.ndim == 2:
            eps = eps[None, :, :]
        if eps.ndim != 3 or eps.shape[2] != family.latent:
            raise ValueError("eps must have shape (B, K, latent) or (K, latent)")
        bsz, k, dz = eps.shape
        if x.shape not in ((family.obs,), (bsz, family.obs)):
            raise ValueError("shape mismatch between x and eps")
        if x.ndim == 1:
            x = np.broadcast_to(x, (bsz, family.obs))
        self.x = x
        self.sums = sums
        self._enc = _layers(p, "enc", family.obs, family.hidden)
        self._dec = _layers(p, "dec", dz, family.hidden)

        self.e_h1, self.e_h2, out = _forward(self._enc, x)
        self.mean = out[:, :dz]
        self.log_scale = out[:, dz:]
        self.scale = np.exp(self.log_scale)

        self.eps = eps
        self.z = self.scale[:, None, :] * eps
        self.z += self.mean[:, None, :]
        self.d_h1, self.d_h2, logits = _forward(self._dec, self.z.reshape(-1, dz))
        self.logits = logits = logits.reshape(bsz, k, -1)
        # exp(-|logits|), shared by the softplus here and the sigmoid of
        # the pullback's residual
        self._exp_neg_abs = e = np.abs(logits)
        np.exp(np.negative(e, out=e), out=e)
        # log p(x|z) = sum x logits - softplus(logits), with the softplus
        # written out as np.logaddexp(0, u) evaluates it, max(u, 0) +
        # log1p(e): numpy's logaddexp loop is about 5x slower
        log_px_z = np.log1p(e)
        log_px_z += np.maximum(logits, 0.0)
        np.subtract(x[:, None, :] * logits, log_px_z, out=log_px_z)
        # log p(z) - log q(z|x) = (|eps|^2 - |z|^2) / 2 + sum log scale:
        # the 2 pi terms cancel
        half_sq = np.square(eps)
        half_sq -= np.square(self.z)
        self.lw = log_px_z.sum(axis=2)
        self.lw += 0.5 * half_sq.sum(axis=2) + self.log_scale.sum(axis=1)[:, None]

    def _contract(self, grads, inputs, c=None):
        rows = _rows(grads, inputs, 1 if self.sums else len(self.x), c)
        return rows[0] if self.sums else rows

    @functools.cached_property
    def _pullback(self):
        """Decoder layer grads of each dlog p(x|z_i), seeded by x - sigmoid(logits),
        as flat (B*K, .) rows."""
        resid = _sigmoid(self.logits, self._exp_neg_abs)
        np.subtract(self.x[:, None, :], resid, out=resid)
        return _backward(self._dec, self.d_h1, self.d_h2, resid)

    def dlw_dz(self):
        """dlog w_i / dz_i: prior score + decoder pullback + entropy term."""
        out = (self._pullback[0] @ self._dec[0][0]).reshape(self.z.shape)
        out -= self.z
        out += self.eps / self.scale[:, None, :]
        return out

    def theta(self, c):
        """Decoder-parameter rows for sum_i c_i dlog w_i / dtheta."""
        return self._contract(self._pullback, (self.z, self.d_h1, self.d_h2), c)

    def _enc_rows(self, umean, uls):
        """phi rows from seeds (B, latent) at the encoder's outputs."""
        seed = np.concatenate([umean, uls], axis=1)
        grads = _backward(self._enc, self.e_h1, self.e_h2, seed)
        return self._contract(grads, (self.x, self.e_h1, self.e_h2))

    def path(self, c):
        g = c[:, :, None] * self.dlw_dz()
        umean = np.sum(g, axis=1)
        uls = np.sum(g * (self.z - self.mean[:, None, :]), axis=1)
        return self._enc_rows(umean, uls)

    def score(self, c):
        """sum_i c_i dlog q(z_i|x)/dphi with z_i held fixed."""
        umean = np.einsum("bk,bkj->bj", c, self.eps) / self.scale
        uls = np.einsum("bk,bkj->bj", c, self.eps**2 - 1.0)
        return self._enc_rows(umean, uls)
