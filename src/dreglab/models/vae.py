"""Small MLP variational autoencoder with factorized Bernoulli outputs.

Encoder: x -> tanh -> tanh -> (mean, log-scale), each hidden layer of
`hidden` units, latent dimension `latent`.  Decoder: z -> tanh -> tanh
-> logits over `obs` pixels.  Prior is N(0, I).

`weight_context` builds the batched context that training and bulk
measurement use.  Both nets are the same tanh-tanh-linear MLP, so it is
stated once: `_forward` runs it (the encoder, and `Vae.decode`, which
also draws the synthetic dataset), `_backward` takes output seeds
to each layer's pre-activation grads, and `_rows` turns those grads and
the layer inputs into per-image W1, b1, W2, b2, W3, b3 rows summed over
the K draws.  dlog w_i/dtheta and the decoder part of dlog w_i/dz_i both
come from backpropagating the residual x - sigmoid(logits_i); since
backprop is linear in its seed, a context runs that backward once
(`VaeContext._pullback`) and `theta(c)` scales each layer's grads by c.

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


def _sigmoid(u):
    """Logistic 1 / (1 + exp(-u)), from exp(-|u|) so it never overflows."""
    e = np.exp(-np.abs(u))
    return np.where(u >= 0, 1.0, e) / (1.0 + e)


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

    def roles(self):
        return {name: role for name, _, role in self.template()}

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

    def weight_context(self, p, x, eps):
        return VaeContext(self, p, x, eps)


def _layers(p, net, fan_in, hidden):
    """[(W1, b1), (W2, b2), (W3, b3)] of the "enc" or "dec" MLP, W as (out, in)."""
    return [(p.view(f"{net}_w{i}").reshape(-1, n), p.view(f"{net}_b{i}"))
            for i, n in ((1, fan_in), (2, hidden), (3, hidden))]


def _forward(layers, u):
    """tanh-tanh-linear forward of u (..., in): (h1, h2, out)."""
    (w1, b1), (w2, b2), (w3, b3) = layers
    h1 = np.tanh(u @ w1.T + b1)
    h2 = np.tanh(h1 @ w2.T + b2)
    return h1, h2, h2 @ w3.T + b3


def _backward(layers, h1, h2, seed):
    """Output seeds (..., out) to each layer's pre-activation grads (g1, g2, seed).

    The grad at the MLP's input is g1 @ W1.
    """
    _, (w2, _), (w3, _) = layers
    g2 = (seed @ w3) * (1.0 - h2**2)
    return (g2 @ w2) * (1.0 - h1**2), g2, seed


def _rows(grads, inputs):
    """W1, b1, W2, b2, W3, b3 rows per image, summed over the K axis.

    grads and inputs are per-layer (B, K, out) and (B, K, in) arrays; the
    W rows are sum_k g_k in_k^T in row-major (out, in) order.  With a
    single draw (the encoder's K = 1 axis) each entry is one product, and
    an outer product runs 2-3x faster than the batched matmul, which wins
    from K = 8 on.
    """
    pieces = []
    for g, u in zip(grads, inputs):
        if g.shape[1] == 1:
            w = np.einsum("bo,bi->boi", g[:, 0], u[:, 0])
        else:
            w = g.swapaxes(1, 2) @ u
        pieces += [w.reshape(len(g), -1), g.sum(axis=1)]
    return np.concatenate(pieces, axis=1)


def _softplus(u):
    # the form np.logaddexp(0, u) evaluates, written out: numpy's
    # logaddexp loop is about 5x slower on (16, 8, 64) logits
    return np.maximum(u, 0.0) + np.log1p(np.exp(-np.abs(u)))


class VaeContext:
    """Batched weight context for a mini-batch of observations.

    x has shape (B, obs) with binary entries, or (obs,) for one
    observation shared by the whole batch; eps has shape (B, K, latent).
    lw is (B, K); contractions take c of shape (B, K) and return per-image
    rows (B, P_phi) or (B, P_theta) in layout order.
    """

    def __init__(self, family, p, x, eps):
        x = np.asarray(x, dtype=np.float64)
        eps = np.asarray(eps, dtype=np.float64)
        if eps.ndim == 2:
            eps = eps[None, :, :]
        bsz, k, dz = eps.shape
        if x.shape not in ((family.obs,), (bsz, family.obs)) or dz != family.latent:
            raise ValueError("shape mismatch between x and eps")
        self.x = x = np.broadcast_to(x, (bsz, family.obs))
        self._enc = _layers(p, "enc", family.obs, family.hidden)
        self._dec = _layers(p, "dec", dz, family.hidden)

        self.e_h1, self.e_h2, out = _forward(self._enc, x)
        self.mean = out[:, :dz]
        self.log_scale = out[:, dz:]
        self.scale = np.exp(self.log_scale)

        self.eps = eps
        self.z = self.mean[:, None, :] + self.scale[:, None, :] * eps
        self.d_h1, self.d_h2, self.logits = _forward(self._dec, self.z)

        log_px_z = np.sum(
            x[:, None, :] * self.logits - _softplus(self.logits), axis=2
        )
        log_pz = np.sum(-0.5 * gaussian.LOG_TWO_PI - 0.5 * self.z**2, axis=2)
        log_q = np.sum(
            -0.5 * gaussian.LOG_TWO_PI - self.log_scale[:, None, :] - 0.5 * eps**2,
            axis=2,
        )
        self.lw = log_pz + log_px_z - log_q

    @functools.cached_property
    def _pullback(self):
        """Decoder layer grads of each dlog p(x|z_i), seeded by x - sigmoid(logits)."""
        resid = self.x[:, None, :] - _sigmoid(self.logits)
        return _backward(self._dec, self.d_h1, self.d_h2, resid)

    def dlw_dz(self):
        """dlog w_i / dz_i: prior score + decoder pullback + entropy term."""
        to_z = self._pullback[0] @ self._dec[0][0]
        return -self.z + to_z + self.eps / self.scale[:, None, :]

    def theta(self, c):
        """Per-image decoder-parameter rows for sum_i c_i dlog w_i / dtheta."""
        c = c[:, :, None]
        return _rows([c * g for g in self._pullback], [self.z, self.d_h1, self.d_h2])

    def _enc_rows(self, umean, uls):
        """Per-image phi rows from seeds (B, latent) at the encoder's outputs."""
        seed = np.concatenate([umean, uls], axis=1)
        grads = _backward(self._enc, self.e_h1, self.e_h2, seed)
        return _rows([g[:, None, :] for g in grads],
                     [u[:, None, :] for u in (self.x, self.e_h1, self.e_h2)])

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
