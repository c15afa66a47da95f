"""Small MLP variational autoencoder with factorized Bernoulli outputs.

Encoder: x -> tanh -> tanh -> (mean, log-scale), each hidden layer of
`hidden` units, latent dimension `latent`.  Decoder: z -> tanh -> tanh
-> logits over `obs` pixels.  Prior is N(0, I).

Two evaluation routes, same convention as the toy family.  The generic
route runs the layers element-by-element so parameters can be tape
nodes; it is the reference for stop-gradient surrogates.  The closed
form route (`weight_context`) is a batched numpy forward plus manual
backprop closures used by training and bulk measurement; tests pin the
two routes against each other and against finite differences.  Its
decoder forward, `Vae.decode`, is also what draws the synthetic dataset.

Weight layout is row-major (out, in): W[j, k] multiplies input k into
output j.  Initialization is uniform +-sqrt(6 / (fan_in + fan_out)) for
weights and zero for biases.
"""

import math

import numpy as np

from .. import gaussian
from ..gaussian import DiagGaussian, Streams, bernoulli_log_prob, gsum
from ..tape import TapeScalar
from .params import build_params


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

    # generic route ------------------------------------------------------

    def _layer(self, nodes, w_name, b_name, inputs, in_dim, out_dim, activate):
        w = nodes[w_name]
        b = nodes[b_name]
        out = []
        for j in range(out_dim):
            row = w[j * in_dim : (j + 1) * in_dim]
            acc = [wk * xk for wk, xk in zip(row, inputs) if _alive(wk, xk)]
            acc.append(b[j])
            y = gsum(acc)
            out.append(y.tanh() if activate and isinstance(y, TapeScalar) else
                       (math.tanh(y) if activate else y))
        return out

    def _nodes_of(self, source):
        if hasattr(source, "nodes"):
            return source.nodes
        return {name: list(source.view(name)) for name in source.layout}

    def inference(self, source, x):
        nodes = self._nodes_of(source)
        h, dz, dx = self.hidden, self.latent, self.obs
        x = [float(v) for v in x]
        if len(x) != dx:
            raise ValueError("observation dimension mismatch")
        h1 = self._layer(nodes, "enc_w1", "enc_b1", x, dx, h, True)
        h2 = self._layer(nodes, "enc_w2", "enc_b2", h1, h, h, True)
        out = self._layer(nodes, "enc_w3", "enc_b3", h2, h, 2 * dz, False)
        return DiagGaussian(mean=out[:dz], log_scale=out[dz:])

    def decoder_logits(self, source, z):
        nodes = self._nodes_of(source)
        h, dz, dx = self.hidden, self.latent, self.obs
        h1 = self._layer(nodes, "dec_w1", "dec_b1", z, dz, h, True)
        h2 = self._layer(nodes, "dec_w2", "dec_b2", h1, h, h, True)
        return self._layer(nodes, "dec_w3", "dec_b3", h2, h, dx, False)

    def log_joint(self, source, x, z):
        """log N(z; 0, I) + log Bernoulli(x | decoder(z))."""
        if len(z) != self.latent:
            raise ValueError("latent dimension mismatch")
        prior = gsum([
            -0.5 * gaussian.LOG_TWO_PI - 0.5 * _sq(zj) for zj in z
        ])
        logits = self.decoder_logits(source, z)
        return prior + bernoulli_log_prob(logits, x)

    # closed-form route --------------------------------------------------

    def decode(self, p, z):
        """Batched decoder forward: z (..., latent) to (h1, h2, logits)."""
        h = self.hidden
        h1 = np.tanh(z @ p.view("dec_w1").reshape(h, self.latent).T + p.view("dec_b1"))
        h2 = np.tanh(h1 @ p.view("dec_w2").reshape(h, h).T + p.view("dec_b2"))
        return h1, h2, h2 @ p.view("dec_w3").reshape(self.obs, h).T + p.view("dec_b3")

    def weight_context(self, p, x, eps):
        return VaeContext(self, p, x, eps)


def _alive(wk, xk):
    if isinstance(wk, TapeScalar) or isinstance(xk, TapeScalar):
        return True
    return wk != 0.0 and xk != 0.0


def _sq(u):
    return u.square() if isinstance(u, TapeScalar) else u * u


def _sigmoid(u):
    out = np.empty_like(u)
    pos = u >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-u[pos]))
    e = np.exp(u[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def _softplus(u):
    return np.maximum(u, 0.0) + np.log1p(np.exp(-np.abs(u)))


class VaeContext:
    """Batched weight context for a mini-batch of observations.

    x has shape (B, obs) with binary entries; eps has shape (B, K, latent).
    lw is (B, K); contractions take c of shape (B, K) and return per-image
    rows (B, P_phi) or (B, P_theta) in layout order.
    """

    def __init__(self, family, p, x, eps):
        self.family = family
        x = np.asarray(x, dtype=np.float64)
        if x.ndim == 1:
            x = x[None, :]
        eps = np.asarray(eps, dtype=np.float64)
        if eps.ndim == 2:
            eps = eps[None, :, :]
        bsz, k, dz = eps.shape
        if x.shape != (bsz, family.obs) or dz != family.latent:
            raise ValueError("shape mismatch between x and eps")
        h = family.hidden
        d = {name: p.view(name) for name in p.layout}
        w = {n: d[n].reshape(-1, inp) for n, inp in [
            ("enc_w1", family.obs), ("enc_w2", h), ("enc_w3", h),
            ("dec_w1", dz), ("dec_w2", h), ("dec_w3", h),
        ]}

        # encoder forward, cached for backprop
        self.x = x
        self.e_a1 = x @ w["enc_w1"].T + d["enc_b1"]
        self.e_h1 = np.tanh(self.e_a1)
        self.e_a2 = self.e_h1 @ w["enc_w2"].T + d["enc_b2"]
        self.e_h2 = np.tanh(self.e_a2)
        out = self.e_h2 @ w["enc_w3"].T + d["enc_b3"]
        self.mean = out[:, :dz]
        self.log_scale = out[:, dz:]
        self.scale = np.exp(self.log_scale)

        self.eps = eps
        self.z = self.mean[:, None, :] + self.scale[:, None, :] * eps

        # decoder forward per (image, draw)
        self.d_h1, self.d_h2, self.logits = family.decode(p, self.z)

        log_px_z = np.sum(
            x[:, None, :] * self.logits - _softplus(self.logits), axis=2
        )
        log_pz = np.sum(-0.5 * gaussian.LOG_TWO_PI - 0.5 * self.z**2, axis=2)
        log_q = np.sum(
            -0.5 * gaussian.LOG_TWO_PI - self.log_scale[:, None, :] - 0.5 * eps**2,
            axis=2,
        )
        self.lw = log_pz + log_px_z - log_q
        self._w = w

    @property
    def n(self):
        return self.lw.shape[0]

    @property
    def k(self):
        return self.lw.shape[1]

    def _dec_back_to_z(self, dlogits):
        """Backprop (B, K, obs) logit seeds to (B, K, latent) z grads."""
        w = self._w
        g2 = np.einsum("bko,og->bkg", dlogits, w["dec_w3"]) * (1.0 - self.d_h2**2)
        g1 = np.einsum("bkg,gh->bkh", g2, w["dec_w2"]) * (1.0 - self.d_h1**2)
        return np.einsum("bkh,hj->bkj", g1, w["dec_w1"])

    def dlw_dz(self):
        """dlog w_i / dz_i: prior score + decoder pullback + entropy term."""
        resid = self.x[:, None, :] - _sigmoid(self.logits)
        return -self.z + self._dec_back_to_z(resid) + self.eps / self.scale[:, None, :]

    def theta(self, c):
        """Per-image decoder-parameter rows for sum_i c_i dlog w_i / dtheta."""
        w = self._w
        dlogits = c[:, :, None] * (self.x[:, None, :] - _sigmoid(self.logits))
        g2 = np.einsum("bko,og->bkg", dlogits, w["dec_w3"]) * (1.0 - self.d_h2**2)
        g1 = np.einsum("bkg,gh->bkh", g2, w["dec_w2"]) * (1.0 - self.d_h1**2)
        pieces = [
            np.einsum("bkh,bkj->bhj", g1, self.z).reshape(self.n, -1),
            np.sum(g1, axis=1),
            np.einsum("bkg,bkh->bgh", g2, self.d_h1).reshape(self.n, -1),
            np.sum(g2, axis=1),
            np.einsum("bko,bkg->bog", dlogits, self.d_h2).reshape(self.n, -1),
            np.sum(dlogits, axis=1),
        ]
        return np.concatenate(pieces, axis=1)

    def _enc_back(self, umean, uls):
        """Backprop output seeds (B, latent) each to per-image phi rows."""
        w = self._w
        useed = np.concatenate([umean, uls], axis=1)
        g2 = (useed @ w["enc_w3"]) * (1.0 - self.e_h2**2)
        g1 = (g2 @ w["enc_w2"]) * (1.0 - self.e_h1**2)
        pieces = [
            np.einsum("bh,bj->bhj", g1, self.x).reshape(self.n, -1),
            g1,
            np.einsum("bg,bh->bgh", g2, self.e_h1).reshape(self.n, -1),
            g2,
            np.einsum("bo,bg->bog", useed, self.e_h2).reshape(self.n, -1),
            useed,
        ]
        return np.concatenate(pieces, axis=1)

    def path(self, c):
        g = c[:, :, None] * self.dlw_dz()
        umean = np.sum(g, axis=1)
        uls = np.sum(g * (self.z - self.mean[:, None, :]), axis=1)
        return self._enc_back(umean, uls)

    def score(self, c):
        """sum_i c_i dlog q(z_i|x)/dphi with z_i held fixed."""
        umean = np.einsum("bk,bkj->bj", c, self.eps) / self.scale
        uls = np.einsum("bk,bkj->bj", c, self.eps**2 - 1.0)
        return self._enc_back(umean, uls)
