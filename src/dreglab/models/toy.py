"""Analytic linear-Gaussian model family.

Generative model: z ~ N(theta, I), x | z ~ N(z, I).  Inference network:
q(z|x) = N(Ax + b, q_variance * I) with q_variance fixed at 2/3 and
non-trainable (1/2 makes q the exact posterior and is allowed only so
tests can exercise the zero-variance collapse).

Everything about this family is closed-form: the marginal is
N(x; theta, 2I), the optimal inference map is A* = I/2, b* = theta/2,
and with z = mu + s eps the log weight is quadratic in eps and its
z-partial affine in eps.  So `weight_context` reduces every gradient
contraction with per-sample coefficients c to two primitives,
sum_i c_i and sum_i c_i eps_i (see `ToyContext`).
"""

import math

import numpy as np

from ..gaussian import LOG_TWO_PI
from .params import build_params


def toy_optimal_inference(theta):
    """Exact posterior mean map: p(z|x) = N((x + theta)/2, I/2)."""
    d = len(theta)
    a = [[0.5 if j == k else 0.0 for k in range(d)] for j in range(d)]
    b = [0.5 * float(t) for t in theta]
    return a, b


class Toy:
    """Model family handle: parameter layout, initial params, contexts."""

    def __init__(self, d, q_variance=2.0 / 3.0):
        if q_variance <= 0:
            raise ValueError("q_variance must be positive")
        self.d = d
        self.latent = d  # noise dimension per draw, as on Vae
        self.q_variance = float(q_variance)

    def template(self):
        d = self.d
        return [("theta", d, "theta"), ("a", d * d, "phi"), ("b", d, "phi")]

    def roles(self):
        return {name: role for name, _, role in self.template()}

    def init_params(self, theta):
        """ParamVector at the optimal inference map for the given theta."""
        theta = [float(t) for t in theta]
        if len(theta) != self.d:
            raise ValueError("theta dimension mismatch")
        a_opt, b_opt = toy_optimal_inference(theta)
        values = theta + [v for row in a_opt for v in row] + b_opt
        return build_params(self.template(), values)

    def log_marginal(self, p, x):
        """log N(x; theta, 2I), exact."""
        x = np.asarray(x, dtype=np.float64)
        return float(-0.5 * self.d * math.log(4.0 * math.pi)
                     - 0.25 * np.sum((x - p.view("theta")) ** 2))

    def weight_context(self, p, x, eps):
        return ToyContext(self, p, x, eps)


class ToyContext:
    """Vectorized weight context in two-primitive form.

    eps has shape (n, K, d); lw is (n, K).  With z = mu + s eps (mu the q
    mean, v = s^2 the q variance) and g = theta + x - 2 mu, the log weight
    is quadratic in eps and its z-partial is affine in eps:

        lw_i        = c0 + s (eps_i . g) + (1/2 - v) |eps_i|^2
        dlog w_i/dz = g + s (1/v - 2) eps_i
        z_i - theta = (mu - theta) + s eps_i

    so every contraction with per-sample coefficients c of shape (n, K)
    needs only S0 = sum_i c_i and S1 = sum_i c_i eps_i:

        path(c)  = Phi(S0 g + s (1/v - 2) S1)   -> (n, P_phi)
        score(c) = Phi(S1 / s)                  -> (n, P_phi)
        theta(c) = S0 (mu - theta) + s S1       -> (n, P_theta)

    Phi turns a seed u at the q mean into phi rows in layout order: the
    outer product u x^T for A (row-major), then u itself for b.  The
    context keeps eps and lw; no other (n, K, d) array is built.
    """

    def __init__(self, family, p, x, eps):
        eps = np.asarray(eps, dtype=np.float64)
        if eps.ndim == 2:
            eps = eps[None, :, :]
        if eps.ndim != 3 or eps.shape[2] != family.d:
            raise ValueError("eps must have shape (n, K, d) or (K, d)")
        d = family.d
        theta = p.view("theta")
        a = p.view("a").reshape(d, d)
        b = p.view("b")
        x = np.asarray(x, dtype=np.float64)
        v = family.q_variance
        s = math.sqrt(v)
        mean = a @ x + b
        g = theta + x - 2.0 * mean
        c0 = (
            -0.5 * np.sum((mean - theta) ** 2)
            - 0.5 * np.sum((x - mean) ** 2)
            - 0.5 * d * LOG_TWO_PI
            + d * math.log(s)
        )
        self.lw = eps @ (s * g)
        self.lw += (0.5 - v) * np.einsum("nkd,nkd->nk", eps, eps)
        self.lw += c0
        self.eps = eps
        self._x = x
        self._s = s
        self._g = g
        self._path_eps = s * (1.0 / v - 2.0)
        self._mean_offset = mean - theta
        self._s1_of = None  # the coefficients of the kept S1

    def _s1(self, c):
        # S1 = sum_i c_i eps_i, (n, d); S0 is c.sum(axis=1, keepdims=True).
        # The path, score and theta contractions of one base read the same
        # array back to back, so the last S1 is kept, keyed on the identity
        # of c (held here, so the id cannot be reused); coefficient arrays
        # are never mutated once built
        if c is not self._s1_of:
            self._s1_of = c
            self._s1_last = np.matmul(c[:, None, :], self.eps)[:, 0, :]
        return self._s1_last

    def _phi_rows(self, u):
        # u: (n, d) seed at the q mean; A gets the outer product with x
        da = u[:, :, None] * self._x[None, None, :]
        return np.concatenate([da.reshape(u.shape[0], -1), u], axis=1)

    def path(self, c):
        s0 = c.sum(axis=1, keepdims=True)
        return self._phi_rows(s0 * self._g + self._path_eps * self._s1(c))

    def score(self, c):
        return self._phi_rows(self._s1(c) / self._s)

    def theta(self, c):
        s0 = c.sum(axis=1, keepdims=True)
        return s0 * self._mean_offset + self._s * self._s1(c)
