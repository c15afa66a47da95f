"""Analytic linear-Gaussian model family.

Generative model: z ~ N(theta, I), x | z ~ N(z, I).  Inference network:
q(z|x) = N(Ax + b, q_variance * I) with q_variance fixed at 2/3 and
non-trainable (1/2 makes q the exact posterior and is allowed only so
tests can exercise the zero-variance collapse).

Everything about this family is closed-form: the marginal is
N(x; theta, 2I), the optimal inference map is A* = I/2, b* = theta/2,
and with z = mu + s eps the log weight is quadratic in eps and its
z-partial affine in eps.  So `weight_context`, the vectorized bulk route
used for measurement, reduces every gradient contraction with
per-sample coefficients c to two primitives, sum_i c_i and
sum_i c_i eps_i (see `ToyContext`).  The tape route goes through
`log_joint`/`inference` with lifted parameters and must agree with the
closed forms to near machine precision (the tests pin this).

The shared mode ties the inference map to the generative mean by
A = diag(theta) with a free bias, giving every theta coordinate both
roles at once; it exists for the stop-gradient placement tests and has
no closed-form context.
"""

import math
from dataclasses import dataclass

import numpy as np

from ..gaussian import LOG_TWO_PI, DiagGaussian, gsum
from ..tape import TapeScalar
from .params import build_params


@dataclass
class ToyModel:
    """Parameter container with generic elements (floats or TapeScalars)."""

    theta: list
    a_matrix: list  # d rows of d entries
    b: list
    q_variance: float


def toy_optimal_inference(theta):
    """Exact posterior mean map: p(z|x) = N((x + theta)/2, I/2)."""
    d = len(theta)
    a = [[0.5 if j == k else 0.0 for k in range(d)] for j in range(d)]
    b = [0.5 * float(t) for t in theta]
    return a, b


class Toy:
    """Model family handle: builds params, both evaluation routes."""

    def __init__(self, d, q_variance=2.0 / 3.0, shared=False):
        if q_variance <= 0:
            raise ValueError("q_variance must be positive")
        self.d = d
        self.q_variance = float(q_variance)
        self.shared = bool(shared)

    def template(self):
        d = self.d
        if self.shared:
            return [("theta", d, "shared"), ("b", d, "phi")]
        return [("theta", d, "theta"), ("a", d * d, "phi"), ("b", d, "phi")]

    def roles(self):
        return {name: role for name, _, role in self.template()}

    def init_params(self, theta):
        """ParamVector at the optimal inference map for the given theta."""
        theta = [float(t) for t in theta]
        if len(theta) != self.d:
            raise ValueError("theta dimension mismatch")
        a_opt, b_opt = toy_optimal_inference(theta)
        if self.shared:
            values = theta + b_opt
        else:
            values = theta + [v for row in a_opt for v in row] + b_opt
        return build_params(self.template(), values)

    def model_from(self, source):
        """Numeric ToyModel from a ParamVector, or lifted from LiftedParams."""
        nodes = source.nodes if hasattr(source, "nodes") else None
        d = self.d
        if nodes is None:
            theta = list(source.view("theta"))
            b = list(source.view("b"))
            if self.shared:
                a = [[theta[j] if j == k else 0.0 for k in range(d)] for j in range(d)]
            else:
                flat_a = list(source.view("a"))
                a = [flat_a[j * d : (j + 1) * d] for j in range(d)]
            return ToyModel(theta, a, b, self.q_variance)
        theta = nodes["theta"]
        b = nodes["b"]
        if self.shared:
            a = [[theta[j] if j == k else 0.0 for k in range(d)] for j in range(d)]
        else:
            flat_a = nodes["a"]
            a = [flat_a[j * d : (j + 1) * d] for j in range(d)]
        return ToyModel(theta, a, b, self.q_variance)

    def _resolve(self, source):
        return source if isinstance(source, ToyModel) else self.model_from(source)

    def inference(self, source, x):
        m = self._resolve(source)
        mean = []
        for j in range(self.d):
            acc = [m.a_matrix[j][k] * float(x[k]) for k in range(self.d) if _nonzero(m.a_matrix[j][k])]
            acc.append(m.b[j])
            mean.append(gsum(acc))
        ls_value = 0.5 * math.log(m.q_variance)
        log_scale = [_frozen_scale(mean, ls_value) for _ in range(self.d)]
        return DiagGaussian(mean=mean, log_scale=log_scale)

    def log_joint(self, source, x, z):
        return toy_log_joint(self._resolve(source), x, z)

    def log_marginal(self, source, x):
        return toy_log_marginal(self._resolve(source), x)

    def weight_context(self, p, x, eps):
        if self.shared:
            raise ValueError("closed-form context requires disjoint roles")
        return ToyContext(self, p, x, eps)


def _nonzero(entry):
    return isinstance(entry, TapeScalar) or entry != 0.0


def _frozen_scale(mean, value):
    # fixed variance: a tape constant (never reported by backward) when the
    # mean lives on a tape, a plain float otherwise
    for entry in mean:
        if isinstance(entry, TapeScalar):
            return entry.graph.constant(value)
    return value


def toy_log_joint(m, x, z):
    """log N(z; theta, I) + log N(x; z, I), generic elements."""
    d = len(m.theta)
    if len(x) != d or len(z) != d:
        raise ValueError("dimension mismatch in log joint")
    terms = []
    for j in range(d):
        prior = (z[j] - m.theta[j])
        lik = (float(x[j]) - z[j])
        terms.append(-0.5 * LOG_TWO_PI - 0.5 * _square(prior))
        terms.append(-0.5 * LOG_TWO_PI - 0.5 * _square(lik))
    return gsum(terms)


def _square(u):
    return u.square() if isinstance(u, TapeScalar) else u * u


def toy_log_marginal(m, x):
    """log N(x; theta, 2I), exact."""
    theta = np.array([float(t) for t in m.theta])
    x = np.asarray(x, dtype=np.float64)
    d = theta.size
    return float(-0.5 * d * math.log(4.0 * math.pi) - 0.25 * np.sum((x - theta) ** 2))


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

    @property
    def n(self):
        return self.lw.shape[0]

    @property
    def k(self):
        return self.lw.shape[1]

    def _s1(self, c):
        # S1 = sum_i c_i eps_i, (n, d); S0 is c.sum(axis=1, keepdims=True)
        return np.matmul(c[:, None, :], self.eps)[:, 0, :]

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
