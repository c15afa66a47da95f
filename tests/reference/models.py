"""The model families with their generic route.

`Toy` and `Vae` subclass the bulk families of `dreglab.models`, whose
templates, `init_params` and weight contexts they keep, and add the
generic route: `inference` and `log_joint` run element by element on a
parameter source whose `view(name)` gives floats (a `ParamVector`) or
TapeScalars (`LiftedParams`), so the tape runs the same code as plain
floats and must agree with the closed-form contexts to near machine
precision.  `Toy` also gives the exact `log_marginal`, log N(x; theta,
2I), which the tests check weights and bounds against.

The toy's shared mode ties the inference map to the generative mean by
A = diag(theta) with a free bias, so every theta coordinate also moves
q.  Its template still tags theta "theta": the sharing is the model's
(`shared`), not a role of the layout.  It exists for the stop-gradient
placement tests and has no closed-form context.
"""

import math

import numpy as np

from dreglab import models
from dreglab.gaussian import LOG_TWO_PI
from dreglab.models import build_params, toy_optimal_inference

from .gaussian import DiagGaussian, bernoulli_log_prob, gsquare, gsum
from .tape import TapeScalar


class LiftedParams:
    """Tape inputs for every coordinate of a ParamVector, in flat order.

    `nodes[name]`, also `view(name)`, is the list of TapeScalars for that
    slice; `grad_vector` maps a backward() result back onto the flat
    coordinate order.
    """

    def __init__(self, graph, p):
        self.graph = graph
        self.nodes = {}
        self.node_ids = np.empty(p.size, dtype=np.intp)
        for name, (off, length) in p.layout.items():
            ns = graph.input_vector(p.flat[off : off + length])
            self.nodes[name] = ns
            self.node_ids[off : off + length] = [n.idx for n in ns]

    def view(self, name):
        return self.nodes[name]

    def grad_vector(self, grads):
        return np.array([grads[i] for i in self.node_ids])


lift = LiftedParams


def _live(u, v=1.0):
    # a product with a tape node always takes part; a zero float one is dropped
    return isinstance(u, TapeScalar) or isinstance(v, TapeScalar) or (u != 0.0 and v != 0.0)


class Toy(models.Toy):
    def __init__(self, d, q_variance=2.0 / 3.0, shared=False):
        super().__init__(d, q_variance)
        self.shared = bool(shared)

    def template(self):
        if self.shared:
            return [("theta", self.d, "theta"), ("b", self.d, "phi")]
        return super().template()

    def init_params(self, theta):
        if not self.shared:
            return super().init_params(theta)
        theta = [float(t) for t in theta]
        return build_params(self.template(), theta + toy_optimal_inference(theta)[1])

    def log_marginal(self, p, x):
        """log N(x; theta, 2I), exact."""
        x = np.asarray(x, dtype=np.float64)
        return float(-0.5 * self.d * math.log(4.0 * math.pi)
                     - 0.25 * np.sum((x - p.view("theta")) ** 2))

    def inference(self, source, x):
        d = self.d
        if self.shared:  # A = diag(theta)
            theta = source.view("theta")
            a = [[theta[j] if j == k else 0.0 for k in range(d)] for j in range(d)]
        else:
            a = [source.view("a")[j * d : (j + 1) * d] for j in range(d)]
        b = source.view("b")
        mean = [gsum([a[j][k] * float(x[k]) for k in range(d) if _live(a[j][k])] + [b[j]])
                for j in range(d)]
        # fixed variance: on a tape, constants that backward never reports
        ls = 0.5 * math.log(self.q_variance)
        graph = getattr(source, "graph", None)
        return DiagGaussian(mean, [ls if graph is None else graph.constant(ls) for _ in mean])

    def log_joint(self, source, x, z):
        """log N(z; theta, I) + log N(x; z, I), generic elements."""
        theta = source.view("theta")
        if len(x) != self.d or len(z) != self.d:
            raise ValueError("dimension mismatch in log joint")
        terms = []
        for j in range(self.d):
            terms.append(-0.5 * LOG_TWO_PI - 0.5 * gsquare(z[j] - theta[j]))
            terms.append(-0.5 * LOG_TWO_PI - 0.5 * gsquare(float(x[j]) - z[j]))
        return gsum(terms)

    def weight_context(self, p, x, eps):
        if self.shared:
            raise ValueError("closed-form context requires an unshared toy")
        return super().weight_context(p, x, eps)


class Vae(models.Vae):
    def _mlp(self, source, net, u, fan_in, fan_out):
        """The tanh-tanh-linear MLP ``net`` ("enc" or "dec") on u."""
        h = self.hidden
        for i, (n_in, n_out) in enumerate(((fan_in, h), (h, h), (h, fan_out)), 1):
            w, b = source.view(f"{net}_w{i}"), source.view(f"{net}_b{i}")
            out = []
            for j in range(n_out):
                row = w[j * n_in : (j + 1) * n_in]
                y = gsum([wk * uk for wk, uk in zip(row, u) if _live(wk, uk)] + [b[j]])
                if i < 3:
                    y = y.tanh() if isinstance(y, TapeScalar) else math.tanh(y)
                out.append(y)
            u = out
        return u

    def inference(self, source, x):
        x = [float(v) for v in x]
        if len(x) != self.obs:
            raise ValueError("observation dimension mismatch")
        out = self._mlp(source, "enc", x, self.obs, 2 * self.latent)
        return DiagGaussian(mean=out[: self.latent], log_scale=out[self.latent :])

    def log_joint(self, source, x, z):
        """log N(z; 0, I) + log Bernoulli(x | decoder(z))."""
        if len(z) != self.latent:
            raise ValueError("latent dimension mismatch")
        prior = gsum([-0.5 * LOG_TWO_PI - 0.5 * gsquare(zj) for zj in z])
        logits = self._mlp(source, "dec", z, self.latent, self.obs)
        return prior + bernoulli_log_prob(logits, x)
