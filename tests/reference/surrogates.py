"""Single-scalar surrogate objectives whose tape gradient IS the estimator.

Each surrogate is one TapeScalar built from K reparameterized samples,
with the gradient-stopped quantities entering as plain numbers instead
of tape nodes.  The noise eps is a plain (K, d) array, the same one a
weight context takes for a single draw.  The estimator table of
`dreglab.estimators` supplies the coefficients (`phi_terms` reads a recipe as
((side, base), weight) pairs over `ChunkWeights` bases, and each pair
adds weight * base to its side's coefficient), and three freeze
channels carry its three terms:

  weight coefficients   c_path, c_score and c_theta, computed
                        numerically from the frozen log weights; a
                        coefficient never contributes a gradient
  z frozen              densities evaluated at numeric z: only the
                        direct parameter channel survives (theta and
                        score terms)
  parameters frozen     densities evaluated with numeric parameters but
                        live z: only the sample channel survives (path
                        terms)

so the objective of estimator id ``kind`` is

    sum_i c_theta_i log p(x, z*_i)
      + sum_i c_path_i lw_frozen(z_i) - sum_i c_score_i log q(z*_i)

The score term enters as log q(z*) - log q_frozen(z*), which is zero in
value, so estimators that differ only in their score coefficients (iwae
and stl) have equal surrogate values.

The frozen quantities are evaluated from `stops_from`, which defaults
to the live parameter vector.  Because the density code is generic over
floats and tape nodes, the default reproduces exactly what stop
gradient nodes would compute, while a caller probing the value at
perturbed live parameters can hold `stops_from` at a base point.  That
makes every surrogate an ordinary smooth function of its live
parameters, so central finite differences of `.value` are a valid
oracle for `.gradient()`.

Every surrogate is an ascent objective, as every table row is an ascent
direction: its gradient is exactly the direct phi and theta rows.
"""

import numpy as np

from dreglab.estimators import ChunkWeights, recipe
from dreglab.estimators.gradients import phi_terms

from .gaussian import DiagGaussian, log_prob, sample_reparam
from .models import lift
from .tape import TapeGraph, tape_sum


class SurrogateLoss:
    """The assembled objective plus the lifted parameters behind it."""

    def __init__(self, kind, root, lifted, alpha=None):
        self.kind = kind
        self.root = root
        self.lifted = lifted
        self.alpha = alpha

    @property
    def value(self):
        return self.root.value

    def gradient(self):
        """Flat gradient over all parameter coordinates, layout order."""
        grads = self.lifted.graph.backward(self.root)
        return self.lifted.grad_vector(grads)


def surrogate_loss(kind, model, params, x, eps, alpha=None, stops_from=None):
    """Build the surrogate objective of estimator id ``kind`` on a fresh tape.

    ``model`` is a family of `reference.models`, whose generic route
    the surrogate runs; eps is the plain (K, d) noise array that weight
    contexts take.  Returns a SurrogateLoss; its `.gradient()` is the
    estimator for all parameters at once.  Works for the shared toy as
    for disjoint models, which is the point: the freeze placements, not
    the role bookkeeping, decide where gradients flow.
    """
    r = recipe(kind, alpha)
    frozen = params if stops_from is None else stops_from

    # numeric side: everything a stop-gradient would hold constant
    q_star = model.inference(frozen, x)
    k = len(eps)
    z_star = [sample_reparam(q_star, eps[i]) for i in range(k)]
    lw_star = np.array(
        [
            model.log_joint(frozen, x, z) - log_prob(q_star, z)
            for z in z_star
        ]
    )
    w = ChunkWeights(lw_star)
    q_frozen = DiagGaussian(mean=list(q_star.mean), log_scale=list(q_star.log_scale))

    # live side
    graph = TapeGraph()
    lifted = lift(graph, params)
    q = model.inference(lifted, x)

    def theta_term(i):
        return model.log_joint(lifted, x, z_star[i])

    def path_term(i):
        # parameter channels frozen, the sample channel live
        z = sample_reparam(q, eps[i])
        return model.log_joint(frozen, x, z) - log_prob(q_frozen, z)

    def score_term(i):
        return log_prob(q, z_star[i]) - log_prob(q_frozen, z_star[i])

    # the table's phi pairs carry the score term's minus sign; each
    # side's K tape nodes are built once, however many bases it takes
    pairs = phi_terms(r, alpha)
    side_term = {"path": path_term, "score": score_term}
    nodes = {side: [side_term[side](i) for i in range(k)]
             for side in dict.fromkeys(side for (side, _), _ in pairs)}
    c = getattr(w, r.theta)
    terms = [c[i] * theta_term(i) for i in range(k)]
    for (side, base), weight in pairs:
        c = weight * getattr(w, base)
        terms += [c[i] * node for i, node in enumerate(nodes[side])]
    return SurrogateLoss(kind, tape_sum(terms), lifted, alpha=alpha)
