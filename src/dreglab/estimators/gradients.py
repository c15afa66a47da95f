"""The gradient estimator family as one coefficient table.

Every estimator is a triple of per-sample coefficient vectors
(c_path, c_score, c_theta) contracted against three partials: its phi
rows are path(c_path) - score(c_score) and its theta rows theta(c_theta).
`ESTIMATORS` below is that table; each entry builds its coefficients
from a context's `ChunkWeights` (w-tilde, w-tilde^2 and the jackknife
pair), so the recipes run against one context normalize its log weights
once.  Each entry also names the bound its theta coefficient
differentiates (the IWAE bound for w-tilde rows, the jackknife bound for
c rows) and the smallest K its coefficients are defined at.  The
wake-sleep rows return gradients to descend (they drive a KL
minimization); everything else is an ascent direction on its bound.
The contraction interface is served by both the closed-form model
contexts (vectorized, bulk) and the tape-extracted LogWeightBatch
(reference); tests pin the routes against each other.
"""

from dataclasses import dataclass

from .weights import context_weights, iwae_bound, jvi1_estimate


@dataclass(frozen=True)
class Recipe:
    """Coefficient builders of one estimator, each called as f(w, alpha)
    on a context's ChunkWeights (None marks an absent term), and its
    bound, called as bound(w)."""

    path: object
    score: object
    theta: object
    bound: object = iwae_bound  # the objective the theta rows ascend
    min_k: int = 1  # the smallest K the coefficients are defined at
    descent: bool = False  # the phi rows are a direction to descend


def _wt(w, alpha):
    return w.wt


def _wt2(w, alpha):
    return w.wt2


def _c(w, alpha):
    return w.jvi1[0]


def _c2(w, alpha):
    return w.jvi1[1]


ESTIMATORS = {
    "iwae": Recipe(_wt, _wt, _wt),
    "stl": Recipe(_wt, None, _wt),
    "iwae-dreg": Recipe(_wt2, None, _wt),
    "rws-wake": Recipe(None, _wt, _wt, descent=True),
    "rws-dreg": Recipe(lambda w, a: w.wt2 - w.wt, None, _wt, descent=True),
    "dreg-alpha": Recipe(lambda w, a: a * w.wt + (1.0 - 2.0 * a) * w.wt2, None, _wt),
    "jvi1": Recipe(_c, _c, _c, jvi1_estimate, min_k=2),
    "jvi1-dreg": Recipe(_c2, None, _c, jvi1_estimate, min_k=2),
}

ESTIMATOR_IDS = tuple(ESTIMATORS)
DESCENT_IDS = tuple(kind for kind, r in ESTIMATORS.items() if r.descent)


def _entry(kind):
    if kind not in ESTIMATORS:
        raise ValueError(f"unknown estimator id {kind!r}")
    return ESTIMATORS[kind]


def recipe(kind, alpha=None):
    """The table entry of ``kind``; alpha, in [0, 1], is given exactly
    for dreg-alpha."""
    entry = _entry(kind)
    if (alpha is not None) != (kind == "dreg-alpha"):
        raise ValueError("alpha must be given exactly for dreg-alpha")
    if alpha is not None and not 0.0 <= alpha <= 1.0:
        raise ValueError("dreg-alpha needs alpha in [0, 1]")
    return entry


def phi_rows(kind, ctx, alpha=None):
    """Inference-network gradient rows for one weight context."""
    r = recipe(kind, alpha)
    w = context_weights(ctx)
    rows = None if r.path is None else ctx.path(r.path(w, alpha))
    if r.score is not None:
        score = ctx.score(r.score(w, alpha))
        rows = -score if rows is None else rows - score
    return rows


def theta_rows(kind, ctx):
    """Generative-model gradient rows for one weight context."""
    return ctx.theta(_entry(kind).theta(context_weights(ctx), None))
