"""The gradient estimator family as one table, linear in four bases.

Every estimator is a triple of per-sample coefficient vectors
(c_path, c_score, c_theta) contracted against three partials: its phi
rows are path(c_path) - score(c_score) and its theta rows theta(c_theta).
Each coefficient is built from the same four named bases of a context's
`ChunkWeights`: w-tilde (``wt``), w-tilde^2 (``wt2``) and the jackknife
pair (``c``, ``c2``).  `ESTIMATORS` below is that table: an entry's path
and score terms map bases to weights (dreg-alpha's are functions of
alpha), and its theta term names one base.  Contractions are linear, so
the phi rows of an entry are the weighted sum of its contracted bases,
and `phi_row_set` contracts each distinct base once for any set of ids
on one context; the recipes run against one context also normalize its
log weights once.  Each entry also names, as a `ChunkWeights`
attribute just as its theta base is named, the bound its theta
coefficient differentiates (``iwae_bound`` for w-tilde rows,
``jvi1_bound`` for c rows), and gives the smallest K its coefficients
are defined at.  The wake-sleep rows return gradients to descend (they
drive a KL minimization); everything else is an ascent direction on its
bound.  The contraction interface is served by both the closed-form
model contexts (vectorized, bulk) and the tape-extracted LogWeightBatch
(reference); tests pin the routes against each other.
"""

from dataclasses import dataclass

from .weights import context_weights


@dataclass(frozen=True)
class Recipe:
    """One estimator on the bases of `ChunkWeights`.

    ``path`` and ``score`` map a base name to its weight, a number or a
    function of alpha, and their coefficients are sum weight * base (an
    empty map marks an absent term); ``theta`` names a single base, and
    ``bound`` the `ChunkWeights` attribute its theta rows ascend."""

    path: dict
    score: dict
    theta: str
    bound: str = "iwae_bound"  # the objective the theta rows ascend
    min_k: int = 1  # the smallest K the coefficients are defined at
    descent: bool = False  # the phi rows are a direction to descend


ESTIMATORS = {
    "iwae": Recipe({"wt": 1.0}, {"wt": 1.0}, "wt"),
    "stl": Recipe({"wt": 1.0}, {}, "wt"),
    "iwae-dreg": Recipe({"wt2": 1.0}, {}, "wt"),
    "rws-wake": Recipe({}, {"wt": 1.0}, "wt", descent=True),
    "rws-dreg": Recipe({"wt2": 1.0, "wt": -1.0}, {}, "wt", descent=True),
    "dreg-alpha": Recipe({"wt": lambda a: a, "wt2": lambda a: 1.0 - 2.0 * a},
                         {}, "wt"),
    "jvi1": Recipe({"c": 1.0}, {"c": 1.0}, "c", "jvi1_bound", min_k=2),
    "jvi1-dreg": Recipe({"c2": 1.0}, {}, "c", "jvi1_bound", min_k=2),
}

ESTIMATOR_IDS = tuple(ESTIMATORS)
DESCENT_IDS = tuple(kind for kind, r in ESTIMATORS.items() if r.descent)


def _entry(kind):
    if kind not in ESTIMATORS:
        raise ValueError(f"unknown estimator id {kind!r}")
    return ESTIMATORS[kind]


def _check_alpha(kinds, alpha):
    if (alpha is not None) != ("dreg-alpha" in kinds):
        raise ValueError("alpha must be given exactly for dreg-alpha")
    if alpha is not None and not 0.0 <= alpha <= 1.0:
        raise ValueError("dreg-alpha needs alpha in [0, 1]")


def recipe(kind, alpha=None):
    """The table entry of ``kind``; alpha, in [0, 1], is given exactly
    for dreg-alpha."""
    entry = _entry(kind)
    _check_alpha((kind,), alpha)
    return entry


def _terms_at(term, alpha):
    """The (base, weight) pairs of a path or score map at ``alpha``; a
    zero weight drops its base."""
    pairs = ((base, weight(alpha) if callable(weight) else weight)
             for base, weight in term.items())
    return [(base, weight) for base, weight in pairs if weight != 0.0]


def _weighted_sum(terms, value_of):
    """sum weight * value_of(key) over the (key, weight) pairs, in order;
    None for no pairs."""
    total = None
    for key, weight in terms:
        part = value_of(key)
        if weight != 1.0:
            part = weight * part
        total = part if total is None else total + part
    return total


def weighted_sum(term, value_of, alpha=None):
    """sum weight * value_of(key) over a weight map at ``alpha``: a
    recipe's path or score map on the bases of one `ChunkWeights`
    (value_of(base) its coefficient vector), or a map over table ids
    (value_of(id) its rows); None for an absent term."""
    return _weighted_sum(_terms_at(term, alpha), value_of)


def phi_row_set(kinds, ctx, alpha=None):
    """Inference-network gradient rows of every id in ``kinds`` for one
    weight context, as {kind: rows}.

    An id's rows are sum w path(base) - sum w score(base) over its
    recipe's terms, and each distinct (side, base) pair is contracted
    once for all of ``kinds``: the eight ids take four path and two
    score contractions.  alpha, in [0, 1], is given exactly when
    dreg-alpha is in ``kinds``.  Ids whose terms coincide (dreg-alpha at
    alpha = 0 and iwae-dreg) share one rows array.
    """
    entries = {kind: _entry(kind) for kind in kinds}
    _check_alpha(entries, alpha)
    terms = {kind: [(("path", base), weight)
                    for base, weight in _terms_at(r.path, alpha)]
             + [(("score", base), -weight)
                for base, weight in _terms_at(r.score, alpha)]
             for kind, r in entries.items()}
    w = context_weights(ctx)
    parts = {(side, base): getattr(ctx, side)(getattr(w, base))
             for side, base in dict.fromkeys(key for t in terms.values()
                                             for key, _ in t)}
    return {kind: _weighted_sum(t, parts.__getitem__)
            for kind, t in terms.items()}


def phi_rows(kind, ctx, alpha=None):
    """Inference-network gradient rows of one id for one weight context."""
    return phi_row_set((kind,), ctx, alpha)[kind]


def theta_rows(kind, ctx):
    """Generative-model gradient rows for one weight context."""
    return ctx.theta(getattr(context_weights(ctx), _entry(kind).theta))
