"""The gradient estimator family as one table, linear in four bases.

Every estimator is a triple of per-sample coefficient vectors
(c_path, c_score, c_theta) contracted against three partials: its phi
rows are path(c_path) - score(c_score) and its theta rows theta(c_theta).
Each coefficient is built from the same four named bases of a context's
`ChunkWeights`: w-tilde (``wt``), w-tilde^2 (``wt2``) and the jackknife
pair (``c``, ``c2``).  `ESTIMATORS` below is that table: an entry's path
and score terms map bases to weights (dreg-alpha's are functions of
alpha, which only they read: callers pass alpha to every row, and the
other rows ignore it), and its theta term names one base.  Contractions
are linear, so the phi rows of an entry are the weighted sum of its
contracted bases, and so are those of any weight map over ids, such as
an estimator less its reference: `phi_row_set` adds a map's weights, all
numbers, per contracted base before it sums, so shared terms cancel in
the coefficients, and it contracts each distinct base once for all the
maps it is given on one context; the recipes run against one context
also normalize its log weights once.  Each entry also names, as a
`ChunkWeights` attribute just as its theta base is named, the bound its
theta coefficient differentiates (``iwae_bound`` for w-tilde rows,
``jvi1_bound`` for c rows), gives the smallest K its coefficients are
defined at, and may give its reference, a labelled weight map over the
ids whose rows are unbiased for what it targets (`difference`).  Every
row is an ascent direction: theta rows on the entry's bound, and phi
rows too, except those of the wake-phase ids (rws-wake, rws-dreg),
which ascend E_p(z|x)[log q(z)], the wake phase's KL(p || q)
minimization; dreg-alpha's phi rows are the (1 - alpha, alpha) mix of
iwae-dreg's and rws-dreg's.  The contraction interface
(``lw``, ``path``, ``score``, ``theta``) is served by the models'
closed-form weight contexts; the tests' tape reference serves it too,
and the tests pin the two against each other.  A VAE context's caller
chooses rows or sums from one grouped product over its layer rows: one
group per image gives per-image rows (n, P), and on a context built
with ``sums=True`` one group of all rows gives their batch sum (P,), so
the functions below give training its batch-summed gradients through the
same table, while the measurement folds read rows.
"""

from dataclasses import dataclass

import numpy as np

from .weights import context_weights


@dataclass(frozen=True)
class Recipe:
    """One estimator on the bases of `ChunkWeights`.

    ``path`` and ``score`` map a base name to its weight, a number or a
    function of alpha, and their coefficients are sum weight * base (an
    empty map marks an absent term); ``theta`` names a single base, and
    ``bound`` the `ChunkWeights` attribute its theta rows ascend.
    ``reference`` is a (label, {id: weight}) pair, weighted as ``path``
    is, for the unbiased rows the entry is tested against, or None."""

    path: dict
    score: dict
    theta: str
    bound: str = "iwae_bound"  # the objective the theta rows ascend
    min_k: int = 1  # the smallest K the coefficients are defined at
    reference: tuple = None  # (label, weight map over ids), or None


_IWAE = ("iwae", {"iwae": 1.0})

ESTIMATORS = {
    "iwae": Recipe({"wt": 1.0}, {"wt": 1.0}, "wt"),
    "stl": Recipe({"wt": 1.0}, {}, "wt", reference=_IWAE),
    "iwae-dreg": Recipe({"wt2": 1.0}, {}, "wt", reference=_IWAE),
    "rws-wake": Recipe({}, {"wt": -1.0}, "wt"),
    "rws-dreg": Recipe({"wt": 1.0, "wt2": -1.0}, {}, "wt",
                       reference=("rws-wake", {"rws-wake": 1.0})),
    "dreg-alpha": Recipe({"wt": lambda a: a, "wt2": lambda a: 1.0 - 2.0 * a},
                         {}, "wt", reference=("alpha-mix", {
                             "iwae": lambda a: 1.0 - a,
                             "rws-wake": lambda a: a})),
    "jvi1": Recipe({"c": 1.0}, {"c": 1.0}, "c", "jvi1_bound", min_k=2),
    "jvi1-dreg": Recipe({"c2": 1.0}, {}, "c", "jvi1_bound", min_k=2,
                        reference=("jvi1", {"jvi1": 1.0})),
}

ESTIMATOR_IDS = tuple(ESTIMATORS)


def _entry(kind):
    if kind not in ESTIMATORS:
        raise ValueError(f"unknown estimator id {kind!r}")
    return ESTIMATORS[kind]


def _check_alpha(entries, alpha):
    if alpha is None and any(callable(w) for r in entries
                             for w in (*r.path.values(), *r.score.values())):
        raise ValueError("alpha must be given to weights that are functions "
                         "of it, as dreg-alpha's are")
    if alpha is not None and not 0.0 <= alpha <= 1.0:
        raise ValueError(f"weights take alpha in [0, 1], got {alpha!r}")


def recipe(kind, alpha=None):
    """The table entry of ``kind``; alpha, in [0, 1], is needed when its
    weights are functions of it, and ignored otherwise."""
    entry = _entry(kind)
    _check_alpha((entry,), alpha)
    return entry


def _terms_at(term, alpha):
    """The (key, weight) pairs of a weight map at ``alpha``; a zero
    weight drops its key."""
    pairs = ((key, weight(alpha) if callable(weight) else weight)
             for key, weight in term.items())
    return [(key, weight) for key, weight in pairs if weight != 0.0]


def _weighted_sum(terms, value_of):
    """sum weight * value_of(key) over the (key, weight) pairs, in order.
    A sum of more than one value is built in place on a fresh array, so
    no value is written to and each weighted temporary dies in the
    statement that makes it."""
    (key, weight), *rest = terms
    total = value_of(key)
    if rest or weight != 1.0:
        total = weight * total
    for key, weight in rest:
        total += value_of(key) if weight == 1.0 else weight * value_of(key)
    return total


def difference(kind, alpha=None):
    """The weight map of ``kind``'s rows less those of its reference at
    ``alpha``, {kind: 1, ref: -weight, ...}, so that `phi_row_set`
    cancels their shared terms; a zero reference weight drops its id."""
    reference = recipe(kind, alpha).reference
    if reference is None:
        raise ValueError(f"estimator id {kind!r} has no unbiased reference")
    return {kind: 1.0,
            **{ref: -w for ref, w in _terms_at(reference[1], alpha)}}


def phi_terms(r, alpha):
    """An entry's phi rows as ((side, base), weight) pairs at ``alpha``:
    its rows are sum weight * side(base), a score weight carrying the
    minus sign of path - score."""
    return ([(("path", base), w) for base, w in _terms_at(r.path, alpha)]
            + [(("score", base), -w) for base, w in _terms_at(r.score, alpha)])


def phi_row_set(maps, ctx, alpha=None):
    """Inference-network gradient rows of named weight maps over table
    ids for one weight context, as {name: rows}.

    A map {id: weight} stands for sum weight * rows(id); an id alone is
    {id: 1.0}, and a weight is a number.  Each (side, base)
    contraction's weights are added across a map's ids before the
    contractions are summed, in one fixed order, so terms that cancel do
    so in the coefficients: rws-dreg - rws-wake is -(iwae-dreg - iwae)
    bit for bit, and a map whose weights all cancel gives exact-zero
    rows, while a map with no nonzero weight is a ValueError.  Each
    distinct (side, base) pair is contracted once for all maps: the
    eight ids take four path and two score contractions.
    alpha, in [0, 1], is read only by weights that are functions of it
    (dreg-alpha's), which need it.  Maps whose sum is one contraction of
    weight 1 (iwae-dreg, and dreg-alpha at alpha = 0) share its array.
    """
    entries = {kind: _entry(kind) for m in maps.values() for kind in m}
    _check_alpha(entries.values(), alpha)
    coefs = {}
    for name, weights in maps.items():
        coef = coefs[name] = {}
        for kind, weight in _terms_at(weights, alpha):
            for key, c in phi_terms(entries[kind], alpha):
                coef[key] = coef.get(key, 0.0) + weight * c
        if not coef:
            raise ValueError(f"weight map {name!r} has no nonzero weight")
    w = context_weights(ctx)
    parts = {(side, base): getattr(ctx, side)(getattr(w, base))
             for side, base in dict.fromkeys(key for c in coefs.values()
                                             for key in c)}
    rows = {}
    for name, coef in coefs.items():
        terms = [(key, c) for key, c in sorted(coef.items()) if c != 0.0]
        rows[name] = (_weighted_sum(terms, parts.__getitem__) if terms
                      else np.zeros_like(parts[min(coef)]))
    return rows


def phi_rows(kind, ctx, alpha=None):
    """Inference-network gradient rows of one id for one weight context
    (their batch sum on a ``sums=True`` context)."""
    return phi_row_set({kind: {kind: 1.0}}, ctx, alpha)[kind]


def theta_rows(kind, ctx):
    """Generative-model gradient rows for one weight context (their
    batch sum on a ``sums=True`` context)."""
    return ctx.theta(getattr(context_weights(ctx), _entry(kind).theta))
