"""Exact expectations of estimator rows by Gauss-Hermite quadrature.

On a family with few noise dimensions (the d = 1 toy at small K), the
expectation of any row over eps ~ N(0, I) is a finite sum: an m-node
Gauss-Hermite rule in each of the k * latent noise dimensions, taken
as one product grid.  The grid goes into a single weight context, so a
row stream is given as for `fold_rows`: ``rows_of(ctx)`` yields (name,
rows) pairs, and `phi_row_set` maps serve unchanged.
"""

import math
from functools import reduce

import numpy as np
from numpy.polynomial.hermite_e import hermegauss

# grid points at most, so a grid and its rows stay a few tens of MB
MAX_POINTS = 1 << 20


def exact_means(model, params, x, k, m, rows_of):
    """{name: E[rows]} for every (name, rows) of ``rows_of`` on one
    context at ``x``, under the m-node product rule in k * latent
    dimensions; exact for rows polynomial in eps of degree < 2m, and
    converging fast in m for the smooth rows of the toy."""
    dims = k * model.latent
    if m ** dims > MAX_POINTS:
        raise ValueError(f"a grid of {m}^{dims} points is over {MAX_POINTS}")
    nodes, weights = hermegauss(m)
    weights = weights / math.sqrt(2.0 * math.pi)
    grid = np.stack(np.meshgrid(*[nodes] * dims, indexing="ij"), axis=-1)
    mass = reduce(np.multiply.outer, [weights] * dims).ravel()
    ctx = model.weight_context(params, x, grid.reshape(-1, k, model.latent))
    return {name: mass @ rows for name, rows in rows_of(ctx)}
