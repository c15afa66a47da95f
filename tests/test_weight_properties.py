"""Property sweep of the weight kernels over K in [2, 64] and log-weight
spreads up to 1e4.

lw = spread * u with u in [-1, 0], so every row is resolved only to its
own rounding, about eps * spread; tolerances scale with K (1 + spread)
for that reason, as in the fixed-grid tests of test_weights.py.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from dreglab.estimators import ChunkWeights, jvi1_coefficients, jvi1_estimate
from dreglab.tape import TapeGraph

SWEEP = settings(derandomize=True, database=None, max_examples=150, deadline=None)


@st.composite
def lw_rows(draw, max_k=64, max_spread=1e4):
    k = draw(st.integers(2, max_k))
    u = draw(st.lists(st.floats(-1.0, 0.0), min_size=k, max_size=k))
    spread = draw(st.sampled_from([0.0, 1.0, 30.0, 355.0, 745.0, 1e4]).filter(
        lambda s: s <= max_spread) | st.floats(0.0, max_spread))
    return spread * np.array(u), spread


def _tol(lw, spread):
    return 1e-15 * lw.shape[-1] * (1.0 + spread)


@SWEEP
@given(lw_rows(), st.floats(-100.0, 100.0))
def test_shift_invariance(case, shift):
    lw, spread = case
    tol = _tol(lw, spread + abs(shift))
    moved = lw + shift
    assert np.allclose(ChunkWeights(moved).wt, ChunkWeights(lw).wt, rtol=0, atol=tol)
    assert np.allclose(ChunkWeights(moved).wt2, ChunkWeights(lw).wt2,
                       rtol=0, atol=tol)
    w, w_moved = ChunkWeights(lw), ChunkWeights(moved)
    assert abs(w_moved.iwae_bound - (w.iwae_bound + shift)) <= tol
    assert abs(w_moved.jvi1_bound - (w.jvi1_bound + shift)) <= tol
    # c and c2 entries reach K, so their tolerance carries one more K
    for got, want in zip(jvi1_coefficients(w_moved), jvi1_coefficients(w)):
        assert np.allclose(got, want, rtol=0, atol=tol * lw.size)


@SWEEP
@given(lw_rows(), st.randoms(use_true_random=False))
def test_permutation_equivariance(case, rand):
    lw, spread = case
    perm = np.array(rand.sample(range(lw.size), lw.size))
    tol = _tol(lw, spread)
    assert np.allclose(ChunkWeights(lw[perm]).wt, ChunkWeights(lw).wt[perm], rtol=0, atol=tol)
    assert np.allclose(ChunkWeights(lw[perm]).wt2, ChunkWeights(lw).wt2[perm],
                       rtol=0, atol=tol)
    w, w_perm = ChunkWeights(lw), ChunkWeights(lw[perm])
    assert abs(w_perm.iwae_bound - w.iwae_bound) <= tol
    assert abs(w_perm.jvi1_bound - w.jvi1_bound) <= tol
    for got, want in zip(jvi1_coefficients(w_perm), jvi1_coefficients(w)):
        assert np.allclose(got, want[perm], rtol=0, atol=tol * lw.size)


@SWEEP
@given(lw_rows())
def test_sums_and_finiteness(case):
    lw, spread = case
    w = ChunkWeights(lw)
    wt, wt2 = w.wt, w.wt2
    c, c2 = jvi1_coefficients(w)
    for out in (wt, wt2, c, c2, w.iwae_bound, w.jvi1_bound):
        assert np.all(np.isfinite(out))
    assert np.all(wt >= 0) and np.all(wt2 >= 0)
    # log wt = lw - (max + log sum) is resolved to eps * |max lw| as well
    assert abs(wt.sum() - 1.0) <= _tol(lw, spread)
    # jvi1(lw + a) = jvi1(lw) + a, so the gradient coefficients sum to 1
    assert abs(c.sum() - 1.0) <= _tol(lw, spread)


@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@given(lw_rows(max_k=6, max_spread=700.0))
def test_jvi_coefficients_are_the_tape_gradient(case):
    lw, _ = case
    g = TapeGraph()
    nodes = g.input_vector(lw)
    grads = g.backward(jvi1_estimate(nodes))
    want = np.array([grads[node.idx] for node in nodes])
    c, _ = jvi1_coefficients(ChunkWeights(lw))
    assert np.allclose(c, want, rtol=1e-12, atol=1e-14)
