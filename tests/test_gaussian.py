import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dreglab.gaussian import noise_block, noise_slabs, stream_rng
from reference.gaussian import DiagGaussian, bernoulli_log_prob, log_prob, sample_reparam
from reference.tape import TapeGraph, finite_diff_check


def test_reparam_standard_normal_passthrough():
    q = DiagGaussian(mean=[0.0], log_scale=[0.0])
    assert sample_reparam(q, [1.5]) == [1.5]


def test_reparam_affine():
    q = DiagGaussian(mean=[2.0], log_scale=[math.log(3.0)])
    (z,) = sample_reparam(q, [-1.0])
    assert z == pytest.approx(-1.0, abs=1e-12)


def test_reparam_partials():
    # dz/dmean = 1, dz/dlog-scale = z - mean
    def build(xs):
        q = DiagGaussian(mean=[xs[0]], log_scale=[xs[1]])
        (z,) = sample_reparam(q, [0.7])
        return z

    assert finite_diff_check(build, [0.3, -0.4], step=1e-6) < 1e-6
    g = TapeGraph()
    m, ls = g.input(0.3), g.input(-0.4)
    (z,) = sample_reparam(DiagGaussian(mean=[m], log_scale=[ls]), [0.7])
    grads = g.backward(z)
    assert grads[m.idx] == pytest.approx(1.0, abs=1e-14)
    assert grads[ls.idx] == pytest.approx(z.value - 0.3, abs=1e-14)


def test_log_prob_standard_normal_at_zero():
    q = DiagGaussian(mean=[0.0], log_scale=[0.0])
    assert log_prob(q, [0.0]) == pytest.approx(-0.5 * math.log(2.0 * math.pi), abs=1e-14)


def test_log_prob_translation_invariance():
    rng = np.random.default_rng(11)
    for _ in range(20):
        m, ls, z, c = rng.standard_normal(4)
        a = log_prob(DiagGaussian([m], [ls]), [z])
        b = log_prob(DiagGaussian([m + c], [ls]), [z + c])
        assert b == pytest.approx(a, abs=1e-12)


def test_log_prob_integrates_to_one():
    mu, sigma = 0.4, 1.7
    q = DiagGaussian(mean=[mu], log_scale=[math.log(sigma)])
    zs = np.linspace(mu - 8 * sigma, mu + 8 * sigma, 200001)
    dens = np.array([math.exp(log_prob(q, [z])) for z in zs])
    assert np.trapezoid(dens, zs) == pytest.approx(1.0, abs=1e-6)


def test_log_prob_gradient_matches_fd():
    def build(xs):
        q = DiagGaussian(mean=[xs[0], xs[1]], log_scale=[xs[2], xs[3]])
        return log_prob(q, [0.3, -1.1])

    assert finite_diff_check(build, [0.1, 0.5, -0.2, 0.4], step=1e-5) < 1e-5


def test_reparam_moments():
    mu, sigma = -0.7, 2.3
    q = DiagGaussian(mean=[mu], log_scale=[math.log(sigma)])
    eps = noise_block(3, 99, 0, (100_000, 1))
    zs = mu + sigma * eps[:, 0]
    spot = sample_reparam(q, eps[17])[0]
    assert spot == pytest.approx(zs[17], abs=1e-12)
    n = len(zs)
    se_mean = sigma / math.sqrt(n)
    assert abs(zs.mean() - mu) < 5 * se_mean
    var = zs.var(ddof=1)
    se_var = sigma**2 * math.sqrt(2.0 / (n - 1))
    assert abs(var - sigma**2) < 5 * se_var


def test_score_and_pathwise_integrals_agree():
    # d/dmu E_q[f] computed two ways by quadrature, for three test functions
    mu, sigma = 0.3, 0.8

    cases = [
        (lambda z: z, lambda z: np.ones_like(z)),
        (lambda z: z**2, lambda z: 2.0 * z),
        (np.sin, np.cos),
    ]
    zs = np.linspace(mu - 10 * sigma, mu + 10 * sigma, 400001)
    qdens = np.exp(-0.5 * ((zs - mu) / sigma) ** 2) / (sigma * math.sqrt(2 * math.pi))
    dlogq_dmu = (zs - mu) / sigma**2
    es = np.linspace(-10.0, 10.0, 400001)
    pdens = np.exp(-0.5 * es**2) / math.sqrt(2 * math.pi)
    for f, fprime in cases:
        score_form = np.trapezoid(qdens * f(zs) * dlogq_dmu, zs)
        path_form = np.trapezoid(pdens * fprime(mu + sigma * es), es)
        assert score_form == pytest.approx(path_form, abs=1e-6)


def test_bernoulli_uniform():
    assert bernoulli_log_prob([0.0] * 4, [1, 0, 1, 0]) == pytest.approx(4 * math.log(0.5), abs=1e-12)


def test_bernoulli_saturated_logit_no_overflow():
    v = bernoulli_log_prob([50.0], [1])
    assert -1e-20 < v <= 0.0


def test_bernoulli_label_flip_symmetry():
    rng = np.random.default_rng(5)
    logits = rng.standard_normal(6)
    x = (rng.random(6) < 0.5).astype(float)
    a = bernoulli_log_prob(list(logits), list(x))
    b = bernoulli_log_prob(list(-logits), list(1.0 - x))
    assert a == pytest.approx(b, abs=1e-12)


def test_bernoulli_rejects_non_binary():
    with pytest.raises(ValueError):
        bernoulli_log_prob([0.0], [0.5])


def test_bernoulli_gradient_matches_fd():
    x = [1.0, 0.0, 1.0]

    def build(ls):
        return bernoulli_log_prob(ls, x)

    assert finite_diff_check(build, [0.3, -2.0, 4.0], step=1e-5) < 1e-5


def test_noise_block_reproducible_from_key():
    a = noise_block(12, 3, 44, (8, 5))
    b = noise_block(12, 3, (44,), (8, 5))
    assert np.array_equal(a, b)
    assert np.array_equal(a, stream_rng(12, 3, 44).standard_normal((8, 5)))
    assert a.shape == (8, 5)


@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@given(st.integers(0, 40), st.integers(1, 6), st.integers(1, 4),
       st.lists(st.integers(0, 40), max_size=6), st.integers(0, 2**32))
def test_noise_slabs_concatenate_to_the_block(n, k, d, cuts, draw):
    block = noise_block(5, 3, (draw, 7), (n, k, d))
    bounds = [0, *sorted(c for c in cuts if c <= n), n]
    ragged = [b - a for a, b in zip(bounds, bounds[1:])]
    for rows in (ragged, [1] * n, [n]):
        fresh = (np.empty(r * k * d) for r in rows)
        slabs = list(noise_slabs(5, 3, (draw, 7), (n, k, d), rows, fresh))
        assert [slab.shape for slab in slabs] == [(r, k, d) for r in rows]
        whole = np.concatenate(slabs) if slabs else np.empty((0, k, d))
        assert np.array_equal(whole, block)


def test_noise_slabs_must_cover_the_block():
    with pytest.raises(ValueError, match="do not sum to the block's 5"):
        next(noise_slabs(5, 3, 0, (5, 2), [2, 2], iter([np.empty(10)] * 2)))


def test_noise_blocks_differ_across_keys():
    a = noise_block(12, 3, 44, (4, 2))
    b = noise_block(12, 3, 45, (4, 2))
    c = noise_block(13, 3, 44, (4, 2))
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_stream_rng_rejects_bad_keys():
    with pytest.raises(ValueError):
        stream_rng(1, -2)
    with pytest.raises(ValueError):
        stream_rng(0.5)


def test_sample_reparam_dimension_mismatch():
    q = DiagGaussian(mean=[0.0, 0.0], log_scale=[0.0, 0.0])
    with pytest.raises(ValueError):
        sample_reparam(q, [1.0])
