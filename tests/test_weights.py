import math

import numpy as np
import pytest

from dreglab.estimators import (
    iwae_bound,
    jvi1_coefficients,
    jvi1_estimate,
    log_weights,
    loo_logsumexp,
    normalized_weights,
    squared_normalized_weights,
)
from dreglab.gaussian import Streams, noise_batch, noise_block
from dreglab.models import Toy, Vae, perturb_params
from dreglab.tape import TapeGraph

# hand-evaluated on 2 log((1+e)/2) - (log 1 + log e)/2; the formula's
# own arithmetic is the oracle here
JVI_K2_VALUE = 0.740229013916555


def toy_fixture(d=3, seed=9):
    fam = Toy(d)
    rng = np.random.default_rng(seed)
    theta = rng.standard_normal(d)
    p = perturb_params(fam.init_params(theta), 0.01, seed)
    x = p.view("theta") + rng.standard_normal(d) * 1.4
    return fam, p, x


def test_normalized_weights_probability_vector():
    rng = np.random.default_rng(0)
    for _ in range(20):
        lw = rng.uniform(-700, 700, size=16)
        wt = normalized_weights(lw)
        assert np.all(wt >= 0)
        assert np.sum(wt) == pytest.approx(1.0, abs=1e-12)


def test_squared_weights_match_squares():
    rng = np.random.default_rng(1)
    lw = rng.standard_normal((4, 8))
    assert np.allclose(squared_normalized_weights(lw), normalized_weights(lw) ** 2, rtol=1e-13)


def test_squared_weights_survive_extreme_logits():
    # unshifted exp(2 lw) would underflow to 0 for every entry
    lw = np.array([-800.0, -801.0, -803.0])
    wt2 = squared_normalized_weights(lw)
    w = np.exp(lw - lw.max())
    want = (w / w.sum()) ** 2
    assert np.allclose(wt2, want, rtol=1e-12)
    assert wt2[0] > 0.4


def test_degenerate_batch_raises():
    with pytest.raises(ValueError):
        normalized_weights(np.array([-np.inf, -np.inf]))
    with pytest.raises(ValueError):
        iwae_bound(np.array([np.nan, 0.0]))


def test_iwae_bound_cases():
    assert iwae_bound(np.array([0.7])) == pytest.approx(0.7, abs=1e-15)
    assert iwae_bound(np.full(16, -3.2)) == pytest.approx(-3.2, abs=1e-12)
    lw = np.array([[0.0, math.log(3.0)]])
    assert iwae_bound(lw)[0] == pytest.approx(math.log(2.0), abs=1e-12)


def test_iwae_bound_converges_to_marginal():
    fam, p, x = toy_fixture(d=2, seed=3)
    eps = noise_block(3, Streams.MEASURE, 9, (10_000, 1024, 2))
    bounds = iwae_bound(fam.weight_context(p, x, eps).lw)
    want = fam.log_marginal(p, x)
    se = bounds.std(ddof=1) / math.sqrt(bounds.size)
    assert abs(bounds.mean() - want) < max(0.01, 5 * se)


def test_loo_logsumexp_matches_bruteforce():
    rng = np.random.default_rng(5)
    for _ in range(20):
        lw = rng.uniform(-40, 40, size=(3, 6))
        got = loo_logsumexp(lw)
        for n in range(3):
            for i in range(6):
                rest = np.delete(lw[n], i)
                m = rest.max()
                want = m + math.log(np.sum(np.exp(rest - m)))
                assert got[n, i] == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_loo_logsumexp_dominant_weight():
    lw = np.array([[0.0, -50.0, -60.0, -55.0]])
    got = loo_logsumexp(lw)
    rest = lw[0, 1:]
    m = rest.max()
    assert got[0, 0] == pytest.approx(m + math.log(np.sum(np.exp(rest - m))), rel=1e-12)


def test_jvi_equal_weights_is_identity():
    assert jvi1_estimate(np.full(6, 1.3)) == pytest.approx(1.3, abs=1e-12)


def test_jvi_frozen_two_sample_value():
    assert jvi1_estimate(np.array([0.0, 1.0])) == pytest.approx(JVI_K2_VALUE, abs=1e-12)


def test_jvi_matches_direct_formula():
    rng = np.random.default_rng(8)
    for _ in range(10):
        lw = rng.standard_normal(5)
        k = 5
        want = k * iwae_bound(lw) - (k - 1) / k * sum(
            iwae_bound(np.delete(lw, i)) for i in range(k)
        )
        assert jvi1_estimate(lw) == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_jvi_rejects_single_sample():
    with pytest.raises(ValueError):
        jvi1_estimate(np.array([0.0]))
    with pytest.raises(ValueError):
        jvi1_coefficients(np.array([[0.0]]))


def test_jvi_tape_route_matches_array_route():
    rng = np.random.default_rng(12)
    vals = rng.standard_normal(4)
    g = TapeGraph()
    nodes = g.input_vector(vals)
    root = jvi1_estimate(nodes)
    assert root.value == pytest.approx(jvi1_estimate(vals), rel=1e-12)


def test_jvi_coefficients_are_estimate_gradient():
    # c_j is d jvi1 / d log w_j; the tape is the oracle
    rng = np.random.default_rng(13)
    for k in (2, 3, 6):
        vals = rng.uniform(-3, 3, size=k)
        g = TapeGraph()
        nodes = g.input_vector(vals)
        grads = g.backward(jvi1_estimate(nodes))
        c, _ = jvi1_coefficients(vals[None, :])
        for j, node in enumerate(nodes):
            assert c[0, j] == pytest.approx(grads[node.idx], rel=1e-11, abs=1e-12)


def test_jvi_squared_coefficients_bruteforce():
    # c2_j = K wt_j^2 - ((K-1)/K) sum_{i != j} softmax_{-i}(j)^2
    rng = np.random.default_rng(14)
    for k in (2, 4, 7):
        lw = rng.uniform(-2, 2, size=k)
        w = np.exp(lw)
        wt = w / w.sum()
        _, c2 = jvi1_coefficients(lw[None, :])
        for j in range(k):
            acc = 0.0
            for i in range(k):
                if i == j:
                    continue
                sm = w[j] / (w.sum() - w[i])
                acc += sm * sm
            want = k * wt[j] ** 2 - (k - 1) / k * acc
            assert c2[0, j] == pytest.approx(want, rel=1e-10, abs=1e-12)


def test_jvi_equal_weight_coefficients():
    lw = np.zeros((1, 8))
    c, c2 = jvi1_coefficients(lw)
    assert np.allclose(c, 1.0 / 8.0, atol=1e-13)
    assert np.allclose(c2, 0.0, atol=1e-13)


def test_log_weights_matches_toy_context():
    fam, p, x = toy_fixture()
    nb = noise_batch(4, Streams.MEASURE, 0, k=6, d=3)
    lwb = log_weights(fam, p, x, nb)
    ctx = fam.weight_context(p, x, nb.eps)
    assert np.allclose(lwb.log_w, ctx.lw[0], rtol=1e-12, atol=1e-12)
    rng = np.random.default_rng(2)
    for _ in range(3):
        c = rng.standard_normal(6)
        assert np.allclose(lwb.path(c), ctx.path(c[None, :])[0], rtol=1e-10, atol=1e-12)
        assert np.allclose(lwb.score(c), ctx.score(c[None, :])[0], rtol=1e-10, atol=1e-12)
        assert np.allclose(lwb.theta(c), ctx.theta(c[None, :])[0], rtol=1e-10, atol=1e-12)


def test_log_weights_partial_fields_toy_closed_forms():
    fam, p, x = toy_fixture(d=2, seed=5)
    nb = noise_batch(6, Streams.MEASURE, 1, k=4, d=2)
    lwb = log_weights(fam, p, x, nb)
    theta = p.view("theta")
    qvar = fam.q_variance
    s = math.sqrt(qvar)
    a = p.view("a").reshape(2, 2)
    mean = a @ np.asarray(x) + p.view("b")
    for i in range(4):
        z = mean + s * nb.eps[i]
        assert np.allclose(lwb.z[i], z, atol=1e-12)
        g = (theta - z) + (np.asarray(x) - z) + (z - mean) / qvar
        assert np.allclose(lwb.dlogw_dz[i], g, rtol=1e-9, atol=1e-12)
        assert np.allclose(lwb.dlogw_dtheta[i], z - theta, rtol=1e-9, atol=1e-12)
        score = np.concatenate([np.outer(nb.eps[i] / s, x).ravel(), nb.eps[i] / s])
        assert np.allclose(lwb.dlogq_dphi[i], score, rtol=1e-9, atol=1e-12)


def test_log_weights_matches_vae_context():
    fam = Vae(latent=2, hidden=3, obs=5)
    p = perturb_params(fam.init_params(seed=2), 0.25, 7)
    rng = np.random.default_rng(3)
    x = (rng.random(5) < 0.5).astype(float)
    nb = noise_batch(9, Streams.MEASURE, 2, k=4, d=2)
    lwb = log_weights(fam, p, x, nb)
    ctx = fam.weight_context(p, x, nb.eps)
    assert np.allclose(lwb.log_w, ctx.lw[0], rtol=1e-12, atol=1e-12)
    for _ in range(3):
        c = rng.standard_normal(4)
        assert np.allclose(lwb.path(c), ctx.path(c[None, :])[0], rtol=1e-9, atol=1e-11)
        assert np.allclose(lwb.score(c), ctx.score(c[None, :])[0], rtol=1e-9, atol=1e-11)
        assert np.allclose(lwb.theta(c), ctx.theta(c[None, :])[0], rtol=1e-9, atol=1e-11)


def test_log_weights_k1_weight_is_one():
    fam, p, x = toy_fixture()
    lwb = log_weights(fam, p, x, noise_batch(1, Streams.MEASURE, 3, k=1, d=3))
    assert normalized_weights(lwb.log_w).tolist() == [1.0]


def test_log_weights_constant_at_exact_posterior():
    fam = Toy(2, q_variance=0.5)
    p = fam.init_params([0.3, -0.4])
    x = [1.0, 0.2]
    lwb = log_weights(fam, p, x, noise_batch(2, Streams.MEASURE, 4, k=8, d=2))
    assert np.allclose(lwb.log_w, fam.log_marginal(p, x), atol=1e-10)


def test_log_weights_rejects_shared_roles():
    fam = Toy(2, shared=True)
    p = fam.init_params([0.1, 0.2])
    with pytest.raises(ValueError):
        log_weights(fam, p, [0.0, 0.0], noise_batch(0, Streams.MEASURE, 5, k=2, d=2))


def test_log_weights_deterministic():
    fam, p, x = toy_fixture()
    nb = noise_batch(5, Streams.MEASURE, 6, k=3, d=3)
    a = log_weights(fam, p, x, nb)
    b = log_weights(fam, p, x, noise_batch(*nb.lineage, k=3, d=3))
    assert np.array_equal(a.log_w, b.log_w)
    assert np.array_equal(a.dlogw_dz, b.dlogw_dz)
    assert np.array_equal(a.dlogq_dphi, b.dlogq_dphi)


@pytest.mark.parametrize("gap", [15.0, 20.0, 40.0, 100.0, 355.0, 400.0, 700.0])
def test_jvi_coefficients_match_tape_across_gaps(gap):
    # one dominant sample; the complement sum of the dominant one is tiny
    vals = np.array([0.0, -gap, -gap - 1.0])
    g = TapeGraph()
    nodes = g.input_vector(vals)
    grads = g.backward(jvi1_estimate(nodes))
    c, c2 = jvi1_coefficients(vals[None, :])
    want = np.array([grads[node.idx] for node in nodes])
    assert np.allclose(c[0], want, rtol=1e-12, atol=1e-14)
    if gap >= 40.0:  # the limit K - 2 (K-1)/K once e^-gap is below rounding
        assert c[0, 0] == pytest.approx(3.0 - 4.0 / 3.0, rel=1e-12)
    assert np.all(np.isfinite(c2))


def test_jvi_coefficients_sum_to_one():
    # jvi1(lw + a) = jvi1(lw) + a, so the gradient coefficients sum to 1
    rng = np.random.default_rng(15)
    for k in (2, 5, 64):
        for spread in (1.0, 30.0, 700.0, 1e4):
            lw = rng.uniform(-spread, 0.0, size=(4, k))
            c, _ = jvi1_coefficients(lw)
            # lw is only resolved to its own rounding, ~eps * spread
            tol = 1e-15 * k * (1.0 + spread)
            assert np.max(np.abs(c.sum(axis=-1) - 1.0)) <= tol


@pytest.mark.parametrize("spread", [10.0, 355.0, 745.0, 1e3, 1e4])
def test_jvi_coefficients_finite_at_wide_spreads(spread):
    rng = np.random.default_rng(16)
    lw = rng.uniform(-spread, 0.0, size=(8, 16))
    lw[:, 0] = 0.0
    lw[:, 1] = -spread  # a sample at the far end of every row
    c, c2 = jvi1_coefficients(lw)
    assert np.all(np.isfinite(c)) and np.all(np.isfinite(c2))


def test_nan_log_weight_is_named():
    with pytest.raises(ValueError, match="NaN log-weight"):
        normalized_weights(np.array([[0.0, -1.0], [np.nan, 0.0]]))


def test_positive_infinite_log_weight_is_named():
    with pytest.raises(ValueError, match=r"\+inf log-weight"):
        normalized_weights(np.array([[0.0, -1.0], [np.inf, 0.0]]))


def test_all_negative_infinite_row_is_named():
    with pytest.raises(ValueError, match="every log-weight is -inf"):
        normalized_weights(np.array([[0.0, -1.0], [-np.inf, -np.inf]]))
