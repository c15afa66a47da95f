import math

import mpmath
import numpy as np
import pytest

from dreglab.estimators import (
    ChunkWeights,
    jvi1_coefficients,
    jvi1_estimate,
    log_weights,
)
from dreglab.gaussian import Streams, noise_block
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
        wt = ChunkWeights(lw).wt
        assert np.all(wt >= 0)
        assert np.sum(wt) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("k", [2, 8, 64])
def test_normalized_weights_sum_to_one_at_any_row_offset(k):
    # log wt must carry an error of a few eps, not eps * |max lw|
    eps = np.finfo(np.float64).eps
    assert abs(np.sum(ChunkWeights(np.full(k, -513.0)).wt) - 1.0) <= k * eps
    base = np.random.default_rng(17).uniform(-30.0, 0.0, size=(16, k))
    for offset in (-1e4, -2999.5, -513.0, 0.0, 513.0, 2999.5, 1e4):
        wt = ChunkWeights(base + offset).wt
        assert np.max(np.abs(wt.sum(axis=-1) - 1.0)) <= k * eps, offset


def test_squared_weights_match_squares():
    rng = np.random.default_rng(1)
    lw = rng.standard_normal((4, 8))
    assert np.allclose(ChunkWeights(lw).wt2, ChunkWeights(lw).wt ** 2, rtol=1e-13)


def test_squared_weights_survive_extreme_logits():
    # unshifted exp(2 lw) would underflow to 0 for every entry
    lw = np.array([-800.0, -801.0, -803.0])
    wt2 = ChunkWeights(lw).wt2
    w = np.exp(lw - lw.max())
    want = (w / w.sum()) ** 2
    assert np.allclose(wt2, want, rtol=1e-12)
    assert wt2[0] > 0.4


def test_degenerate_batch_raises():
    with pytest.raises(ValueError):
        ChunkWeights(np.array([-np.inf, -np.inf])).wt
    with pytest.raises(ValueError):
        ChunkWeights(np.array([np.nan, 0.0])).iwae_bound


def test_iwae_bound_cases():
    assert ChunkWeights(np.array([0.7])).iwae_bound == pytest.approx(0.7, abs=1e-15)
    assert ChunkWeights(np.full(16, -3.2)).iwae_bound == pytest.approx(-3.2, abs=1e-12)
    lw = np.array([[0.0, math.log(3.0)]])
    assert ChunkWeights(lw).iwae_bound[0] == pytest.approx(math.log(2.0), abs=1e-12)


def test_iwae_bound_converges_to_marginal():
    fam, p, x = toy_fixture(d=2, seed=3)
    eps = noise_block(3, Streams.MEASURE, 9, (10_000, 1024, 2))
    bounds = ChunkWeights(fam.weight_context(p, x, eps).lw).iwae_bound
    want = fam.log_marginal(p, x)
    se = bounds.std(ddof=1) / math.sqrt(bounds.size)
    assert abs(bounds.mean() - want) < max(0.01, 5 * se)


def test_jvi_equal_weights_is_identity():
    assert ChunkWeights(np.full(6, 1.3)).jvi1_bound == pytest.approx(1.3, abs=1e-12)


def test_jvi_frozen_two_sample_value():
    assert ChunkWeights(np.array([0.0, 1.0])).jvi1_bound == pytest.approx(JVI_K2_VALUE, abs=1e-12)


def test_jvi_matches_direct_formula():
    rng = np.random.default_rng(8)
    for _ in range(10):
        lw = rng.standard_normal(5)
        k = 5
        want = k * ChunkWeights(lw).iwae_bound - (k - 1) / k * sum(
            ChunkWeights(np.delete(lw, i)).iwae_bound for i in range(k)
        )
        assert ChunkWeights(lw).jvi1_bound == pytest.approx(want, rel=1e-12, abs=1e-12)


def _jvi1_reference(row):
    """jvi1 of one row in 60-digit arithmetic.

    Each leave-one-out sum is a sum over j != i (a prefix plus a suffix
    sum), never W - w_i.
    """
    with mpmath.workdps(60):
        k = len(row)
        w = [mpmath.exp(mpmath.mpf(float(v))) for v in row]
        prefix = [mpmath.mpf(0)]
        for wi in w:
            prefix.append(prefix[-1] + wi)
        suffix = [mpmath.mpf(0)]
        for wi in reversed(w):
            suffix.append(suffix[-1] + wi)
        suffix.reverse()
        loo = mpmath.fsum(mpmath.log((prefix[i] + suffix[i + 1]) / (k - 1))
                          for i in range(k))
        full = mpmath.log(prefix[k] / k)
        return float(k * full - mpmath.mpf(k - 1) / k * loo)


@pytest.mark.parametrize("k", [64, 512])
@pytest.mark.parametrize("spread", [1.0, 10.0])
def test_jvi_estimate_matches_mpmath(k, spread):
    # K IWAE_K and the K leave-one-out bounds are each of size K |bound|
    # and cancel to the bound's size; the closed form never forms them
    rng = np.random.default_rng(18)
    lw = rng.uniform(-spread, 0.0, size=(4, k))
    lw[:, 0] = 0.0
    for got, row in zip(ChunkWeights(lw).jvi1_bound, lw):
        want = _jvi1_reference(row)
        assert abs(got - want) <= 4e-15 * (1.0 + abs(want))


def test_jvi_rejects_single_sample():
    with pytest.raises(ValueError):
        ChunkWeights(np.array([0.0])).jvi1_bound
    with pytest.raises(ValueError):
        jvi1_coefficients(ChunkWeights(np.array([[0.0]])))


def test_jvi_tape_route_matches_array_route():
    rng = np.random.default_rng(12)
    vals = rng.standard_normal(4)
    g = TapeGraph()
    nodes = g.input_vector(vals)
    root = jvi1_estimate(nodes)
    assert root.value == pytest.approx(ChunkWeights(vals).jvi1_bound, rel=1e-12)


def test_jvi_coefficients_are_estimate_gradient():
    # c_j is d jvi1 / d log w_j; the tape is the oracle
    rng = np.random.default_rng(13)
    for k in (2, 3, 6):
        vals = rng.uniform(-3, 3, size=k)
        g = TapeGraph()
        nodes = g.input_vector(vals)
        grads = g.backward(jvi1_estimate(nodes))
        c, _ = jvi1_coefficients(ChunkWeights(vals[None, :]))
        for j, node in enumerate(nodes):
            assert c[0, j] == pytest.approx(grads[node.idx], rel=1e-11, abs=1e-12)


def test_jvi_squared_coefficients_bruteforce():
    # c2_j = K wt_j^2 - ((K-1)/K) sum_{i != j} softmax_{-i}(j)^2
    rng = np.random.default_rng(14)
    for k in (2, 4, 7):
        lw = rng.uniform(-2, 2, size=k)
        w = np.exp(lw)
        wt = w / w.sum()
        _, c2 = jvi1_coefficients(ChunkWeights(lw[None, :]))
        for j in range(k):
            acc = 0.0
            for i in range(k):
                if i == j:
                    continue
                sm = w[j] / (w.sum() - w[i])
                acc += sm * sm
            want = k * wt[j] ** 2 - (k - 1) / k * acc
            assert c2[0, j] == pytest.approx(want, rel=1e-10, abs=1e-12)


def _c2_reference(row):
    """c2 of one row in 60-digit arithmetic, from sum_i 1 / T_i^2.

    Only for rows where no weight dominates, so that W - w_i keeps its
    digits.
    """
    with mpmath.workdps(60):
        k = len(row)
        w = [mpmath.exp(mpmath.mpf(float(v))) for v in row]
        total = mpmath.fsum(w)
        inv2 = [1 / (total - wi) ** 2 for wi in w]
        s = mpmath.fsum(inv2)
        a = mpmath.mpf(k - 1) / k
        return np.array([float(k * (wi / total) ** 2 - a * wi ** 2 * (s - v))
                         for wi, v in zip(w, inv2)])


@pytest.mark.parametrize("k", [64, 512])
def test_jvi_squared_coefficients_near_equal_weights_match_mpmath(k):
    # at spread 1, K wt_j^2 and (K-1)/K times the sum over i != j nearly
    # cancel (about 2e-3 each for a c2_j near 1e-8 at K = 512); taking
    # their difference loses accuracy like K^2, the v form like K
    rng = np.random.default_rng(17)
    lw = rng.uniform(-1.0, 0.0, size=(4, k))
    _, c2 = jvi1_coefficients(ChunkWeights(lw))
    for got, row in zip(c2, lw):
        want = _c2_reference(row)
        assert np.max(np.abs(got - want)) <= 4e-15 * k * np.max(np.abs(want))


def test_jvi_equal_weight_coefficients():
    lw = np.zeros((1, 8))
    c, c2 = jvi1_coefficients(ChunkWeights(lw))
    assert np.allclose(c, 1.0 / 8.0, atol=1e-13)
    assert np.allclose(c2, 0.0, atol=1e-13)


def test_log_weights_matches_toy_context():
    fam, p, x = toy_fixture()
    eps = noise_block(4, Streams.MEASURE, 0, (6, 3))
    lwb = log_weights(fam, p, x, eps)
    ctx = fam.weight_context(p, x, eps)
    assert np.allclose(lwb.lw, ctx.lw[0], rtol=1e-12, atol=1e-12)
    rng = np.random.default_rng(2)
    for _ in range(3):
        c = rng.standard_normal(6)
        assert np.allclose(lwb.path(c), ctx.path(c[None, :])[0], rtol=1e-10, atol=1e-12)
        assert np.allclose(lwb.score(c), ctx.score(c[None, :])[0], rtol=1e-10, atol=1e-12)
        assert np.allclose(lwb.theta(c), ctx.theta(c[None, :])[0], rtol=1e-10, atol=1e-12)


def test_log_weights_partial_fields_toy_closed_forms():
    fam, p, x = toy_fixture(d=2, seed=5)
    eps = noise_block(6, Streams.MEASURE, 1, (4, 2))
    lwb = log_weights(fam, p, x, eps)
    theta = p.view("theta")
    qvar = fam.q_variance
    s = math.sqrt(qvar)
    a = p.view("a").reshape(2, 2)
    mean = a @ np.asarray(x) + p.view("b")
    for i in range(4):
        z = mean + s * eps[i]
        assert np.allclose(lwb.z[i], z, atol=1e-12)
        g = (theta - z) + (np.asarray(x) - z) + (z - mean) / qvar
        assert np.allclose(lwb.dlogw_dz[i], g, rtol=1e-9, atol=1e-12)
        assert np.allclose(lwb.dlogw_dtheta[i], z - theta, rtol=1e-9, atol=1e-12)
        score = np.concatenate([np.outer(eps[i] / s, x).ravel(), eps[i] / s])
        assert np.allclose(lwb.dlogq_dphi[i], score, rtol=1e-9, atol=1e-12)


def test_log_weights_matches_vae_context():
    # each image of the batch has its own x and eps, and its rows must
    # match its own tape batch: the contractions sum over K, never over B
    fam = Vae(latent=2, hidden=3, obs=5)
    p = perturb_params(fam.init_params(seed=2), 0.25, 7)
    rng = np.random.default_rng(3)
    x = (rng.random((3, 5)) < 0.5).astype(float)
    eps = noise_block(9, Streams.MEASURE, 2, (3, 4, 2))
    ctx = fam.weight_context(p, x, eps)
    lwbs = [log_weights(fam, p, x[b], eps[b]) for b in range(3)]
    for b, lwb in enumerate(lwbs):
        assert np.allclose(lwb.lw, ctx.lw[b], rtol=1e-12, atol=1e-12)
    for _ in range(3):
        c = rng.standard_normal((3, 4))
        path, score, theta = ctx.path(c), ctx.score(c), ctx.theta(c)
        for b, lwb in enumerate(lwbs):
            assert np.allclose(lwb.path(c[b]), path[b], rtol=1e-9, atol=1e-11)
            assert np.allclose(lwb.score(c[b]), score[b], rtol=1e-9, atol=1e-11)
            assert np.allclose(lwb.theta(c[b]), theta[b], rtol=1e-9, atol=1e-11)


def test_log_weights_k1_weight_is_one():
    fam, p, x = toy_fixture()
    lwb = log_weights(fam, p, x, noise_block(1, Streams.MEASURE, 3, (1, 3)))
    assert ChunkWeights(lwb.lw).wt.tolist() == [1.0]


def test_log_weights_constant_at_exact_posterior():
    fam = Toy(2, q_variance=0.5)
    p = fam.init_params([0.3, -0.4])
    x = [1.0, 0.2]
    lwb = log_weights(fam, p, x, noise_block(2, Streams.MEASURE, 4, (8, 2)))
    assert np.allclose(lwb.lw, fam.log_marginal(p, x), atol=1e-10)


def test_log_weights_rejects_shared_roles():
    fam = Toy(2, shared=True)
    p = fam.init_params([0.1, 0.2])
    with pytest.raises(ValueError):
        log_weights(fam, p, [0.0, 0.0], noise_block(0, Streams.MEASURE, 5, (2, 2)))


def test_log_weights_deterministic():
    fam, p, x = toy_fixture()
    eps = noise_block(5, Streams.MEASURE, 6, (3, 3))
    a = log_weights(fam, p, x, eps)
    b = log_weights(fam, p, x, noise_block(5, Streams.MEASURE, 6, (3, 3)))
    assert np.array_equal(a.lw, b.lw)
    assert np.array_equal(a.dlogw_dz, b.dlogw_dz)
    assert np.array_equal(a.dlogq_dphi, b.dlogq_dphi)


@pytest.mark.parametrize("gap", [15.0, 20.0, 40.0, 100.0, 355.0, 400.0, 700.0])
def test_jvi_coefficients_match_tape_across_gaps(gap):
    # one dominant sample; the complement sum of the dominant one is tiny
    vals = np.array([0.0, -gap, -gap - 1.0])
    g = TapeGraph()
    nodes = g.input_vector(vals)
    root = jvi1_estimate(nodes)
    assert ChunkWeights(vals).jvi1_bound == pytest.approx(root.value, rel=1e-12)
    grads = g.backward(root)
    c, c2 = jvi1_coefficients(ChunkWeights(vals[None, :]))
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
            c, _ = jvi1_coefficients(ChunkWeights(lw))
            # lw is only resolved to its own rounding, ~eps * spread
            tol = 1e-15 * k * (1.0 + spread)
            assert np.max(np.abs(c.sum(axis=-1) - 1.0)) <= tol


@pytest.mark.parametrize("spread", [10.0, 355.0, 745.0, 1e3, 1e4])
def test_jvi_coefficients_finite_at_wide_spreads(spread):
    rng = np.random.default_rng(16)
    lw = rng.uniform(-spread, 0.0, size=(8, 16))
    lw[:, 0] = 0.0
    lw[:, 1] = -spread  # a sample at the far end of every row
    c, c2 = jvi1_coefficients(ChunkWeights(lw))
    assert np.all(np.isfinite(c)) and np.all(np.isfinite(c2))


def test_nan_log_weight_is_named():
    with pytest.raises(ValueError, match="NaN log-weight"):
        ChunkWeights(np.array([[0.0, -1.0], [np.nan, 0.0]])).wt


def test_positive_infinite_log_weight_is_named():
    with pytest.raises(ValueError, match=r"\+inf log-weight"):
        ChunkWeights(np.array([[0.0, -1.0], [np.inf, 0.0]])).wt


def test_all_negative_infinite_row_is_named():
    with pytest.raises(ValueError, match="every log-weight is -inf"):
        ChunkWeights(np.array([[0.0, -1.0], [-np.inf, -np.inf]])).wt


@pytest.mark.parametrize("row", [[0.0, -np.inf], [0.0, -np.inf, -np.inf]])
@pytest.mark.parametrize("kernel", [
    pytest.param(jvi1_coefficients, id="jvi1_coefficients"),
    pytest.param(lambda w: w.jvi1_bound, id="jvi1_estimate"),
])
def test_jackknife_with_one_finite_log_weight_is_named(kernel, row):
    with pytest.raises(ValueError, match="jackknife needs two finite log-weights"):
        kernel(ChunkWeights(np.array([row])))


def test_jvi_coefficients_zero_on_a_negative_infinite_sample():
    c, c2 = jvi1_coefficients(ChunkWeights(np.array([[0.0, -1.0, -np.inf]])))
    assert np.all(np.isfinite(c)) and np.all(np.isfinite(c2))
    assert c[0, 2] == 0.0 and c2[0, 2] == 0.0
    assert c[0].sum() == pytest.approx(1.0, abs=1e-15)
