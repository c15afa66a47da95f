import math

import numpy as np
import pytest

from dreglab.estimators import (
    DESCENT_IDS,
    ESTIMATOR_IDS,
    GradEstimate,
    decompose_total_derivative,
    dreg_alpha_phi_grad,
    iwae_grad_dreg,
    iwae_grad_standard,
    iwae_grad_stl,
    jvi1_dreg_grad,
    jvi1_estimate,
    jvi1_grad,
    log_weights,
    normalized_weights,
    phi_rows,
    rws_dreg_phi_grad,
    rws_theta_grad,
    rws_wake_phi_grad,
    squared_normalized_weights,
    theta_rows,
)
from dreglab.gaussian import Streams, log_prob, noise_batch, noise_block, sample_reparam
from dreglab.models import Toy, lift, perturb_params
from dreglab.tape import TapeGraph


def toy_fixture(d=3, seed=9):
    fam = Toy(d)
    rng = np.random.default_rng(seed)
    theta = rng.standard_normal(d)
    p = perturb_params(fam.init_params(theta), 0.01, seed)
    x = p.view("theta") + rng.standard_normal(d) * 1.4
    return fam, p, x


def test_registry_contents():
    assert set(DESCENT_IDS) <= set(ESTIMATOR_IDS)
    assert len(ESTIMATOR_IDS) == 8


def test_grad_estimate_validation():
    ok = np.zeros(3)
    with pytest.raises(ValueError):
        GradEstimate("nope", 4, ok, ok)
    with pytest.raises(ValueError):
        GradEstimate("iwae", 4, ok, ok, alpha=0.5)
    with pytest.raises(ValueError):
        GradEstimate("dreg-alpha", 4, ok, ok)
    with pytest.raises(ValueError):
        GradEstimate("iwae", 4, np.array([np.nan]), ok)
    GradEstimate("rws-wake", 4, None, ok)  # theta-only estimate is legal


def test_k1_dreg_collapses_to_stl():
    fam, p, x = toy_fixture()
    nb = noise_batch(3, Streams.MEASURE, 0, k=1, d=3)
    dreg = iwae_grad_dreg(fam, p, x, nb)
    stl = iwae_grad_stl(fam, p, x, nb)
    assert np.array_equal(dreg.phi_grad, stl.phi_grad)
    assert np.array_equal(dreg.theta_grad, stl.theta_grad)


def test_k1_rws_dreg_is_exact_zero():
    fam, p, x = toy_fixture()
    nb = noise_batch(4, Streams.MEASURE, 1, k=1, d=3)
    est = rws_dreg_phi_grad(fam, p, x, nb)
    assert np.array_equal(est.phi_grad, np.zeros_like(est.phi_grad))


def test_alpha_family_endpoints():
    fam, p, x = toy_fixture()
    nb = noise_batch(5, Streams.MEASURE, 2, k=6, d=3)
    at0 = dreg_alpha_phi_grad(0.0, fam, p, x, nb)
    at1 = dreg_alpha_phi_grad(1.0, fam, p, x, nb)
    assert np.array_equal(at0.phi_grad, iwae_grad_dreg(fam, p, x, nb).phi_grad)
    assert np.array_equal(at1.phi_grad, -rws_dreg_phi_grad(fam, p, x, nb).phi_grad)
    assert at0.alpha == 0.0 and at1.alpha == 1.0


def test_alpha_half_is_half_the_stl_path():
    fam, p, x = toy_fixture()
    nb = noise_batch(6, Streams.MEASURE, 3, k=5, d=3)
    half = dreg_alpha_phi_grad(0.5, fam, p, x, nb)
    stl = iwae_grad_stl(fam, p, x, nb)
    assert np.array_equal(half.phi_grad, 0.5 * stl.phi_grad)


def test_alpha_out_of_range_rejected():
    fam, p, x = toy_fixture()
    nb = noise_batch(6, Streams.MEASURE, 4, k=2, d=3)
    with pytest.raises(ValueError):
        dreg_alpha_phi_grad(1.5, fam, p, x, nb)


def test_rws_theta_equals_iwae_theta():
    fam, p, x = toy_fixture()
    nb = noise_batch(7, Streams.MEASURE, 5, k=9, d=3)
    wake = rws_theta_grad(fam, p, x, nb)
    assert wake.phi_grad is None
    assert np.array_equal(wake.theta_grad, iwae_grad_standard(fam, p, x, nb).theta_grad)


def test_jvi_variants_share_theta():
    fam, p, x = toy_fixture()
    nb = noise_batch(8, Streams.MEASURE, 6, k=7, d=3)
    assert np.array_equal(
        jvi1_grad(fam, p, x, nb).theta_grad, jvi1_dreg_grad(fam, p, x, nb).theta_grad
    )


def test_path_only_estimators_vanish_at_posterior():
    # with q = p(z|x) every per-sample z-partial of log w is zero
    fam = Toy(3, q_variance=0.5)
    p = fam.init_params([0.4, -1.1, 0.2])
    x = [1.3, 0.0, -0.7]
    for draw in range(3):
        nb = noise_batch(11, Streams.MEASURE, draw, k=8, d=3)
        for est in (
            iwae_grad_stl(fam, p, x, nb),
            iwae_grad_dreg(fam, p, x, nb),
            rws_dreg_phi_grad(fam, p, x, nb),
            dreg_alpha_phi_grad(0.3, fam, p, x, nb),
            jvi1_dreg_grad(fam, p, x, nb),
        ):
            assert np.max(np.abs(est.phi_grad)) < 1e-12


def test_decompose_sums_to_standard_grad():
    fam, p, x = toy_fixture()
    nb = noise_batch(12, Streams.MEASURE, 7, k=6, d=3)
    lwb = log_weights(fam, p, x, nb)
    score_terms, path_terms = decompose_total_derivative(lwb)
    assert score_terms.shape == path_terms.shape == (6, p.phi_indices.size)
    total = score_terms.sum(axis=0) + path_terms.sum(axis=0)
    assert np.allclose(total, phi_rows("iwae", lwb), rtol=1e-12, atol=1e-12)
    cross = iwae_grad_standard(fam, p, x, nb).phi_grad
    assert np.allclose(total, cross, rtol=1e-9, atol=1e-11)


def test_decompose_rejects_bulk_context():
    fam, p, x = toy_fixture()
    ctx = fam.weight_context(p, x, noise_batch(1, Streams.MEASURE, 8, k=3, d=3).eps)
    with pytest.raises(TypeError):
        decompose_total_derivative(ctx)


def test_score_term_mean_zero_at_k1():
    fam, p, x = toy_fixture()
    n = 200_000
    eps = noise_block(11, Streams.MEASURE, 1, (n, 1, 3))
    ctx = fam.weight_context(p, x, eps)
    rows = ctx.score(normalized_weights(ctx.lw))
    t = rows.mean(0) / (rows.std(0, ddof=1) / math.sqrt(n))
    assert np.abs(t).max() < 5.0


def test_score_term_mean_nonzero_at_k2():
    fam, p, x = toy_fixture()
    n = 200_000
    eps = noise_block(11, Streams.MEASURE, 2, (n, 2, 3))
    ctx = fam.weight_context(p, x, eps)
    rows = ctx.score(normalized_weights(ctx.lw))
    t = rows.mean(0) / (rows.std(0, ddof=1) / math.sqrt(n))
    assert np.abs(t).max() > 8.0


def test_stl_bias_visible_under_common_noise():
    # iwae and stl rows differ by the score term; its mean is the stl bias
    fam, p, x = toy_fixture()
    n, k = 20_000, 64
    eps = noise_block(12, Streams.MEASURE, 5, (n, k, 3))
    ctx = fam.weight_context(p, x, eps)
    diff = ctx.score(normalized_weights(ctx.lw))
    t = diff.mean(0) / (diff.std(0, ddof=1) / math.sqrt(n))
    assert np.abs(t).max() > 10.0


def test_dreg_unbiasedness_smoke():
    fam, p, x = toy_fixture()
    n, k = 20_000, 8
    eps = noise_block(13, Streams.MEASURE, 6, (n, k, 3))
    ctx = fam.weight_context(p, x, eps)
    wt = normalized_weights(ctx.lw)
    diff = (ctx.path(wt) - ctx.score(wt)) - ctx.path(squared_normalized_weights(ctx.lw))
    t = diff.mean(0) / (diff.std(0, ddof=1) / math.sqrt(n))
    assert np.abs(t).max() < 4.5


def test_dreg_variance_below_standard():
    fam, p, x = toy_fixture()
    n, k = 4000, 64
    eps = noise_block(14, Streams.MEASURE, 7, (n, k, 3))
    ctx = fam.weight_context(p, x, eps)
    wt = normalized_weights(ctx.lw)
    std_rows = ctx.path(wt) - ctx.score(wt)
    dreg_rows = ctx.path(squared_normalized_weights(ctx.lw))
    assert np.all(dreg_rows.var(0, ddof=1) < std_rows.var(0, ddof=1))


def test_common_noise_determinism():
    fam, p, x = toy_fixture()
    nb = noise_batch(21, Streams.MEASURE, 0, k=5, d=3)
    again = noise_batch(21, Streams.MEASURE, 0, k=5, d=3)
    a = iwae_grad_dreg(fam, p, x, nb)
    b = iwae_grad_dreg(fam, p, x, again)
    assert np.array_equal(a.phi_grad, b.phi_grad)
    assert np.array_equal(a.theta_grad, b.theta_grad)
    other = iwae_grad_dreg(fam, p, x, noise_batch(21, Streams.MEASURE, 1, k=5, d=3))
    assert not np.array_equal(a.phi_grad, other.phi_grad)


def test_jvi_grad_matches_tape_backward():
    # total derivative of the jackknife combination, via the tape,
    # against the coefficient-contraction route
    fam, p, x = toy_fixture(d=2, seed=5)
    nb = noise_batch(22, Streams.MEASURE, 0, k=4, d=2)
    g = TapeGraph()
    lifted = lift(g, p)
    q = fam.inference(lifted, x)
    lws = []
    for i in range(nb.k):
        z = sample_reparam(q, nb.eps[i])
        lws.append(fam.log_joint(lifted, x, z) - log_prob(q, z))
    grads = g.backward(jvi1_estimate(lws))
    flat = lifted.grad_vector(grads)
    est = jvi1_grad(fam, p, x, nb)
    assert np.allclose(flat[p.phi_indices], est.phi_grad, rtol=1e-9, atol=1e-11)
    assert np.allclose(flat[p.theta_indices], est.theta_grad, rtol=1e-9, atol=1e-11)


def test_one_context_normalizes_once_for_every_recipe(monkeypatch):
    from dreglab.estimators import weights

    calls = {"normalized_log_weights": 0, "jvi1_coefficients": 0}

    def counting(name):
        original = getattr(weights, name)

        def counted(lw):
            calls[name] += 1
            return original(lw)

        return counted

    for name in calls:
        monkeypatch.setattr(weights, name, counting(name))
    fam, p, x = toy_fixture()
    eps = noise_block(13, Streams.MEASURE, 8, (5, 8, 3))
    ctx = fam.weight_context(p, x, eps)
    alphas = {kind: 0.3 if kind == "dreg-alpha" else None for kind in ESTIMATOR_IDS}
    rows = {kind: (phi_rows(kind, ctx, alpha=alphas[kind]), theta_rows(kind, ctx))
            for kind in ESTIMATOR_IDS}
    assert calls == {"normalized_log_weights": 1, "jvi1_coefficients": 1}
    # the shared weights change no bit: each recipe alone on a fresh context
    for kind, (phi, theta) in rows.items():
        assert np.array_equal(phi, phi_rows(kind, fam.weight_context(p, x, eps), alpha=alphas[kind]))
        assert np.array_equal(theta, theta_rows(kind, fam.weight_context(p, x, eps)))
