import math

import numpy as np
import pytest

from dreglab.estimators import (
    ESTIMATOR_IDS,
    ESTIMATORS,
    ChunkWeights,
    context_weights,
    phi_row_set,
    phi_rows,
    theta_rows,
)
from dreglab.gaussian import Streams, noise_block
from dreglab.models import Toy, Vae, perturb_params
from reference.gaussian import log_prob, sample_reparam
from reference.models import lift
from reference.support import toy_fixture, vae_batch_fixture
from reference.tape import TapeGraph, log_sum_exp
from reference.weights import jvi1_estimate, log_weights


def each_alone(*kinds):
    """`phi_row_set`'s map of each id by itself."""
    return {kind: {kind: 1.0} for kind in kinds}


def one_draw(fam, p, x, eps, kind, alpha=None):
    """(phi, theta) gradient of ``kind`` on the single draw ``eps``."""
    ctx = fam.weight_context(p, x, eps)
    return phi_rows(kind, ctx, alpha)[0], theta_rows(kind, ctx)[0]


def test_registry_contents():
    assert len(ESTIMATOR_IDS) == 8


# each bound a recipe can name, as a function of the tape nodes of one row
TAPE_BOUNDS = {
    "iwae_bound": lambda nodes: log_sum_exp(nodes) - math.log(len(nodes)),
    "jvi1_bound": jvi1_estimate,
}


@pytest.mark.parametrize("kind", ESTIMATOR_IDS)
def test_each_recipes_bound_and_theta_base_match_the_tape(kind):
    # the bound a recipe names is its tape reference's value, and its
    # theta base that reference's gradient in log w
    r = ESTIMATORS[kind]
    assert r.bound in TAPE_BOUNDS, f"{kind}: no tape reference for {r.bound!r}"
    rng = np.random.default_rng(19)
    for k in (2, 5):
        for spread in (1.0, 30.0, 355.0, 700.0):
            lw = rng.uniform(-spread, 0.0, size=(3, k))
            w = ChunkWeights(lw)
            bound, base = getattr(w, r.bound), getattr(w, r.theta)
            for row, got_bound, got_base in zip(lw, bound, base):
                g = TapeGraph()
                nodes = g.input_vector(row)
                root = TAPE_BOUNDS[r.bound](nodes)
                grads = g.backward(root)
                want = np.array([grads[node.idx] for node in nodes])
                assert got_bound == pytest.approx(root.value, rel=1e-12), (k, spread)
                assert np.allclose(got_base, want, rtol=1e-12, atol=1e-14), (k, spread)


def test_grad_estimate_validation():
    fam, p, x = toy_fixture()
    ctx = fam.weight_context(p, x, noise_block(1, Streams.MEASURE, 9, (4, 3)))
    with pytest.raises(ValueError):
        phi_rows("nope", ctx)
    with pytest.raises(ValueError):
        phi_rows("dreg-alpha", ctx)
    with pytest.raises(ValueError):
        phi_rows("iwae", fam.weight_context(p, [np.nan, 0.0, 0.0], ctx.eps))
    theta_rows("rws-wake", ctx)  # theta rows take no alpha


def test_k1_dreg_collapses_to_stl():
    fam, p, x = toy_fixture()
    eps = noise_block(3, Streams.MEASURE, 0, (1, 3))
    dreg = one_draw(fam, p, x, eps, "iwae-dreg")
    stl = one_draw(fam, p, x, eps, "stl")
    assert np.array_equal(dreg[0], stl[0])
    assert np.array_equal(dreg[1], stl[1])


def test_k1_rws_dreg_is_exact_zero():
    fam, p, x = toy_fixture()
    eps = noise_block(4, Streams.MEASURE, 1, (1, 3))
    phi, _ = one_draw(fam, p, x, eps, "rws-dreg")
    assert np.array_equal(phi, np.zeros_like(phi))


def test_alpha_family_endpoints():
    fam, p, x = toy_fixture()
    eps = noise_block(5, Streams.MEASURE, 2, (6, 3))
    at0, _ = one_draw(fam, p, x, eps, "dreg-alpha", alpha=0.0)
    at1, _ = one_draw(fam, p, x, eps, "dreg-alpha", alpha=1.0)
    assert np.array_equal(at0, one_draw(fam, p, x, eps, "iwae-dreg")[0])
    assert np.array_equal(at1, one_draw(fam, p, x, eps, "rws-dreg")[0])


def test_alpha_half_is_half_the_stl_path():
    fam, p, x = toy_fixture()
    eps = noise_block(6, Streams.MEASURE, 3, (5, 3))
    half, _ = one_draw(fam, p, x, eps, "dreg-alpha", alpha=0.5)
    stl, _ = one_draw(fam, p, x, eps, "stl")
    assert np.array_equal(half, 0.5 * stl)


def test_alpha_out_of_range_rejected():
    fam, p, x = toy_fixture()
    eps = noise_block(6, Streams.MEASURE, 4, (2, 3))
    with pytest.raises(ValueError):
        one_draw(fam, p, x, eps, "dreg-alpha", alpha=1.5)


def test_rws_theta_equals_iwae_theta():
    fam, p, x = toy_fixture()
    eps = noise_block(7, Streams.MEASURE, 5, (9, 3))
    _, wake = one_draw(fam, p, x, eps, "rws-wake")
    assert np.array_equal(wake, one_draw(fam, p, x, eps, "iwae")[1])


def test_jvi_variants_share_theta():
    fam, p, x = toy_fixture()
    eps = noise_block(8, Streams.MEASURE, 6, (7, 3))
    assert np.array_equal(
        one_draw(fam, p, x, eps, "jvi1")[1], one_draw(fam, p, x, eps, "jvi1-dreg")[1]
    )


def test_path_only_estimators_vanish_at_posterior():
    # with q = p(z|x) every per-sample z-partial of log w is zero
    fam = Toy(3, q_variance=0.5)
    p = fam.init_params([0.4, -1.1, 0.2])
    x = [1.3, 0.0, -0.7]
    for draw in range(3):
        eps = noise_block(11, Streams.MEASURE, draw, (8, 3))
        for kind, alpha in (("stl", None), ("iwae-dreg", None), ("rws-dreg", None),
                            ("dreg-alpha", 0.3), ("jvi1-dreg", None)):
            phi, _ = one_draw(fam, p, x, eps, kind, alpha)
            assert np.max(np.abs(phi)) < 1e-12


def test_decompose_sums_to_standard_grad():
    # per-sample split of the standard phi gradient on the tape route:
    # score term -wt_i dlog q_i/dphi, path term the path contraction of
    # wt_i alone
    fam, p, x = toy_fixture()
    eps = noise_block(12, Streams.MEASURE, 7, (6, 3))
    lwb = log_weights(fam, p, x, eps)
    wt = ChunkWeights(lwb.lw).wt
    score_terms = -(wt[:, None] * lwb.dlogq_dphi)
    path_terms = np.array([lwb.path(wt * (np.arange(6) == i)) for i in range(6)])
    assert score_terms.shape == path_terms.shape == (6, p.flat[p.phi_indices].size)
    total = score_terms.sum(axis=0) + path_terms.sum(axis=0)
    assert np.allclose(total, phi_rows("iwae", lwb), rtol=1e-12, atol=1e-12)
    cross, _ = one_draw(fam, p, x, eps, "iwae")
    assert np.allclose(total, cross, rtol=1e-9, atol=1e-11)


def test_score_term_mean_zero_at_k1():
    fam, p, x = toy_fixture()
    n = 200_000
    eps = noise_block(11, Streams.MEASURE, 1, (n, 1, 3))
    ctx = fam.weight_context(p, x, eps)
    rows = ctx.score(ChunkWeights(ctx.lw).wt)
    t = rows.mean(0) / (rows.std(0, ddof=1) / math.sqrt(n))
    assert np.abs(t).max() < 5.0


def test_score_term_mean_nonzero_at_k2():
    fam, p, x = toy_fixture()
    n = 200_000
    eps = noise_block(11, Streams.MEASURE, 2, (n, 2, 3))
    ctx = fam.weight_context(p, x, eps)
    rows = ctx.score(ChunkWeights(ctx.lw).wt)
    t = rows.mean(0) / (rows.std(0, ddof=1) / math.sqrt(n))
    assert np.abs(t).max() > 8.0


def test_stl_bias_visible_under_common_noise():
    # iwae and stl rows differ by the score term; its mean is the stl bias
    fam, p, x = toy_fixture()
    n, k = 20_000, 64
    eps = noise_block(12, Streams.MEASURE, 5, (n, k, 3))
    ctx = fam.weight_context(p, x, eps)
    diff = ctx.score(ChunkWeights(ctx.lw).wt)
    t = diff.mean(0) / (diff.std(0, ddof=1) / math.sqrt(n))
    assert np.abs(t).max() > 10.0


def test_dreg_unbiasedness_smoke():
    fam, p, x = toy_fixture()
    n, k = 20_000, 8
    eps = noise_block(13, Streams.MEASURE, 6, (n, k, 3))
    ctx = fam.weight_context(p, x, eps)
    w = ChunkWeights(ctx.lw)
    diff = (ctx.path(w.wt) - ctx.score(w.wt)) - ctx.path(w.wt2)
    t = diff.mean(0) / (diff.std(0, ddof=1) / math.sqrt(n))
    assert np.abs(t).max() < 4.5


def test_dreg_variance_below_standard():
    fam, p, x = toy_fixture()
    n, k = 4000, 64
    eps = noise_block(14, Streams.MEASURE, 7, (n, k, 3))
    ctx = fam.weight_context(p, x, eps)
    w = ChunkWeights(ctx.lw)
    std_rows = ctx.path(w.wt) - ctx.score(w.wt)
    dreg_rows = ctx.path(w.wt2)
    assert np.all(dreg_rows.var(0, ddof=1) < std_rows.var(0, ddof=1))


def test_common_noise_determinism():
    fam, p, x = toy_fixture()
    eps = noise_block(21, Streams.MEASURE, 0, (5, 3))
    again = noise_block(21, Streams.MEASURE, 0, (5, 3))
    a = one_draw(fam, p, x, eps, "iwae-dreg")
    b = one_draw(fam, p, x, again, "iwae-dreg")
    assert np.array_equal(a[0], b[0])
    assert np.array_equal(a[1], b[1])
    other = one_draw(fam, p, x, noise_block(21, Streams.MEASURE, 1, (5, 3)), "iwae-dreg")
    assert not np.array_equal(a[0], other[0])


def test_jvi_grad_matches_tape_backward():
    # total derivative of the jackknife combination, via the tape,
    # against the coefficient-contraction route
    fam, p, x = toy_fixture(d=2, seed=5)
    eps = noise_block(22, Streams.MEASURE, 0, (4, 2))
    g = TapeGraph()
    lifted = lift(g, p)
    q = fam.inference(lifted, x)
    lws = []
    for i in range(len(eps)):
        z = sample_reparam(q, eps[i])
        lws.append(fam.log_joint(lifted, x, z) - log_prob(q, z))
    grads = g.backward(jvi1_estimate(lws))
    flat = lifted.grad_vector(grads)
    phi, theta = one_draw(fam, p, x, eps, "jvi1")
    assert np.allclose(flat[p.phi_indices], phi, rtol=1e-9, atol=1e-11)
    assert np.allclose(flat[p.theta_indices], theta, rtol=1e-9, atol=1e-11)


def test_one_context_normalizes_once_for_every_recipe(monkeypatch):
    from dreglab.estimators import weights
    from dreglab.models import toy, vae

    calls = {}

    def counting(name):
        original = getattr(weights, name)

        def counted(lw):
            calls[name] += 1
            return original(lw)

        return counted

    for name in ("normalized_log_weights", "jvi1_coefficients"):
        monkeypatch.setattr(weights, name, counting(name))
    backward = vae._backward

    def counted_backward(layers, h1, h2, seed):
        calls["decoder_backward"] += seed.ndim == 3  # only decoder seeds carry a K axis
        return backward(layers, h1, h2, seed)

    monkeypatch.setattr(vae, "_backward", counted_backward)
    for context in (toy.ToyContext, vae.VaeContext):  # one call per distinct base
        for side in ("path", "score"):
            contract = getattr(context, side)

            def counted_side(self, c, side=side, contract=contract):
                calls[side] += 1
                return contract(self, c)

            monkeypatch.setattr(context, side, counted_side)
    s1, s1_computed = toy.ToyContext._s1, []

    def counted_s1(self, c):  # an S1 computed, not the kept one read back
        s1_computed.append(c is not self._s1_of)
        return s1(self, c)

    monkeypatch.setattr(toy.ToyContext, "_s1", counted_s1)
    alphas = {kind: 0.3 if kind == "dreg-alpha" else None for kind in ESTIMATOR_IDS}
    # per fixture: decoder pullbacks, and S1s computed for the 8 ids' phi rows
    for (fam, p, x), decoder_backward, s1_count in ((toy_fixture(), 0, 4),
                                                    (vae_batch_fixture(), 1, 0)):
        calls.update(normalized_log_weights=0, jvi1_coefficients=0, decoder_backward=0,
                     path=0, score=0)
        s1_computed.clear()
        eps = noise_block(13, Streams.MEASURE, 8, (5, 8, fam.latent))
        ctx = fam.weight_context(p, x, eps)
        phi = phi_row_set(each_alone(*ESTIMATOR_IDS), ctx, alpha=0.3)
        # the toy's path and score of one base share one S1: four for six contractions
        assert sum(s1_computed) == s1_count
        rows = {kind: (phi[kind], theta_rows(kind, ctx)) for kind in ESTIMATOR_IDS}
        for r in ESTIMATORS.values():  # the training objectives read the same weights
            getattr(context_weights(ctx), r.bound)
        assert calls == {"normalized_log_weights": 1, "jvi1_coefficients": 1,
                         "decoder_backward": decoder_backward, "path": 4, "score": 2}
        # the shared weights and the cached decoder pullback change no bit,
        # and no recipe's c leaks into them: each recipe alone on a fresh context
        for kind, (phi, theta) in rows.items():
            assert np.array_equal(phi, phi_rows(kind, fam.weight_context(p, x, eps), alpha=alphas[kind]))
            assert np.array_equal(theta, theta_rows(kind, fam.weight_context(p, x, eps)))


@pytest.mark.parametrize("k", [1, 8])
@pytest.mark.parametrize("b", [1, 5])
def test_batch_sums_equal_the_sum_of_the_rows(k, b):
    # a sums=True VAE context (the one training builds) takes each
    # contraction's last product with the image index summed; the per-row
    # route is the one pinned to the tape.  Over 200 draws per case the
    # two differed by at most 2.8e-15 of the largest row entry, so 1e-14
    # of it is the bound
    fam, p, x = vae_batch_fixture()
    x = x[:b]
    for draw in range(3):
        eps = noise_block(17, Streams.MEASURE, (k, b, draw), (b, k, fam.latent))
        rows = fam.weight_context(p, x, eps)
        sums = fam.weight_context(p, x, eps, sums=True)
        for kind in ESTIMATOR_IDS:
            if k < ESTIMATORS[kind].min_k:
                continue
            alpha = 0.3 if kind == "dreg-alpha" else None
            for want, got in ((phi_rows(kind, rows, alpha), phi_rows(kind, sums, alpha)),
                              (theta_rows(kind, rows), theta_rows(kind, sums))):
                assert got.shape == want.shape[1:]
                np.testing.assert_allclose(got, want.sum(axis=0), rtol=0,
                                           atol=1e-14 * np.abs(want).max())


def test_phi_row_set_equals_each_ids_phi_rows():
    # one contraction per distinct base changes no bit of any id's rows
    for fam, p, x in (toy_fixture(), vae_batch_fixture()):
        eps = noise_block(15, Streams.MEASURE, 9, (5, 8, fam.latent))
        for alpha in (0.0, 0.3, 0.5, 1.0):
            rows = phi_row_set(each_alone(*ESTIMATOR_IDS), fam.weight_context(p, x, eps), alpha)
            assert list(rows) == list(ESTIMATOR_IDS)
            for kind in ESTIMATOR_IDS:
                alone = phi_rows(kind, fam.weight_context(p, x, eps),
                                 alpha if kind == "dreg-alpha" else None)
                assert np.array_equal(rows[kind], alone), (kind, alpha)


def test_phi_row_set_agrees_with_the_tape_route():
    fam, p, x = toy_fixture()
    eps = noise_block(16, Streams.MEASURE, 10, (6, 3))
    tape = phi_row_set(each_alone(*ESTIMATOR_IDS), log_weights(fam, p, x, eps), 0.3)
    bulk = phi_row_set(each_alone(*ESTIMATOR_IDS), fam.weight_context(p, x, eps), 0.3)
    for kind in ESTIMATOR_IDS:
        assert tape[kind].shape == (p.flat[p.phi_indices].size,)
        assert np.allclose(tape[kind], bulk[kind][0], rtol=1e-9, atol=1e-11), kind


def test_phi_row_set_checks_alpha_and_estimator_ids():
    fam, p, x = toy_fixture()
    ctx = fam.weight_context(p, x, noise_block(1, Streams.MEASURE, 11, (4, 3)))
    with pytest.raises(ValueError, match="alpha must be given"):
        phi_row_set(each_alone("iwae", "dreg-alpha"), ctx)
    with pytest.raises(ValueError, match="alpha in"):
        phi_row_set(each_alone("iwae", "dreg-alpha"), ctx, alpha=-0.1)
    with pytest.raises(ValueError, match="unknown estimator id"):
        phi_row_set(each_alone("iwae", "nope"), ctx)
    mix = {"mix": {"iwae": 0.7, "rws-wake": 0.3}}
    assert set(phi_row_set(mix, ctx, alpha=0.3)) == {"mix"}
    assert set(phi_row_set(each_alone("stl", "dreg-alpha"), ctx, alpha=0.3)) == {"stl", "dreg-alpha"}
    assert phi_row_set({}, ctx) == {}


def test_phi_row_set_names_a_map_without_a_nonzero_weight():
    fam, p, x = toy_fixture()
    ctx = fam.weight_context(p, x, noise_block(1, Streams.MEASURE, 12, (4, 3)))
    for name, weights in (("zero", {"iwae": 0.0}), ("empty", {}),
                          ("zeros", {"stl": 0.0, "dreg-alpha": 0.0})):
        with pytest.raises(ValueError, match=f"weight map '{name}' has no nonzero weight"):
            phi_row_set({"live": {"iwae": 1.0}, name: weights}, ctx, alpha=0.3)
    # weights that cancel in the coefficients still give exact-zero rows
    rows = phi_row_set({"cancel": {"iwae-dreg": 1.0, "dreg-alpha": -1.0}}, ctx, alpha=0.0)
    assert rows["cancel"].shape == phi_rows("iwae-dreg", ctx).shape
    assert not rows["cancel"].any()


def _identity_contexts():
    toy = Toy(4)
    rng = np.random.default_rng(3)
    p = perturb_params(toy.init_params(rng.standard_normal(4)), 0.3, 5)
    yield toy, p, p.view("theta") + 1.4 * rng.standard_normal(4), 400
    vae = Vae(10, 20, 64)
    x = (np.random.default_rng(4).random((50, 64)) < 0.5).astype(float)
    yield vae, perturb_params(vae.init_params(seed=2), 0.25, 7), x, 50


@pytest.mark.parametrize("alpha", [0.1, 0.3, 0.5, 0.9])
def test_wake_and_alpha_rows_differ_from_their_baselines_by_the_dreg_difference(alpha):
    # row by row, rws-dreg - rws-wake = -(iwae-dreg - iwae) and
    # dreg-alpha - ((1 - a) iwae + a rws-wake) = (1 - 2a)(iwae-dreg - iwae),
    # so bias-test's rws-dreg and dreg-alpha pairs test the iwae-dreg null
    for fam, p, x, n in _identity_contexts():
        for k in (8, 64):
            eps = noise_block(13, Streams.MEASURE, k, (n, k, fam.latent))
            r = phi_row_set(each_alone(*ESTIMATOR_IDS), fam.weight_context(p, x, eps), alpha)
            scale = max(np.abs(r[kind]).max() for kind in
                        ("iwae", "iwae-dreg", "rws-wake", "rws-dreg", "dreg-alpha"))
            dreg = r["iwae-dreg"] - r["iwae"]
            wake = r["rws-dreg"] - r["rws-wake"]
            mix = (1.0 - alpha) * r["iwae"] + alpha * r["rws-wake"]
            assert np.abs(wake + dreg).max() <= 1e-15 * scale, (type(fam), k)
            assert np.abs((r["dreg-alpha"] - mix) - (1.0 - 2.0 * alpha) * dreg).max() \
                <= 1e-15 * scale, (type(fam), k)


@pytest.mark.parametrize("alpha", [0.3, 0.5])
def test_difference_maps_cancel_shared_terms_in_the_coefficients(alpha):
    # weights are added per contracted base before the sum, so the two
    # dreg differences are one three-term sum and its negation bit for
    # bit, and dreg-alpha
    # less its reference cancels to exact zeros at alpha = 1/2
    maps = {"dreg": {"iwae-dreg": 1.0, "iwae": -1.0},
            "wake": {"rws-dreg": 1.0, "rws-wake": -1.0},
            "alpha": {"dreg-alpha": 1.0, "iwae": lambda a: a - 1.0,
                      "rws-wake": lambda a: -a}}
    for fam, p, x, n in _identity_contexts():
        eps = noise_block(13, Streams.MEASURE, 8, (n, 8, fam.latent))
        ctx = fam.weight_context(p, x, eps)
        d = phi_row_set(maps, ctx, alpha)
        w = context_weights(ctx)
        assert np.array_equal(d["wake"], -d["dreg"]), type(fam)
        assert np.array_equal(d["dreg"], -ctx.path(w.wt) + ctx.path(w.wt2) + ctx.score(w.wt))
        assert d["alpha"].shape == d["dreg"].shape
        assert (alpha == 0.5) == (not d["alpha"].any()), type(fam)
