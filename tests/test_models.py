import math

import numpy as np
import pytest
from scipy.special import expit

from dreglab.gaussian import noise_block
from dreglab.models import (
    build_params,
    load_checkpoint,
    perturb_params,
    save_checkpoint,
    toy_optimal_inference,
)
from dreglab.models import params
from dreglab.models.vae import _sigmoid
from reference.gaussian import log_prob, sample_reparam
from reference.models import Toy, Vae, lift
from reference.support import toy_fixture
from reference.tape import TapeGraph

LOG_2PI = 1.8378770664093453
HALF_LOG_4PI = 1.2655121234846454


def test_log_joint_at_origin():
    fam = Toy(1)
    assert fam.log_joint(fam.init_params([0.0]), [0.0], [0.0]) == pytest.approx(-LOG_2PI, abs=1e-14)


def test_log_joint_translation_invariance():
    rng = np.random.default_rng(2)
    fam = Toy(2)
    for _ in range(10):
        theta = rng.standard_normal(2)
        x, z, c = rng.standard_normal(2), rng.standard_normal(2), rng.standard_normal()
        a = fam.log_joint(fam.init_params(theta), x, z)
        b = fam.log_joint(fam.init_params(theta + c), x + c, z + c)
        assert b == pytest.approx(a, abs=1e-11)


def test_log_joint_theta_gradient_is_prior_residual():
    fam = Toy(2)
    p = fam.init_params([0.3, -0.2])
    x = [0.5, 0.1]
    z = [1.0, -0.7]
    g = TapeGraph()
    lp = lift(g, p)
    root = fam.log_joint(lp, x, z)
    grads = g.backward(root)
    theta_nodes = lp.nodes["theta"]
    for j, node in enumerate(theta_nodes):
        assert grads[node.idx] == pytest.approx(z[j] - p.view("theta")[j], abs=1e-12)


def test_log_marginal_at_origin():
    fam = Toy(1)
    assert fam.log_marginal(fam.init_params([0.0]), [0.0]) == pytest.approx(-HALF_LOG_4PI, abs=1e-14)


def test_log_marginal_matches_grid_quadrature():
    fam = Toy(1)
    p = fam.init_params([0.45])
    x = [1.3]
    zs = np.linspace(-12.0, 12.0, 240001)
    logs = np.array([fam.log_joint(p, x, [z]) for z in zs])
    h = zs[1] - zs[0]
    quad = np.logaddexp.reduce(logs) + math.log(h)
    assert quad == pytest.approx(fam.log_marginal(p, x), abs=1e-5)


def test_optimal_inference_is_posterior_mean_map():
    a, b = toy_optimal_inference([0.0, 0.0])
    assert a == [[0.5, 0.0], [0.0, 0.5]]
    assert b == [0.0, 0.0]
    a, b = toy_optimal_inference([1.0, -1.0])
    assert b == [0.5, -0.5]
    rng = np.random.default_rng(4)
    theta = rng.standard_normal(3)
    a, b = toy_optimal_inference(theta)
    for _ in range(5):
        x = rng.standard_normal(3)
        mean = np.array(a) @ x + np.array(b)
        assert np.allclose(mean, 0.5 * (x + theta), atol=1e-12)


def test_exact_posterior_makes_log_weight_constant():
    # q-variance 1/2 with the optimal map: log w = log p(x) for every draw
    fam = Toy(3, q_variance=0.5)
    p = fam.init_params([0.2, -1.0, 0.8])
    x = np.array([1.0, 0.4, -0.3])
    ctx = fam.weight_context(p, x, noise_block(1, 50, 0, (4, 6, 3)))
    want = fam.log_marginal(p, x)
    assert np.allclose(ctx.lw, want, atol=1e-10)


def test_context_lw_matches_generic_route():
    fam, p, x = toy_fixture(d=3)
    eps = noise_block(7, 50, 1, (2, 5, 3))
    ctx = fam.weight_context(p, x, eps)
    for n in range(2):
        for i in range(5):
            q = fam.inference(p, x)
            z = sample_reparam(q, eps[n, i])
            direct = fam.log_joint(p, x, z) - log_prob(q, z)
            assert ctx.lw[n, i] == pytest.approx(direct, rel=1e-12, abs=1e-12)


def _direct_toy_context(fam, p, x, eps, c):
    """lw, path, score, theta rows from the (n, K, d) per-draw arrays."""
    d = fam.d
    theta = p.view("theta")
    a = p.view("a").reshape(d, d)
    x = np.asarray(x, dtype=np.float64)
    s = math.sqrt(fam.q_variance)
    mean = a @ x + p.view("b")
    z = mean + s * eps
    lw = (-0.5 * np.sum((z - theta) ** 2, axis=-1) - 0.5 * np.sum((x - z) ** 2, axis=-1)
          - 0.5 * d * LOG_2PI + d * math.log(s) + 0.5 * np.sum(eps**2, axis=-1))
    dlw_dz = (theta - z) + (x - z) + (z - mean) / fam.q_variance

    def phi(u):
        return np.concatenate([(u[:, :, None] * x).reshape(u.shape[0], -1), u], axis=1)

    path = phi(np.einsum("nk,nkd->nd", c, dlw_dz))
    score = phi(np.einsum("nk,nkd->nd", c, eps) / s)
    theta_rows = np.einsum("nk,nkd->nd", c, z - theta)
    return lw, path, score, theta_rows


@pytest.mark.parametrize("q_variance", [0.5, 2.0 / 3.0, 2.0])
@pytest.mark.parametrize("k", [1, 8, 512])
def test_collapsed_context_matches_direct_formulas(k, q_variance):
    fam, p, x = toy_fixture(d=3, seed=11, q_variance=q_variance, sigma=0.3)
    eps = noise_block(11, 50, k, (6, k, 3))
    c = np.random.default_rng(k).standard_normal((6, k))

    def close(got, want):
        # relative to the array's scale: single entries may cancel to ~0
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    for e, cc in ((eps, c), (eps[2], c[2:3])):  # (n, K, d) and (K, d) input
        ctx = fam.weight_context(p, x, e)
        lw, path, score, theta_rows = _direct_toy_context(fam, p, x, e.reshape(-1, k, 3), cc)
        close(ctx.lw, lw)
        close(ctx.path(cc), path)
        close(ctx.score(cc), score)
        close(ctx.theta(cc), theta_rows)


def test_perturb_zero_sigma_is_identity():
    fam = Toy(2)
    p = fam.init_params([0.1, 0.2])
    q = perturb_params(p, 0.0, 5)
    assert np.array_equal(p.flat, q.flat)


def test_perturb_offset_scale():
    p = build_params([("w", 10_000, "phi")])
    q = perturb_params(p, 0.01, 3)
    sd = np.std(q.flat)
    assert 0.009 < sd < 0.011


def test_perturb_deterministic():
    p = build_params([("w", 64, "phi")])
    a = perturb_params(p, 0.01, 9)
    b = perturb_params(p, 0.01, 9)
    assert np.array_equal(a.flat, b.flat)
    c = perturb_params(p, 0.01, 10)
    assert not np.array_equal(a.flat, c.flat)


def test_iwae_expectation_monotone_in_k():
    fam, p, x = toy_fixture(d=2, seed=21)
    eps = noise_block(21, 51, 0, (100_000, 8, 2))
    ctx = fam.weight_context(p, x, eps)
    prev = None
    for k in (1, 2, 4, 8):
        lw = ctx.lw[:, :k]
        m = lw.max(axis=1, keepdims=True)
        bound = (m[:, 0] + np.log(np.exp(lw - m).mean(axis=1)))
        if prev is not None:
            diff = bound - prev
            se = diff.std(ddof=1) / math.sqrt(diff.size)
            assert diff.mean() > -3 * se
        prev = bound


def test_param_vector_roles_and_views():
    fam = Toy(2)
    p = fam.init_params([1.0, 2.0])
    assert list(p.layout) == ["theta", "a", "b"]
    assert p.view("b").tolist() == [0.5, 1.0]
    assert p.phi_indices.tolist() == list(range(2, 8))
    assert p.theta_indices.tolist() == [0, 1]
    assert "shared" not in p.roles.values()
    assert "shared" in Toy(2, shared=True).init_params([1.0, 2.0]).roles.values()


def test_param_vector_validates_layout():
    with pytest.raises(ValueError):
        build_params([("w", 0, "phi")])
    with pytest.raises(ValueError):
        build_params([("w", 2, "nope")])


def test_checkpoint_roundtrip(tmp_path):
    fam, p, _ = toy_fixture(d=4)
    path = tmp_path / "params.ckpt"
    save_checkpoint(p, path)
    q = load_checkpoint(path, fam.roles())
    assert q.layout == p.layout
    assert np.array_equal(q.flat, p.flat)
    save_checkpoint(p, path)
    assert load_checkpoint(path, fam.roles()).flat.tolist() == p.flat.tolist()


def test_checkpoint_bytes_stable(tmp_path):
    fam, p, _ = toy_fixture(d=2)
    a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(p, a)
    save_checkpoint(p, b)
    assert a.read_bytes() == b.read_bytes()


def test_failed_atomic_write_leaves_no_trace(tmp_path, monkeypatch):
    target = tmp_path / "out.bin"
    with pytest.raises(TypeError):
        params.write_atomic(target, "not bytes")
    assert list(tmp_path.iterdir()) == []
    params.write_atomic(target, b"old")

    def refuse(src, dst):
        raise OSError("rename refused")

    # the temp file is written in full, then the rename fails
    monkeypatch.setattr(params.os, "replace", refuse)
    with pytest.raises(OSError, match="rename refused"):
        params.write_atomic(target, b"new")
    with pytest.raises(OSError, match="rename refused"):
        save_checkpoint(toy_fixture(d=2)[1], tmp_path / "params.ckpt")
    assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]
    assert target.read_bytes() == b"old"


@pytest.mark.parametrize("cut", [3, 8])
def test_truncated_checkpoint_is_named(tmp_path, cut):
    fam, p, _ = toy_fixture(d=4)
    path = tmp_path / "params.ckpt"
    save_checkpoint(p, path)
    blob = path.read_bytes()
    path.write_bytes(blob[:-cut])
    expected = 8 * p.size
    with pytest.raises(ValueError, match=f"params.ckpt.*{expected} bytes, found {expected - cut}"):
        load_checkpoint(path, fam.roles())


def test_checkpoint_cut_inside_header_is_named(tmp_path):
    fam, p, _ = toy_fixture(d=4)
    path = tmp_path / "params.ckpt"
    save_checkpoint(p, path)
    path.write_bytes(path.read_bytes()[:10])
    with pytest.raises(ValueError, match="params.ckpt.*layout header has no blank-line terminator"):
        load_checkpoint(path, fam.roles())


@pytest.mark.parametrize("line, message", [
    (b"theta 0", r"checkpoint header line 1 'theta 0': not enough values to unpack"),
    (b"theta x0 4", r"checkpoint header line 1 'theta x0 4': invalid literal for int\(\)"),
    (b"th\xe9ta 0 4", r"checkpoint header line 1 'th\\xe9ta 0 4': 'ascii' codec can't decode"),
    (b"thetaX 0 4", r"checkpoint header line 1 'thetaX 0 4': missing or invalid role for 'thetaX'"),
    (b"a 0 4", r"checkpoint header line 2 'a 4 16': slice 'a' repeats"),
    (b"theta 1 4", r"slice 'theta' starts at 1, expected 0"),
], ids=["two-fields", "bad-offset", "non-ascii", "unknown-slice", "repeated-slice",
        "misplaced-slice"])
def test_malformed_checkpoint_header_line_is_named(tmp_path, line, message):
    fam, p, _ = toy_fixture(d=4)
    path = tmp_path / "params.ckpt"
    save_checkpoint(p, path)
    blob = path.read_bytes()
    path.write_bytes(line + blob[blob.index(b"\n"):])  # header line 1 replaced
    with pytest.raises(ValueError, match=f"params.ckpt: {message}"):
        load_checkpoint(path, fam.roles())


def test_vae_dead_network_log_joint():
    fam = Vae(latent=3, hidden=4, obs=6)
    p = fam.init_params(seed=0)
    p.flat[:] = 0.0
    x = [1, 0, 1, 1, 0, 0]
    z = [0.3, -0.4, 0.1]
    got = fam.log_joint(p, x, z)
    prior = sum(-0.5 * LOG_2PI - 0.5 * zj * zj for zj in z)
    assert got == pytest.approx(prior + 6 * math.log(0.5), abs=1e-12)


def test_vae_init_glorot_bounds():
    fam = Vae(latent=4, hidden=6, obs=10)
    p = fam.init_params(seed=3)
    limit = math.sqrt(6.0 / (10 + 6))
    w1 = p.view("enc_w1")
    assert np.all(np.abs(w1) <= limit)
    assert np.std(w1) > 0.1 * limit
    assert np.all(p.view("enc_b1") == 0.0)
    assert np.all(p.view("dec_b3") == 0.0)
    q = fam.init_params(seed=3)
    assert np.array_equal(p.flat, q.flat)


def test_vae_sigmoid_matches_expit():
    u = np.concatenate([np.linspace(-1e4, 1e4, 200_001), np.linspace(-40.0, 40.0, 80_001)])
    # relative where expit is a normal double; below that (u < -708) both
    # are subnormal or zero, and only the absolute gap is meaningful
    np.testing.assert_allclose(_sigmoid(u), expit(u), rtol=1e-15,
                               atol=np.finfo(np.float64).tiny)
    assert _sigmoid(np.array([-1e308, 0.0, 1e308])).tolist() == [0.0, 0.5, 1.0]


def test_vae_log_joint_matches_finite_differences():
    fam = Vae(latent=2, hidden=3, obs=4)
    p = fam.init_params(seed=11)
    rng = np.random.default_rng(1)
    x = (rng.random(4) < 0.5).astype(float)
    z = rng.standard_normal(2)

    g = TapeGraph()
    lp = lift(g, p)
    root = fam.log_joint(lp, x, list(z))
    grads = g.backward(root)
    vec = lp.grad_vector(grads)

    step = 1e-5
    rng2 = np.random.default_rng(2)
    probe = rng2.choice(p.size, size=25, replace=False)
    for idx in probe:
        hi, lo = p.copy(), p.copy()
        hi.flat[idx] += step
        lo.flat[idx] -= step
        central = (fam.log_joint(hi, x, list(z)) - fam.log_joint(lo, x, list(z))) / (2 * step)
        assert vec[idx] == pytest.approx(central, abs=1e-4, rel=1e-4)


def test_vae_context_matches_generic_route():
    fam = Vae(latent=2, hidden=3, obs=5)
    p = fam.init_params(seed=4)
    p2 = perturb_params(p, 0.3, 8)
    rng = np.random.default_rng(6)
    x = (rng.random((2, 5)) < 0.5).astype(float)
    eps = rng.standard_normal((2, 3, 2))
    ctx = fam.weight_context(p2, x, eps)
    for b in range(2):
        for i in range(3):
            q = fam.inference(p2, x[b])
            z = sample_reparam(q, eps[b, i])
            direct = fam.log_joint(p2, x[b], z) - log_prob(q, z)
            assert ctx.lw[b, i] == pytest.approx(direct, rel=1e-12, abs=1e-12)


def test_vae_context_contractions_match_finite_differences():
    # theta(c) and the phi contractions against numeric derivatives of
    # sum_i c_i log w_i in the eps parameterization
    fam = Vae(latent=2, hidden=3, obs=4)
    p = perturb_params(fam.init_params(seed=5), 0.2, 12)
    rng = np.random.default_rng(13)
    x = (rng.random((1, 4)) < 0.5).astype(float)
    eps = rng.standard_normal((1, 2, 2))
    c = rng.standard_normal((1, 2))

    ctx = fam.weight_context(p, x, eps)
    theta_rows = ctx.theta(c)
    total_phi = ctx.path(c) - ctx.score(c)

    def weighted_lw(vec):
        ctx2 = fam.weight_context(p.with_flat(vec), x, eps)
        return float(np.sum(c * ctx2.lw))

    step = 1e-6
    phi_idx = p.phi_indices
    theta_idx = p.theta_indices
    probe_phi = rng.choice(len(phi_idx), size=10, replace=False)
    probe_theta = rng.choice(len(theta_idx), size=10, replace=False)
    for local in probe_theta:
        idx = theta_idx[local]
        hi, lo = p.flat.copy(), p.flat.copy()
        hi[idx] += step
        lo[idx] -= step
        central = (weighted_lw(hi) - weighted_lw(lo)) / (2 * step)
        assert theta_rows[0, local] == pytest.approx(central, abs=2e-5, rel=1e-5)
    for local in probe_phi:
        idx = phi_idx[local]
        hi, lo = p.flat.copy(), p.flat.copy()
        hi[idx] += step
        lo[idx] -= step
        central = (weighted_lw(hi) - weighted_lw(lo)) / (2 * step)
        assert total_phi[0, local] == pytest.approx(central, abs=2e-5, rel=1e-5)


@pytest.mark.parametrize("k", [1, 8])
def test_vae_rows_are_one_grouped_product(k):
    # one group per image gives the batched matmul and the K-axis sums;
    # one group of all B*K rows gives the flat 2-D products that training
    # reads, bit for bit
    from dreglab.models.vae import _rows

    rng = np.random.default_rng(21)
    grads = [rng.standard_normal((16, k, n)) for n in (20, 20, 20)]
    inputs = [rng.standard_normal((16, k, n)) for n in (64, 20, 20)]
    c = rng.standard_normal((16, k))
    flat = [(g.reshape(16 * k, -1), u.reshape(16 * k, -1)) for g, u in zip(grads, inputs)]
    per_image = np.concatenate(
        [piece for g, u in zip(grads, inputs)
         for piece in ((g.swapaxes(1, 2) @ u).reshape(16, -1), g.sum(axis=1))],
        axis=1,
    )
    assert np.array_equal(_rows([g for g, _ in flat], [u for _, u in flat], 16), per_image)
    cf = c.reshape(-1, 1)
    batch_sum = np.concatenate(
        [piece for g, u in flat for piece in ((g.T @ (cf * u)).reshape(-1), g.T @ cf[:, 0])])
    got = _rows(grads, inputs, 1, c)
    assert got.shape == (1, batch_sum.size)
    assert np.array_equal(got[0], batch_sum)

    fam = Vae(latent=10, hidden=20, obs=64)
    p = fam.init_params(seed=3)
    x = (rng.random((1, 64)) < 0.5).astype(float)
    eps = rng.standard_normal((1, k, 10))
    rows, sums = (fam.weight_context(p, x, eps, sums=s) for s in (False, True))
    for got_rows, got_sum in ((rows.path(c[:1]), sums.path(c[:1])),
                              (rows.score(c[:1]), sums.score(c[:1])),
                              (rows.theta(c[:1]), sums.theta(c[:1]))):
        assert got_rows.shape == (1,) + got_sum.shape
        assert np.array_equal(got_rows[0], got_sum)


@pytest.mark.parametrize("ndim", [1, 4])
@pytest.mark.parametrize("family", [Toy(2), Vae(latent=2, hidden=3, obs=5)],
                         ids=["toy", "vae"])
def test_eps_of_a_bad_rank_is_named(family, ndim):
    p = family.init_params([1.0, 2.0] if isinstance(family, Toy) else 1)
    x = np.zeros(2 if isinstance(family, Toy) else 5)
    eps = np.zeros((2,) * (ndim - 1) + (family.latent,))
    with pytest.raises(ValueError, match=r"eps must have shape \(\w+, K, \w+\) or \(K, \w+\)"):
        family.weight_context(p, x, eps)


def test_vae_smoke_desk_scale():
    fam = Vae(latent=10, hidden=20, obs=64)
    p = fam.init_params(seed=1)
    rng = np.random.default_rng(0)
    x = (rng.random((4, 64)) < 0.4).astype(float)
    eps = rng.standard_normal((4, 8, 10))
    ctx = fam.weight_context(p, x, eps)
    assert np.all(np.isfinite(ctx.lw))
    assert ctx.theta(np.ones((4, 8))).shape == (4, len(p.theta_indices))
    assert ctx.path(np.ones((4, 8))).shape == (4, len(p.phi_indices))


def test_shared_toy_ties_inference_to_theta():
    fam = Toy(2, shared=True)
    p = fam.init_params([0.4, -0.6])
    q = fam.inference(p, [1.0, 2.0])
    assert q.mean[0] == pytest.approx(0.4 * 1.0 + 0.2)
    assert q.mean[1] == pytest.approx(-0.6 * 2.0 - 0.3)
    with pytest.raises(ValueError):
        fam.weight_context(p, [0.0, 0.0], np.zeros((1, 2, 2)))
