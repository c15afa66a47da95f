import numpy as np
import pytest

from dreglab.estimators import (
    DESCENT_IDS,
    ESTIMATOR_IDS,
    phi_rows,
    surrogate_loss,
    theta_rows,
)
from dreglab.gaussian import Streams, noise_batch
from dreglab.models import Toy, Vae, perturb_params


def agree(a, b, tol):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return np.max(np.abs(a - b)) <= tol * (1.0 + np.max(np.abs(a)))


def toy_fixture(d=3, seed=9):
    fam = Toy(d)
    rng = np.random.default_rng(seed)
    theta = rng.standard_normal(d)
    p = perturb_params(fam.init_params(theta), 0.01, seed)
    x = p.view("theta") + rng.standard_normal(d) * 1.4
    return fam, p, x


def vae_fixture():
    fam = Vae(latent=2, hidden=3, obs=5)
    p = perturb_params(fam.init_params(seed=2), 0.25, 7)
    rng = np.random.default_rng(3)
    x = (rng.random(5) < 0.5).astype(float)
    return fam, p, x


def split(loss, p):
    """A flat surrogate gradient as its (phi, theta) parts."""
    flat = loss.gradient()
    return flat[p.phi_indices], flat[p.theta_indices]


def direct_pairs(fam, p, x, nb):
    """(kind, expected phi, expected theta, alpha) with signs resolved."""
    ctx = fam.weight_context(p, x, nb.eps)
    out = []
    for kind in ESTIMATOR_IDS:
        alpha = 0.3 if kind == "dreg-alpha" else None
        sign = -1.0 if kind in DESCENT_IDS else 1.0
        out.append((kind, sign * phi_rows(kind, ctx, alpha)[0], theta_rows(kind, ctx)[0], alpha))
    return out


def test_kind_validation():
    fam, p, x = toy_fixture()
    nb = noise_batch(1, Streams.MEASURE, 0, k=3, d=3)
    with pytest.raises(ValueError):
        surrogate_loss("elbo", fam, p, x, nb)
    with pytest.raises(ValueError):
        surrogate_loss("dreg-alpha", fam, p, x, nb)
    with pytest.raises(ValueError):
        surrogate_loss("dreg-alpha", fam, p, x, nb, alpha=1.2)
    with pytest.raises(ValueError):
        surrogate_loss("iwae", fam, p, x, nb, alpha=0.5)
    with pytest.raises(TypeError):
        surrogate_loss("iwae", fam, p, x, nb.eps)


def test_toy_surrogates_match_direct_estimators():
    fam, p, x = toy_fixture()
    nb = noise_batch(2, Streams.MEASURE, 1, k=5, d=3)
    for kind, want_phi, want_theta, alpha in direct_pairs(fam, p, x, nb):
        loss = surrogate_loss(kind, fam, p, x, nb, alpha=alpha)
        phi, theta = split(loss, p)
        assert agree(phi, want_phi, 1e-12), kind
        assert agree(theta, want_theta, 1e-12), kind


def test_vae_surrogates_match_direct_estimators():
    fam, p, x = vae_fixture()
    nb = noise_batch(3, Streams.MEASURE, 2, k=3, d=2)
    for kind, want_phi, want_theta, alpha in direct_pairs(fam, p, x, nb):
        loss = surrogate_loss(kind, fam, p, x, nb, alpha=alpha)
        phi, theta = split(loss, p)
        assert agree(phi, want_phi, 1e-12), kind
        assert agree(theta, want_theta, 1e-12), kind


def test_alpha_half_is_half_the_stl_phi():
    fam, p, x = toy_fixture()
    nb = noise_batch(4, Streams.MEASURE, 3, k=4, d=3)
    half, _ = split(surrogate_loss("dreg-alpha", fam, p, x, nb, alpha=0.5), p)
    stl, _ = split(surrogate_loss("stl", fam, p, x, nb), p)
    assert agree(half, 0.5 * stl, 1e-12)


def test_iwae_and_stl_values_coincide():
    # the stopped q factors change gradients, never values
    fam, p, x = toy_fixture()
    nb = noise_batch(5, Streams.MEASURE, 4, k=4, d=3)
    a = surrogate_loss("iwae", fam, p, x, nb).value
    b = surrogate_loss("stl", fam, p, x, nb).value
    assert a == pytest.approx(b, rel=1e-12)


def test_base_point_freeze_is_the_default():
    fam, p, x = toy_fixture()
    nb = noise_batch(6, Streams.MEASURE, 5, k=3, d=3)
    for kind in ESTIMATOR_IDS:
        alpha = 0.4 if kind == "dreg-alpha" else None
        plain = surrogate_loss(kind, fam, p, x, nb, alpha=alpha)
        pinned = surrogate_loss(kind, fam, p, x, nb, alpha=alpha, stops_from=p)
        assert plain.value == pinned.value
        assert np.array_equal(plain.gradient(), pinned.gradient())


def fd_gradient(kind, fam, base, x, nb, coords, alpha=None, step=1e-5):
    out = {}
    for j in coords:
        probes = []
        for sign in (1.0, -1.0):
            flat = base.flat.copy()
            flat[j] += sign * step
            probes.append(
                surrogate_loss(kind, fam, base.with_flat(flat), x, nb, alpha=alpha, stops_from=base).value
            )
        out[j] = (probes[0] - probes[1]) / (2.0 * step)
    return out


@pytest.mark.parametrize("kind", ESTIMATOR_IDS)
def test_shared_parameter_gradients_match_finite_differences(kind):
    fam = Toy(2, shared=True)
    p = perturb_params(fam.init_params([0.7, -0.4]), 0.05, 11)
    x = [1.1, -0.3]
    nb = noise_batch(7, Streams.MEASURE, 6, k=4, d=2)
    alpha = 0.25 if kind == "dreg-alpha" else None
    grad = surrogate_loss(kind, fam, p, x, nb, alpha=alpha).gradient()
    assert np.all(np.isfinite(grad))
    for j, want in fd_gradient(kind, fam, p, x, nb, range(p.size), alpha=alpha).items():
        assert grad[j] == pytest.approx(want, rel=1e-5, abs=1e-8), (kind, j)


@pytest.mark.parametrize("kind", ESTIMATOR_IDS)
def test_disjoint_gradients_match_finite_differences(kind):
    fam, p, x = toy_fixture()
    nb = noise_batch(8, Streams.MEASURE, 7, k=3, d=3)
    alpha = 0.6 if kind == "dreg-alpha" else None
    grad = surrogate_loss(kind, fam, p, x, nb, alpha=alpha).gradient()
    coords = np.random.default_rng(13).choice(p.size, size=6, replace=False)
    for j, want in fd_gradient(kind, fam, p, x, nb, coords, alpha=alpha).items():
        assert grad[j] == pytest.approx(want, rel=1e-5, abs=1e-8), (kind, j)


def test_vae_gradients_match_finite_differences():
    fam, p, x = vae_fixture()
    nb = noise_batch(9, Streams.MEASURE, 8, k=3, d=2)
    for kind in ("iwae", "iwae-dreg"):
        grad = surrogate_loss(kind, fam, p, x, nb).gradient()
        coords = np.random.default_rng(17).choice(p.size, size=5, replace=False)
        for j, want in fd_gradient(kind, fam, p, x, nb, coords).items():
            assert grad[j] == pytest.approx(want, rel=1e-4, abs=1e-8), (kind, j)


def test_surrogate_gradient_deterministic():
    fam, p, x = toy_fixture()
    nb = noise_batch(10, Streams.MEASURE, 9, k=4, d=3)
    a = surrogate_loss("iwae-dreg", fam, p, x, nb).gradient()
    b = surrogate_loss("iwae-dreg", fam, p, x, nb).gradient()
    assert np.array_equal(a, b)
