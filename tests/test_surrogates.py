import numpy as np
import pytest

from dreglab.estimators import ESTIMATOR_IDS, ESTIMATORS, phi_rows, theta_rows
from dreglab.gaussian import Streams, noise_block
from dreglab.models import perturb_params
from reference.models import Toy
from reference.support import agree, toy_fixture, vae_image_fixture
from reference.surrogates import surrogate_loss


def split(loss, p):
    """A flat surrogate gradient as its (phi, theta) parts."""
    flat = loss.gradient()
    return flat[p.phi_indices], flat[p.theta_indices]


def direct_pairs(fam, p, x, eps):
    """(kind, expected phi, expected theta, alpha) of every id."""
    ctx = fam.weight_context(p, x, eps)
    out = []
    for kind in ESTIMATOR_IDS:
        alpha = 0.3 if kind == "dreg-alpha" else None
        out.append((kind, phi_rows(kind, ctx, alpha)[0], theta_rows(kind, ctx)[0], alpha))
    return out


def test_kind_validation():
    fam, p, x = toy_fixture()
    eps = noise_block(1, Streams.MEASURE, 0, (3, 3))
    with pytest.raises(ValueError):
        surrogate_loss("elbo", fam, p, x, eps)
    with pytest.raises(ValueError):
        surrogate_loss("dreg-alpha", fam, p, x, eps)
    with pytest.raises(ValueError):
        surrogate_loss("dreg-alpha", fam, p, x, eps, alpha=1.2)


@pytest.mark.parametrize("fixture", [toy_fixture, vae_image_fixture], ids=["toy", "vae"])
def test_an_unread_alpha_changes_no_bit(fixture):
    # only weights that are functions of alpha read it, so the seven ids
    # whose weights are all numbers give the same bits with and without it
    numeric = [kind for kind, r in ESTIMATORS.items()
               if not any(map(callable, (*r.path.values(), *r.score.values())))]
    assert len(numeric) == 7
    fam, p, x = fixture()
    eps = noise_block(4, Streams.MEASURE, 3, (4, fam.latent))

    def calls(kind, alpha):
        ctx = fam.weight_context(p, x, eps)
        return (phi_rows(kind, ctx, alpha), theta_rows(kind, ctx),
                surrogate_loss(kind, fam, p, x, eps, alpha=alpha).gradient())

    for kind in numeric:
        for got, want in zip(calls(kind, 0.3), calls(kind, None)):
            assert np.array_equal(got, want), kind


def test_toy_surrogates_match_direct_estimators():
    fam, p, x = toy_fixture()
    eps = noise_block(2, Streams.MEASURE, 1, (5, 3))
    for kind, want_phi, want_theta, alpha in direct_pairs(fam, p, x, eps):
        loss = surrogate_loss(kind, fam, p, x, eps, alpha=alpha)
        phi, theta = split(loss, p)
        assert agree(phi, want_phi, 1e-12), kind
        assert agree(theta, want_theta, 1e-12), kind


def test_vae_surrogates_match_direct_estimators():
    fam, p, x = vae_image_fixture()
    eps = noise_block(3, Streams.MEASURE, 2, (3, 2))
    for kind, want_phi, want_theta, alpha in direct_pairs(fam, p, x, eps):
        loss = surrogate_loss(kind, fam, p, x, eps, alpha=alpha)
        phi, theta = split(loss, p)
        assert agree(phi, want_phi, 1e-12), kind
        assert agree(theta, want_theta, 1e-12), kind


def test_alpha_half_is_half_the_stl_phi():
    fam, p, x = toy_fixture()
    eps = noise_block(4, Streams.MEASURE, 3, (4, 3))
    half, _ = split(surrogate_loss("dreg-alpha", fam, p, x, eps, alpha=0.5), p)
    stl, _ = split(surrogate_loss("stl", fam, p, x, eps), p)
    assert agree(half, 0.5 * stl, 1e-12)


def test_iwae_and_stl_values_coincide():
    # the stopped q factors change gradients, never values
    fam, p, x = toy_fixture()
    eps = noise_block(5, Streams.MEASURE, 4, (4, 3))
    a = surrogate_loss("iwae", fam, p, x, eps).value
    b = surrogate_loss("stl", fam, p, x, eps).value
    assert a == pytest.approx(b, rel=1e-12)


def test_base_point_freeze_is_the_default():
    fam, p, x = toy_fixture()
    eps = noise_block(6, Streams.MEASURE, 5, (3, 3))
    for kind in ESTIMATOR_IDS:
        alpha = 0.4 if kind == "dreg-alpha" else None
        plain = surrogate_loss(kind, fam, p, x, eps, alpha=alpha)
        pinned = surrogate_loss(kind, fam, p, x, eps, alpha=alpha, stops_from=p)
        assert plain.value == pinned.value
        assert np.array_equal(plain.gradient(), pinned.gradient())


def fd_gradient(kind, fam, base, x, eps, coords, alpha=None, step=1e-5):
    out = {}
    for j in coords:
        probes = []
        for sign in (1.0, -1.0):
            flat = base.flat.copy()
            flat[j] += sign * step
            probes.append(
                surrogate_loss(kind, fam, base.with_flat(flat), x, eps, alpha=alpha, stops_from=base).value
            )
        out[j] = (probes[0] - probes[1]) / (2.0 * step)
    return out


@pytest.mark.parametrize("kind", ESTIMATOR_IDS)
def test_shared_parameter_gradients_match_finite_differences(kind):
    fam = Toy(2, shared=True)
    p = perturb_params(fam.init_params([0.7, -0.4]), 0.05, 11)
    x = [1.1, -0.3]
    eps = noise_block(7, Streams.MEASURE, 6, (4, 2))
    alpha = 0.25 if kind == "dreg-alpha" else None
    grad = surrogate_loss(kind, fam, p, x, eps, alpha=alpha).gradient()
    assert np.all(np.isfinite(grad))
    for j, want in fd_gradient(kind, fam, p, x, eps, range(p.size), alpha=alpha).items():
        assert grad[j] == pytest.approx(want, rel=1e-5, abs=1e-8), (kind, j)


@pytest.mark.parametrize("kind", ESTIMATOR_IDS)
def test_disjoint_gradients_match_finite_differences(kind):
    fam, p, x = toy_fixture()
    eps = noise_block(8, Streams.MEASURE, 7, (3, 3))
    alpha = 0.6 if kind == "dreg-alpha" else None
    grad = surrogate_loss(kind, fam, p, x, eps, alpha=alpha).gradient()
    coords = np.random.default_rng(13).choice(p.size, size=6, replace=False)
    for j, want in fd_gradient(kind, fam, p, x, eps, coords, alpha=alpha).items():
        assert grad[j] == pytest.approx(want, rel=1e-5, abs=1e-8), (kind, j)


def test_vae_gradients_match_finite_differences():
    fam, p, x = vae_image_fixture()
    eps = noise_block(9, Streams.MEASURE, 8, (3, 2))
    for kind in ("iwae", "iwae-dreg"):
        grad = surrogate_loss(kind, fam, p, x, eps).gradient()
        coords = np.random.default_rng(17).choice(p.size, size=5, replace=False)
        for j, want in fd_gradient(kind, fam, p, x, eps, coords).items():
            assert grad[j] == pytest.approx(want, rel=1e-4, abs=1e-8), (kind, j)


def test_surrogate_gradient_deterministic():
    fam, p, x = toy_fixture()
    eps = noise_block(10, Streams.MEASURE, 9, (4, 3))
    a = surrogate_loss("iwae-dreg", fam, p, x, eps).gradient()
    b = surrogate_loss("iwae-dreg", fam, p, x, eps).gradient()
    assert np.array_equal(a, b)
