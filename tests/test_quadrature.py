"""The exact-expectation oracle on the d = 1 toy: null pairs, STL's bias,
and the exact phi variance that one fold's variance is checked against."""

import numpy as np
import pytest

from dreglab.diagnostics import fold_rows
from dreglab.estimators import ESTIMATORS, difference, phi_row_set, phi_rows
from dreglab.gaussian import Streams
from dreglab.models import Toy, perturb_params
from reference.quadrature import exact_means

ALPHA = 0.3
# each id with a table reference but stl, less that reference, as
# bias-test folds it: every such map has an exact zero mean
NULLS = tuple(est for est, r in ESTIMATORS.items()
              if r.reference and est != "stl")
# the paper's second-reparameterization estimate of STL's bias
STL_BIAS = {"stl": 1.0, "iwae-dreg": -1.0}
# the ids whose phi variance is pinned at K = 2
VARIANCE_IDS = ("iwae", "iwae-dreg")


def point():
    fam = Toy(1)
    return fam, perturb_params(fam.init_params([0.4]), 0.3, 0), [1.7]


def means(k, m):
    fam, p, x = point()
    maps = {est: difference(est, ALPHA) for est in NULLS}
    return exact_means(fam, p, x, k, m,
                       lambda ctx: phi_row_set({**maps, "stl": STL_BIAS},
                                               ctx, ALPHA).items())


@pytest.mark.parametrize("k", [2, 3])
def test_null_pairs_have_zero_mean_and_stl_does_not(k):
    exact = means(k, 60)
    for est in NULLS:
        assert np.max(np.abs(exact[est])) <= 1e-12, est
    assert np.max(np.abs(exact["stl"])) > 0.5


def test_stl_bias_is_stable_in_the_node_count():
    assert np.max(np.abs(means(2, 80)["stl"] - means(2, 60)["stl"])) <= 1e-13


def test_a_grid_past_the_cap_is_refused():
    fam = Toy(1)
    with pytest.raises(ValueError, match="over"):
        exact_means(fam, fam.init_params([0.4]), [1.7], 4, 60, None)


def central_moments(m):
    """{id: (variance, fourth central moment)} of each `VARIANCE_IDS` id's
    phi rows per coordinate at K = 2, from the exact means of the rows'
    first four powers."""
    fam, p, x = point()
    raw = exact_means(fam, p, x, 2, m, lambda ctx: [
        ((est, j), phi_rows(est, ctx) ** j)
        for est in VARIANCE_IDS for j in range(1, 5)])
    out = {}
    for est in VARIANCE_IDS:
        m1, m2, m3, m4 = (raw[est, j] for j in range(1, 5))
        out[est] = (m2 - m1 * m1,
                    m4 - 4.0 * m1 * m3 + 6.0 * m1 * m1 * m2 - 3.0 * m1 ** 4)
    return out


def test_exact_phi_variance_is_stable_in_the_node_count():
    # the summed phi variance at K = 2: iwae-dreg's is 41 times smaller
    at60, at80 = central_moments(60), central_moments(80)
    want = {"iwae": 5.27990, "iwae-dreg": 0.127652}
    for est in VARIANCE_IDS:
        total = at60[est][0].sum()
        assert total == pytest.approx(want[est], rel=1e-5), est
        assert abs(at80[est][0].sum() - total) <= 1e-12, est


def test_fold_variance_is_within_its_standard_error_of_the_exact_one():
    # the sample variance of n rows has variance mu4 / n - var^2 (n - 3)
    # / (n (n - 1)); over seeds 1000-2299 the largest |z| was 3.16
    n = 20_000
    exact = central_moments(60)
    fam, p, x = point()
    folded = fold_rows(
        fam, p, x, 2, n,
        lambda ctx: [(est, phi_rows(est, ctx)) for est in VARIANCE_IDS],
        seed=5, stream=Streams.MEASURE)
    for est in VARIANCE_IDS:
        var, mu4 = exact[est]
        se = np.sqrt(mu4 / n - var * var * (n - 3) / (n * (n - 1)))
        z = (folded[est].variance - var) / se
        assert np.all(np.abs(z) <= 4.0), (est, z)
