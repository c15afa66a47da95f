"""The exact-expectation oracle on the d = 1 toy: null pairs and STL's bias."""

import numpy as np
import pytest

from dreglab import cli
from dreglab.estimators import phi_row_set
from dreglab.models import Toy, perturb_params
from reference.quadrature import exact_means

ALPHA = 0.3
# each tested id less its unbiased reference, as bias-test folds it;
# dreg-alpha's reference is the (1 - alpha, alpha) mix of iwae and wake
NULLS = ("iwae-dreg", "rws-dreg", "jvi1-dreg", "dreg-alpha")
# the paper's second-reparameterization estimate of STL's bias
STL_BIAS = {"stl": 1.0, "iwae-dreg": -1.0}


def means(k, m):
    fam = Toy(1)
    p = perturb_params(fam.init_params([0.4]), 0.3, 0)
    maps = {est: cli._difference(est, cli.REFERENCE_PAIR[est], ALPHA)
            for est in NULLS}
    return exact_means(fam, p, [1.7], k, m,
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
