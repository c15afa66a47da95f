import math

import numpy as np
import pytest
from scipy import stats as sps

from dreglab.diagnostics import (
    EXACT_T_CUTOFF,
    RunningMoments,
    VarianceTraceEma,
    loglog_slope,
    reference_mean,
    stats_from_moments,
    t_test_from_moments,
)
from dreglab.models import Toy, Vae, perturb_params


def stats(rows, reference, k=None, estimator_id=None):
    return stats_from_moments(RunningMoments.from_samples(rows), reference,
                              k=k, estimator_id=estimator_id)


def paired(a, b, coordinate=None):
    """Paired t-test of a against b on their per-pair differences."""
    diff = a - b
    return t_test_from_moments(diff.mean(), diff.var(ddof=1), diff.size, coordinate)


def fold(stream, decay):
    """Final debiased trace of a whole gradient stream."""
    ema = VarianceTraceEma(decay)
    for g in stream:
        ema.update(g)
    return ema.value


def test_stats_constant_samples():
    rows = np.full((5, 3), 2.0)
    st = stats(rows, [1.5, 2.0, 2.5], k=8, estimator_id="iwae")
    assert np.array_equal(st.variance, np.zeros(3))
    assert not st.snr_defined.any()
    assert np.all(np.isnan(st.snr))
    assert np.allclose(st.bias_sq, [0.25, 0.0, 0.25], atol=1e-15)
    assert st.k == 8 and st.estimator_id == "iwae" and st.n == 5


def test_stats_unit_snr():
    rows = np.random.default_rng(0).normal(1.0, 1.0, size=(100_000, 4))
    st = stats(rows, np.ones(4))
    assert st.snr_defined.all()
    assert np.all(np.abs(st.snr - 1.0) < 0.05)


def test_stats_zero_bias_at_own_mean():
    rows = np.random.default_rng(1).standard_normal((50, 2))
    st = stats(rows, rows.mean(axis=0))
    assert np.allclose(st.bias_sq, 0.0, atol=1e-28)


def test_stats_needs_two_samples():
    with pytest.raises(ValueError):
        stats(np.ones((1, 3)), np.zeros(3))


def test_stats_permutation_invariant():
    rng = np.random.default_rng(2)
    rows = rng.standard_normal((500, 3))
    a = stats(rows, np.zeros(3))
    b = stats(rows[rng.permutation(500)], np.zeros(3))
    assert np.allclose(a.mean, b.mean, rtol=1e-12, atol=1e-15)
    assert np.allclose(a.variance, b.variance, rtol=1e-12)
    assert np.allclose(a.snr, b.snr, rtol=1e-12)


def test_stats_halves_agree():
    rows = np.random.default_rng(3).standard_normal((20_000, 3))
    a = stats(rows[:10_000], np.zeros(3))
    b = stats(rows[10_000:], np.zeros(3))
    se = np.sqrt(a.variance / 10_000 + b.variance / 10_000)
    assert np.all(np.abs(a.mean - b.mean) < 5 * se)


def test_running_moments_merge_matches_whole():
    rows = np.random.default_rng(4).standard_normal((1000, 5))
    whole = RunningMoments.from_samples(rows)
    merged = RunningMoments.from_samples(rows[:137])
    for lo, hi in ((137, 400), (400, 999), (999, 1000)):
        merged = merged.merge(RunningMoments.from_samples(rows[lo:hi]))
    assert merged.n == whole.n
    assert np.allclose(merged.mean, whole.mean, rtol=1e-13, atol=1e-15)
    assert np.allclose(merged.variance, whole.variance, rtol=1e-12)


def test_paired_t_identical_inputs():
    a = np.random.default_rng(5).standard_normal(64)
    res = paired(a, a.copy())
    assert res.t_statistic == 0.0 and res.p_value == 1.0


def test_paired_t_degenerate_offset():
    res = paired(np.full(32, 2.5), np.full(32, 1.5))
    assert math.isinf(res.t_statistic) and res.t_statistic > 0
    assert res.p_value == 0.0
    # near-degenerate float differences still collapse to p ~ 0
    a = np.random.default_rng(6).standard_normal(32)
    assert paired(a + 1.0, a).p_value == 0.0


def test_paired_t_matches_library_small_n():
    rng = np.random.default_rng(7)
    a = rng.standard_normal(50)
    b = rng.standard_normal(50)
    mine = paired(a, b, coordinate=3)
    ref = sps.ttest_rel(a, b)
    assert mine.t_statistic == pytest.approx(ref.statistic, rel=1e-10)
    assert mine.p_value == pytest.approx(ref.pvalue, rel=1e-10)
    assert mine.coordinate == 3 and mine.n == 50


def test_paired_t_normal_approx_large_n():
    rng = np.random.default_rng(8)
    n = 2 * EXACT_T_CUTOFF
    a = rng.standard_normal(n)
    b = rng.standard_normal(n)
    mine = paired(a, b)
    ref = sps.ttest_rel(a, b)
    assert mine.p_value == pytest.approx(ref.pvalue, abs=1e-4)


def test_paired_t_power_at_ten_se():
    rng = np.random.default_rng(9)
    n = 10_000
    b = rng.standard_normal(n)
    res = paired(b + 0.1 + rng.standard_normal(n), b)
    assert res.p_value < 1e-3


def test_paired_t_shift_invariance():
    rng = np.random.default_rng(10)
    a = rng.standard_normal(200)
    b = rng.standard_normal(200)
    base = paired(a, b)
    shifted = paired(a + 3.7, b + 3.7)
    assert shifted.t_statistic == pytest.approx(base.t_statistic, rel=1e-9)


def test_paired_t_null_calibration():
    rng = np.random.default_rng(11)
    ps = []
    for _ in range(300):
        a = rng.standard_normal(400)
        b = rng.standard_normal(400)
        ps.append(paired(a, b).p_value)
    assert sps.kstest(ps, "uniform").pvalue > 0.01


def test_loglog_exact_cubic_decay():
    pts = [(k, k**-3.0) for k in (4, 8, 16, 32, 64)]
    fit = loglog_slope(pts)
    assert fit.slope == pytest.approx(-3.0, abs=1e-12)
    assert fit.stderr == pytest.approx(0.0, abs=1e-12)


def test_loglog_sqrt_growth_with_noise():
    rng = np.random.default_rng(12)
    pts = [(k, 2.5 * math.sqrt(k) * math.exp(0.01 * rng.standard_normal())) for k in (8, 16, 32, 64, 128, 256, 512)]
    fit = loglog_slope(pts)
    assert 0.45 <= fit.slope <= 0.55


def test_loglog_input_validation():
    with pytest.raises(ValueError):
        loglog_slope([(1, 1.0), (2, 2.0)])
    with pytest.raises(ValueError):
        loglog_slope([(4, 1.0), (2, 2.0), (8, 3.0)])
    with pytest.raises(ValueError):
        loglog_slope([(2, 1.0), (4, 0.0), (8, 3.0)])


def test_trace_constant_stream_is_zero():
    ema = VarianceTraceEma(0.99)
    for _ in range(500):
        val = ema.update(np.full(7, 3.25))
    assert abs(val) < 1e-10


def test_trace_iid_normal_converges_to_one():
    rng = np.random.default_rng(13)
    ema = VarianceTraceEma(0.99)
    for _ in range(2000):
        val = ema.update(rng.standard_normal(100))
    assert abs(val - 1.0) < 0.1


def test_trace_debias_negligible_after_thousand_steps():
    rng = np.random.default_rng(14)
    ema = VarianceTraceEma(0.99)
    for _ in range(1000):
        ema.update(rng.standard_normal(20))
    raw = float(np.mean(ema._m2 - ema._m1 * ema._m1))
    assert abs(ema.value - raw) / abs(ema.value) < 1e-4


def test_trace_validation():
    with pytest.raises(ValueError):
        VarianceTraceEma(1.0)
    with pytest.raises(ValueError):
        VarianceTraceEma(0.0)
    with pytest.raises(ValueError):
        VarianceTraceEma(0.5).value
    with pytest.raises(ValueError):
        fold(iter(()), 0.5)


def test_trace_fold_matches_class():
    rng = np.random.default_rng(15)
    rows = rng.standard_normal((50, 4))
    ema = VarianceTraceEma(0.9)
    last = None
    for r in rows:
        last = ema.update(r)
    assert fold(iter(rows), 0.9) == last


def test_reference_mean_zero_at_posterior():
    fam = Toy(2, q_variance=0.5)
    p = fam.init_params([0.6, -0.2])
    ref = reference_mean(fam, p, [1.0, 0.4], k=4, n_ref=40_000, seed=21)
    assert ref.n == 40_000 and ref.k == 4
    assert np.all(np.abs(ref.mean) < 4 * ref.stderr)


def test_reference_mean_se_scales_inverse_sqrt():
    fam = Toy(2)
    p = perturb_params(fam.init_params([0.3, 0.9]), 0.02, 5)
    x = [0.8, -0.1]
    a = reference_mean(fam, p, x, k=4, n_ref=20_000, seed=22)
    b = reference_mean(fam, p, x, k=4, n_ref=40_000, seed=22)
    assert np.allclose(a.stderr / b.stderr, math.sqrt(2.0), rtol=0.1)


def test_reference_mean_matches_quadrature_d1():
    fam = Toy(1)
    p = perturb_params(fam.init_params([0.5]), 0.05, 8)
    x = [1.2]
    ref = reference_mean(fam, p, x, k=1, n_ref=200_000, seed=23)
    theta = float(p.view("theta")[0])
    a = float(p.view("a")[0])
    b = float(p.view("b")[0])
    qv = fam.q_variance
    m = a * x[0] + b
    s = math.sqrt(qv)
    nodes, weights = np.polynomial.hermite.hermgauss(80)
    zs = m + math.sqrt(2.0) * s * nodes
    g = (theta - zs) + (x[0] - zs) + (zs - m) / qv
    eg = float(np.sum(weights * g) / math.sqrt(math.pi))
    want = np.array([eg * x[0], eg])
    assert np.all(np.abs(ref.mean - want) < 4 * ref.stderr)


def test_reference_mean_bit_stable():
    fam = Toy(3)
    p = perturb_params(fam.init_params([0.1, 0.2, 0.3]), 0.01, 2)
    x = [0.0, 0.5, -0.5]
    a = reference_mean(fam, p, x, k=8, n_ref=5000, seed=24, chunk_size=1024)
    b = reference_mean(fam, p, x, k=8, n_ref=5000, seed=24, chunk_size=1024)
    assert np.array_equal(a.mean, b.mean)
    assert np.array_equal(a.stderr, b.stderr)


def test_reference_mean_vae_batch_route():
    fam = Vae(latent=2, hidden=3, obs=5)
    p = fam.init_params(seed=4)
    x = (np.random.default_rng(5).random(5) < 0.5).astype(float)
    ref = reference_mean(fam, p, x, k=3, n_ref=64, seed=25, chunk_size=32)
    assert ref.mean.shape == ref.stderr.shape
    assert np.all(np.isfinite(ref.mean))
