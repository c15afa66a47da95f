import ast
import math
import os
import pathlib
import subprocess
import sys
import threading
import time
import tracemalloc
from itertools import accumulate

import mpmath
import numpy as np
import pytest
from scipy import stats as sps

from dreglab.diagnostics import (
    RunningMoments,
    VarianceTraceEma,
    fold_rows,
)
from dreglab.estimators import phi_row_set, phi_rows, theta_rows
from dreglab.gaussian import Streams, noise_block, noise_slabs
from dreglab.models import Toy, Vae, perturb_params
from reference.support import loglog_slope


def t_test(mean, variance, n):
    """`RunningMoments.t_test` of one coordinate with these moments, as
    floats (t, p)."""
    mom = RunningMoments(n, np.array([mean], dtype=float),
                         np.array([variance * (n - 1)], dtype=float))
    t, p = mom.t_test()
    return float(t[0]), float(p[0])


def paired(a, b):
    """Paired t-test of a against b on their per-pair differences, as
    floats (t, p)."""
    t, p = RunningMoments.from_samples((a - b)[:, None]).t_test()
    return float(t[0]), float(p[0])


def fold(stream, decay):
    """Final debiased trace of a whole gradient stream."""
    ema = VarianceTraceEma(decay)
    for g in stream:
        ema.update(g)
    return ema.trace()


def test_stats_constant_samples():
    st = RunningMoments.from_samples(np.full((5, 3), 2.0))
    assert np.array_equal(st.variance, np.zeros(3))
    assert np.all(np.isnan(st.snr))
    assert np.array_equal(st.mean, np.full(3, 2.0))


def test_stats_snr_is_nan_only_where_the_variance_is_zero():
    rows = np.array([[1.0, 0.0, -3.0], [1.0, 2.0, -1.0], [1.0, 4.0, -2.0]])
    st = RunningMoments.from_samples(rows)
    assert np.isnan(st.snr[0])
    assert st.snr[1] == 2.0 / 2.0
    assert st.snr[2] == 2.0 / 1.0


def test_stats_unit_snr():
    rows = np.random.default_rng(0).normal(1.0, 1.0, size=(100_000, 4))
    st = RunningMoments.from_samples(rows)
    assert not np.isnan(st.snr).any()
    assert np.all(np.abs(st.snr - 1.0) < 0.05)


def test_stats_needs_two_samples():
    with pytest.raises(ValueError, match="two samples"):
        RunningMoments.from_samples(np.ones((1, 3))).snr


def test_stats_permutation_invariant():
    rng = np.random.default_rng(2)
    rows = rng.standard_normal((500, 3))
    a = RunningMoments.from_samples(rows)
    b = RunningMoments.from_samples(rows[rng.permutation(500)])
    assert np.allclose(a.mean, b.mean, rtol=1e-12, atol=1e-15)
    assert np.allclose(a.variance, b.variance, rtol=1e-12)
    assert np.allclose(a.snr, b.snr, rtol=1e-12)


def test_stats_halves_agree():
    rows = np.random.default_rng(3).standard_normal((20_000, 3))
    a = RunningMoments.from_samples(rows[:10_000])
    b = RunningMoments.from_samples(rows[10_000:])
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
    t, p = paired(a, a.copy())
    assert t == 0.0 and p == 1.0


def test_paired_t_degenerate_offset():
    t, p = paired(np.full(32, 2.5), np.full(32, 1.5))
    assert math.isinf(t) and t > 0
    assert p == 0.0
    # near-degenerate float differences still collapse to p ~ 0
    a = np.random.default_rng(6).standard_normal(32)
    assert paired(a + 1.0, a)[1] == 0.0


def test_paired_t_matches_library_small_n():
    rng = np.random.default_rng(7)
    a = rng.standard_normal(50)
    b = rng.standard_normal(50)
    t, p = paired(a, b)
    ref = sps.ttest_rel(a, b)
    assert t == pytest.approx(ref.statistic, rel=1e-10)
    assert p == pytest.approx(ref.pvalue, rel=1e-10)


def test_paired_t_matches_library_large_n():
    # the t CDF is exact at every n, with no normal tail past some size
    rng = np.random.default_rng(8)
    n = 20_000
    a = rng.standard_normal(n)
    b = rng.standard_normal(n)
    t, p = paired(a, b)
    ref = sps.ttest_rel(a, b)
    assert t == pytest.approx(ref.statistic, rel=1e-10)
    assert p == pytest.approx(ref.pvalue, rel=1e-10)


# nu from 1 to 1e7, each side of the complement switch at |t| = 1 and of
# the Stirling switch at nu = 128, and tails down to p ~ 5e-251
T_TAIL_GRID = ([(nu, t) for nu in (1, 2, 7, 63, 64, 127, 128, 1000, 16383,
                                   99999, 10**6, 10**7)
                for t in (1e-6, 0.3, 0.999, 1.001, 2.0, 6.0, 20.0)]
               + [(1, 1e3), (7, 1e3), (127, 1e3), (128, 1e3), (99999, 35.0),
                  (10**7, 30.0)])


def test_t_tail_matches_mpmath_betainc():
    # p = I_x(nu/2, 1/2), x = nu / (nu + t^2); mean t, variance n and n
    # samples give the statistic t exactly
    start = time.perf_counter()
    half = mpmath.mpf(1) / 2
    with mpmath.workdps(30):
        for nu, t in T_TAIL_GRID:
            stat, p = t_test(t, nu + 1, nu + 1)
            assert stat == t
            x = mpmath.mpf(nu) / (nu + mpmath.mpf(t) ** 2)
            exact = mpmath.betainc(mpmath.mpf(nu) / 2, half, 0, x, regularized=True)
            assert float(abs(p - exact) / exact) <= 1e-13, (nu, t)
            assert t_test(-t, nu + 1, nu + 1)[1] == p
    assert time.perf_counter() - start < 2.0


@pytest.mark.parametrize("n", [2, 129, 10**7])
def test_t_tail_limits(n):
    assert t_test(0.0, 1.0, n)[1] == 1.0
    assert t_test(math.inf, 1.0, n)[1] == 0.0
    assert t_test(-math.inf, 1.0, n)[1] == 0.0
    assert math.isnan(t_test(math.nan, 1.0, n)[1])


def test_t_test_degenerate_coordinates():
    # zero variance: zero mean reads t = 0, p = 1, any other mean an
    # infinite t of its sign and p = 0; a NaN variance stays NaN
    mom = RunningMoments(5, np.array([0.0, -0.0, 2.0, -3.0, 1.0, 1.0]),
                         np.array([0.0, 0.0, 0.0, 0.0, math.nan, 4.0]))
    t, p = mom.t_test()
    assert list(t[:4]) == [0.0, 0.0, math.inf, -math.inf]
    assert list(p[:4]) == [1.0, 1.0, 0.0, 0.0]
    assert math.isnan(t[4]) and math.isnan(p[4])
    assert t[5] == 1.0 / math.sqrt(1.0 / 5) and 0.0 < p[5] < 1.0


def test_paired_t_power_at_ten_se():
    rng = np.random.default_rng(9)
    n = 10_000
    b = rng.standard_normal(n)
    assert paired(b + 0.1 + rng.standard_normal(n), b)[1] < 1e-3


def test_paired_t_shift_invariance():
    rng = np.random.default_rng(10)
    a = rng.standard_normal(200)
    b = rng.standard_normal(200)
    base = paired(a, b)
    shifted = paired(a + 3.7, b + 3.7)
    assert shifted[0] == pytest.approx(base[0], rel=1e-9)


def test_paired_t_null_calibration():
    rng = np.random.default_rng(11)
    ps = []
    for _ in range(300):
        a = rng.standard_normal(400)
        b = rng.standard_normal(400)
        ps.append(paired(a, b)[1])
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
        ema.update(np.full(7, 3.25))
    val = ema.trace()
    assert abs(val) < 1e-10


def test_trace_iid_normal_converges_to_one():
    rng = np.random.default_rng(13)
    ema = VarianceTraceEma(0.99)
    for _ in range(2000):
        ema.update(rng.standard_normal(100))
    val = ema.trace()
    assert abs(val - 1.0) < 0.1


def test_trace_debias_negligible_after_thousand_steps():
    rng = np.random.default_rng(14)
    ema = VarianceTraceEma(0.99)
    for _ in range(1000):
        ema.update(rng.standard_normal(20))
    raw = float(np.mean(ema._m2 - ema._m1 * ema._m1))
    assert abs(ema.trace() - raw) / abs(ema.trace()) < 1e-4


def test_trace_validation():
    with pytest.raises(ValueError):
        VarianceTraceEma(1.0)
    with pytest.raises(ValueError):
        VarianceTraceEma(0.0)
    with pytest.raises(ValueError):
        VarianceTraceEma(0.5).trace()
    with pytest.raises(ValueError):
        fold(iter(()), 0.5)


def test_trace_fold_matches_class():
    rng = np.random.default_rng(15)
    rows = rng.standard_normal((50, 4))
    ema = VarianceTraceEma(0.9)
    for r in rows:
        ema.update(r)
    last = ema.trace()
    assert fold(iter(rows), 0.9) == last


def reference_fold(fam, p, x, k, n, seed, chunk_size=16384):
    """toy-snr's bias reference: iwae rows folded on the reference stream
    (`cli._paired_fold` of the map {iwae: {iwae: 1}}), with the
    standard error of its mean."""
    moments = fold_rows(fam, p, x, k, n,
                        lambda ctx: [("iwae", phi_rows("iwae", ctx))],
                        seed=seed, stream=Streams.REFERENCE,
                        chunk_size=chunk_size)["iwae"]
    return moments, np.sqrt(moments.variance / moments.n)


def test_reference_mean_zero_at_posterior():
    fam = Toy(2, q_variance=0.5)
    p = fam.init_params([0.6, -0.2])
    ref, se = reference_fold(fam, p, [1.0, 0.4], k=4, n=40_000, seed=21)
    assert ref.n == 40_000
    assert np.all(np.abs(ref.mean) < 4 * se)


def test_reference_mean_se_scales_inverse_sqrt():
    fam = Toy(2)
    p = perturb_params(fam.init_params([0.3, 0.9]), 0.02, 5)
    x = [0.8, -0.1]
    _, a = reference_fold(fam, p, x, k=4, n=20_000, seed=22)
    _, b = reference_fold(fam, p, x, k=4, n=40_000, seed=22)
    assert np.allclose(a / b, math.sqrt(2.0), rtol=0.1)


def test_reference_mean_matches_quadrature_d1():
    fam = Toy(1)
    p = perturb_params(fam.init_params([0.5]), 0.05, 8)
    x = [1.2]
    ref, se = reference_fold(fam, p, x, k=1, n=200_000, seed=23)
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
    assert np.all(np.abs(ref.mean - want) < 4 * se)


def test_reference_mean_bit_stable():
    fam = Toy(3)
    p = perturb_params(fam.init_params([0.1, 0.2, 0.3]), 0.01, 2)
    x = [0.0, 0.5, -0.5]
    a, b = (reference_fold(fam, p, x, k=8, n=5000, seed=24, chunk_size=1024)[0]
            for _ in range(2))
    assert np.array_equal(a.mean, b.mean)
    assert np.array_equal(a.m2, b.m2)


def test_reference_mean_vae_batch_route():
    fam = Vae(latent=2, hidden=3, obs=5)
    p = fam.init_params(seed=4)
    x = (np.random.default_rng(5).random(5) < 0.5).astype(float)
    ref, se = reference_fold(fam, p, x, k=3, n=64, seed=25, chunk_size=32)
    assert ref.mean.shape == se.shape
    assert np.all(np.isfinite(ref.mean))


def fold_fixture():
    fam = Toy(3)
    p = perturb_params(fam.init_params([0.1, -0.3, 0.5]), 0.05, 3)
    return fam, p, [0.4, 0.0, -0.2]


def phi_and_theta(ctx):
    yield "phi", phi_rows("iwae-dreg", ctx)
    yield "theta", theta_rows("iwae", ctx)


def test_fold_rows_counts_a_ragged_tail():
    fam, p, x = fold_fixture()
    folded = fold_rows(fam, p, x, 4, 1000, phi_and_theta, seed=30,
                       stream=Streams.MEASURE, draw_prefix=(2,), chunk_size=384)
    assert {name: mom.n for name, mom in folded.items()} == {"phi": 1000, "theta": 1000}


def slab_fold(fam, p, x, seed, slabs, rows_of=phi_and_theta, draw_prefix=(2, 4)):
    """The fold of `fold_rows` by hand: one context per listed slab,
    ``slabs`` listing each chunk's slab rows, merged in order."""
    want = {}
    for chunk, cut in enumerate(slabs):
        eps = noise_block(seed, Streams.MEASURE, (*draw_prefix, chunk),
                          (sum(cut), 4, fam.latent))
        for first, m in zip(accumulate(cut, initial=0), cut):
            ctx = fam.weight_context(p, x, eps[first:first + m])
            for name, rows in rows_of(ctx):
                part = RunningMoments.from_samples(rows)
                want[name] = want[name].merge(part) if name in want else part
    return want


def assert_same_moments(folded, want):
    assert folded.keys() == want.keys()
    for name, mom in folded.items():
        assert mom.n == want[name].n
        assert np.array_equal(mom.mean, want[name].mean)
        assert np.array_equal(mom.m2, want[name].m2)


def test_fold_rows_reads_each_chunks_noise():
    fam, p, x = fold_fixture()
    folded = fold_rows(fam, p, x, 4, 1000, phi_and_theta, seed=31,
                       stream=Streams.MEASURE, draw_prefix=(2, 4), chunk_size=384)
    assert_same_moments(folded, slab_fold(fam, p, x, 31, [(384,), (384,), (232,)]))


def vae_fold_fixture():
    fam = Vae(latent=2, hidden=3, obs=5)
    return fam, fam.init_params(seed=4), np.array([1.0, 0.0, 0.0, 1.0, 1.0])


@pytest.mark.parametrize("merge_rows", [1024, 128])
@pytest.mark.parametrize("family, slab_rows", [
    ("toy", 1), ("toy", 7), ("toy", 100), ("toy", 384),
    ("vae", 2), ("vae", 7), ("vae", 100), ("vae", 384),
])
def test_fold_rows_merges_slab_by_slab(monkeypatch, family, slab_rows, merge_rows):
    # 7 and 100 cut the chunks into slabs of unequal sizes; 1 gives one
    # context per draw (the VAE's one-row batches run gemv, not gemm, so
    # it starts at 2); 384 leaves one slab per chunk at MERGE_ROWS = 1024
    # and cuts the chunks into 3, 3 and 2 slabs at 128
    fam, p, x = fold_fixture() if family == "toy" else vae_fold_fixture()
    monkeypatch.setattr("dreglab.diagnostics.MERGE_ROWS", merge_rows)
    monkeypatch.setattr("dreglab.diagnostics.SLAB", slab_rows * 4 * fam.latent)
    slabs = []

    def rows_of(ctx):
        slabs.append((ctx.lw.shape[0], threading.active_count() - before))
        yield from phi_and_theta(ctx)

    before = threading.active_count()
    folded = fold_rows(fam, p, x, 4, 1000, rows_of, seed=31,
                       stream=Streams.MEASURE, draw_prefix=(2, 4), chunk_size=384)
    step = min(slab_rows, merge_rows)
    rows = [m for m, _ in slabs]
    assert len(rows) == sum(-(-m // step) for m in (384, 384, 232))
    assert max(rows) <= step
    # each chunk's slabs, in draw order (no slab spans two chunks)
    ends = [0, *accumulate(rows)]
    cuts = [rows[ends.index(lo):ends.index(hi)] for lo, hi in ((0, 384), (384, 768), (768, 1000))]
    # even cuts: no one-row slab (232 rows in slabs of 7 would end in one)
    assert all(max(cut) - min(cut) <= 1 for cut in cuts)
    assert min(rows) >= min(2, step)
    assert {workers for _, workers in slabs} == {1}
    assert threading.active_count() == before
    assert_same_moments(folded, slab_fold(fam, p, x, 31, cuts))


def renamed_at_the_third_slab(ctx, calls):
    yield ("phi" if calls < 3 else "phi2"), phi_rows("iwae", ctx)
    yield "theta", theta_rows("iwae", ctx)


def dropped_at_the_third_slab(ctx, calls):
    yield "phi", phi_rows("iwae", ctx)
    if calls < 3:
        yield "theta", theta_rows("iwae", ctx)


@pytest.mark.parametrize("rows_of, detail", [
    (renamed_at_the_third_slab, "'phi2' is new or repeated"),
    (dropped_at_the_third_slab, "no rows for 'theta'"),
])
def test_fold_rows_rejects_names_that_change_across_slabs(monkeypatch, rows_of, detail):
    fam, p, x = fold_fixture()
    monkeypatch.setattr("dreglab.diagnostics.SLAB", 100 * 4 * 3)
    calls = []

    def counted(ctx):
        calls.append(ctx)
        yield from rows_of(ctx, len(calls))

    before = threading.active_count()
    with pytest.raises(ValueError, match="every slab yields the same names") as info:
        fold_rows(fam, p, x, 4, 1000, counted, seed=37,
                  stream=Streams.MEASURE, chunk_size=384)
    assert str(info.value).endswith("chunk 0, rows 192:288: " + detail)
    assert len(calls) == 3
    assert threading.active_count() == before


def test_fold_rows_rejects_rows_whose_shape_changes_across_chunks():
    # without the check, chunk 1's (1,) moments would broadcast into the
    # (12,) moments of chunk 0
    fam, p, x = fold_fixture()
    calls = []

    def rows_of(ctx):
        calls.append(ctx)
        rows = phi_rows("iwae", ctx)
        yield "phi", rows if len(calls) == 1 else rows[:, :1]

    with pytest.raises(ValueError, match="every slab yields the same names") as info:
        fold_rows(fam, p, x, 4, 1000, rows_of, seed=39,
                  stream=Streams.MEASURE, chunk_size=384)
    assert str(info.value).endswith(
        "chunk 1, rows 0:384: 'phi' rows have shape (384, 1), not (384, 12)")
    assert len(calls) == 2


def eps_rows(ctx):
    yield "eps", ctx.eps.reshape(len(ctx.eps), -1)


def test_fold_rows_ring_wrap_is_bit_exact(monkeypatch):
    # slabs of at most 100 rows: chunks of 4, 4 and 3 slabs in the ring's
    # slots 0 1 2 0 | 1 2 0 1 | 2 0 1, so slot 0 is refilled mid-chunk and
    # the ragged chunk's 78- and 77-row slabs fill the leading part of
    # 96-row slots
    fam, p, x = fold_fixture()
    monkeypatch.setattr("dreglab.diagnostics.SLAB", 100 * 4 * fam.latent)
    folded = fold_rows(fam, p, x, 4, 1000, eps_rows, seed=40,
                       stream=Streams.MEASURE, draw_prefix=(2,), chunk_size=384)
    slabs = [(96,) * 4, (96,) * 4, (78, 77, 77)]
    assert_same_moments(folded, slab_fold(fam, p, x, 40, slabs, eps_rows, (2,)))


def test_fold_rows_holds_at_most_three_slabs_and_overwrites_none_in_use(monkeypatch):
    # 8 + 8 + 5 slabs of at most 50 rows; each slab's rows_of sleeps so
    # that the worker runs as far ahead as the fold lets it
    fam, p, x = fold_fixture()
    monkeypatch.setattr("dreglab.diagnostics.SLAB", 50 * 4 * fam.latent)
    bases, slabs = [], []

    def rows_of(ctx):
        held = ctx.eps.copy()
        if not any(np.shares_memory(ctx.eps, base) for base in bases):
            bases.append(ctx.eps if ctx.eps.base is None else ctx.eps.base)
        time.sleep(0.001)
        assert np.array_equal(ctx.eps, held), f"slab {len(slabs)} was overwritten"
        slabs.append(len(ctx.eps))
        yield from phi_and_theta(ctx)

    folded = fold_rows(fam, p, x, 4, 1000, rows_of, seed=31,
                       stream=Streams.MEASURE, draw_prefix=(2, 4), chunk_size=384)
    assert len(slabs) == 21
    assert sum(base.nbytes for base in bases) <= 3 * 48 * 4 * fam.latent * 8
    cuts = [(48,) * 8, (48,) * 8, (47, 47, 46, 46, 46)]
    assert_same_moments(folded, slab_fold(fam, p, x, 31, cuts))


def test_fold_rows_rejects_rows_that_are_not_one_per_noise_row(monkeypatch):
    fam, p, x = fold_fixture()
    monkeypatch.setattr("dreglab.diagnostics.SLAB", 100 * 4 * 3)

    def rows_of(ctx):
        yield "phi", phi_rows("iwae", ctx)[:50]

    with pytest.raises(ValueError, match=r"row i depends on noise row i alone.*"
                                         r"chunk 0, rows 0:96: 'phi' rows have shape \(50, "):
        fold_rows(fam, p, x, 4, 1000, rows_of, seed=38,
                  stream=Streams.MEASURE, chunk_size=384)


def test_fold_rows_names_rows_that_are_not_two_dimensional():
    fam, p, x = fold_fixture()

    def rows_of(ctx):
        yield "lw0", ctx.lw[:, 0]

    with pytest.raises(ValueError, match="every slab yields the same names") as info:
        fold_rows(fam, p, x, 4, 1000, rows_of, seed=38,
                  stream=Streams.MEASURE, chunk_size=384)
    assert str(info.value).endswith(
        "chunk 0, rows 0:384: 'lw0' rows have shape (384,), not (384, d)")


def test_fold_rows_holds_one_slab_of_rows_per_name():
    # a VAE fold's rows (P_phi = 2140 columns) are its largest arrays: a
    # fold that kept 1024-row buffers per name peaked at 114.4 MiB here,
    # and one that folds each slab's rows as they come at 88.3 MiB
    fam = Vae(10, 20, 64)
    p = fam.init_params(seed=4)
    x = (np.random.default_rng(5).random(64) < 0.5).astype(float)
    maps = {"iwae": {"iwae": 1.0}, "iwae-dreg": {"iwae-dreg": 1.0}}
    tracemalloc.start()
    try:
        folded = fold_rows(fam, p, x, 64, 4096, lambda ctx: phi_row_set(maps, ctx).items(),
                           seed=1, stream=Streams.MEASURE)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert folded["iwae"].mean.shape == (2140,)
    assert peak <= 100 << 20, peak / 2**20


def test_fold_rows_draw_prefix_separates_streams():
    fam, p, x = fold_fixture()
    a, b = (fold_rows(fam, p, x, 4, 500, phi_and_theta, seed=32,
                      stream=Streams.MEASURE, draw_prefix=prefix, chunk_size=256)
            for prefix in ((0,), (1,)))
    for name in ("phi", "theta"):
        assert not np.array_equal(a[name].mean, b[name].mean)


def test_fold_rows_bit_stable():
    fam, p, x = fold_fixture()
    a, b = (fold_rows(fam, p, x, 4, 700, phi_and_theta, seed=33,
                      stream=Streams.REFERENCE, chunk_size=256)
            for _ in range(2))
    for name in ("phi", "theta"):
        assert np.array_equal(a[name].mean, b[name].mean)
        assert np.array_equal(a[name].m2, b[name].m2)


@pytest.mark.parametrize("n, workers", [(200, [0]), (1100, [1] * 5)])
def test_fold_rows_draws_ahead_on_one_worker_thread(n, workers):
    # test_fold_rows_reads_each_chunks_noise pins the moments to the
    # serial fold; this pins the threads: none for a single chunk, one
    # for 4 full chunks and a 100-row tail, joined on return
    fam, p, x = fold_fixture()
    seen = []

    def rows_of(ctx):
        seen.append(threading.active_count() - before)
        yield from phi_and_theta(ctx)

    before = threading.active_count()
    folded = fold_rows(fam, p, x, 4, n, rows_of, seed=34,
                       stream=Streams.MEASURE, chunk_size=250)
    assert seen == workers
    assert threading.active_count() == before
    assert folded["phi"].n == n


class ChunkFailure(Exception):
    pass


def test_fold_rows_reraises_a_rows_of_failure_and_joins_the_worker():
    fam, p, x = fold_fixture()
    failure = ChunkFailure("chunk 1")
    seen = []

    def rows_of(ctx):
        seen.append(ctx.lw.shape[0])
        if len(seen) == 2:
            raise failure
        yield from phi_and_theta(ctx)

    before = threading.active_count()
    with pytest.raises(ChunkFailure) as info:
        fold_rows(fam, p, x, 4, 1000, rows_of, seed=35,
                  stream=Streams.MEASURE, chunk_size=384)
    assert info.value is failure
    assert seen == [384, 384]
    assert threading.active_count() == before


def test_fold_rows_reraises_a_draw_failure_from_the_worker(monkeypatch):
    fam, p, x = fold_fixture()
    failure = ChunkFailure("draw 2")

    def noise_slabs_failing_at_chunk_2(seed, stream, draw, shape, rows, buffers):
        if draw[-1] == 2:
            raise failure
        return noise_slabs(seed, stream, draw, shape, rows, buffers)

    monkeypatch.setattr("dreglab.diagnostics.noise_slabs", noise_slabs_failing_at_chunk_2)
    before = threading.active_count()
    with pytest.raises(ChunkFailure) as info:
        fold_rows(fam, p, x, 4, 1000, phi_and_theta, seed=36,
                  stream=Streams.MEASURE, chunk_size=384)
    assert info.value is failure
    assert threading.active_count() == before


def test_fold_rows_bad_key_raises_the_serial_error():
    fam, p, x = fold_fixture()
    with pytest.raises(ValueError) as serial:
        noise_block(-1, Streams.MEASURE, (0,), (384, 4, 3))
    before = threading.active_count()
    with pytest.raises(ValueError) as folded:
        fold_rows(fam, p, x, 4, 1000, phi_and_theta, seed=-1,
                  stream=Streams.MEASURE, chunk_size=384)
    assert str(folded.value) == str(serial.value)
    assert threading.active_count() == before


def test_importing_the_cli_leaves_scipy_stats_unloaded():
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    probe = "import sys, dreglab.cli; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


def test_running_the_cli_loads_no_scipy(tmp_path):
    bias = tmp_path / "bias.txt"
    bias.write_text("samples = 200\nk = 8\nd = 2\n")
    train = tmp_path / "train.txt"
    train.write_text("latent = 2\nhidden = 4\nobs = 16\ndata_n = 96\nk = 4\n"
                     "steps = 3\nbatch_size = 8\n")
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    probe = (
        "import sys\n"
        "from dreglab.cli import main\n"
        f"assert main(['bias-test', '--config', {str(bias)!r}, '--out', {str(tmp_path / 'b')!r}]) == 0\n"
        f"assert main(['train', '--config', {str(train)!r}, '--out', {str(tmp_path / 't')!r}]) == 0\n"
        "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))\n"
        "print(*(m for m in sys.modules if m.partition('.')[0] == 'dreglab'))\n"
    )
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    scipy, dreglab = out.splitlines()[-2:]
    assert scipy == "[]"
    # the CLI runs the bulk route alone: no tape or surrogate module loads
    assert "dreglab.cli" in dreglab.split()
    assert not [m for m in dreglab.split() if "tape" in m or "surrogate" in m], dreglab


def test_the_package_imports_only_the_standard_library_and_numpy():
    allowed = set(sys.stdlib_module_names) | {"numpy", "dreglab"}
    package = pathlib.Path(__file__).resolve().parents[1] / "src" / "dreglab"
    imported = set()
    for path in package.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.partition(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.partition(".")[0])
    assert "numpy" in imported
    assert imported <= allowed, sorted(imported - allowed)
