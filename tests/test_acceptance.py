"""Acceptance gate, one test per release criterion.

Each test prints a single verdict line (visible under ``pytest -s``);
the test outcome itself is the pass/fail signal.  Criterion 1 is the
slow one, a few minutes of bulk noise generation; everything else runs
in seconds.  Seeds and sample sizes here are frozen: the measured
margins are wide (the tightest slope sits several standard errors
inside its band), so any regression that moves a number out of band is
a real behavior change, not noise.
"""

import math

import numpy as np
import pytest
from numpy.polynomial.hermite_e import hermegauss

from dreglab.cli import main, parse_config_text
from dreglab.data import synthetic_dataset, split
from dreglab.diagnostics import fold_rows
from dreglab.estimators import (
    ESTIMATOR_IDS,
    ChunkWeights,
    phi_rows,
    theta_rows,
)
from dreglab.gaussian import Streams, noise_block, stream_rng
from dreglab.models import Vae, perturb_params
from dreglab.training import train_model
from reference.models import Toy
from reference.support import agree, loglog_slope
from reference.surrogates import surrogate_loss


def toy_trial_point(seed, d, sigma=0.1):
    """One frozen measurement point: model family, params, observation."""
    fam = Toy(d)
    theta = stream_rng(seed, Streams.TRIAL_THETA, 0).standard_normal(d)
    p = perturb_params(fam.init_params(theta), sigma, seed, draw=0)
    x = p.view("theta") + math.sqrt(2.0) * stream_rng(seed, Streams.TRIAL_X, 0).standard_normal(d)
    return fam, p, x


# --------------------------------------------------------------------
# criterion 1: K-scaling of phi-gradient SNR and variance on the toy
# --------------------------------------------------------------------


@pytest.mark.slow
def test_criterion_1_snr_and_variance_scaling():
    seed = 20260822
    d = 4
    fam, p, x = toy_trial_point(seed, d)
    # sample sizes chosen so each slope's fit error is a few percent
    ns = {8: 400_000, 64: 600_000, 512: 1_600_000}
    snr_pts = {"iwae": [], "iwae-dreg": []}
    var_pts = []
    for k, n in ns.items():
        chunk = max(1024, int(4.2e6 / (k * d)))  # cap per-chunk noise at ~34 MB
        mom = fold_rows(fam, p, x, k, n,
                        lambda ctx: [(est, phi_rows(est, ctx)) for est in ("iwae", "iwae-dreg")],
                        seed=seed, stream=Streams.MEASURE, draw_prefix=(0, k), chunk_size=chunk)
        for est, mo in mom.items():
            snr_pts[est].append((k, float(np.median(mo.snr))))
        var_pts.append((k, float(np.median(mom["iwae-dreg"].variance))))

    std_slope = loglog_slope(snr_pts["iwae"]).slope
    dreg_slope = loglog_slope(snr_pts["iwae-dreg"]).slope
    var_slope = loglog_slope(var_pts).slope
    assert -0.65 <= std_slope <= -0.35, snr_pts["iwae"]
    assert 0.35 <= dreg_slope <= 0.65, snr_pts["iwae-dreg"]
    assert -3.3 <= var_slope <= -2.7, var_pts
    print(
        "criterion 1 PASS: snr slope standard %.3f (band [-0.65,-0.35]), "
        "doubly reparameterized %.3f (band [0.35,0.65]), "
        "variance slope %.3f (band [-3.3,-2.7])" % (std_slope, dreg_slope, var_slope)
    )


# --------------------------------------------------------------------
# criterion 2: paired unbiasedness battery at K = 64
# --------------------------------------------------------------------


def test_criterion_2_unbiasedness_battery():
    seed = 20260811
    d = 4
    k = 64
    n = 100_000
    chunk = 8192
    fam, p, x = toy_trial_point(seed, d)
    null_pairs = [("iwae-dreg", "iwae"), ("rws-dreg", "rws-wake"), ("jvi1-dreg", "jvi1")]
    biased_pair = ("stl", "iwae")
    pairs = null_pairs + [biased_pair]

    def pair_diffs(ctx):
        rows = {est: phi_rows(est, ctx) for est in {e for pair in pairs for e in pair}}
        return [(pair, rows[pair[0]] - rows[pair[1]]) for pair in pairs]

    diff_mom = fold_rows(fam, p, x, k, n, pair_diffs, seed=seed, stream=Streams.MEASURE,
                         draw_prefix=(0, k), chunk_size=chunk)

    def min_p(mom):
        return float(mom.t_test()[1].min())

    null_ps = {pair: min_p(diff_mom[pair]) for pair in null_pairs}
    for pair, pv in null_ps.items():
        assert pv >= 0.01, (pair, pv)
    stl_p = min_p(diff_mom[biased_pair])
    assert stl_p < 1e-3, stl_p
    print(
        "criterion 2 PASS: per-coordinate paired t at n=%d keeps every null pair "
        "(min p %s), sticking-the-landing rejected (min p %.3g)"
        % (n, {a: round(pv, 4) for (a, _), pv in null_ps.items()}, stl_p)
    )


# --------------------------------------------------------------------
# criterion 3: exact algebraic identities at 1e-12
# --------------------------------------------------------------------


def test_criterion_3_exact_identities():
    tol = 1e-12
    checks = []

    # single-sample collapse: normalized weight is 1, so the doubly
    # reparameterized rows equal the stopped-score path rows and the
    # wake-phase difference recipe vanishes
    fam, p, x = toy_trial_point(7, 3)
    eps1 = noise_block(7, Streams.MEASURE, 0, (64, 1, 3))
    ctx1 = fam.weight_context(p, x, eps1)
    assert agree(phi_rows("iwae-dreg", ctx1), phi_rows("stl", ctx1), tol)
    checks.append("K=1 dreg==stl")
    assert np.max(np.abs(phi_rows("rws-dreg", ctx1))) <= tol
    checks.append("K=1 rws-dreg==0")

    # alpha endpoints of the interpolated recipe
    eps = noise_block(7, Streams.MEASURE, 1, (32, 5, 3))
    ctx = fam.weight_context(p, x, eps)
    assert agree(phi_rows("dreg-alpha", ctx, alpha=0.0), phi_rows("iwae-dreg", ctx), tol)
    checks.append("alpha=0")
    assert agree(phi_rows("dreg-alpha", ctx, alpha=1.0), phi_rows("rws-dreg", ctx), tol)
    checks.append("alpha=1")

    # the wake-phase theta gradient is the same contraction as the bound's
    assert agree(theta_rows("rws-wake", ctx), theta_rows("iwae", ctx), tol)
    checks.append("theta rws==iwae")

    # surrogate backward pass against the direct vectorized estimators,
    # disjoint parameter layout, every id
    draw = noise_block(2, Streams.MEASURE, 1, (5, 3))
    ctx5 = fam.weight_context(p, x, draw)
    for kind in ESTIMATOR_IDS:
        alpha = 0.3 if kind == "dreg-alpha" else None
        flat = surrogate_loss(kind, fam, p, x, draw, alpha=alpha).gradient()
        assert agree(flat[p.phi_indices], phi_rows(kind, ctx5, alpha)[0], tol), kind
        assert agree(flat[p.theta_indices], theta_rows(kind, ctx5)[0], tol), kind
    checks.append("surrogate backward == direct (%d kinds)" % len(ESTIMATOR_IDS))

    # when the proposal equals the exact posterior, every per-sample
    # doubly reparameterized phi row vanishes
    post = Toy(3, q_variance=0.5)
    theta = np.array([0.4, -1.1, 0.2])
    p_opt = post.init_params(theta)
    x_opt = np.array([1.3, 0.0, -0.7])
    eps_opt = noise_block(11, Streams.MEASURE, 0, (16, 4, 3))
    rows = phi_rows("iwae-dreg", post.weight_context(p_opt, x_opt, eps_opt))
    assert np.max(np.abs(rows)) <= tol
    checks.append("posterior-matched dreg rows == 0")

    print("criterion 3 PASS: %s, all at 1e-12" % "; ".join(checks))


# --------------------------------------------------------------------
# criterion 4: independent numerical oracles
# --------------------------------------------------------------------


def _fd_value(kind, fam, base, x, eps, j, alpha, step=1e-5):
    probes = []
    for sign in (1.0, -1.0):
        flat = base.flat.copy()
        flat[j] += sign * step
        probes.append(
            surrogate_loss(kind, fam, base.with_flat(flat), x, eps,
                           alpha=alpha, stops_from=base).value
        )
    return (probes[0] - probes[1]) / (2.0 * step)


def test_criterion_4_oracle_checks():
    # (a) central finite differences against every surrogate gradient
    fam = Toy(2)
    rng = np.random.default_rng(21)
    p = perturb_params(fam.init_params(rng.standard_normal(2)), 0.05, 21)
    x = p.view("theta") + rng.standard_normal(2)
    eps = noise_block(21, Streams.MEASURE, 0, (4, 2))
    for kind in ESTIMATOR_IDS:
        alpha = 0.35 if kind == "dreg-alpha" else None
        grad = surrogate_loss(kind, fam, p, x, eps, alpha=alpha).gradient()
        for j in range(p.size):
            want = _fd_value(kind, fam, p, x, eps, j, alpha)
            assert abs(grad[j] - want) <= 1e-5 * (1.0 + abs(want)), (kind, j)

    # (b) score/path exchange identity under Gauss-Hermite quadrature in d=1:
    # the score-weighted expectation of f equals the pathwise expectation of
    # its z-derivative, for each inference coordinate
    theta_s, a, b, v, xs = 0.7, 0.41, 0.22, 2.0 / 3.0, 1.9
    mean = a * xs + b
    s = math.sqrt(v)
    nodes, wts = hermegauss(151)
    wts = wts / math.sqrt(2.0 * math.pi)
    z = mean + s * nodes

    def logw(u):
        return (-0.5 * (u - theta_s) ** 2 - 0.5 * (xs - u) ** 2
                + 0.5 * ((u - mean) ** 2) / v + 0.5 * math.log(v))

    def dlogw(u):
        return (theta_s - u) + (xs - u) + (u - mean) / v

    for f, df in ((logw, dlogw), (np.tanh, lambda u: 1.0 - np.tanh(u) ** 2)):
        for dm in (xs, 1.0):  # d mean / d coordinate for the two phi coords
            lhs = float(np.sum(wts * f(z) * ((z - mean) / v) * dm))
            rhs = float(np.sum(wts * df(z) * dm))
            assert abs(lhs - rhs) <= 1e-6, (f.__name__, dm, lhs, rhs)

    # (c) closed-form log marginal against z-grid quadrature of the joint
    fam1 = Toy(1)
    p1 = fam1.init_params([0.37])
    x1 = [1.9]
    grid = np.linspace(0.37 - 14.0, 0.37 + 14.0, 20_001)
    lj = np.array([fam1.log_joint(p1, x1, [z]) for z in grid])
    mx = lj.max()
    quad = mx + math.log(np.trapezoid(np.exp(lj - mx), grid))
    exact = fam1.log_marginal(p1, x1)
    assert abs(quad - exact) <= 1e-5 * (1.0 + abs(exact)), (quad, exact)

    print(
        "criterion 4 PASS: finite differences (%d surrogate kinds, rel 1e-5), "
        "exchange identity under 151-node quadrature (abs 1e-6), "
        "log marginal vs trapezoid quadrature (|diff| %.1e)"
        % (len(ESTIMATOR_IDS), abs(quad - exact))
    )


# --------------------------------------------------------------------
# criterion 5: jackknife estimate is closer to log p(x) than the bound
# --------------------------------------------------------------------


def test_criterion_5_jackknife_bias_ordering():
    seed = 20260805
    fam = Toy(1)
    p = perturb_params(fam.init_params([0.4]), 0.2, seed, draw=0)
    x = np.array([1.3])
    logp = fam.log_marginal(p, x)
    n = 100_000

    lines = []
    for k in (4, 8, 16):
        eps = noise_block(seed, Streams.MEASURE, (1, k, 0), (n, k, 1))
        w = ChunkWeights(fam.weight_context(p, x, eps).lw)
        a = w.iwae_bound
        b = w.jvi1_bound
        gap_iwae = abs(float(a.mean()) - logp)
        gap_jvi = abs(float(b.mean()) - logp)
        assert gap_jvi < gap_iwae, (k, gap_jvi, gap_iwae)

        # the bound's own gap must be resolved
        se_a = float(a.std(ddof=1)) / math.sqrt(n)
        assert gap_iwae > 3.0 * se_a, (k, gap_iwae, se_a)

        # and the improvement must be resolved on the paired differences
        sign_j = 1.0 if float(b.mean()) >= logp else -1.0
        v = (logp - a) - sign_j * (b - logp)
        se_v = float(v.std(ddof=1)) / math.sqrt(n)
        improvement = gap_iwae - gap_jvi
        assert improvement > 3.0 * se_v, (k, improvement, se_v)
        lines.append("K=%d gap %.2e -> %.2e (%.0f se)" % (k, gap_iwae, gap_jvi, improvement / se_v))

    print("criterion 5 PASS: " + "; ".join(lines))


# --------------------------------------------------------------------
# criterion 6: desk-scale training gains and variance-trace ordering
# --------------------------------------------------------------------


@pytest.mark.slow
def test_criterion_6_training_gains_and_trace_ordering():
    fam = Vae(latent=10, hidden=20, obs=64)
    data = synthetic_dataset(512, 64, 10, seed=0, hidden=20, weight_scale=2.0)
    train, valid, _ = split(data, (0.8, 0.1, 0.1), seed=0)

    results = {}
    for mode in ("iwae", "iwae-dreg", "rws-dreg", "jvi1-dreg"):
        res = train_model(fam, train, valid, mode, 8, steps=2000,
                          batch_size=16, eval_every=20, seed=0)
        assert not res.diverged, mode
        gain = res.rows[-1].heldout_bound - res.rows[0].heldout_bound
        assert gain >= 1.0, (mode, gain)
        results[mode] = res

    # matched seeds: after warmup the doubly reparameterized phi trace
    # must sit below the standard one at nearly every logged step
    std = {r.step: r.var_trace_phi for r in results["iwae"].rows if r.step > 200}
    dreg = {r.step: r.var_trace_phi for r in results["iwae-dreg"].rows if r.step > 200}
    assert std.keys() == dreg.keys() and len(std) > 0
    below = sum(1 for st in std if dreg[st] < std[st])
    frac = below / len(std)
    assert frac >= 0.9, (below, len(std))

    gains = {m: round(r.rows[-1].heldout_bound - r.rows[0].heldout_bound, 2)
             for m, r in results.items()}
    print(
        "criterion 6 PASS: held-out gains %s nats (>= 1 required), "
        "phi trace below standard at %d/%d logged steps" % (gains, below, len(std))
    )


# --------------------------------------------------------------------
# criterion 7: byte-identical replay from the written manifest
# --------------------------------------------------------------------


_REPLAY_CONFIGS = {
    "toy-snr": (
        "seed = 3\ntrials = 2\nsamples = 60\nreference_samples = 80\n"
        "k_grid = 1, 4\nd = 2\n",
        ("stats.csv", "ttests.csv"),
    ),
    "bias-test": (
        "seed = 11\nsamples = 2000\nk = 8\nd = 2\n",
        ("ttests.csv", "report.txt"),
    ),
    "train": (
        "seed = 4\nlatent = 2\nhidden = 4\nobs = 16\ndata_n = 96\nk = 4\n"
        "steps = 40\nbatch_size = 8\neval_every = 20\n",
        ("train.csv", "checkpoint.bin"),
    ),
}


def test_criterion_7_manifest_replay_is_byte_identical(tmp_path, capsys):
    for experiment, (text, outputs) in _REPLAY_CONFIGS.items():
        cfg = tmp_path / (experiment + ".txt")
        cfg.write_text("experiment = %s\n" % experiment + text)
        first = tmp_path / (experiment + "-run1")
        assert main([experiment, "--config", str(cfg), "--out", str(first)]) == 0

        manifest = first / "manifest.txt"
        assert manifest.is_file()
        # the manifest must stand alone as a config
        parse_config_text(manifest.read_text())
        second = tmp_path / (experiment + "-run2")
        assert main([experiment, "--config", str(manifest), "--out", str(second)]) == 0

        for name in outputs:
            a = (first / name).read_bytes()
            b = (second / name).read_bytes()
            assert a == b, (experiment, name)
            assert len(a) > 0
    capsys.readouterr()  # swallow the bias-test report echo
    print(
        "criterion 7 PASS: manifest replay byte-identical for %s"
        % ", ".join("%s (%s)" % (e, ", ".join(o)) for e, (_, o) in _REPLAY_CONFIGS.items())
    )
