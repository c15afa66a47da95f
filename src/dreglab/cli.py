"""Command line front end: reproducible experiment runners.

Three subcommands share one flat config format: ``key = value`` lines,
``#`` comments, commas inside list values.  Every run writes a manifest
holding the fully resolved configuration (file values, flag overrides,
and defaults all materialized), so the manifest is itself a config file
and replaying it reproduces the output bytes.

    dreg-lab toy-snr   --config cfg.txt [--seed N] [--out DIR]
    dreg-lab train     --config cfg.txt [--seed N] [--out DIR]
    dreg-lab bias-test --config cfg.txt [--seed N] [--out DIR]

Exit codes: 0 success, 1 config error, 2 runtime failure.
"""

import argparse
import math
import os
import sys
import tempfile
from dataclasses import dataclass, fields as dataclass_fields

import numpy as np

from . import __version__
from .data import load_idx, split, synthetic_dataset
from .diagnostics import (
    TTestResult,
    fold_rows,
    reference_mean,
    stats_from_moments,
    t_test_from_moments,
)
from .estimators import ESTIMATOR_IDS, JACKKNIFE_IDS, phi_rows
from .gaussian import Streams, stream_rng
from .models import Toy, Vae, perturb_params, save_checkpoint
from .training import train_model

EXPERIMENTS = ("toy-snr", "train", "bias-test")

# each testable estimator against an unbiased recipe for the same
# expectation (descent recipes pair with the descent baseline; the
# alpha recipe targets the (1 - alpha, alpha) mix of the standard
# ascent gradient and the negated wake gradient)
REFERENCE_PAIR = {
    "stl": "iwae",
    "iwae-dreg": "iwae",
    "dreg-alpha": "alpha-mix",
    "rws-dreg": "rws-wake",
    "jvi1-dreg": "jvi1",
}
_MIX_PARTS = ("iwae", "rws-wake")

BIAS_ALPHA = 0.01


class ConfigError(Exception):
    pass


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved run settings; every field lands in the manifest."""

    experiment: str
    seed: int
    out: str
    model: str
    d: int
    q_variance: float
    latent: int
    hidden: int
    obs: int
    estimator: str
    estimators: tuple
    alpha: float
    k: int
    k_grid: tuple
    trials: int
    samples: int
    reference_samples: int
    chunk_size: int
    param_sigma: float
    data_source: str
    data_n: int
    weight_scale: float
    split_fractions: tuple
    steps: int
    batch_size: int
    lr: float
    beta1: float
    beta2: float
    adam_eps: float
    eval_every: int
    eval_k: int
    trace_decay: float


_LIST_FIELDS = {"estimators": str, "k_grid": int, "split_fractions": float}
_INT_FIELDS = {
    "seed", "d", "latent", "hidden", "obs", "k", "trials", "samples",
    "reference_samples", "chunk_size", "data_n", "steps", "batch_size",
    "eval_every", "eval_k",
}
_FLOAT_FIELDS = {
    "q_variance", "alpha", "param_sigma", "weight_scale", "lr",
    "beta1", "beta2", "adam_eps", "trace_decay",
}
_STR_FIELDS = {"experiment", "out", "model", "estimator", "data_source"}


def _defaults(experiment):
    train = experiment == "train"
    return {
        "experiment": experiment,
        "seed": 0,
        "out": os.path.join("runs", experiment),
        "model": "vae" if train else "toy",
        "d": 4,
        "q_variance": 2.0 / 3.0,
        "latent": 10,
        "hidden": 20,
        "obs": 64,
        "estimator": "iwae",
        "estimators": tuple(REFERENCE_PAIR) if experiment == "bias-test"
        else ESTIMATOR_IDS,
        "alpha": 0.5,
        "k": 8 if train else 64,
        "k_grid": (1, 4, 8, 16, 64, 256, 1024),
        "trials": 10,
        "samples": 100000 if experiment == "bias-test" else 1000,
        "reference_samples": 100000,
        "chunk_size": 16384,
        "param_sigma": 0.1,
        "data_source": "synthetic",
        "data_n": 512,
        "weight_scale": 2.0,
        "split_fractions": (0.8, 0.1, 0.1),
        "steps": 2000,
        "batch_size": 16,
        "lr": 1e-3,
        "beta1": 0.9,
        "beta2": 0.999,
        "adam_eps": 1e-8,
        "eval_every": 20,
        "eval_k": None,  # resolves to k
        "trace_decay": 0.99,
    }


def parse_config_text(text):
    """Raw dict from ``key = value`` lines; no typing, no defaults."""
    data = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not eq or not key or not value:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        if key in data:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        data[key] = value
    return data


def _cast(key, text):
    try:
        if key in _LIST_FIELDS:
            elem = _LIST_FIELDS[key]
            parts = [s.strip() for s in text.split(",")]
            if any(not s for s in parts):
                raise ValueError("empty list element")
            return tuple(elem(s) for s in parts)
        if key in _INT_FIELDS:
            return int(text)
        if key in _FLOAT_FIELDS:
            return float(text)
        return text
    except ValueError as exc:
        raise ConfigError(f"bad value for {key!r}: {text!r} ({exc})") from exc


def resolve_config(raw, experiment, seed=None, out=None):
    """Merge defaults, file values, and flag overrides; validate."""
    if experiment not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {experiment!r}")
    values = _defaults(experiment)
    for key, text in raw.items():
        if key == "code_version":
            if text != __version__:
                raise ConfigError(f"manifest is from code version {text}, "
                                  f"this is {__version__}")
            continue
        if key not in values:
            raise ConfigError(f"unknown config key {key!r}")
        values[key] = _cast(key, text)
    if values["experiment"] != experiment:
        raise ConfigError(
            f"config is for {values['experiment']!r}, not {experiment!r}")
    if seed is not None:
        values["seed"] = int(seed)
    if out is not None:
        values["out"] = str(out)
    if values["eval_k"] is None:
        values["eval_k"] = values["k"]
    cfg = ExperimentConfig(**values)
    _validate(cfg)
    return cfg


def _require(ok, message):
    if not ok:
        raise ConfigError(message)


def _validate(cfg):
    _require(cfg.model in ("toy", "vae"), f"unknown model {cfg.model!r}")
    if cfg.experiment == "train":
        _require(cfg.model == "vae", "train runs on the vae model")
    else:
        _require(cfg.model == "toy",
                 f"{cfg.experiment} runs on the toy model")
    for est in cfg.estimators:
        _require(est in ESTIMATOR_IDS, f"unknown estimator {est!r}")
    _require(len(set(cfg.estimators)) == len(cfg.estimators),
             "duplicate estimator")
    _require(cfg.estimator in ESTIMATOR_IDS,
             f"unknown estimator {cfg.estimator!r}")
    if cfg.experiment == "bias-test":
        for est in cfg.estimators:
            _require(est in REFERENCE_PAIR,
                     f"{est!r} has no unbiased reference to test against")
            _require(cfg.k >= 2 or est not in JACKKNIFE_IDS,
                     f"{est!r} is a jackknife estimator and needs k >= 2")
    if cfg.experiment == "train":
        _require(cfg.k >= 2 or cfg.estimator not in JACKKNIFE_IDS,
                 f"{cfg.estimator!r} is a jackknife estimator and needs k >= 2")
    _require(0.0 <= cfg.alpha <= 1.0, "alpha must lie in [0, 1]")
    _require(cfg.d >= 1, "d must be positive")
    _require(cfg.q_variance > 0.0, "q_variance must be positive")
    _require(min(cfg.latent, cfg.hidden, cfg.obs) >= 1,
             "model dimensions must be positive")
    _require(cfg.k >= 1, "k must be positive")
    _require(cfg.eval_k >= 1, "eval_k must be positive")
    _require(len(cfg.k_grid) >= 1, "k_grid must be non-empty")
    _require(all(k >= 1 for k in cfg.k_grid), "k_grid entries must be >= 1")
    _require(all(a < b for a, b in zip(cfg.k_grid, cfg.k_grid[1:])),
             "k_grid must be strictly increasing")
    _require(cfg.trials >= 1, "trials must be positive")
    _require(cfg.samples >= 2, "samples must be at least 2")
    _require(cfg.reference_samples >= 2,
             "reference_samples must be at least 2")
    _require(cfg.chunk_size >= 1, "chunk_size must be positive")
    _require(cfg.param_sigma >= 0.0, "param_sigma must be non-negative")
    _require(len(cfg.split_fractions) == 3, "split_fractions needs 3 parts")
    _require(all(f > 0.0 for f in cfg.split_fractions),
             "split fractions must be positive")
    _require(sum(cfg.split_fractions) <= 1.0 + 1e-12,
             "split fractions must sum to at most 1")
    _require(cfg.data_n >= 10, "data_n too small to split")
    _require(cfg.weight_scale > 0.0, "weight_scale must be positive")
    _require(cfg.steps >= 1, "steps must be positive")
    _require(cfg.batch_size >= 1, "batch_size must be positive")
    _require(cfg.lr > 0.0, "lr must be positive")
    _require(0.0 <= cfg.beta1 < 1.0 and 0.0 <= cfg.beta2 < 1.0,
             "betas must lie in [0, 1)")
    _require(cfg.adam_eps > 0.0, "adam_eps must be positive")
    _require(cfg.eval_every >= 1, "eval_every must be positive")
    _require(0.0 < cfg.trace_decay < 1.0, "trace_decay must lie in (0, 1)")


def load_config(path, experiment, seed=None, out=None):
    try:
        with open(path, "r", encoding="ascii") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return resolve_config(parse_config_text(text), experiment, seed, out)


def _fmt(value):
    if isinstance(value, tuple):
        return ", ".join(_fmt(v) for v in value)
    if isinstance(value, bool):
        raise TypeError("no boolean config fields")
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, np.integer):
        return str(int(value))
    return str(value)


def manifest_text(cfg):
    lines = [f"{f.name} = {_fmt(getattr(cfg, f.name))}"
             for f in dataclass_fields(cfg)]
    lines.append(f"code_version = {__version__}")
    return "\n".join(lines) + "\n"


def _write_text(path, text):
    # temp-then-rename keeps partial output from masquerading as results
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "w", encoding="ascii", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def write_csv(path, header, rows):
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(cell) for cell in row) for row in rows)
    _write_text(path, "\n".join(lines) + "\n")


def _prepare_out(cfg):
    os.makedirs(cfg.out, exist_ok=True)
    _write_text(os.path.join(cfg.out, "manifest.txt"), manifest_text(cfg))


def _phi_alpha(cfg, est):
    return cfg.alpha if est == "dreg-alpha" else None


def _trial_point(cfg, fam, trial):
    """Per-trial operating point: perturbed params and one observation."""
    theta = stream_rng(cfg.seed, Streams.TRIAL_THETA, trial).standard_normal(
        cfg.d)
    p = perturb_params(fam.init_params(theta), cfg.param_sigma, cfg.seed,
                       draw=trial)
    x = p.view("theta") + math.sqrt(2.0) * stream_rng(
        cfg.seed, Streams.TRIAL_X, trial).standard_normal(cfg.d)
    return p, x


def _measure_trial(cfg, fam, p, x, trial, k, estimators):
    """Folded phi-gradient moments per estimator, plus paired diffs.

    Every estimator reads the same noise chunk, so per-row differences
    against the standard recipe are common-random-number pairs.
    """
    def rows_of(ctx):
        base = phi_rows("iwae", ctx)
        for est in estimators:
            if est == "iwae":
                yield est, base
            else:
                rows = phi_rows(est, ctx, _phi_alpha(cfg, est))
                yield est, rows
                yield (est, "diff"), rows - base

    folded = fold_rows(fam, p, x, k, cfg.samples, rows_of, seed=cfg.seed,
                       stream=Streams.MEASURE, draw_prefix=(trial, k),
                       chunk_size=cfg.chunk_size)
    return ({est: folded[est] for est in estimators},
            {est: folded[est, "diff"] for est in estimators if est != "iwae"})


def run_toy_snr(cfg):
    """Bias, variance, and SNR of every estimator over a K grid.

    Writes ``stats.csv`` with one row per (estimator, K, trial,
    coordinate) and ``ttests.csv`` with per-coordinate paired t-tests of
    each estimator against the standard recipe pooled over trials.
    Jackknife estimators need two samples, so they skip K = 1.
    """
    _prepare_out(cfg)
    fam = Toy(cfg.d, cfg.q_variance)
    stat_rows = []
    pooled = {}
    for trial in range(cfg.trials):
        p, x = _trial_point(cfg, fam, trial)
        for k in cfg.k_grid:
            ref = reference_mean(fam, p, x, k, cfg.reference_samples,
                                 seed=cfg.seed, chunk_size=cfg.chunk_size,
                                 draw_prefix=(trial, k))
            live = [est for est in cfg.estimators
                    if not (est in JACKKNIFE_IDS and k < 2)]
            moments, diffs = _measure_trial(cfg, fam, p, x, trial, k, live)
            for est, mom in moments.items():
                st = stats_from_moments(mom, ref.mean, k=k, estimator_id=est)
                for coord in range(mom.mean.size):
                    stat_rows.append((est, k, trial, coord,
                                      st.mean[coord], st.variance[coord],
                                      st.bias_sq[coord], st.snr[coord]))
            for est, dmom in diffs.items():
                key = (est, k)
                pooled[key] = dmom if key not in pooled \
                    else pooled[key].merge(dmom)
    stat_rows.sort(key=lambda r: (r[0], r[1], r[2], r[3]))
    write_csv(os.path.join(cfg.out, "stats.csv"),
              ("estimator", "K", "trial", "coordinate",
               "mean", "variance", "bias2", "snr"),
              stat_rows)
    t_rows = []
    for (est, k), dmom in pooled.items():
        for coord in range(dmom.mean.size):
            res = t_test_from_moments(dmom.mean[coord],
                                      dmom.variance[coord], dmom.n, coord)
            t_rows.append((est, k, coord, res.t_statistic, res.p_value,
                           res.n))
    t_rows.sort(key=lambda r: (r[0], r[1], r[2]))
    write_csv(os.path.join(cfg.out, "ttests.csv"),
              ("estimator", "K", "coordinate", "t_statistic", "p_value",
               "n"),
              t_rows)
    return 0


def _bias_pairs(cfg, fam, p, x):
    """Paired diff moments of each estimator against its reference.

    Also returns second-moment accumulators of the raw estimator rows;
    they set the scale that separates real disagreement from rounding
    residue (some pairs coincide exactly in real arithmetic).
    """
    needed = set()
    for est in cfg.estimators:
        needed.add(est)
        ref = REFERENCE_PAIR[est]
        needed.update(_MIX_PARTS if ref == "alpha-mix" else (ref,))

    def rows_of(ctx):
        rows = {est: phi_rows(est, ctx, _phi_alpha(cfg, est))
                for est in sorted(needed)}
        for est in cfg.estimators:
            ref = REFERENCE_PAIR[est]
            if ref == "alpha-mix":
                ref_rows = ((1.0 - cfg.alpha) * rows["iwae"]
                            - cfg.alpha * rows["rws-wake"])
            else:
                ref_rows = rows[ref]
            yield (est, "diff"), rows[est] - ref_rows
            yield est, rows[est]

    folded = fold_rows(fam, p, x, cfg.k, cfg.samples, rows_of, seed=cfg.seed,
                       stream=Streams.MEASURE, draw_prefix=(0, cfg.k),
                       chunk_size=cfg.chunk_size)
    return ({est: folded[est, "diff"] for est in cfg.estimators},
            {est: folded[est] for est in cfg.estimators})


def run_bias_test(cfg):
    """Paired test of each estimator mean against its unbiased baseline.

    One operating point, common noise per pair.  Writes ``ttests.csv``
    (per-coordinate statistics) and ``report.txt`` with one verdict line
    per estimator; the verdict text also goes to stdout.
    """
    _prepare_out(cfg)
    fam = Toy(cfg.d, cfg.q_variance)
    p, x = _trial_point(cfg, fam, 0)
    diffs, scales = _bias_pairs(cfg, fam, p, x)
    t_rows = []
    verdicts = []
    for est in sorted(cfg.estimators):
        dmom = diffs[est]
        smom = scales[est]
        rms = np.sqrt(smom.m2 / smom.n + smom.mean**2)
        results = []
        for c in range(dmom.mean.size):
            # a diff at rounding scale relative to the rows themselves
            # is exact agreement, not evidence about bias
            if math.sqrt(dmom.variance[c]) <= 1e-12 * (1.0 + rms[c]) \
                    and abs(dmom.mean[c]) <= 1e-12 * (1.0 + rms[c]):
                results.append(TTestResult(0.0, 1.0, dmom.n, c))
            else:
                results.append(t_test_from_moments(
                    dmom.mean[c], dmom.variance[c], dmom.n, c))
        for res in results:
            t_rows.append((est, REFERENCE_PAIR[est], res.coordinate,
                           res.t_statistic, res.p_value, res.n))
        worst = min(results, key=lambda r: r.p_value)
        if worst.p_value < BIAS_ALPHA:
            verdicts.append(
                f"{est} vs {REFERENCE_PAIR[est]}: bias detected "
                f"(min p = {worst.p_value:.3g} at coordinate "
                f"{worst.coordinate})")
        else:
            verdicts.append(
                f"{est} vs {REFERENCE_PAIR[est]}: no bias detected "
                f"(min p = {worst.p_value:.3g})")
    write_csv(os.path.join(cfg.out, "ttests.csv"),
              ("estimator", "reference", "coordinate", "t_statistic",
               "p_value", "n"),
              t_rows)
    header = (f"bias test at K = {cfg.k}, n = {cfg.samples}, "
              f"seed = {cfg.seed}")
    report = "\n".join([header, *verdicts]) + "\n"
    _write_text(os.path.join(cfg.out, "report.txt"), report)
    sys.stdout.write(report)
    return 0


def _load_training_data(cfg):
    if cfg.data_source == "synthetic":
        full = synthetic_dataset(cfg.data_n, cfg.obs, cfg.latent, cfg.seed,
                                 hidden=cfg.hidden,
                                 weight_scale=cfg.weight_scale)
    else:
        try:
            full = load_idx(cfg.data_source)
        except OSError as exc:
            raise ConfigError(
                f"cannot read dataset {cfg.data_source}: {exc}") from exc
        if full.obs != cfg.obs:
            raise ConfigError(
                f"dataset width {full.obs} does not match obs = {cfg.obs}")
    return split(full, cfg.split_fractions, seed=cfg.seed)


def run_train(cfg):
    """Optimize a VAE with the configured estimator; log the trajectory.

    Writes ``train.csv`` (one row per evaluation point), the final
    parameters to ``checkpoint.bin``, and the manifest.  On divergence
    the rows logged so far and the last finite parameters are still
    written, and the exit code is 2.
    """
    _prepare_out(cfg)
    train, valid, _ = _load_training_data(cfg)
    fam = Vae(cfg.latent, cfg.hidden, cfg.obs)
    result = train_model(
        fam, train, valid, cfg.estimator, cfg.k,
        steps=cfg.steps, batch_size=cfg.batch_size, lr=cfg.lr,
        beta1=cfg.beta1, beta2=cfg.beta2, adam_eps=cfg.adam_eps,
        eval_every=cfg.eval_every, eval_k=cfg.eval_k,
        trace_decay=cfg.trace_decay, alpha=_phi_alpha(cfg, cfg.estimator),
        seed=cfg.seed)
    rows = [(r.step, cfg.estimator, cfg.k, r.train_objective,
             r.heldout_bound, r.var_trace_theta, r.var_trace_phi)
            for r in result.rows]
    write_csv(os.path.join(cfg.out, "train.csv"),
              ("step", "estimator", "K", "train_objective", "heldout_bound",
               "var_trace_theta", "var_trace_phi"),
              rows)
    save_checkpoint(result.params, os.path.join(cfg.out, "checkpoint.bin"))
    if result.diverged:
        sys.stderr.write(
            f"diverged at step {result.failed_step}; wrote last finite "
            f"parameters to checkpoint.bin\n")
        return 2
    return 0


_RUNNERS = {
    "toy-snr": run_toy_snr,
    "train": run_train,
    "bias-test": run_bias_test,
}


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="dreg-lab",
        description="gradient estimator experiments with manifest replay")
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name in EXPERIMENTS:
        s = sub.add_parser(name)
        s.add_argument("--config", required=True)
        s.add_argument("--seed", type=int, default=None)
        s.add_argument("--out", default=None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        cfg = load_config(args.config, args.experiment, args.seed, args.out)
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return 1
    try:
        return _RUNNERS[args.experiment](cfg)
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return 1
    except Exception as exc:  # noqa: BLE001  runtime failures exit 2
        sys.stderr.write(f"runtime failure: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
