"""Command line front end: reproducible experiment runners.

Three subcommands share one flat config format: ``key = value`` lines,
``#`` comments, commas inside list values.  One table, ``KEYS``, gives
each key its parser, default, range check and the experiments that read
it; any other known key is a config error for that experiment.  Every
run writes a manifest holding the resolved value of each key its
experiment reads (file values, flag overrides and defaults), so the
manifest is itself a config file and replaying it reproduces the output
bytes within a code version.

    dreg-lab toy-snr   --config cfg.txt [--seed N] [--out DIR]
    dreg-lab train     --config cfg.txt [--seed N] [--out DIR]
    dreg-lab bias-test --config cfg.txt [--seed N] [--out DIR]

Exit codes: 0 success, 1 config error, 2 runtime failure.
"""

import argparse
import math
import os
import sys
from operator import itemgetter
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from . import __version__
from .data import load_idx, split, synthetic_dataset
from .diagnostics import fold_rows, t_test_from_moments
from .estimators import ESTIMATOR_IDS, ESTIMATORS, phi_row_set
from .gaussian import Streams, stream_rng
from .models import Toy, Vae, perturb_params, save_checkpoint
from .models.params import write_atomic
from .training import train_model

EXPERIMENTS = ("toy-snr", "train", "bias-test")

# each testable estimator against an unbiased reference for the same
# expectation: a table id, or alpha-mix, the (1 - alpha, alpha) mix of
# the iwae and wake gradients that dreg-alpha targets
REFERENCE_PAIR = {
    "stl": "iwae",
    "iwae-dreg": "iwae",
    "dreg-alpha": "alpha-mix",
    "rws-dreg": "rws-wake",
    "jvi1-dreg": "jvi1",
}

BIAS_ALPHA = 0.01


class ConfigError(Exception):
    pass


class Key(NamedTuple):
    """One config key: its parser, default, range check and readers."""

    parse: object  # text -> value
    default: object  # a value, {experiment: value}, or f(resolved values)
    check: tuple  # (predicate, "must ...") on the parsed value, or None
    reads: tuple  # the experiments that read the key


def _list(elem):
    def parse(text):
        parts = [s.strip() for s in text.split(",")]
        if not all(parts):
            raise ValueError("empty list element")
        return tuple(elem(s) for s in parts)
    return parse


def _finite(text):
    value = float(text)
    if not math.isfinite(value):
        raise ValueError("not a finite number")
    return value


def _at_least(lo):
    return (lambda v: v >= lo), f"must be at least {lo}"


def _above(lo):
    return (lambda v: v > lo), f"must be above {lo}"


_ALL = EXPERIMENTS
_TOY = ("toy-snr", "bias-test")
_SNR = ("toy-snr",)
_TRAIN = ("train",)
_POSITIVE = _at_least(1)
_BETA = (lambda v: 0.0 <= v < 1.0), "must lie in [0, 1)"

# every config key, in manifest order; a manifest holds the keys its
# experiment reads, and any other known key is a config error
KEYS = {
    "experiment": Key(str, None, None, _ALL),  # the subcommand's name
    "seed": Key(int, 0, _at_least(0), _ALL),
    "out": Key(str, {e: os.path.join("runs", e) for e in _ALL},
               (bool, "must not be empty"), _ALL),
    "model": Key(str, {"toy-snr": "toy", "bias-test": "toy", "train": "vae"},
                 None, _ALL),
    "d": Key(int, 4, _POSITIVE, _TOY),
    "q_variance": Key(_finite, 2.0 / 3.0, _above(0.0), _TOY),
    "latent": Key(int, 10, _POSITIVE, _TRAIN),
    "hidden": Key(int, 20, _POSITIVE, _TRAIN),
    "obs": Key(int, 64, _POSITIVE, _TRAIN),
    "estimator": Key(str, "iwae", None, _TRAIN),
    "estimators": Key(_list(str), {"toy-snr": ESTIMATOR_IDS,
                                   "bias-test": tuple(REFERENCE_PAIR)},
                      (lambda v: len(set(v)) == len(v), "must not repeat"),
                      _TOY),
    "alpha": Key(_finite, 0.5,
                 (lambda v: 0.0 <= v <= 1.0, "must lie in [0, 1]"), _ALL),
    "k": Key(int, {"bias-test": 64, "train": 8}, _POSITIVE,
             ("bias-test", "train")),
    "k_grid": Key(_list(int), (1, 4, 8, 16, 64, 256, 1024), (
        lambda v: v[0] >= 1 and all(a < b for a, b in zip(v, v[1:])),
        "must rise strictly from at least 1"), _SNR),
    "trials": Key(int, 10, _POSITIVE, _SNR),
    "samples": Key(int, {"toy-snr": 1000, "bias-test": 100000}, _at_least(2),
                   _TOY),
    "reference_samples": Key(int, 100000, _at_least(2), _SNR),
    "chunk_size": Key(int, 16384, _POSITIVE, _TOY),
    "param_sigma": Key(_finite, 0.1, _at_least(0.0), _TOY),
    "data_source": Key(str, "synthetic", None, _TRAIN),
    "data_n": Key(int, 512, _at_least(10), _TRAIN),
    "weight_scale": Key(_finite, 2.0, _above(0.0), _TRAIN),
    "split_fractions": Key(_list(_finite), (0.8, 0.1, 0.1), (
        lambda v: len(v) == 3 and min(v) > 0.0 and sum(v) <= 1.0 + 1e-12,
        "must be 3 positive parts summing to at most 1"), _TRAIN),
    "steps": Key(int, 2000, _POSITIVE, _TRAIN),
    "batch_size": Key(int, 16, _POSITIVE, _TRAIN),
    "lr": Key(_finite, 1e-3, _above(0.0), _TRAIN),
    "beta1": Key(_finite, 0.9, _BETA, _TRAIN),
    "beta2": Key(_finite, 0.999, _BETA, _TRAIN),
    "adam_eps": Key(_finite, 1e-8, _above(0.0), _TRAIN),
    "eval_every": Key(int, 20, _POSITIVE, _TRAIN),
    "eval_k": Key(int, itemgetter("k"), _POSITIVE, _TRAIN),
    "trace_decay": Key(_finite, 0.99, (lambda v: 0.0 < v < 1.0,
                                     "must lie in (0, 1)"), _TRAIN),
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


def resolve_config(raw, experiment, seed=None, out=None):
    """Merge defaults, file values, and flag overrides; validate.

    The result holds exactly the keys that the experiment reads.
    """
    if experiment not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {experiment!r}")
    raw = dict(raw)
    version = raw.pop("code_version", __version__)
    if version != __version__:
        raise ConfigError(f"manifest is from code version {version}, "
                          f"this is {__version__}")
    if raw.setdefault("experiment", experiment) != experiment:
        raise ConfigError(
            f"config is for {raw['experiment']!r}, not {experiment!r}")
    keys = {name: key for name, key in KEYS.items() if experiment in key.reads}
    for name in raw:
        if name not in keys:
            raise ConfigError(f"{experiment} does not read config key {name!r}"
                              if name in KEYS else
                              f"unknown config key {name!r}")
    # flag overrides are parsed and checked like file values
    for name, value in (("seed", seed), ("out", out)):
        if value is not None:
            raw[name] = str(value)
    values = {}
    for name, key in keys.items():
        if name in raw:
            try:
                values[name] = key.parse(raw[name])
            except ValueError as exc:
                raise ConfigError(f"bad value for {name!r}: {raw[name]!r} "
                                  f"({exc})") from exc
        elif isinstance(key.default, dict):
            values[name] = key.default[experiment]
        else:
            values[name] = (key.default(values) if callable(key.default)
                            else key.default)
        if key.check and not key.check[0](values[name]):
            raise ConfigError(
                f"{name} {key.check[1]}, got {_fmt(values[name])}")
    cfg = SimpleNamespace(**values)
    _validate(cfg)
    return cfg


def _validate(cfg):
    """The checks that span several keys."""
    train = cfg.experiment == "train"
    model = "vae" if train else "toy"
    if cfg.model != model:
        raise ConfigError(f"{cfg.experiment} runs on the {model} model")
    # toy-snr skips the K below an estimator's min_k, but not all of them
    name, ks = (("k_grid", cfg.k_grid) if cfg.experiment == "toy-snr"
                else ("k", (cfg.k,)))
    for est in (cfg.estimator,) if train else cfg.estimators:
        if est not in ESTIMATOR_IDS:
            raise ConfigError(f"unknown estimator {est!r}")
        if cfg.experiment == "bias-test" and est not in REFERENCE_PAIR:
            raise ConfigError(
                f"{est!r} has no unbiased reference to test against")
        min_k = ESTIMATORS[est].min_k
        if max(ks) < min_k:
            raise ConfigError(f"{est!r} needs k >= {min_k} (its min_k), "
                              f"but {name} = {_fmt(ks)}")


def load_config(path, experiment, seed=None, out=None):
    try:
        with open(path, "r", encoding="ascii") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return resolve_config(parse_config_text(text), experiment, seed, out)


def _fmt(value):
    if isinstance(value, tuple):
        return ", ".join(_fmt(v) for v in value)
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def manifest_text(cfg):
    lines = [f"{name} = {_fmt(getattr(cfg, name))}"
             for name, key in KEYS.items() if cfg.experiment in key.reads]
    lines.append(f"code_version = {__version__}")
    return "\n".join(lines) + "\n"


def write_csv(path, header, rows):
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(cell) for cell in row) for row in rows)
    write_atomic(path, ("\n".join(lines) + "\n").encode("ascii"))


def _prepare_out(cfg):
    os.makedirs(cfg.out, exist_ok=True)
    write_atomic(os.path.join(cfg.out, "manifest.txt"),
                 manifest_text(cfg).encode("ascii"))


def _trial_point(cfg, fam, trial):
    """Per-trial operating point: perturbed params and one observation."""
    theta = stream_rng(cfg.seed, Streams.TRIAL_THETA, trial).standard_normal(
        cfg.d)
    p = perturb_params(fam.init_params(theta), cfg.param_sigma, cfg.seed,
                       draw=trial)
    x = p.view("theta") + math.sqrt(2.0) * stream_rng(
        cfg.seed, Streams.TRIAL_X, trial).standard_normal(cfg.d)
    return p, x


def _difference(est, ref, alpha):
    """The weight map of ``est``'s rows less those of its reference
    ``ref`` (a `REFERENCE_PAIR` value) at ``alpha``, so that
    `phi_row_set` cancels their shared terms."""
    mix = ({"iwae": 1.0 - alpha, "rws-wake": alpha} if ref == "alpha-mix"
           else {ref: 1.0})
    return {est: 1.0, **{kind: -w for kind, w in mix.items()}}


def _paired_fold(cfg, fam, p, x, trial, k, stream, n, maps):
    """Folded phi-gradient moments of n draws of each named weight map
    over table ids (`phi_row_set`'s maps) on ``stream`` at (trial, K),
    as {name: moments}.

    Every toy measurement is one of these folds: toy-snr's reference
    and measurement and bias-test's differences.  One `phi_row_set` per
    context serves every map, so the maps are common-random-number
    pairs, and a `_difference` map's rows are its two sides' paired
    difference with their shared terms cancelled.
    """
    def rows_of(ctx):
        return phi_row_set(maps, ctx, cfg.alpha).items()

    return fold_rows(fam, p, x, k, n, rows_of, seed=cfg.seed, stream=stream,
                     draw_prefix=(trial, k), chunk_size=cfg.chunk_size)


def _t_tests(moments):
    """The one-sample t-test against zero of each coordinate of a fold's
    moments, in coordinate order."""
    return [t_test_from_moments(mean, variance, moments.n)
            for mean, variance in zip(moments.mean, moments.variance)]


def run_toy_snr(cfg):
    """Bias, variance, and SNR of every estimator over a K grid.

    Per (trial, K) it makes two `_paired_fold`s: the bias reference,
    iwae alone over ``reference_samples`` draws on the reference stream,
    and the measurement, every live id alone and, past iwae, less iwae
    over ``samples`` draws.  ``stats.csv`` has one row per (estimator,
    K, trial, coordinate) of the measurement moments: their mean,
    variance and `RunningMoments.snr`, and bias2, the squared distance
    of the mean from the reference's.  ``ttests.csv`` has per-coordinate
    paired t-tests of each estimator against iwae, pooled over trials.
    Each estimator skips the K below its recipe's min_k, and a K that no
    estimator reaches is not measured.
    """
    _prepare_out(cfg)
    fam = Toy(cfg.d, cfg.q_variance)
    stat_rows = []
    pooled = {}
    for trial in range(cfg.trials):
        p, x = _trial_point(cfg, fam, trial)
        for k in cfg.k_grid:
            live = [est for est in cfg.estimators
                    if k >= ESTIMATORS[est].min_k]
            if not live:
                continue
            ref = _paired_fold(cfg, fam, p, x, trial, k, Streams.REFERENCE,
                               cfg.reference_samples,
                               {"iwae": {"iwae": 1.0}})["iwae"].mean
            diffs = {(est, k): _difference(est, "iwae", cfg.alpha)
                     for est in live if est != "iwae"}
            moments = _paired_fold(cfg, fam, p, x, trial, k, Streams.MEASURE,
                                   cfg.samples,
                                   {**{est: {est: 1.0} for est in live},
                                    **diffs})
            for est in live:
                mom = moments[est]
                stat_rows += [(est, k, trial, coord, *cells)
                              for coord, cells in enumerate(zip(
                                  mom.mean, mom.variance,
                                  (mom.mean - ref) ** 2, mom.snr))]
            for key in diffs:
                pooled[key] = moments[key] if key not in pooled \
                    else pooled[key].merge(moments[key])
    stat_rows.sort(key=lambda r: (r[0], r[1], r[2], r[3]))
    write_csv(os.path.join(cfg.out, "stats.csv"),
              ("estimator", "K", "trial", "coordinate",
               "mean", "variance", "bias2", "snr"),
              stat_rows)
    t_rows = [(est, k, coord, res.t_statistic, res.p_value, dmom.n)
              for (est, k), dmom in pooled.items()
              for coord, res in enumerate(_t_tests(dmom))]
    t_rows.sort(key=lambda r: (r[0], r[1], r[2]))
    write_csv(os.path.join(cfg.out, "ttests.csv"),
              ("estimator", "K", "coordinate", "t_statistic", "p_value",
               "n"),
              t_rows)
    return 0


def run_bias_test(cfg):
    """Paired test of each estimator mean against its unbiased baseline.

    The same `_paired_fold` as ``toy-snr`` at trial 0 and K = ``k``, of
    each id's `_difference` from its `REFERENCE_PAIR` map alone, so it
    reads the noise ``toy-snr`` folds there.  A difference whose weights
    cancel (dreg-alpha's at alpha = 1/2) has exact-zero rows, which the
    t-test reports as t = 0, p = 1.  Writes ``ttests.csv``
    (per-coordinate statistics) and ``report.txt`` with one verdict line
    per estimator; the verdict text also goes to stdout.
    """
    _prepare_out(cfg)
    fam = Toy(cfg.d, cfg.q_variance)
    p, x = _trial_point(cfg, fam, 0)
    diffs = _paired_fold(cfg, fam, p, x, 0, cfg.k, Streams.MEASURE,
                         cfg.samples, {
                             est: _difference(est, REFERENCE_PAIR[est],
                                              cfg.alpha)
                             for est in cfg.estimators})
    t_rows = []
    verdicts = []
    for est in sorted(cfg.estimators):
        dmom, ref = diffs[est], REFERENCE_PAIR[est]
        results = _t_tests(dmom)
        t_rows += [(est, ref, c, res.t_statistic, res.p_value, dmom.n)
                   for c, res in enumerate(results)]
        worst = min(range(len(results)), key=lambda c: results[c].p_value)
        p_min = results[worst].p_value
        if p_min < BIAS_ALPHA:
            verdicts.append(
                f"{est} vs {ref}: bias detected (min p = "
                f"{p_min:.3g} at coordinate {worst})")
        else:
            verdicts.append(
                f"{est} vs {ref}: no bias detected (min p = {p_min:.3g})")
    write_csv(os.path.join(cfg.out, "ttests.csv"),
              ("estimator", "reference", "coordinate", "t_statistic",
               "p_value", "n"),
              t_rows)
    header = (f"bias test at K = {cfg.k}, n = {cfg.samples}, "
              f"seed = {cfg.seed}")
    report = "\n".join([header, *verdicts]) + "\n"
    write_atomic(os.path.join(cfg.out, "report.txt"), report.encode("ascii"))
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
        except (OSError, ValueError) as exc:
            raise ConfigError(
                f"cannot read dataset {cfg.data_source}: {exc}") from exc
        if full.obs != cfg.obs:
            raise ConfigError(
                f"dataset width {full.obs} does not match obs = {cfg.obs}")
    try:
        return split(full, cfg.split_fractions, seed=cfg.seed)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def run_train(cfg):
    """Optimize a VAE with the configured estimator; log the trajectory.

    Writes ``train.csv`` (one row per evaluation point), the final
    parameters to ``checkpoint.bin``, and the manifest.  On divergence
    the rows logged so far and the last finite parameters are still
    written, and the exit code is 2.
    """
    train, valid, _ = _load_training_data(cfg)
    _prepare_out(cfg)
    fam = Vae(cfg.latent, cfg.hidden, cfg.obs)
    result = train_model(
        fam, train, valid, cfg.estimator, cfg.k,
        steps=cfg.steps, batch_size=cfg.batch_size, lr=cfg.lr,
        beta1=cfg.beta1, beta2=cfg.beta2, adam_eps=cfg.adam_eps,
        eval_every=cfg.eval_every, eval_k=cfg.eval_k,
        trace_decay=cfg.trace_decay, alpha=cfg.alpha, seed=cfg.seed)
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
            f"diverged at step {result.failed_step} ({result.cause}); wrote "
            f"last finite parameters to checkpoint.bin\n")
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
        return _RUNNERS[args.experiment](cfg)
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return 1
    except Exception as exc:  # noqa: BLE001  runtime failures exit 2
        sys.stderr.write(f"runtime failure: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
