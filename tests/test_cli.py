import os
import tomllib
import tracemalloc

import numpy as np
import pytest

from dreglab import __version__, cli
from dreglab.diagnostics import fold_rows
from dreglab.estimators import (
    ESTIMATOR_IDS,
    context_weights,
    phi_row_set,
    phi_rows,
)
from dreglab.gaussian import Streams, noise_block
from dreglab.models import Toy, Vae, load_checkpoint, save_checkpoint
from dreglab.training import Adam
from reference.support import write_idx
from dreglab.cli import (
    KEYS,
    ConfigError,
    main,
    manifest_text,
    parse_config_text,
    resolve_config,
)


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


def write_config(tmp_path, text, name="cfg.txt"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


TOY_SMOKE = """
seed = 3
trials = 2
samples = 60
reference_samples = 80
k_grid = 1, 4
d = 2
"""

TRAIN_SMOKE = """
seed = 4
latent = 2
hidden = 4
obs = 16
data_n = 96
k = 4
steps = 40
batch_size = 8
eval_every = 20
"""

BIAS_SMOKE = """
seed = 11
samples = 2000
k = 8
d = 2
"""


# the keys each runner reads, in manifest order
READ_KEYS = {
    "toy-snr": ["experiment", "seed", "out", "d", "q_variance",
                "estimators", "alpha", "k_grid", "trials", "samples",
                "reference_samples", "param_sigma"],
    "bias-test": ["experiment", "seed", "out", "d", "q_variance",
                  "estimators", "alpha", "k", "samples", "param_sigma"],
    "train": ["experiment", "seed", "out", "latent", "hidden", "obs",
              "estimator", "alpha", "k", "data_source", "data_n",
              "weight_scale", "split_fractions", "steps", "batch_size", "lr",
              "beta1", "beta2", "adam_eps", "eval_every", "eval_k",
              "trace_decay"],
}

# one out-of-range value per checked key, for an experiment that reads it
RANGE_CASES = [
    ("toy-snr", "seed", "-1"),
    ("train", "out", ""),
    ("toy-snr", "d", "0"),
    ("bias-test", "q_variance", "0.0"),
    ("train", "latent", "0"),
    ("train", "hidden", "0"),
    ("train", "obs", "0"),
    ("toy-snr", "estimators", "iwae, stl, iwae"),
    ("bias-test", "alpha", "-0.5"),
    ("bias-test", "k", "0"),
    ("toy-snr", "k_grid", "0, 4"),
    ("toy-snr", "trials", "0"),
    ("bias-test", "samples", "1"),
    ("toy-snr", "reference_samples", "1"),
    ("toy-snr", "param_sigma", "-0.1"),
    ("train", "data_n", "9"),
    ("train", "weight_scale", "0.0"),
    ("train", "split_fractions", "0.5, 0.5"),
    ("train", "steps", "0"),
    ("train", "batch_size", "0"),
    ("train", "lr", "0.0"),
    ("train", "beta1", "1.0"),
    ("train", "beta2", "-0.1"),
    ("train", "adam_eps", "0.0"),
    ("train", "eval_every", "0"),
    ("train", "eval_k", "0"),
    ("train", "trace_decay", "1.0"),
]


def _float_keys():
    """{key: (an experiment that reads it, its default)} for every key
    whose value is a float or a list of floats."""
    keys = {}
    for experiment in cli.EXPERIMENTS:
        for name, value in vars(resolve_config({}, experiment)).items():
            first = value[0] if isinstance(value, tuple) else value
            if isinstance(first, float):
                keys.setdefault(name, (experiment, value))
    return keys


FLOAT_KEYS = _float_keys()

# a manifest as code version 0.1.0 wrote it: every key, read or not
OLD_MANIFEST = """experiment = {experiment}
seed = 4
out = runs/old
model = {model}
d = 4
q_variance = 0.6666666666666666
latent = 2
hidden = 4
obs = 16
estimator = iwae
estimators = iwae, stl, iwae-dreg, rws-wake, rws-dreg, dreg-alpha, jvi1, jvi1-dreg
alpha = 0.5
k = 4
k_grid = 1, 4, 8, 16, 64, 256, 1024
trials = 10
samples = 1000
reference_samples = 100000
chunk_size = 16384
param_sigma = 0.1
data_source = synthetic
data_n = 96
weight_scale = 2.0
split_fractions = 0.8, 0.1, 0.1
steps = 40
batch_size = 8
lr = 0.001
beta1 = 0.9
beta2 = 0.999
adam_eps = 1e-08
eval_every = 20
eval_k = 4
trace_decay = 0.99
code_version = 0.1.0
"""


class TestConfigParsing:
    def test_comments_and_blanks_are_ignored(self):
        raw = parse_config_text("# top\nseed = 5  # inline\n\n trials=2 \n")
        assert raw == {"seed": "5", "trials": "2"}

    def test_rejects_malformed_lines(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config_text("seed 5")
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("seed = 1\nseed = 2\n")

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            resolve_config({"optimizer": "sgd"}, "train")

    def test_bad_value(self):
        with pytest.raises(ConfigError, match="bad value"):
            resolve_config({"seed": "four"}, "train")
        with pytest.raises(ConfigError, match="bad value"):
            resolve_config({"k_grid": "1, , 4"}, "toy-snr")

    def test_experiment_mismatch(self):
        with pytest.raises(ConfigError, match="is for"):
            resolve_config({"experiment": "train"}, "toy-snr")

    def test_overrides_win(self):
        cfg = resolve_config({"seed": "1", "out": "a"}, "train",
                             seed=9, out="b")
        assert cfg.seed == 9 and cfg.out == "b"

    def test_eval_k_follows_k(self):
        assert resolve_config({"k": "32"}, "train").eval_k == 32
        cfg = resolve_config({"k": "32", "eval_k": "8"}, "train")
        assert cfg.eval_k == 8

    def test_validation_catches_bad_settings(self):
        for raw in ({"k_grid": "4, 4"}, {"alpha": "1.5"},
                    {"estimators": "iwae, sgd"}, {"trials": "0"}):
            with pytest.raises(ConfigError):
                resolve_config(raw, "toy-snr")
        with pytest.raises(ConfigError):
            resolve_config({"split_fractions": "0.5, 0.6, 0.2"}, "train")

    @pytest.mark.parametrize("experiment, key, text", RANGE_CASES)
    def test_range_check_names_the_key(self, experiment, key, text):
        with pytest.raises(ConfigError, match=f"^{key} must "):
            resolve_config({key: text}, experiment)

    def test_every_range_check_has_a_case(self):
        checked = {name for name, key in KEYS.items() if key.check}
        assert {key for _, key, _ in RANGE_CASES} == checked

    def test_float_keys_are_found(self):
        assert set(FLOAT_KEYS) == {
            "q_variance", "alpha", "param_sigma", "weight_scale",
            "split_fractions", "lr", "beta1", "beta2", "adam_eps",
            "trace_decay"}

    @pytest.mark.parametrize("text", ["inf", "-inf", "nan"])
    @pytest.mark.parametrize("key", sorted(FLOAT_KEYS))
    def test_non_finite_float_is_config_error(self, tmp_path, capsys, key,
                                              text):
        # inf passes every range check, so the parser itself refuses it,
        # in a list element too
        experiment, default = FLOAT_KEYS[key]
        value = (", ".join([*map(repr, default[:-1]), text])
                 if isinstance(default, tuple) else text)
        cfg = write_config(tmp_path, f"{key} = {value}\n")
        out = tmp_path / "o"
        assert main([experiment, "--config", cfg, "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(
            f"config error: bad value for {key!r}: {value!r} "
            f"(not a finite number)")
        assert not out.exists()

    @pytest.mark.parametrize("experiment, key", [
        ("toy-snr", "lr"), ("train", "k_grid"),
        ("bias-test", "reference_samples")])
    def test_unread_key_is_config_error(self, tmp_path, capsys,
                                        experiment, key):
        with pytest.raises(ConfigError, match=f"{experiment}.*{key}"):
            resolve_config({key: "1"}, experiment)
        cfg = write_config(tmp_path, f"{key} = 1\n")
        out = tmp_path / "o"
        assert main([experiment, "--config", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert key in err and experiment in err
        assert not out.exists()

    @pytest.mark.parametrize("text, flags", [
        (TOY_SMOKE.replace("seed = 3", "seed = -1"), []),
        (TOY_SMOKE, ["--seed", "-5"])], ids=["config", "flag"])
    def test_negative_seed_is_config_error(self, tmp_path, capsys, text,
                                           flags):
        cfg = write_config(tmp_path, text)
        out = tmp_path / "o"
        assert main(["toy-snr", "--config", cfg, "--out", str(out),
                     *flags]) == 1
        assert capsys.readouterr().err.startswith("config error: seed must")
        assert not out.exists()

    def test_manifest_round_trips(self):
        for experiment, raw in (
                ("train", {"seed": "7", "lr": "0.0005"}),
                ("toy-snr", {"seed": "7", "k_grid": "2, 8", "alpha": "0.25"}),
                ("bias-test", {"k": "16", "estimators": "stl, rws-dreg"})):
            cfg = resolve_config(raw, experiment)
            again = resolve_config(parse_config_text(manifest_text(cfg)),
                                   experiment)
            assert again == cfg

    def test_manifest_lists_the_keys_its_experiment_reads(self):
        for experiment, keys in READ_KEYS.items():
            text = manifest_text(resolve_config({}, experiment))
            names = [line.split(" = ")[0] for line in text.splitlines()]
            assert names == keys + ["code_version"]
            assert ("lr" in names) == (experiment == "train")
            assert ("k_grid" in names) == (experiment == "toy-snr")

    def test_replay_from_another_code_version_is_config_error(self, tmp_path, capsys):
        assert f"code_version = {__version__}\n" in manifest_text(resolve_config({}, "toy-snr"))
        old = write_config(tmp_path, TOY_SMOKE + "code_version = 9.9.9\n")
        out = tmp_path / "o"
        assert main(["toy-snr", "--config", old, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "9.9.9" in err and __version__ in err
        assert not out.exists()

    @pytest.mark.parametrize("experiment", sorted(READ_KEYS))
    def test_manifest_of_every_key_from_0_1_0_names_both_versions(
            self, tmp_path, capsys, experiment):
        old = write_config(tmp_path, OLD_MANIFEST.format(
            experiment=experiment,
            model="vae" if experiment == "train" else "toy"))
        out = tmp_path / "o"
        assert main([experiment, "--config", old, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "code version 0.1.0" in err and __version__ in err
        assert not out.exists()

    def test_non_ascii_config_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "cfg.txt"
        path.write_bytes(b"seed = 1  # caf\xc3\xa9\n")
        assert main(["toy-snr", "--config", str(path),
                     "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.startswith(
            "config error: cannot read config")

    def test_package_version_matches_pyproject(self):
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        with open(os.path.join(root, "pyproject.toml"), "rb") as fh:
            assert tomllib.load(fh)["project"]["version"] == __version__


class TestToySnrCommand:
    def test_outputs_and_replay(self, tmp_path):
        cfg = write_config(tmp_path, TOY_SMOKE)
        out1 = str(tmp_path / "a")
        out2 = str(tmp_path / "b")
        assert main(["toy-snr", "--config", cfg, "--out", out1]) == 0
        manifest = os.path.join(out1, "manifest.txt")
        assert main(["toy-snr", "--config", manifest, "--out", out2]) == 0
        assert read(os.path.join(out1, "stats.csv")) == read(
            os.path.join(out2, "stats.csv"))
        assert read(os.path.join(out1, "ttests.csv")) == read(
            os.path.join(out2, "ttests.csv"))

    def test_stats_schema_and_order(self, tmp_path):
        cfg = write_config(tmp_path, TOY_SMOKE)
        out = str(tmp_path / "o")
        assert main(["toy-snr", "--config", cfg, "--out", out]) == 0
        lines = read(os.path.join(out, "stats.csv")).decode().splitlines()
        assert lines[0] == ("estimator,K,trial,coordinate,"
                            "mean,variance,bias2,snr")
        keys = []
        for line in lines[1:]:
            est, k, trial, coord = line.split(",")[:4]
            keys.append((est, int(k), int(trial), int(coord)))
        assert keys == sorted(keys)

    def test_bias_is_against_iwae_folded_on_the_reference_stream(self, tmp_path):
        # each bias2 is (mean - m)^2, m the mean of reference_samples iwae
        # rows on the reference stream, keyed by (trial, K) like the
        # measurement, and folded here without the CLI
        cfg = write_config(tmp_path, TOY_SMOKE)
        out = tmp_path / "o"
        assert main(["toy-snr", "--config", cfg, "--out", str(out)]) == 0
        cfg = resolve_config(parse_config_text(TOY_SMOKE), "toy-snr")
        fam = Toy(cfg.d, cfg.q_variance)
        refs = {}
        for trial in range(cfg.trials):
            p, x = cli._trial_point(cfg, fam, trial)
            for k in cfg.k_grid:
                refs[trial, k] = fold_rows(
                    fam, p, x, k, 80,
                    lambda ctx: [("iwae", phi_rows("iwae", ctx))],
                    seed=3, stream=Streams.REFERENCE,
                    draw_prefix=(trial, k))["iwae"].mean
        rows = [line.split(",")
                for line in read(out / "stats.csv").decode().splitlines()[1:]]
        assert len(rows) == 2 * 6 * 8 + 2 * 6 * 6  # jvi1 ids skip K = 1
        for est, k, trial, coord, mean, _, bias2, _ in rows:
            m = refs[int(trial), int(k)][int(coord)]
            assert float(bias2) == (float(mean) - m) ** 2, (est, k, trial)

    def test_jackknife_skips_single_sample(self, tmp_path):
        cfg = write_config(tmp_path, TOY_SMOKE)
        out = str(tmp_path / "o")
        assert main(["toy-snr", "--config", cfg, "--out", out]) == 0
        body = read(os.path.join(out, "stats.csv")).decode()
        rows = [ln.split(",") for ln in body.splitlines()[1:]]
        jvi_ks = {r[1] for r in rows if r[0].startswith("jvi1")}
        assert jvi_ks == {"4"}
        assert {r[1] for r in rows if r[0] == "iwae"} == {"1", "4"}

    def test_k_below_every_min_k_is_not_measured(self, tmp_path, monkeypatch):
        # k_grid = 1, 4 with jackknife ids only: nothing is written at K = 1,
        # so nothing may be folded there either
        cfg = write_config(tmp_path, TOY_SMOKE + "estimators = jvi1, jvi1-dreg\n")
        folded_at = []
        real = cli._paired_fold

        def spy(cfg, fam, p, x, trial, k, stream, n, maps):
            folded_at.append((stream, k))
            return real(cfg, fam, p, x, trial, k, stream, n, maps)

        monkeypatch.setattr(cli, "_paired_fold", spy)
        out = tmp_path / "o"
        assert main(["toy-snr", "--config", cfg, "--out", str(out)]) == 0
        assert sorted(set(folded_at)) == [(Streams.MEASURE, 4),
                                          (Streams.REFERENCE, 4)]
        rows = read(out / "stats.csv").decode().splitlines()[1:]
        assert {row.split(",")[1] for row in rows} == {"4"}

    def test_jackknife_grid_below_min_k_is_config_error(self, tmp_path, capsys):
        # every K of the grid is skipped, which would leave header-only csvs
        cfg = write_config(tmp_path, TOY_SMOKE.replace("k_grid = 1, 4", "k_grid = 1")
                           + "estimators = jvi1, jvi1-dreg\n")
        out = tmp_path / "o"
        assert main(["toy-snr", "--config", cfg, "--out", str(out)]) == 1
        assert "'jvi1' needs k >= 2 (its min_k)" in capsys.readouterr().err
        assert not out.exists()

    def test_seed_flag_changes_results(self, tmp_path):
        cfg = write_config(tmp_path, TOY_SMOKE)
        out1 = str(tmp_path / "a")
        out2 = str(tmp_path / "b")
        assert main(["toy-snr", "--config", cfg, "--out", out1]) == 0
        assert main(["toy-snr", "--config", cfg, "--seed", "99",
                     "--out", out2]) == 0
        assert read(os.path.join(out1, "stats.csv")) != read(
            os.path.join(out2, "stats.csv"))

    def test_rows_parse_back_as_floats(self, tmp_path):
        cfg = write_config(tmp_path, TOY_SMOKE)
        out = str(tmp_path / "o")
        assert main(["toy-snr", "--config", cfg, "--out", out]) == 0
        body = read(os.path.join(out, "stats.csv")).decode()
        for line in body.splitlines()[1:]:
            cells = line.split(",")
            values = [float(c) for c in cells[4:]]
            assert len(values) == 4
            assert np.isfinite(values[1])


class TestBiasTestCommand:
    def test_report_and_verdicts(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BIAS_SMOKE)
        out = str(tmp_path / "o")
        assert main(["bias-test", "--config", cfg, "--out", out]) == 0
        report = read(os.path.join(out, "report.txt")).decode()
        assert "stl vs iwae: bias detected" in report
        assert "iwae-dreg vs iwae: no bias detected" in report
        assert "rws-dreg vs rws-wake: no bias detected" in report
        assert "jvi1-dreg vs jvi1: no bias detected" in report
        assert capsys.readouterr().out == report

    def test_ttest_csv_schema(self, tmp_path):
        cfg = write_config(tmp_path, BIAS_SMOKE)
        out = str(tmp_path / "o")
        assert main(["bias-test", "--config", cfg, "--out", out]) == 0
        lines = read(os.path.join(out, "ttests.csv")).decode().splitlines()
        assert lines[0] == ("estimator,reference,coordinate,"
                            "t_statistic,p_value,n")
        # d = 2 toy has 6 phi coordinates per estimator
        assert len(lines) == 1 + 5 * 6

    def test_rejects_untestable_estimator(self, tmp_path):
        cfg = write_config(tmp_path, BIAS_SMOKE + "estimators = iwae\n")
        assert main(["bias-test", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 1

    def test_jackknife_at_single_sample_is_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BIAS_SMOKE.replace("k = 8", "k = 1"))
        assert main(["bias-test", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 1
        assert "jvi1-dreg" in capsys.readouterr().err

    @staticmethod
    def _bias_cfg(alpha, **updates):
        raw = parse_config_text(BIAS_SMOKE)
        raw.update(alpha=repr(alpha), **updates)
        cfg = resolve_config(raw, "bias-test")
        fam = Toy(cfg.d, cfg.q_variance)
        return cfg, fam, *cli._trial_point(cfg, fam, 0)

    @staticmethod
    def _differences(cfg, fam, p, x):
        return cli._paired_fold(cfg, fam, p, x, 0, cfg.k, Streams.MEASURE,
                                cfg.samples, {
                                    est: cli._difference(est, ref, cfg.alpha)
                                    for est, ref in cli.REFERENCE_PAIR.items()})

    def test_fold_memory_does_not_grow_with_chunk_size(self):
        # bias-test's five difference maps at its K = 64 and d = 4: with
        # slabs of at most 1024 rows, one 16384-row chunk peaks where
        # sixteen 1024-row chunks do (whole-chunk row buffers would add
        # 5 x 16384 x 20 doubles, 13 MB)
        cfg = resolve_config({"samples": "16384"}, "bias-test")
        fam = Toy(cfg.d, cfg.q_variance)
        p, x = cli._trial_point(cfg, fam, 0)
        maps = {est: cli._difference(est, ref, cfg.alpha)
                for est, ref in cli.REFERENCE_PAIR.items()}
        peaks = []
        for chunk_size in (16384, 1024):
            tracemalloc.start()
            try:
                fold_rows(fam, p, x, cfg.k, cfg.samples,
                          lambda ctx: phi_row_set(maps, ctx, cfg.alpha).items(),
                          seed=cfg.seed, stream=Streams.MEASURE,
                          draw_prefix=(0, cfg.k), chunk_size=chunk_size)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert abs(peaks[0] - peaks[1]) <= 1 << 20, peaks

    @pytest.mark.parametrize("alpha", [0.0, 0.3, 0.5, 1.0])
    def test_paired_fold_diffs_match_hand_built_references(self, alpha):
        # each difference map folds the bits of its base-level sum written
        # out by hand (its weights added per base, zero weights dropped),
        # and each row is within rounding of est - ref as two ids' rows;
        # 20000 samples span two noise chunks
        cfg, fam, p, x = self._bias_cfg(alpha, samples="20000")
        diffs = self._differences(cfg, fam, p, x)
        a = alpha

        def rows_of(ctx):
            w = context_weights(ctx)

            def path(base):
                return ctx.path(getattr(w, base))

            def score(base):
                return ctx.score(getattr(w, base))

            dreg = -path("wt") + path("wt2") + score("wt")
            hand = {"stl": score("wt"), "iwae-dreg": dreg, "rws-dreg": -dreg,
                    "jvi1-dreg": -path("c") + path("c2") + score("c"),
                    "dreg-alpha": (a - (1.0 - a)) * path("wt")
                    + (1.0 - 2.0 * a) * path("wt2")
                    + ((1.0 - a) - a) * score("wt")}
            rows = {kind: phi_rows(kind, ctx, a if kind == "dreg-alpha"
                                   else None) for kind in ESTIMATOR_IDS}
            for est, ref in cli.REFERENCE_PAIR.items():
                ref_rows = (1.0 - a) * rows["iwae"] + a * rows["rws-wake"] \
                    if ref == "alpha-mix" else rows[ref]
                scale = max(np.abs(rows[kind]).max()
                            for kind in cli._difference(est, ref, a))
                assert np.abs(hand[est] - (rows[est] - ref_rows)).max() \
                    <= 1e-15 * scale, (est, alpha)
                yield est, hand[est]

        want = fold_rows(fam, p, x, cfg.k, cfg.samples, rows_of,
                         seed=cfg.seed, stream=Streams.MEASURE,
                         draw_prefix=(0, cfg.k))
        assert list(diffs) == list(cli.REFERENCE_PAIR)
        for est, got in diffs.items():
            assert got.n == want[est].n == cfg.samples
            assert np.array_equal(got.mean, want[est].mean), (est, alpha)
            assert np.array_equal(got.m2, want[est].m2), (est, alpha)

    def test_alpha_mix_endpoints_are_iwae_and_rws_wake(self):
        fam = Toy(3)
        p = fam.init_params(np.array([0.4, -1.1, 0.2]))
        ctx = fam.weight_context(p, np.array([1.3, 0.0, -0.7]), noise_block(
            2, Streams.MEASURE, 0, (50, 8, 3)))
        for alpha, ref in ((0.0, "iwae"), (1.0, "rws-wake")):
            mix = {kind: -w for kind, w in cli._difference(
                "dreg-alpha", "alpha-mix", alpha).items() if kind != "dreg-alpha"}
            rows = phi_row_set({"mix": mix, ref: {ref: 1.0}}, ctx, alpha)
            assert np.array_equal(rows["mix"], rows[ref]), ref

    def test_wake_and_dreg_differences_fold_the_same_bits(self):
        # rws-dreg - rws-wake is -(iwae-dreg - iwae), one sum per base
        diffs = self._differences(*self._bias_cfg(0.3))
        wake, dreg = diffs["rws-dreg"], diffs["iwae-dreg"]
        assert wake.n == dreg.n == 2000
        assert np.array_equal(wake.mean, -dreg.mean)
        assert np.array_equal(wake.m2, dreg.m2)

    def test_dreg_alpha_difference_is_exactly_zero_at_one_half(self, tmp_path):
        # at alpha = 1/2 dreg-alpha's weights cancel its reference's, and
        # the t-test's zero-variance branch reads the zero rows as p = 1
        diff = self._differences(*self._bias_cfg(0.5))["dreg-alpha"]
        assert diff.n == 2000
        assert not diff.mean.any() and not diff.m2.any()
        cfg = write_config(tmp_path, BIAS_SMOKE + "alpha = 0.5\n")
        out = tmp_path / "o"
        assert main(["bias-test", "--config", cfg, "--out", str(out)]) == 0
        rows = [line.split(",") for line in
                read(out / "ttests.csv").decode().splitlines()[1:]]
        alpha_rows = [row for row in rows if row[0] == "dreg-alpha"]
        assert len(alpha_rows) == 6
        assert all(row[3:] == ["0.0", "1.0", "2000"] for row in alpha_rows)
        assert ("dreg-alpha vs alpha-mix: no bias detected (min p = 1)\n"
                in read(out / "report.txt").decode())

    def test_reads_the_pairs_toy_snr_folds_at_trial_0(self, tmp_path,
                                                      monkeypatch):
        folds = {}
        real = cli._paired_fold

        def spy(cfg, fam, p, x, trial, k, stream, n, maps):
            key = cfg.experiment, stream, trial, k
            folds[key] = real(cfg, fam, p, x, trial, k, stream, n, maps)
            return folds[key]

        monkeypatch.setattr(cli, "_paired_fold", spy)
        toy = write_config(tmp_path, BIAS_SMOKE.replace("k = 8", "k_grid = 4, 8")
                           + "trials = 2\nreference_samples = 80\n"
                           "estimators = iwae, iwae-dreg\n", "toy.txt")
        bias = write_config(tmp_path, BIAS_SMOKE + "estimators = iwae-dreg\n",
                            "bias.txt")
        assert main(["toy-snr", "--config", toy,
                     "--out", str(tmp_path / "t")]) == 0
        assert main(["bias-test", "--config", bias,
                     "--out", str(tmp_path / "b")]) == 0
        measure, reference = Streams.MEASURE, Streams.REFERENCE
        assert sorted(folds) == [
            ("bias-test", measure, 0, 8),
            *(("toy-snr", stream, trial, k) for stream in (measure, reference)
              for trial in (0, 1) for k in (4, 8))]
        # toy-snr folds each id and, past iwae, its difference from iwae,
        # and its reference is iwae alone; bias-test folds one stream per
        # tested id, its difference alone
        assert set(folds["toy-snr", measure, 0, 8]) == {"iwae", "iwae-dreg",
                                                        ("iwae-dreg", 8)}
        assert set(folds["toy-snr", reference, 0, 8]) == {"iwae"}
        assert folds["toy-snr", reference, 0, 8]["iwae"].n == 80
        assert set(folds["bias-test", measure, 0, 8]) == {"iwae-dreg"}
        toy_diff = folds["toy-snr", measure, 0, 8]["iwae-dreg", 8]
        bias_diff = folds["bias-test", measure, 0, 8]["iwae-dreg"]
        assert toy_diff.n == bias_diff.n == 2000
        assert np.array_equal(toy_diff.mean, bias_diff.mean)
        assert np.array_equal(toy_diff.m2, bias_diff.m2)
        # another trial's operating point and noise give other moments
        assert not np.array_equal(
            folds["toy-snr", measure, 1, 8]["iwae-dreg", 8].mean,
            bias_diff.mean)


class TestTrainCommand:
    def test_outputs_and_replay(self, tmp_path):
        cfg = write_config(tmp_path, TRAIN_SMOKE)
        out1 = str(tmp_path / "a")
        out2 = str(tmp_path / "b")
        assert main(["train", "--config", cfg, "--out", out1]) == 0
        for name in ("train.csv", "checkpoint.bin", "manifest.txt"):
            assert os.path.exists(os.path.join(out1, name))
        manifest = os.path.join(out1, "manifest.txt")
        assert main(["train", "--config", manifest, "--out", out2]) == 0
        assert read(os.path.join(out1, "train.csv")) == read(
            os.path.join(out2, "train.csv"))
        assert read(os.path.join(out1, "checkpoint.bin")) == read(
            os.path.join(out2, "checkpoint.bin"))

    def test_checkpoint_loads_back_under_the_manifest_sizes(self, tmp_path):
        cfg = write_config(tmp_path, TRAIN_SMOKE)
        out = tmp_path / "o"
        assert main(["train", "--config", cfg, "--out", str(out)]) == 0
        m = cli.load_config(str(out / "manifest.txt"), "train")
        path = out / "checkpoint.bin"
        p = load_checkpoint(path, Vae(m.latent, m.hidden, m.obs))
        save_checkpoint(p, tmp_path / "again.bin")
        assert read(tmp_path / "again.bin") == read(path)
        # the loaded array is one an optimizer can step in place
        before = p.flat.copy()
        Adam(p.size).update(p.flat, np.ones(p.size))
        assert not np.array_equal(p.flat, before)
        with pytest.raises(ValueError, match=r"checkpoint.bin: checkpoint header "
                           r"line 5 'enc_w3 .*': slice 'enc_w3' does not match"):
            load_checkpoint(path, Vae(m.latent + 1, m.hidden, m.obs))

    def test_csv_schema(self, tmp_path):
        cfg = write_config(tmp_path, TRAIN_SMOKE)
        out = str(tmp_path / "o")
        assert main(["train", "--config", cfg, "--out", out]) == 0
        lines = read(os.path.join(out, "train.csv")).decode().splitlines()
        assert lines[0] == ("step,estimator,K,train_objective,"
                            "heldout_bound,var_trace_theta,var_trace_phi")
        steps = [int(ln.split(",")[0]) for ln in lines[1:]]
        assert steps == [0, 20, 40]
        assert all(ln.split(",")[1] == "iwae" for ln in lines[1:])

    def test_divergence_exits_2_with_outputs(self, tmp_path, capsys):
        cfg = write_config(tmp_path, TRAIN_SMOKE + "lr = 3000.0\n")
        out = str(tmp_path / "o")
        assert main(["train", "--config", cfg, "--out", out]) == 2
        assert capsys.readouterr().err == (
            "diverged at step 1 (degenerate weight batch: NaN log-weight); "
            "wrote last finite parameters to checkpoint.bin\n")
        assert os.path.exists(os.path.join(out, "checkpoint.bin"))
        assert os.path.exists(os.path.join(out, "train.csv"))

    def test_jackknife_at_single_sample_is_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, TRAIN_SMOKE.replace("k = 4", "k = 1")
                           + "estimator = jvi1\n")
        out = tmp_path / "o"
        assert main(["train", "--config", cfg, "--out", str(out)]) == 1
        assert "'jvi1' needs k >= 2 (its min_k)" in capsys.readouterr().err
        assert not out.exists()

    def test_empty_split_is_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, TRAIN_SMOKE.replace("data_n = 96", "data_n = 10")
                           + "split_fractions = 0.9, 0.04, 0.06\n")
        assert main(["train", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: empty split from fractions")

    def test_missing_dataset_is_config_error(self, tmp_path):
        cfg = write_config(tmp_path,
                           TRAIN_SMOKE + "data_source = /nope/x.idx\n")
        assert main(["train", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 1

    @pytest.mark.parametrize("case, cause", [
        ("missing", "No such file or directory"),
        ("truncated", "truncated IDX header"),
        ("width", "dataset width 9 does not match obs = 16"),
        ("empty-split", "empty split from fractions"),
        ("empty-out", "out must not be empty"),
    ], ids=["missing", "truncated", "width", "empty-split", "empty-out"])
    def test_config_error_writes_nothing(self, tmp_path, monkeypatch, capsys,
                                         case, cause):
        # the data are loaded and split before the output directory is
        # made, so a bad dataset leaves no manifest of a run that never ran
        monkeypatch.chdir(tmp_path)
        data = tmp_path / "data.idx"
        if case == "truncated":
            data.write_bytes(b"\x00\x00\x08")
        elif case == "width":
            write_idx(data, np.zeros((12, 3, 3), dtype=np.uint8))
        text = TRAIN_SMOKE + {
            "missing": f"data_source = {data}\n",
            "truncated": f"data_source = {data}\n",
            "width": f"data_source = {data}\n",
            "empty-split": "split_fractions = 0.9, 0.004, 0.006\n",
            "empty-out": ""}[case]
        cfg = write_config(tmp_path, text)
        before = sorted(os.listdir(tmp_path))
        out = "" if case == "empty-out" else str(tmp_path / "o")
        assert main(["train", "--config", cfg, "--out", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and cause in err, err
        if case in ("missing", "truncated"):
            assert f"cannot read dataset {data}" in err
        assert sorted(os.listdir(tmp_path)) == before


@pytest.mark.parametrize("umask", [0o022, 0o077], ids=["022", "077"])
def test_outputs_get_the_mode_of_a_plain_open(tmp_path, umask):
    # the temp-then-rename writer must not leave mkstemp's 0o600 behind
    old = os.umask(umask)
    try:
        with open(tmp_path / "plain", "w"):
            pass
        for experiment, text in (("bias-test", BIAS_SMOKE), ("train", TRAIN_SMOKE)):
            out = tmp_path / experiment
            cfg = write_config(tmp_path, text, name=f"{experiment}.txt")
            assert main([experiment, "--config", cfg, "--out", str(out)]) == 0
            modes = {p.name: p.stat().st_mode for p in out.iterdir()}
            assert len(modes) == 3
            assert set(modes.values()) == {(tmp_path / "plain").stat().st_mode}
    finally:
        os.umask(old)


class TestMainEntry:
    def test_missing_config_file(self, tmp_path):
        assert main(["train", "--config", str(tmp_path / "nope.txt")]) == 1

    def test_bad_usage_is_config_error(self, capsys):
        assert main(["frobnicate", "--config", "x"]) == 1
        capsys.readouterr()

    def test_help_exits_clean(self, capsys):
        assert main(["--help"]) == 0
        capsys.readouterr()
