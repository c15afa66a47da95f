import os

import numpy as np
import pytest

from dreglab import __version__
from dreglab.cli import (
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
chunk_size = 32
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
chunk_size = 512
k = 8
d = 2
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
                    {"estimators": "iwae, sgd"}, {"trials": "0"},
                    {"split_fractions": "0.5, 0.6, 0.2"}):
            with pytest.raises(ConfigError):
                resolve_config(raw, "toy-snr")

    def test_train_requires_vae_model(self):
        with pytest.raises(ConfigError, match="vae"):
            resolve_config({"model": "toy"}, "train")
        with pytest.raises(ConfigError, match="toy"):
            resolve_config({"model": "vae"}, "bias-test")

    def test_manifest_round_trips(self):
        cfg = resolve_config({"seed": "7", "lr": "0.0005"}, "train")
        again = resolve_config(parse_config_text(manifest_text(cfg)),
                               "train")
        assert again == cfg

    def test_manifest_lists_every_field(self):
        cfg = resolve_config({}, "toy-snr")
        text = manifest_text(cfg)
        for name in ("experiment", "seed", "k_grid", "trace_decay",
                     "code_version"):
            assert f"{name} = " in text

    def test_replay_from_another_code_version_is_config_error(self, tmp_path, capsys):
        assert f"code_version = {__version__}\n" in manifest_text(resolve_config({}, "toy-snr"))
        old = write_config(tmp_path, TOY_SMOKE + "code_version = 9.9.9\n")
        out = tmp_path / "o"
        assert main(["toy-snr", "--config", old, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "9.9.9" in err and __version__ in err
        assert not out.exists()


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

    def test_jackknife_skips_single_sample(self, tmp_path):
        cfg = write_config(tmp_path, TOY_SMOKE)
        out = str(tmp_path / "o")
        assert main(["toy-snr", "--config", cfg, "--out", out]) == 0
        body = read(os.path.join(out, "stats.csv")).decode()
        rows = [ln.split(",") for ln in body.splitlines()[1:]]
        jvi_ks = {r[1] for r in rows if r[0].startswith("jvi1")}
        assert jvi_ks == {"4"}
        assert {r[1] for r in rows if r[0] == "iwae"} == {"1", "4"}

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

    def test_divergence_exits_2_with_outputs(self, tmp_path):
        cfg = write_config(tmp_path, TRAIN_SMOKE + "lr = 3000.0\n")
        out = str(tmp_path / "o")
        assert main(["train", "--config", cfg, "--out", out]) == 2
        assert os.path.exists(os.path.join(out, "checkpoint.bin"))
        assert os.path.exists(os.path.join(out, "train.csv"))

    def test_jackknife_at_single_sample_is_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, TRAIN_SMOKE.replace("k = 4", "k = 1")
                           + "estimator = jvi1\n")
        out = tmp_path / "o"
        assert main(["train", "--config", cfg, "--out", str(out)]) == 1
        assert "jackknife" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_dataset_is_config_error(self, tmp_path):
        cfg = write_config(tmp_path,
                           TRAIN_SMOKE + "data_source = /nope/x.idx\n")
        assert main(["train", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 1


class TestMainEntry:
    def test_missing_config_file(self, tmp_path):
        assert main(["train", "--config", str(tmp_path / "nope.txt")]) == 1

    def test_bad_usage_is_config_error(self, capsys):
        assert main(["frobnicate", "--config", "x"]) == 1
        capsys.readouterr()

    def test_help_exits_clean(self, capsys):
        assert main(["--help"]) == 0
        capsys.readouterr()
