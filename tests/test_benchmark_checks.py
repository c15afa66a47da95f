"""The benchmark's toy-snr, bias-test and train output checks pass on their configs.

perfbench runs these configs for timing and rejects a run whose outputs
fail its checks; this runs each once, through `dreglab.cli.main`, so a
change that breaks them fails here first.  Each takes a second or two.
"""

import importlib.util
import pathlib

import pytest

from dreglab.cli import main

WORKLOADS_PY = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["toy-snr", "bias-test", "train"])
def test_benchmark_config_passes_its_check(name, tmp_path, capsys):
    work = _workloads().WORKLOADS[name]  # check: check_toy_snr, check_bias_test, check_train
    config = tmp_path / "config.txt"
    config.write_text(work.config, encoding="ascii")
    out = tmp_path / "out"
    assert main([work.experiment, "--config", str(config), "--seed", "1",
                 "--out", str(out)]) == 0
    problems, notes = work.check(str(out), capsys.readouterr().out)
    assert problems == [], problems
    assert notes
