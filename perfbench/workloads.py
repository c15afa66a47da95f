"""The benchmark's workloads: fixed CLI configs, work counts, output checks.

Each workload is one ``dreg-lab`` experiment with a config that does not
depend on the seed; the benchmark's seed reaches the program only as
``--seed``.  Work counts are derived from the config: K-draws are the
(sample, K) pairs pushed through weight contexts in one CLI run, and
steps are the toy fold's noise chunks or the optimizer's steps.
"""

import csv
import math
import os
import re
import statistics
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    experiment: str
    config: str
    kdraws: int  # K-draws through weight contexts per CLI run
    steps: int  # fold chunks (toy) or optimizer steps (train) per CLI run
    valid_n: int  # leading dimension of held-out VAE contexts, 0 if none
    check: object  # check(out_dir, stdout) -> (problems, notes)


def _chunks(n, chunk):
    return -(-n // chunk)


def _read_csv(path):
    with open(path, newline="", encoding="ascii") as fh:
        return list(csv.DictReader(fh))


def _nonfinite(rows, columns):
    bad = []
    for i, row in enumerate(rows):
        for col in columns:
            try:
                ok = math.isfinite(float(row[col]))
            except (KeyError, TypeError, ValueError):
                ok = False
            if not ok:
                bad.append(f"row {i} {col}={row.get(col)!r}")
    return bad


# toy-snr: criterion 1's shape (d = 4, K = 8, 64, 512, iwae against
# iwae-dreg, one trial) at the default chunk size.  One full chunk per K
# keeps the K = 512 chunk at its default 16384 x 512 x 4 size.
_TOY_K = (8, 64, 512)
_TOY_SAMPLES = 16384
_TOY_REFERENCE = 2048
_TOY_CONFIG = f"""experiment = toy-snr
d = 4
k_grid = {", ".join(map(str, _TOY_K))}
estimators = iwae, iwae-dreg
trials = 1
samples = {_TOY_SAMPLES}
reference_samples = {_TOY_REFERENCE}
"""
_DEFAULT_CHUNK = 16384


def check_toy_snr(out, stdout):
    problems = []
    rows = _read_csv(os.path.join(out, "stats.csv"))
    expected = 2 * len(_TOY_K) * 1 * (4 * 4 + 4)
    if len(rows) != expected:
        problems.append(f"stats.csv has {len(rows)} rows, expected {expected}")
    bad = _nonfinite(rows, ("mean", "variance", "bias2", "snr"))
    if bad:
        problems.append("stats.csv non-finite: " + "; ".join(bad[:3]))
        return problems, {}
    snr = {}
    for row in rows:
        key = (row["estimator"], int(row["K"]))
        snr.setdefault(key, {})[int(row["coordinate"])] = float(row["snr"])
    lo, hi = _TOY_K[0], _TOY_K[-1]
    cells = [(est, k) for est in ("iwae", "iwae-dreg") for k in (lo, hi)]
    if any(cell not in snr for cell in cells):
        return problems + ["stats.csv lacks an (estimator, K) cell"], {}
    med = {cell: statistics.median(snr[cell].values()) for cell in cells}

    def advantage(k):
        # median over coordinates of iwae-dreg's SNR over iwae's
        return statistics.median(snr["iwae-dreg", k][c] / snr["iwae", k][c]
                                 for c in snr["iwae", k])

    notes = {f"median_snr.{est}.K{k}": med[est, k] for est, k in cells}
    notes.update({f"median_snr_ratio.K{k}": advantage(k) for k in (lo, hi)})
    # gated: iwae-dreg's SNR advantage over iwae grows with K (the
    # paper's K^-1/2 against K^+1/2 makes the ratio grow like K).
    # recorded: each estimator's own direction, which flips on a few
    # percent of seeds whose operating point is outside the asymptotic
    # regime at K <= 512 (a large, slowly decaying mean gradient, or a
    # near-zero one)
    if not advantage(hi) > advantage(lo):
        problems.append(f"iwae-dreg/iwae SNR ratio does not grow from "
                        f"K={lo} to {hi}")
    notes["iwae_snr_falls"] = med["iwae", lo] > med["iwae", hi]
    notes["iwae_dreg_snr_rises"] = med["iwae-dreg", hi] > med["iwae-dreg", lo]
    return problems, notes


# bias-test at its defaults: K = 64, n = 100000, the five tested ids
_BIAS_TESTED = {
    "dreg-alpha": "alpha-mix",
    "iwae-dreg": "iwae",
    "jvi1-dreg": "jvi1",
    "rws-dreg": "rws-wake",
    "stl": "iwae",
}
_BIAS_K = 64
_BIAS_SAMPLES = 100000
_VERDICT = re.compile(
    r"(?P<est>\S+) vs (?P<ref>\S+): (?P<verdict>bias detected|no bias "
    r"detected) \(min p = (?P<p>[^ )]+)(?: at coordinate \d+)?\)")


def check_bias_test(out, stdout):
    problems = []
    with open(os.path.join(out, "report.txt"), encoding="ascii") as fh:
        report = fh.read()
    if stdout != report:
        problems.append("stdout does not echo report.txt")
    verdicts = {}
    for line in report.splitlines()[1:]:
        m = _VERDICT.fullmatch(line)
        if m is None:
            problems.append(f"unparseable verdict line {line!r}")
            continue
        p = float(m["p"])
        if not 0.0 <= p <= 1.0:
            problems.append(f"p-value out of range in {line!r}")
        if _BIAS_TESTED.get(m["est"]) != m["ref"]:
            problems.append(f"unexpected pair in {line!r}")
        verdicts[m["est"]] = (m["verdict"], p)
    missing = sorted(set(_BIAS_TESTED) - set(verdicts))
    if missing:
        problems.append(f"no verdict for {', '.join(missing)}")
    if verdicts.get("stl", ("",))[0] != "bias detected":
        problems.append("stl is not reported biased")
    rows = _read_csv(os.path.join(out, "ttests.csv"))
    if len(rows) != len(_BIAS_TESTED) * 20:
        problems.append(f"ttests.csv has {len(rows)} rows")
    # null verdicts are recorded, not gated: 4 null ids x 4 coordinates
    # at alpha = 0.01 give a false positive on some seeds
    notes = {f"verdict.{est}": f"{v} (min p = {p:.3g})"
             for est, (v, p) in sorted(verdicts.items())}
    return problems, notes


# train at its defaults (criterion 6's shape) with the iwae-dreg update
_TRAIN_STEPS = 2000
_TRAIN_BATCH = 16
_TRAIN_K = 8
_TRAIN_EVAL_EVERY = 20
_TRAIN_VALID_N = round(512 * 0.1)  # data_n x the valid split fraction
_TRAIN_CONFIG = """experiment = train
estimator = iwae-dreg
"""


def check_train(out, stdout):
    problems = []
    rows = _read_csv(os.path.join(out, "train.csv"))
    expected = _TRAIN_STEPS // _TRAIN_EVAL_EVERY + 1
    if len(rows) != expected:
        problems.append(f"train.csv has {len(rows)} rows, expected {expected}")
    bad = _nonfinite(rows, ("step", "K", "train_objective", "heldout_bound",
                            "var_trace_theta", "var_trace_phi"))
    if bad:
        problems.append("train.csv non-finite: " + "; ".join(bad[:3]))
        return problems, {}
    first = float(rows[0]["heldout_bound"])
    last = float(rows[-1]["heldout_bound"])
    if not last > first:
        problems.append(f"held-out bound did not improve ({first} -> {last})")
    if os.path.getsize(os.path.join(out, "checkpoint.bin")) == 0:
        problems.append("empty checkpoint.bin")
    return problems, {"heldout_bound.first": first, "heldout_bound.last": last}


WORKLOADS = {
    "toy-snr": Workload(
        "toy-snr", "toy-snr", _TOY_CONFIG,
        kdraws=(_TOY_SAMPLES + _TOY_REFERENCE) * sum(_TOY_K),
        steps=len(_TOY_K) * (_chunks(_TOY_SAMPLES, _DEFAULT_CHUNK)
                             + _chunks(_TOY_REFERENCE, _DEFAULT_CHUNK)),
        valid_n=0, check=check_toy_snr),
    "bias-test": Workload(
        "bias-test", "bias-test", "experiment = bias-test\n",
        kdraws=_BIAS_SAMPLES * _BIAS_K,
        steps=_chunks(_BIAS_SAMPLES, _DEFAULT_CHUNK),
        valid_n=0, check=check_bias_test),
    "train": Workload(
        "train", "train", _TRAIN_CONFIG,
        # every step's batch context, the final logged step's included,
        # plus the held-out context at each evaluation point
        kdraws=((_TRAIN_STEPS + 1) * _TRAIN_BATCH * _TRAIN_K
                + (_TRAIN_STEPS // _TRAIN_EVAL_EVERY + 1)
                * _TRAIN_VALID_N * _TRAIN_K),
        steps=_TRAIN_STEPS,
        valid_n=_TRAIN_VALID_N, check=check_train),
}
