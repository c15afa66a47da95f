"""dreglab benchmark: the three CLI experiments, timed end to end and per layer.

    python3 perfbench/run.py --workload toy-snr --seed 1 --seconds 30 --trace 0

``--workload`` is one of ``toy-snr``, ``bias-test``, ``train``, or
``all`` for the three in turn.  Run from anywhere; the program under test
is the ``src`` directory beside this script's directory, imported from
source.  Each workload runs in a fresh worker process (``worker.py``)
with BLAS threads capped at the CPU count: a closed loop of one CLI run
after another for ``--seconds``.

With ``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json:
set-up time (median of several fresh imports), K-draws and steps per
second (medians over runs) and the worker's peak resident set.  With
``--trace 1`` they are the per-layer ones, from traced runs.  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
Results, the environment stamp and span files are also kept under
``.perfbench/`` in the checkout.  Exit code 0 means a result was printed;
anything else means the benchmark itself could not run.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_PROBES = 4  # fresh-process set-ups besides the worker's own
TIME_LIMIT_S = 170.0  # one workload's whole invocation, set-up included


class BenchError(Exception):
    pass


def _source_digest():
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for base, dirs, files in sorted(os.walk(src)):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()[:16]


def _commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None


def _child_env(nproc):
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(nproc)
    return env


def _worker(name, args, work_dir, env, deadline, extra):
    """Run worker.py to completion; returns its result object."""
    fd, result_path = tempfile.mkstemp(dir=work_dir, suffix=".json")
    os.close(fd)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--root", ROOT, "--workload", name, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work", work_dir, "--result", result_path, *extra]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("no time left for the worker")
    try:
        subprocess.run(cmd, env=env, check=True, timeout=timeout,
                       stdout=subprocess.DEVNULL)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker overran {timeout:.0f} s") from exc
    except subprocess.CalledProcessError as exc:
        raise BenchError(f"worker exited with {exc.returncode}") from exc
    with open(result_path, encoding="ascii") as fh:
        return json.load(fh)


def run_workload(name, args, spec, nproc):
    """One workload end to end; returns its result line's fields."""
    work = WORKLOADS[name]
    state = os.path.join(ROOT, ".perfbench")
    os.makedirs(state, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{name}-", dir=state)
    deadline = time.monotonic() + TIME_LIMIT_S
    env = _child_env(nproc)
    try:
        setups = [_worker(name, args, work_dir, env, deadline,
                          ["--probe"])["setup_s"]
                  for _ in range(0 if args.trace else SETUP_PROBES)]
        spans = os.path.join(state, f"{name}-seed{args.seed}.spans.csv")
        res = _worker(name, args, work_dir, env, deadline,
                      ["--spans", spans] if args.trace else [])
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    setups.append(res["setup_s"])
    walls = [r["wall_s"] for r in res["runs"]]
    attempted = len(res["runs"])
    failed = sum(1 for r in res["runs"] if r["problems"])
    if args.trace:
        table = spec["per_layer"]
        values = {m["name"]: res["layers"].get(m["name"], 0.0) for m in table}
    else:
        table = spec["end_to_end"]
        values = {
            "setup_s": statistics.median(setups),
            "kdraws_per_s": statistics.median(work.kdraws / w for w in walls),
            "steps_per_s": statistics.median(work.steps / w for w in walls),
            "peak_rss_mb": res["peak_rss_mb"],
        }
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in table}
    env_stamp = {"commit": _commit(), "src_sha256": _source_digest(),
                 "nproc": nproc, **res["env"]}
    record = {"workload": name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env_stamp, "setup_s": setups,
              "runs": res["runs"], "notes": res["notes"], "metrics": metrics,
              "sites": res.get("sites"), "missing": res.get("missing")}
    with open(os.path.join(state, f"{name}-seed{args.seed}-trace"
                           f"{args.trace}.json"), "w", encoding="ascii") as fh:
        json.dump(record, fh, indent=1)

    print(f"workload {name}: seed {args.seed}, {attempted} runs "
          f"(run 1 replays run 0's manifest), {failed} failed")
    for i, r in enumerate(res["runs"]):
        tag = " traced" if r["traced"] else ""
        status = "; ".join(r["problems"]) or "ok"
        print(f"  run {i}{tag}: {r['wall_s']:.3f} s, {status}")
    for key, value in res["notes"].items():
        print(f"  {key}: {value}")
    for layer, sites in (res.get("sites") or {}).items():
        print(f"  rebound {layer}: {', '.join(sites)}")
    for metric, body in metrics.items():
        print(f"{metric} {body['value']:.6g} {body['unit']}")
    print(f"error_rate {failed / attempted:.6g} fraction")
    print("env " + json.dumps(env_stamp, sort_keys=True))
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=(*tuple(WORKLOADS), "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    try:
        if not os.path.isfile(os.path.join(ROOT, "src", "dreglab", "cli.py")):
            raise BenchError(f"no dreglab sources under {ROOT}/src")
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="ascii") as fh:
            spec = json.load(fh)
        nproc = len(os.sched_getaffinity(0))
        names = tuple(WORKLOADS) if args.workload == "all" else (args.workload,)
        results = {name: run_workload(name, args, spec, nproc)
                   for name in names}
    except (BenchError, OSError, KeyError, ValueError) as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 2
    if len(results) == 1:
        line = results[names[0]]
    else:
        line = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{metric}": body
                        for name, r in results.items()
                        for metric, body in r["metrics"].items()},
        }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
