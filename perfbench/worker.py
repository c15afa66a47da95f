"""One workload's closed loop, run in a process of its own.

``run.py`` starts this script with BLAS threads capped at the CPU count.
It imports ``dreglab.cli`` from the checkout's ``src``, writes the
workload's config, and then runs one CLI experiment after another
through ``dreglab.cli.main`` until the next run would end past
``--seconds``.  Run 0 is the reference; run 1 replays run 0's
``manifest.txt``.  Every run must exit 0, pass the workload's output
checks and write the same bytes as run 0, or it counts as failed.

With ``--trace 1`` runs 2, 4, ... are traced and runs 3, 5, ... are not,
so the traced and untraced rates come from interleaved runs.  With
``--probe`` the script only times its set-up and exits.

The result is one JSON object written to ``--result``.
"""

import argparse
import contextlib
import ctypes
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time

import tracer as tracing
from workloads import WORKLOADS


def _blas_stamp():
    """OpenBLAS version and its run-time thread count, where readable."""
    import numpy as np

    stamp = {"openblas": None, "blas_threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        stamp["openblas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        pass
    try:
        with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        libs = set()
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                stamp["blas_threads"] = getter()
                return stamp
    return stamp


def _env_stamp():
    import numpy
    import scipy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        **_blas_stamp(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def _outputs(out):
    produced = {}
    for name in sorted(os.listdir(out)):
        with open(os.path.join(out, name), "rb") as fh:
            produced[name] = fh.read()
    return produced


def _one_run(main, argv, work, out, reference):
    """Run the CLI once; returns (wall seconds, problems, notes, bytes)."""
    shutil.rmtree(out, ignore_errors=True)
    captured = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(captured):
        code = main(argv)
    wall = time.perf_counter() - start
    if code != 0:
        return wall, [f"exit code {code}"], {}, None
    try:
        problems, notes = work.check(out, captured.getvalue())
        produced = _outputs(out)
    except (OSError, ValueError, KeyError, ArithmeticError) as exc:
        return wall, [f"output check failed: {exc!r}"], {}, None
    if reference is not None and produced != reference:
        differ = sorted(name for name in set(produced) | set(reference)
                        if produced.get(name) != reference.get(name))
        problems.append("bytes differ from run 0: " + ", ".join(differ))
    return wall, problems, notes, produced


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans", help="where a traced run writes its spans")
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args()
    if args.trace and not args.spans:
        parser.error("--trace 1 needs --spans")
    work = WORKLOADS[args.workload]
    src = os.path.join(args.root, "src")

    # set-up: import the CLI and generate the workload's inputs
    start = time.perf_counter()
    sys.path.insert(0, src)
    import dreglab.cli

    os.makedirs(args.work, exist_ok=True)
    config = os.path.join(args.work, "workload.cfg")
    with open(config, "w", encoding="ascii") as fh:
        fh.write(work.config)
    setup_s = time.perf_counter() - start
    origin = os.path.realpath(dreglab.cli.__file__)
    if not origin.startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"dreglab imported from {origin}, not from {src}")
    result = {"setup_s": setup_s}
    if args.probe:
        with open(args.result, "w", encoding="ascii") as fh:
            json.dump(result, fh)
        return

    out = os.path.join(args.work, "out")
    replay = os.path.join(args.work, "replay.cfg")
    tracer = tracing.Tracer() if args.trace else None
    runs = []
    notes = {}
    reference = None
    loop_start = time.perf_counter()
    while True:
        i = len(runs)
        if i == 1:
            argv = [work.experiment, "--config", replay, "--out", out]
        else:
            argv = [work.experiment, "--config", config,
                    "--seed", str(args.seed), "--out", out]
        traced = tracer is not None and i >= 2 and i % 2 == 0
        if traced:
            tracer.run = i
            tracing.install(tracer, work.valid_n)
        try:
            wall, problems, run_notes, produced = _one_run(
                dreglab.cli.main, argv, work, out, reference)
        finally:
            if traced:
                tracer.uninstall()
        if i == 0:
            reference = produced
            notes = run_notes
            if produced is not None:
                shutil.copyfile(os.path.join(out, "manifest.txt"), replay)
        runs.append({"wall_s": wall, "traced": traced, "problems": problems})
        elapsed = time.perf_counter() - loop_start
        enough = len(runs) >= (3 if tracer is not None else 2)
        if enough and elapsed + wall > args.seconds:
            break
    result.update(runs=runs, notes=notes, env=_env_stamp())
    if tracer is None:
        result["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    else:
        traced_runs = [(i, r["wall_s"]) for i, r in enumerate(runs)
                       if r["traced"]]
        plain = [r["wall_s"] for r in runs[1:] if not r["traced"]]
        layers = tracing.median_layers(
            [tracer.layer_values(i, wall) for i, wall in traced_runs])
        layers["trace.overhead_frac"] = (
            statistics.median(w for _, w in traced_runs)
            / statistics.median(plain) - 1.0)
        counted = sum(layers.get(name + ".kdraws", 0.0) for name in (
            "models.toy.context", "models.vae.context",
            "models.vae.context_eval"))
        notes["trace.context_kdraws"] = f"{counted:.0f} of {work.kdraws}"
        result.update(layers=layers, sites=tracer.sites,
                      missing=tracer.missing)
        tracer.write_spans(args.spans)
    with open(args.result, "w", encoding="ascii") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
