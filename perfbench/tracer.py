"""Span tracer that times dreglab's layers from outside the program.

Each traced layer is a public function or method under ``src/dreglab``.
The tracer rebinds it to a wrapper that records one span per call:
name, start, end, parent span and run id.  Spans stay in memory until
the benchmark writes them out after its last run.

A function imported by name (``from .gaussian import noise_block``) is a
separate binding in every importing module, so rebinding it only where
it is defined would lose the calls made through the other bindings.
``rebind_function`` therefore replaces every module-level binding of the
same object across all loaded ``dreglab`` modules and reports the sites
it changed.  Methods are rebound on their class, which every caller
reaches.

Counts (K-draws, rows, bytes) are taken inside the same wrappers, so
ratios are measured where the work happens.  A layer that the program no
longer has is skipped with a warning and reads as zero, so a refactor of
the program never stops the benchmark.
"""

import functools
import importlib
import os
import statistics
import sys
import time
from collections import defaultdict

WEIGHT_KERNELS = (
    "normalized_log_weights",
    "normalized_weights",
    "squared_normalized_weights",
    "jvi1_coefficients",
    "loo_logsumexp",
    "iwae_bound",
)

# spans whose self time feeds a ms-per-million-K-draws figure
_PER_MKDRAW = ("gaussian.noise_block", "models.toy.context")
_CONTEXTS = ("models.toy.context", "models.vae.context",
             "models.vae.context_eval")


class Tracer:
    """In-memory span recorder plus the rebinding that feeds it."""

    def __init__(self):
        self.spans = []  # (name, start, end, parent index, run id)
        self.counts = defaultdict(float)  # (run id, key) -> total
        self.run = None
        self.sites = {}  # layer name -> rebound attribute paths
        self.missing = []
        self._stack = []
        self._undo = []

    def wrap(self, name, fn, count=None):
        """``fn`` recording a span per call.

        ``name`` may be a callable of the call's positional arguments.
        ``count(args, result)`` yields (key, amount) pairs: summed into
        the current run's counts, except ``*.mb_computed`` keys, which
        keep the largest single call.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name if isinstance(name, str) else name(args)
            stack = tracer._stack
            sid = len(tracer.spans)
            tracer.spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans[sid] = (label, start, end, parent, tracer.run)
            if count is not None:
                for key, amount in _safe(count, args, result):
                    slot = (tracer.run, key)
                    if key.endswith(".mb_computed"):  # a peak, not a total
                        tracer.counts[slot] = max(tracer.counts[slot], amount)
                    else:
                        tracer.counts[slot] += amount
            return result

        return traced

    def rebind_function(self, module, attr, name, count=None):
        """Wrap ``module.attr`` and every other binding of the same
        function in the loaded dreglab modules."""
        original = _resolve(module, attr)
        if original is None:
            self.missing.append(f"{module}.{attr}")
            return
        wrapped = self.wrap(name, original, count)
        sites = []
        for mod_name, mod in sorted(sys.modules.items()):
            if mod is None or mod_name.split(".")[0] != "dreglab":
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
                    self._undo.append((mod, key, original))
                    sites.append(f"{mod_name}.{key}")
        self.sites[name] = sites

    def rebind_method(self, module, path, name, count=None):
        """Wrap method ``Class.attr`` of ``module`` on its class."""
        cls_name, attr = path.split(".")
        cls = _resolve(module, cls_name)
        raw = None if cls is None else cls.__dict__.get(attr)
        if raw is None:
            self.missing.append(f"{module}.{path}")
            return
        if isinstance(raw, classmethod):
            wrapped = classmethod(self.wrap(name, raw.__func__, count))
        else:
            wrapped = self.wrap(name, raw, count)
        setattr(cls, attr, wrapped)
        self._undo.append((cls, attr, raw))
        layer = name if isinstance(name, str) else name.layer
        self.sites.setdefault(layer, []).append(f"{module}.{path}")

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def layer_values(self, run, wall_s):
        """Per-layer figures of one traced run whose CLI call took wall_s."""
        values = defaultdict(float)
        child = defaultdict(float)
        mine = [(sid, span) for sid, span in enumerate(self.spans)
                if span is not None and span[4] == run]
        for _, (_, start, end, parent, _) in mine:
            if parent >= 0:
                child[parent] += end - start
        self_sum = 0.0
        for sid, (name, start, end, _, _) in mine:
            own = (end - start) - child[sid]
            values[name + ".calls"] += 1
            values[name + ".self_s"] += own
            values[name + ".total_s"] += end - start
            self_sum += own
        for (count_run, key), amount in self.counts.items():
            if count_run == run:
                values[key] += amount
        for name in _PER_MKDRAW:
            mkdraws = values[name + ".kdraws"] / 1e6
            values[name + ".ms_per_mkdraw"] = (
                1e3 * values[name + ".self_s"] / mkdraws if mkdraws else 0.0)
        contexts = sum(values[name + ".calls"] for name in _CONTEXTS)
        for ratio, kernel in (("normalize_per_ctx", "normalized_log_weights"),
                              ("jvi1_coefficients_per_ctx",
                               "jvi1_coefficients")):
            calls = values[f"estimators.weights.{kernel}.calls"]
            values["estimators.weights." + ratio] = (
                calls / contexts if contexts else 0.0)
        values["unattributed.self_s"] = wall_s - self_sum
        return values

    def write_spans(self, path):
        with open(path, "w", encoding="ascii") as fh:
            fh.write("run,span,parent,name,start_s,end_s\n")
            for sid, span in enumerate(self.spans):
                if span is not None:
                    name, start, end, parent, run = span
                    fh.write(f"{run},{sid},{parent},{name},"
                             f"{start!r},{end!r}\n")


def median_layers(per_run):
    """Median over runs of every per-layer figure (absent reads 0)."""
    keys = set().union(*per_run) if per_run else set()
    return {key: statistics.median(run.get(key, 0.0) for run in per_run)
            for key in keys}


def _safe(count, args, result):
    # a count that no longer fits the program's types is dropped (it
    # reads 0), never raised into the program
    try:
        return list(count(args, result))
    except (AttributeError, IndexError, KeyError, TypeError, OSError):
        return []


def _resolve(module, attr):
    try:
        return getattr(importlib.import_module(module), attr, None)
    except ImportError:
        return None


def _kdraws(shape):
    return float(shape[0] * shape[1]) if len(shape) >= 2 else float(shape[0])


def _noise_count(args, result):
    yield "gaussian.noise_block.kdraws", _kdraws(result.shape)


def _toy_context_count(args, result):
    shape = result.lw.shape
    yield "models.toy.context.kdraws", _kdraws(shape)
    # arrays the context retains: z and dlw_dz (n, K, d) plus lw (n, K);
    # computed from shapes, not measured
    d = args[0].d
    yield ("models.toy.context.mb_computed",
           8.0 * shape[0] * shape[1] * (2 * d + 1) / 2**20)


def _rows_count(args, result):
    yield "diagnostics.moments.rows", float(result.n)


def _file_bytes(name, path_arg):
    def count(args, result):
        yield name + ".bytes", float(os.path.getsize(args[path_arg]))
    return count


def install(tracer, valid_n):
    """Rebind every traced layer; ``valid_n`` identifies held-out VAE
    contexts by their leading dimension."""
    tracer.sites.clear()
    tracer.missing.clear()
    fn = tracer.rebind_function
    meth = tracer.rebind_method
    fn("dreglab.gaussian", "noise_block", "gaussian.noise_block",
       _noise_count)
    fn("dreglab.gaussian", "stream_rng", "gaussian.stream_rng")
    meth("dreglab.models.toy", "Toy.weight_context", "models.toy.context",
         _toy_context_count)
    meth("dreglab.models.toy", "ToyContext.path", "models.toy.path")
    meth("dreglab.models.toy", "ToyContext.score", "models.toy.score")

    def vae_context_name(args):
        eval_ctx = len(args) > 3 and args[3].shape[0] == valid_n
        return "models.vae.context_eval" if eval_ctx else "models.vae.context"

    vae_context_name.layer = "models.vae.context"

    def vae_context_count(args, result):
        yield vae_context_name(args) + ".kdraws", _kdraws(result.lw.shape)

    meth("dreglab.models.vae", "Vae.weight_context", vae_context_name,
         vae_context_count)
    for method in ("dlw_dz", "path", "theta"):
        meth("dreglab.models.vae", "VaeContext." + method,
             "models.vae." + method)
    for kernel in WEIGHT_KERNELS:
        fn("dreglab.estimators.weights", kernel,
           "estimators.weights." + kernel)
    for rows in ("phi_rows", "theta_rows"):
        fn("dreglab.estimators.gradients", rows, "estimators.gradients." + rows)
    meth("dreglab.diagnostics", "RunningMoments.from_samples",
         "diagnostics.moments", _rows_count)
    meth("dreglab.diagnostics", "RunningMoments.merge", "diagnostics.moments")
    fn("dreglab.diagnostics", "reference_mean", "diagnostics.reference_mean")
    fn("dreglab.diagnostics", "t_test_from_moments", "diagnostics.t_test")
    meth("dreglab.diagnostics", "VarianceTraceEma.update",
         "diagnostics.trace_ema")
    meth("dreglab.training", "Adam.update", "training.adam")
    fn("dreglab.training", "train_model", "training.loop")
    for name in ("dynamic_binarize", "synthetic_dataset", "split"):
        fn("dreglab.data", name, "data." + name)
    fn("dreglab.cli", "write_csv", "cli.write_csv",
       _file_bytes("cli.write_csv", 0))
    fn("dreglab.models.params", "save_checkpoint",
       "models.params.save_checkpoint",
       _file_bytes("models.params.save_checkpoint", 1))
    for target in tracer.missing:
        sys.stderr.write(f"perfbench: {target} not found; its layer "
                         f"metrics read 0\n")
