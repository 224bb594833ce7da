"""In-memory span tracer for the benchmark's traced run.

The tracer replaces module attributes with timing wrappers. A function is
wrapped at the binding its caller looks up: `from .model import objective`
inside `solver.py` copies the name, so the solver's calls are seen only
through `margfact.solver.objective`, not `margfact.model.objective`.
Each span is (name, start, end, parent index); spans stay in memory until
the run ends. Every replaced binding is restored on exit.
"""

import importlib
import time
from collections import defaultdict

import numpy as np

# (module, attribute, span name). The span name is `<layer>.<function>`,
# where the layer is the module that defines the function.
BINDINGS = (
    ("margfact.solver", "train", "solver.train"),
    ("margfact.evaluate", "train", "solver.train"),
    ("margfact.solver", "projected_step", "solver.projected_step"),
    ("margfact.solver", "objective", "model.objective"),
    ("margfact.solver", "gradient_block", "model.gradient_block"),
    ("margfact.model", "build_model", "model.build_model"),
    ("margfact.evaluate", "build_model", "model.build_model"),
    ("margfact.model", "project_patients", "model.project_patients"),
    ("margfact.evaluate", "project_patients", "model.project_patients"),
    ("margfact.model", "save_model", "model.save_model"),
    ("margfact.model", "load_model", "model.load_model"),
    ("margfact.model", "reconstruct_marginal", "tensor.reconstruct_marginal"),
    ("margfact.data_io", "reconstruct_marginal", "tensor.reconstruct_marginal"),
    ("margfact.model", "angular_penalty", "regularizers.angular_penalty"),
    ("margfact.model", "angular_penalty_grad", "regularizers.angular_penalty_grad"),
    ("margfact.model", "elastic_net", "regularizers.elastic_net"),
    ("margfact.likelihoods", "nll", "likelihoods.nll"),
    ("margfact.likelihoods", "nll_cells", "likelihoods.nll_cells"),
    ("margfact.likelihoods", "grad_nll_wrt_reconstruction", "likelihoods.grad"),
    ("margfact.likelihoods", "erf", "likelihoods.erf"),
    ("margfact.data_io", "load_observations", "data_io.load_observations"),
    ("margfact.data_io", "synth_generate", "data_io.synth_generate"),
    ("margfact.data_io", "save_observations", "data_io.save_observations"),
    ("margfact.evaluate", "five_fold_cv", "evaluate.five_fold_cv"),
    ("margfact.evaluate", "lasso_logistic_fit", "evaluate.lasso_logistic_fit"),
    ("margfact.evaluate", "auprc", "evaluate.auprc"),
    ("margfact.analysis", "extract_correspondence", "analysis.extract_correspondence"),
    ("margfact.analysis", "extract_phenotypes", "analysis.extract_phenotypes"),
    ("margfact.analysis", "cosine_similarity_metric", "analysis.metrics"),
    ("margfact.analysis", "jaccard_at_k", "analysis.metrics"),
    ("margfact.analysis", "sparsity", "analysis.metrics"),
)

SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name in BINDINGS))


def _count_cells(counts, key, array_arg):
    def on_return(args, kwargs, result):
        counts[key] += int(np.size(args[array_arg]))
    return on_return


def _on_projected_step(counts):
    def on_return(args, kwargs, result):
        counts["solver.accepted_steps"] += int(bool(result[2]))
    return on_return


def _on_train(counts):
    def on_return(args, kwargs, result):
        counts["solver.sweeps"] += int(result.sweeps_run)
    return on_return


def _on_load(counts):
    def on_return(args, kwargs, result):
        counts["data_io.triplets"] += sum(int(np.count_nonzero(o.values))
                                          for o in result.values())
    return on_return


class Tracer:
    """Context manager that wraps `bindings`, records spans and counts."""

    def __init__(self, bindings=BINDINGS):
        self.bindings = bindings
        self.spans = []   # [name, start, end, parent]; parent -1 at the top
        self.counts = defaultdict(int)
        self._stack = []
        self._saved = []

    def __enter__(self):
        hooks = {
            "likelihoods.nll_cells": _count_cells(self.counts, "likelihoods.cells", 2),
            "likelihoods.grad": _count_cells(self.counts, "likelihoods.cells", 2),
            "likelihoods.erf": _count_cells(self.counts, "likelihoods.erf.cells", 0),
            "solver.projected_step": _on_projected_step(self.counts),
            "solver.train": _on_train(self.counts),
            "data_io.load_observations": _on_load(self.counts),
        }
        try:
            for module_name, attr, name in self.bindings:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                self._saved.append((module, attr, original))
                setattr(module, attr, self._wrap(original, name, hooks.get(name)))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc):
        self._restore()
        return False

    def _restore(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _wrap(self, fn, name, on_return=None):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index][1] = start
                spans[index][2] = end
            if on_return is not None:
                on_return(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper


def self_times(spans):
    """Per-span self time: duration minus the durations of its direct children.

    Spans come from one thread, so children nest inside their parent and do
    not overlap each other.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    return [(end - start) - child_time[i] for i, (_, start, end, _) in enumerate(spans)]


def summarize(spans):
    """name -> {"calls", "s", "self_s"}.

    `s` counts only the outermost span of a name on each call path, so a
    function reached through another wrapped function of the same name is
    not counted twice.
    """
    self_s = self_times(spans)
    out = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
    for i, (name, start, end, parent) in enumerate(spans):
        entry = out[name]
        entry["calls"] += 1
        entry["self_s"] += self_s[i]
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            entry["s"] += end - start
    return dict(out)
