"""Spans recorded around the package's public functions, and the per-layer metrics.

The tracer wraps module attributes from outside the package: the package
source is never edited.  Each call of a wrapped function appends one span
``[name, start, end, parent, attrs]`` to an in-memory list; ``parent`` is the
index of the enclosing span (-1 at top level) and ``attrs`` holds exact
counts taken from the call's argument shapes.  The list is written once, when
the traced process ends, and ``layer_metrics`` turns it into the per-layer
metrics named in ``BENCHMARK.json``.

This module imports nothing outside the standard library, so the benchmark's
driver can aggregate spans without loading numpy.
"""

from __future__ import annotations

import functools
import os
import statistics
import time

# Layer -> functions traced in that module.  Span names are "<layer>.<name>".
TRACED = {
    "core": ("forward", "activation_apply"),
    "modulation": ("output_error", "modulate_input"),
    "trainer": (
        "train",
        "evaluate",
        "modulated_forward",
        "two_pass_updates",
        "backprop_updates",
        "apply_updates",
    ),
    "colsplit": ("colsplit_train", "colsplit_evaluate", "compose", "columnize"),
    "photonic": ("realize_weight", "clements_decompose", "transfer_matrix"),
    "data": ("load_mnist", "load_idx"),
    "harness": ("run_experiment", "emit_metrics"),
}
# MeshBackend methods, traced under these span names.
TRACED_METHODS = {"refresh": "photonic.refresh", "forward": "photonic.backend_forward"}


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _train_attrs(args, kwargs):
    """Exact matrix-product MACs of one full batch step, from layer shapes.

    A pass costs sum(out*in) MACs per sample.  Two-pass runs two passes, the
    projection F @ gamma (in_0 * out_L) and one outer product per layer;
    backprop runs one pass, W.T @ delta for every layer but the first, and
    one outer product per layer.  Photonic forwards use realized matrices of
    the same shapes and count the same.
    """
    net = _arg(args, kwargs, 0, "net")
    cfg = _arg(args, kwargs, 3, "cfg")
    sizes = [layer.weight.size for layer in net.layers]
    per_sample = 2 * sum(sizes) + net.in_dim * net.out_dim
    if getattr(cfg.algorithm, "value", cfg.algorithm) == "backprop":
        per_sample = 2 * sum(sizes) + sum(sizes[1:])
    stage1 = net.layers[0]
    mask = getattr(stage1, "mask", None)
    return {
        "macs_per_step": per_sample * cfg.batch_size,
        "stage1_entries": stage1.weight.size,
        "stage1_bytes": stage1.weight.nbytes + (0 if mask is None else mask.nbytes),
    }


def _colsplit_train_attrs(args, kwargs):
    colnet = _arg(args, kwargs, 0, "net")
    side = len(colnet.column_nets)
    return {"useful_entries": side * colnet.column_out * side}


def _realize_attrs(args, kwargs):
    rows, cols = _arg(args, kwargs, 0, "w").shape
    return {"used_modes": 2 * min(rows, cols)}


def _clements_attrs(args, kwargs):
    n = _arg(args, kwargs, 0, "u").shape[0]
    return {"modes": n, "mzis": n * (n - 1) // 2}


def _load_idx_attrs(args, kwargs):
    return {"bytes": os.stat(_arg(args, kwargs, 0, "path")).st_size}


ATTRS = {
    "trainer.train": _train_attrs,
    "colsplit.colsplit_train": _colsplit_train_attrs,
    "photonic.realize_weight": _realize_attrs,
    "photonic.clements_decompose": _clements_attrs,
    "data.load_idx": _load_idx_attrs,
}


class Tracer:
    """In-memory span recorder for a single-threaded program."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name, fn):
        attrs = ATTRS.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            if attrs is not None:
                span[4] = attrs(args, kwargs)
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def install(self, package_modules: dict) -> None:
        """Replace every traced function, under every name any module binds it to.

        ``package_modules`` maps a layer name to its imported module, plus any
        other module (such as the package itself) that re-exports names.
        Functions a later version of the package no longer has are skipped.
        """
        replacements = {}
        for layer, names in TRACED.items():
            module = package_modules[layer]
            for name in names:
                fn = getattr(module, name, None)
                if callable(fn):
                    replacements[id(fn)] = (fn, self.wrap(f"{layer}.{name}", fn))
        for module in package_modules.values():
            for attr, value in list(vars(module).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
        backend = getattr(package_modules["photonic"], "MeshBackend", None)
        if backend is not None:
            for method, span_name in TRACED_METHODS.items():
                setattr(backend, method, self.wrap(span_name, getattr(backend, method)))


# Direct children of the train span, by stage.  A forward pass that directly
# follows modulate_input is the modulated pass; any other is the clean pass.
_PASSES = {"core.forward", "photonic.backend_forward"}
_STAGE_OF = {
    "trainer.modulated_forward": "modulated_pass",
    "modulation.output_error": "modulation",
    "modulation.modulate_input": "modulation",
    "trainer.two_pass_updates": "update",
    "trainer.backprop_updates": "update",
    "trainer.apply_updates": "apply",
    "photonic.refresh": "refresh",
}
STAGES = ("clean_pass", "modulation", "modulated_pass", "update", "apply", "refresh", "other")


def percentile(values, q):
    """Linear-interpolated q-th percentile (0..100) of a non-empty list."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def layer_metrics(spans: list) -> dict:
    """Per-layer metrics of one traced invocation, keyed by metric name.

    Times are in ms and summed over the invocation; a layer that did no work
    reports 0.  Self time is a span's duration minus its children's.
    """
    n = len(spans)
    child_sum = [0.0] * n
    children = [[] for _ in range(n)]
    for i, (_, start, end, parent, _) in enumerate(spans):
        if parent >= 0:
            child_sum[parent] += end - start
            children[parent].append(i)
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    for i, (name, start, end, _, _) in enumerate(spans):
        self_s[name] = self_s.get(name, 0.0) + (end - start - child_sum[i])
        calls[name] = calls.get(name, 0) + 1

    def self_ms(name):
        return 1e3 * self_s.get(name, 0.0)

    def attr_sum(name, key):
        return sum(s[4][key] for s in spans if s[0] == name and s[4])

    stage_s = dict.fromkeys(STAGES, 0.0)
    step_ms: list[float] = []
    macs_per_step = stage1_entries = stage1_bytes = 0
    trains = [i for i, s in enumerate(spans) if s[0] == "trainer.train"]
    for t in trains:
        _, t_start, t_end, _, attrs = spans[t]
        macs_per_step = attrs["macs_per_step"]
        stage1_entries, stage1_bytes = attrs["stage1_entries"], attrs["stage1_bytes"]
        local = dict.fromkeys(STAGES, 0.0)
        step_starts = []
        previous = None
        for c in children[t]:
            name, start, end, _, _ = spans[c]
            if name in _PASSES:
                after_modulation = previous == "modulation.modulate_input"
                stage = "modulated_pass" if after_modulation else "clean_pass"
            else:
                stage = _STAGE_OF.get(name, "other")
            if stage == "clean_pass":
                step_starts.append(start)
            local[stage] += end - start
            previous = name
        local["other"] = (t_end - t_start) - sum(local[s] for s in STAGES[:-1])
        for stage in STAGES:
            stage_s[stage] += local[stage]
        bounds = step_starts + [t_end]
        step_ms += [1e3 * (b - a) for a, b in zip(bounds, bounds[1:])]

    metrics = {
        "core.forward.calls": (calls.get("core.forward", 0), "count"),
        "core.forward.self_ms": (self_ms("core.forward"), "ms"),
        "core.activation_apply.self_ms": (self_ms("core.activation_apply"), "ms"),
        "modulation.output_error.self_ms": (self_ms("modulation.output_error"), "ms"),
        "modulation.modulate_input.self_ms": (self_ms("modulation.modulate_input"), "ms"),
    }
    for stage in STAGES:
        metrics[f"trainer.stage.{stage}_ms"] = (1e3 * stage_s[stage], "ms")
    metrics.update(
        {
            "trainer.steps": (len(step_ms), "count"),
            "trainer.step_ms.p50": (percentile(step_ms, 50) if step_ms else 0.0, "ms"),
            "trainer.step_ms.p99": (percentile(step_ms, 99) if step_ms else 0.0, "ms"),
            "trainer.evaluate.self_ms": (self_ms("trainer.evaluate"), "ms"),
            "trainer.macs_per_step": (macs_per_step, "MAC"),
        }
    )
    useful = attr_sum("colsplit.colsplit_train", "useful_entries")
    colsplit_ran = useful > 0 and stage1_entries > 0
    metrics.update(
        {
            "colsplit.compose.self_ms": (self_ms("colsplit.compose"), "ms"),
            "colsplit.columnize.self_ms": (self_ms("colsplit.columnize"), "ms"),
            "colsplit.extract_ms": (self_ms("colsplit.colsplit_train"), "ms"),
            "colsplit.stage1_useful_mac_ratio": (
                useful / stage1_entries if colsplit_ran else 0.0,
                "ratio",
            ),
            "colsplit.stage1_weight_bytes": (stage1_bytes if colsplit_ran else 0, "bytes"),
        }
    )
    refreshes = calls.get("photonic.refresh", 0)
    modes = attr_sum("photonic.clements_decompose", "modes")
    metrics.update(
        {
            "photonic.refresh.calls": (refreshes, "count"),
            "photonic.refresh.self_ms": (self_ms("photonic.refresh"), "ms"),
            "photonic.realize_weight.self_ms": (self_ms("photonic.realize_weight"), "ms"),
            "photonic.clements_decompose.calls": (
                calls.get("photonic.clements_decompose", 0),
                "count",
            ),
            "photonic.clements_decompose.self_ms": (
                self_ms("photonic.clements_decompose"),
                "ms",
            ),
            "photonic.transfer_matrix.self_ms": (self_ms("photonic.transfer_matrix"), "ms"),
            "photonic.backend_forward.self_ms": (self_ms("photonic.backend_forward"), "ms"),
            "photonic.mzis_per_refresh": (
                attr_sum("photonic.clements_decompose", "mzis") / refreshes if refreshes else 0.0,
                "count",
            ),
            "photonic.useful_mode_ratio": (
                attr_sum("photonic.realize_weight", "used_modes") / modes if modes else 0.0,
                "ratio",
            ),
            "data.load_mnist.self_ms": (self_ms("data.load_mnist"), "ms"),
            "data.load_idx.bytes": (attr_sum("data.load_idx", "bytes"), "bytes"),
            "harness.run_experiment.self_ms": (self_ms("harness.run_experiment"), "ms"),
            "harness.emit_metrics.self_ms": (self_ms("harness.emit_metrics"), "ms"),
        }
    )
    return metrics


# Metrics computed from argument shapes; they must repeat exactly.
EXACT_COUNTS = (
    "trainer.steps",
    "trainer.macs_per_step",
    "core.forward.calls",
    "photonic.refresh.calls",
    "photonic.clements_decompose.calls",
    "colsplit.stage1_useful_mac_ratio",
    "colsplit.stage1_weight_bytes",
    "photonic.mzis_per_refresh",
    "photonic.useful_mode_ratio",
    "data.load_idx.bytes",
)


def median_metrics(per_invocation: list[dict]) -> dict:
    """Lower median of each metric over several invocations, keeping its unit.

    The lower median is an observed value, so exact counts stay integers.
    """
    return {
        name: (statistics.median_low(m[name][0] for m in per_invocation), unit)
        for name, (_, unit) in per_invocation[0].items()
    }
