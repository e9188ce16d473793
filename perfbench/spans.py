"""Span tracer for the stormlens layers, installed from outside the package.

``Tracer.install()`` replaces every public function of each layer module
(and every alias of it in the other stormlens modules) with a wrapper that
records one span per call: name, layer, start, end, parent span and
thread. The same wrappers keep the counters (model rows, computed matmul
flops, CSV rows, plot bytes) at the boundary where the work happens.
``uninstall()`` puts the original functions back. Spans stay in memory
until ``take()`` hands them over; the benchmark summarises them and
writes them out when the run ends.

Each thread keeps its own span stack. A span opened on a worker thread
with an empty stack gets the innermost open span of the main thread as its
parent, which is the ``shapley.explain_set`` call that started the pool.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import threading
import time

import numpy as np

LAYERS = ("cli", "data", "model", "shapley", "numerics", "lime", "analysis", "plot")

# Explainers that attribute one window per call.
PER_WINDOW = ("exact_shapley", "kernel_shap", "gradient_shap")

_perf = time.perf_counter


class Span:
    __slots__ = ("name", "layer", "parent", "thread", "start", "end", "rows", "flop", "base", "nbytes")

    def __init__(self, name, layer, parent):
        self.name = name
        self.layer = layer
        self.parent = parent
        self.thread = threading.get_ident()
        self.start = self.end = 0.0
        self.rows = 0
        self.flop = 0
        self.base = False
        self.nbytes = 0


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def forward_flop(n: int, T: int, d: int, H: int) -> int:
    """Matmul flops of one forward pass, computed from the shapes.

    Per row and step: the gate projection (2*4H*(d+H)), the attention
    projection (2*H*H) and score (2*H); per row: the context sum (2*T*H)
    and the output head (2*H). Elementwise work is not counted.
    """
    per_row = T * (2 * 4 * H * (d + H) + 2 * H * H + 2 * H) + 2 * T * H + 2 * H
    return n * per_row


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()
        self._main_stack: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []
        self._explain: list[tuple[np.ndarray, np.ndarray]] = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            main = threading.current_thread() is threading.main_thread()
            stack = self._main_stack if main else []
            self._local.stack = stack
        return stack

    def _wrap(self, layer: str, name: str, fn):
        before = getattr(self, f"_before_{name}", None)
        after = getattr(self, f"_after_{name}", None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = self._main_stack[-1] if self._main_stack else None
            span = Span(name, layer, parent)
            if before is not None:
                before(span, args, kwargs)
            stack.append(span)
            result = None
            span.start = _perf()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                span.end = _perf()
                stack.pop()
                if after is not None:
                    after(span, result, args, kwargs)
                self.spans.append(span)

        return wrapper

    # counters kept at the wrapped boundaries

    def _before_forward_batch(self, span, args, kwargs):
        params = _arg(args, kwargs, 0, "params")
        X = np.asarray(_arg(args, kwargs, 1, "X"))
        if X.ndim != 3:
            return
        n, T, d = X.shape
        span.rows = n
        span.flop = forward_flop(n, T, d, params.hidden)
        if self._explain:
            windows, background = self._explain[-1]
            if X.shape == background.shape and np.may_share_memory(X, background):
                span.base = True
            elif n == 1 and np.may_share_memory(X, windows):
                span.base = True

    def _before_backward_batch(self, span, args, kwargs):
        span.rows = int(_arg(args, kwargs, 1, "cache")["X"].shape[0])

    def _before_explain_set(self, span, args, kwargs):
        windows = np.asarray(_arg(args, kwargs, 1, "windows"))
        background = np.asarray(_arg(args, kwargs, 2, "background"))
        self._explain.append((windows, background))

    def _after_explain_set(self, span, result, args, kwargs):
        self._explain.pop()

    def _after_load_csv(self, span, result, args, kwargs):
        span.rows = len(result) if result is not None else 0

    def _after_write_pair(self, span, result, args, kwargs):
        out_dir = _arg(args, kwargs, 0, "out_dir")
        for name in result or ():
            span.nbytes += os.path.getsize(os.path.join(out_dir, name))

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        modules = {
            layer: importlib.import_module(f"stormlens.{layer}") for layer in LAYERS
        }
        wrappers = {}
        for layer, module in modules.items():
            if layer == "cli":
                # Only the entry point: the cli layer's self time is what
                # main spends outside every other layer.
                names = ["main"]
            else:
                names = [
                    name
                    for name, obj in vars(module).items()
                    if not name.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                ]
            for name in names:
                original = getattr(module, name)
                wrappers[id(original)] = (original, self._wrap(layer, name, original))
        # Patch every alias, so `from .x import f` call sites are traced too.
        for module in modules.values():
            for attr, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((module, attr, obj))
                    setattr(module, attr, hit[1])

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def take(self) -> list[Span]:
        spans, self.spans = self.spans, []
        return spans


def records(spans: list[Span], cycle: int) -> list[dict]:
    """The spans as plain rows, parents given by index, for writing out."""
    index = {id(s): i for i, s in enumerate(spans)}
    return [
        {"cycle": cycle, "i": i, "name": f"{s.layer}.{s.name}", "start": s.start, "end": s.end,
         "parent": index.get(id(s.parent)), "thread": s.thread, "rows": s.rows}
        for i, s in enumerate(spans)
    ]


def _covered(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the part of it that child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(id(s.parent), []).append((s.start, s.end))
    out = {}
    for s in spans:
        kids = [
            (max(lo, s.start), min(hi, s.end))
            for lo, hi in children.get(id(s), ())
            if hi > s.start and lo < s.end
        ]
        out[id(s)] = (s.end - s.start) - _covered(kids)
    return out


def _has_ancestor(span: Span, test) -> bool:
    p = span.parent
    while p is not None:
        if test(p):
            return True
        p = p.parent
    return False


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def summarize(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced cycle, keyed as in BENCHMARK.json."""
    selfs = self_times(spans)

    def total_self(pred) -> float:
        return sum(selfs[id(s)] for s in spans if pred(s))

    def named(layer, *names):
        return [s for s in spans if s.layer == layer and s.name in names]

    m: dict[str, float] = {}
    layer_self = {layer: total_self(lambda s, l=layer: s.layer == l) for layer in LAYERS}
    m["cli.self_s"] = layer_self["cli"]

    loads = named("data", "load_csv")
    load_self = sum(selfs[id(s)] for s in loads)
    m["data.load_csv.calls"] = len(loads)
    m["data.load_csv.self_s"] = load_self
    m["data.ingest_rows_per_s"] = _ratio(sum(s.rows for s in loads), load_self)
    m["data.windowize.self_s"] = sum(selfs[id(s)] for s in named("data", "windowize"))

    fwd = named("model", "forward_batch")
    bwd = named("model", "backward_batch")
    fwd_rows = sum(s.rows for s in fwd)
    bwd_rows = sum(s.rows for s in bwd)
    fwd_self = sum(selfs[id(s)] for s in fwd)
    bwd_self = sum(selfs[id(s)] for s in bwd)
    m["model.forward.calls"] = len(fwd)
    m["model.forward.rows"] = fwd_rows
    m["model.forward.self_s"] = fwd_self
    m["model.forward.rows_per_s"] = _ratio(fwd_rows, fwd_self)
    m["model.forward.mean_batch"] = _ratio(fwd_rows, len(fwd))
    m["model.forward.gflop"] = sum(s.flop for s in fwd) / 1e9
    m["model.backward.calls"] = len(bwd)
    m["model.backward.rows"] = bwd_rows
    m["model.backward.self_s"] = bwd_self
    m["model.backward.rows_per_s"] = _ratio(bwd_rows, bwd_self)
    m["model.train.self_s"] = sum(selfs[id(s)] for s in named("model", "train"))
    m["model.checkpoint.self_s"] = sum(
        selfs[id(s)] for s in named("model", "save_checkpoint", "load_checkpoint")
    )

    passes = named("shapley", "explain_set")
    per_window = named("shapley", *PER_WINDOW)
    in_pass = [
        s for s in fwd + bwd
        if _has_ancestor(s, lambda p: p.layer == "shapley" and p.name == "explain_set")
    ]
    in_window = [
        s for s in in_pass
        if _has_ancestor(s, lambda p: p.layer == "shapley" and p.name in PER_WINDOW)
    ]
    pass_rows = sum(s.rows for s in in_pass)
    base_rows = sum(s.rows for s in in_pass if s.base)
    window_ms = sorted(1e3 * (s.end - s.start) for s in per_window)
    m["shapley.passes"] = len(passes)
    m["shapley.windows"] = len(per_window)
    m["shapley.self_s"] = layer_self["shapley"]
    m["shapley.ms_per_window.p50"] = _quantile(window_ms, 0.5)
    m["shapley.ms_per_window.p90"] = _quantile(window_ms, 0.9)
    m["shapley.rows_per_window"] = _ratio(sum(s.rows for s in in_window), len(per_window))
    m["shapley.base_rows"] = base_rows
    m["shapley.useful_row_ratio"] = _ratio(pass_rows - base_rows, pass_rows)

    wls = named("numerics", "weighted_least_squares")
    m["numerics.wls.calls"] = len(wls)
    m["numerics.wls.self_s"] = sum(selfs[id(s)] for s in wls)
    m["numerics.ridge.self_s"] = sum(selfs[id(s)] for s in named("numerics", "ridge_regression"))

    m["lime.self_s"] = layer_self["lime"]
    m["lime.rows"] = sum(s.rows for s in fwd if _has_ancestor(s, lambda p: p.layer == "lime"))
    m["analysis.self_s"] = layer_self["analysis"]

    pairs = named("plot", "write_pair")
    m["plot.calls"] = len(pairs)
    m["plot.self_s"] = layer_self["plot"]
    m["plot.bytes"] = sum(s.nbytes for s in pairs)
    return m


def _quantile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank quantile; 0.0 for an empty list."""
    if not sorted_values:
        return 0.0
    k = max(0, min(len(sorted_values) - 1, int(np.ceil(q * len(sorted_values))) - 1))
    return sorted_values[k]
