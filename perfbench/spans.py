"""Span tracing for the traced benchmark run, and the per-layer metrics it yields.

Wrappers time calls into the public functions of each ``qusecnets`` module.
Each one is patched at the name its caller looks up (``model.quantize``,
``nn.conv_forward_batch``, ``Model.forward_batch``, ``serial.build_model``,
...), so nothing in the package itself changes. Spans keep name, start,
end, parent and a few counts in memory; they are written out when the run
ends. A span's self time is its duration minus the part of it that its
child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time
import weakref
from contextlib import contextmanager
from dataclasses import dataclass, field

# (name, unit, better). Every traced run reports all of them, 0 for a layer
# the workload leaves idle. "per op" means per workload operation: one train
# step for train_tq, one sweep for sweep_fgsm, one attacked image for
# jsma_cifar.
LAYER_METRICS = (
    [(f"nn.conv_forward_batch.conv{i}.self_ms", "ms", "lower") for i in range(3)]
    + [(f"nn.conv_backward_batch.conv{i}.self_ms", "ms", "lower") for i in range(3)]
    + [
        ("nn.conv_forward_batch.conv1.gflops", "GFLOP/s", "higher"),
        ("nn.conv_backward_batch.conv1.gflops", "GFLOP/s", "higher"),
        ("nn.BufferPool.allocs", "count", "lower"),
        ("nn.BufferPool.alloc_bytes", "bytes", "lower"),
        ("nn.BufferPool.peak_bytes", "bytes", "lower"),
        ("nn.softmax_batch.self_ms", "ms", "lower"),
        ("nn.sgd_update.self_ms", "ms", "lower"),
        ("quantize.update_thresholds.self_ms", "ms", "lower"),
        ("quantize.quantize.self_ms", "ms", "lower"),
        ("quantize.quantize_grad_input.self_ms", "ms", "lower"),
        ("model.forward_batch.self_ms", "ms", "lower"),
        ("model.backward_batch.self_ms", "ms", "lower"),
        ("model.loss_and_grad_batch.self_ms", "ms", "lower"),
        ("model.forward_batch.images", "count", "lower"),
        ("model.backward_batch.input_grad_rows", "count", "lower"),
        ("attacks.jsma.self_ms_per_iter", "ms", "lower"),
        ("attacks.jsma.iterations", "count", "lower"),
        ("attacks.jsma.success_ratio", "ratio", "higher"),
        ("evaluate.evaluate.self_ms", "ms", "lower"),
        ("evaluate.forward_images", "count", "lower"),
        ("model.predict.calls", "count", "lower"),
        ("serial.load_weights.self_ms", "ms", "lower"),
        ("serial.load_weights.build_model_ms", "ms", "lower"),
        ("attacks.fgsm_batch.self_ms", "ms", "lower"),
        ("sweep.sweep.self_ms", "ms", "lower"),
        ("sweep.cache_trained", "count", "lower"),
        ("trace.overhead_pct", "%", "lower"),
    ]
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    attrs: dict = field(default_factory=dict)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the union of its children's intervals within it."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        run_start = run_end = None
        for c in sorted(children.get(i, ()), key=lambda c: c.start):
            lo, hi = max(c.start, s.start), min(c.end, s.end)
            if hi <= lo:
                continue
            if run_end is None or lo > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = lo, hi
            else:
                run_end = max(run_end, hi)
        if run_end is not None:
            covered += run_end - run_start
        out.append((s.end - s.start) - covered)
    return out


def _arg(args, kwargs, index, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.pool_allocs = 0
        self.pool_alloc_bytes = 0
        self.pool_peak_bytes = 0
        self._pool_bufs: dict[tuple, tuple] = {}  # (pool id, key) -> (weakref, nbytes)
        self._patches = self._targets()

    # -- spans --------------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int):
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name, note=None):
        """Time fn as a span; name may depend on the call, note(attrs, args, kwargs, result)."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer._open(name(args, kwargs) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if note is not None:
                note(tracer.spans[idx].attrs, args, kwargs, result)
            return result

        return wrapper

    # -- BufferPool accounting ----------------------------------------------

    def _wrap_pool_get(self, fn):
        """Count BufferPool.get calls that hand out a new array, and the bytes pools hold.

        A slot's previous array is tracked by weak reference only, so the
        count needs nothing private from the pool and keeps no buffer alive.
        """
        tracer = self

        @functools.wraps(fn)
        def get(pool, key, shape):
            buf = fn(pool, key, shape)
            slot = (id(pool), key)
            seen = tracer._pool_bufs.get(slot)
            if seen is None or seen[0]() is not buf:
                tracer.pool_allocs += 1
                tracer.pool_alloc_bytes += buf.nbytes
                tracer._pool_bufs[slot] = (weakref.ref(buf), buf.nbytes)
            live = 0
            for s, (ref, nbytes) in list(tracer._pool_bufs.items()):
                if ref() is None:
                    del tracer._pool_bufs[s]
                else:
                    live += nbytes
            tracer.pool_peak_bytes = max(tracer.pool_peak_bytes, live)
            return buf

        return get

    # -- patch table --------------------------------------------------------

    def _targets(self):
        # the package re-exports a function named sweep, which shadows that
        # submodule as an attribute of qusecnets
        attacks, model, nn, serial, sweep = (
            importlib.import_module(f"qusecnets.{name}")
            for name in ("attacks", "model", "nn", "serial", "sweep"))

        def conv_fwd_name(args, kwargs):
            return "nn.conv_forward_batch." + _arg(args, kwargs, 4, "key", "conv")

        def conv_bwd_name(args, kwargs):
            return "nn.conv_backward_batch." + _arg(args, kwargs, 6, "key", "conv")

        def conv_fwd_note(attrs, args, kwargs, result):
            n, h, w, cin = args[0].shape
            k, _, _, cout = args[1].shape
            attrs["flops"] = 2 * n * (h - k + 1) * (w - k + 1) * k * k * cin * cout

        def conv_bwd_note(attrs, args, kwargs, result):
            m, kdim = args[0].shape
            cout = args[1].shape[3]
            gemms = 2 if _arg(args, kwargs, 4, "need_input", True) else 1
            attrs["flops"] = 2 * m * kdim * cout * gemms

        def forward_note(attrs, args, kwargs, result):
            attrs["images"] = len(args[1])

        def backward_note(attrs, args, kwargs, result):
            if _arg(args, kwargs, 4, "need_input_grad", False):
                attrs["input_grad_rows"] = len(args[2])

        def jsma_note(attrs, args, kwargs, result):
            attrs["iterations"] = result.iterations_used
            attrs["success"] = bool(result.success)

        def sweep_note(attrs, args, kwargs, result):
            attrs["trained"] = sum(1 for kind, _ in result.events if kind == "trained")

        w = self._wrap
        return [
            (nn, "conv_forward_batch", lambda f: w(f, conv_fwd_name, conv_fwd_note)),
            (nn, "conv_backward_batch", lambda f: w(f, conv_bwd_name, conv_bwd_note)),
            (nn, "softmax_batch", lambda f: w(f, "nn.softmax_batch")),
            (nn, "softmax_backward_batch", lambda f: w(f, "nn.softmax_backward_batch")),
            (nn, "sgd_update", lambda f: w(f, "nn.sgd_update")),
            (nn.BufferPool, "get", self._wrap_pool_get),
            (model, "quantize", lambda f: w(f, "quantize.quantize")),
            (model, "quantize_grad_input", lambda f: w(f, "quantize.quantize_grad_input")),
            (model, "update_thresholds", lambda f: w(f, "quantize.update_thresholds")),
            (model, "train", lambda f: w(f, "model.train")),
            (model.Model, "forward_batch", lambda f: w(f, "model.forward_batch", forward_note)),
            (model.Model, "backward_batch",
             lambda f: w(f, "model.backward_batch", backward_note)),
            (model.Model, "loss_and_grad_batch", lambda f: w(f, "model.loss_and_grad_batch")),
            (model.Model, "predict", lambda f: w(f, "model.predict")),
            (model.Model, "probability_jacobian", lambda f: w(f, "model.probability_jacobian")),
            (model.Model, "input_gradient_batch", lambda f: w(f, "model.input_gradient_batch")),
            (serial, "build_model", lambda f: w(f, "serial.build_model")),
            (attacks, "fgsm_batch", lambda f: w(f, "attacks.fgsm_batch")),
            (attacks, "jsma", lambda f: w(f, "attacks.jsma", jsma_note)),
            (attacks, "generate_batch", lambda f: w(f, "attacks.generate_batch")),
            (sweep, "load_weights", lambda f: w(f, "serial.load_weights")),
            (sweep, "generate_batch", lambda f: w(f, "attacks.generate_batch")),
            (sweep, "evaluate", lambda f: w(f, "evaluate.evaluate")),
            (sweep, "sweep", lambda f: w(f, "sweep.sweep", sweep_note)),
        ]

    @contextmanager
    def traced(self):
        """Patch every target for the duration of one operation, under a root "op" span."""
        originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in self._patches]
        for owner, attr, make in self._patches:
            setattr(owner, attr, make(owner.__dict__[attr]))
        idx = self._open("op")
        try:
            yield
        finally:
            self._close(idx)
            for owner, attr, fn in originals:
                setattr(owner, attr, fn)

    def dump(self) -> list:
        return [[s.name, s.start, s.end, s.parent, s.attrs] for s in self.spans]


def layer_metrics(tracer: Tracer, ops: int, overhead_pct: float) -> dict:
    """Every LAYER_METRICS value from the recorded spans; ops is the traced op count."""
    spans = tracer.spans
    selfs = self_times(spans)
    ops = max(ops, 1)
    self_s: dict[str, float] = {}
    dur_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    attr_sum: dict[str, float] = {}
    for s, own in zip(spans, selfs):
        self_s[s.name] = self_s.get(s.name, 0.0) + own
        dur_s[s.name] = dur_s.get(s.name, 0.0) + (s.end - s.start)
        calls[s.name] = calls.get(s.name, 0) + 1
        for key, value in s.attrs.items():
            k = f"{s.name}:{key}"
            attr_sum[k] = attr_sum.get(k, 0) + value

    def per_op_ms(name):
        return 1000.0 * self_s.get(name, 0.0) / ops

    def gflops(name):
        t = dur_s.get(name, 0.0)
        return attr_sum.get(f"{name}:flops", 0) / t / 1e9 if t > 0 else 0.0

    def under(i, ancestor):
        p = spans[i].parent
        while p is not None:
            if spans[p].name == ancestor:
                return True
            p = spans[p].parent
        return False

    eval_images = sum(s.attrs.get("images", 0) for i, s in enumerate(spans)
                      if s.name == "model.forward_batch" and under(i, "evaluate.evaluate"))
    build_in_load = sum(s.end - s.start for i, s in enumerate(spans)
                        if s.name == "serial.build_model" and under(i, "serial.load_weights"))
    jsma_calls = calls.get("attacks.jsma", 0)
    jsma_iters = attr_sum.get("attacks.jsma:iterations", 0)

    m = {}
    for i in range(3):
        m[f"nn.conv_forward_batch.conv{i}.self_ms"] = per_op_ms(f"nn.conv_forward_batch.conv{i}")
        m[f"nn.conv_backward_batch.conv{i}.self_ms"] = per_op_ms(f"nn.conv_backward_batch.conv{i}")
    m["nn.conv_forward_batch.conv1.gflops"] = gflops("nn.conv_forward_batch.conv1")
    m["nn.conv_backward_batch.conv1.gflops"] = gflops("nn.conv_backward_batch.conv1")
    m["nn.BufferPool.allocs"] = tracer.pool_allocs / ops
    m["nn.BufferPool.alloc_bytes"] = tracer.pool_alloc_bytes / ops
    m["nn.BufferPool.peak_bytes"] = float(tracer.pool_peak_bytes)
    for name in ("nn.softmax_batch", "nn.sgd_update", "quantize.update_thresholds",
                 "quantize.quantize", "quantize.quantize_grad_input",
                 "model.forward_batch", "model.backward_batch",
                 "model.loss_and_grad_batch", "evaluate.evaluate",
                 "serial.load_weights", "attacks.fgsm_batch", "sweep.sweep"):
        m[f"{name}.self_ms"] = per_op_ms(name)
    m["model.forward_batch.images"] = attr_sum.get("model.forward_batch:images", 0) / ops
    m["model.backward_batch.input_grad_rows"] = (
        attr_sum.get("model.backward_batch:input_grad_rows", 0) / ops)
    m["attacks.jsma.self_ms_per_iter"] = (
        1000.0 * self_s.get("attacks.jsma", 0.0) / jsma_iters if jsma_iters else 0.0)
    m["attacks.jsma.iterations"] = jsma_iters / jsma_calls if jsma_calls else 0.0
    m["attacks.jsma.success_ratio"] = (
        attr_sum.get("attacks.jsma:success", 0) / jsma_calls if jsma_calls else 0.0)
    m["evaluate.forward_images"] = eval_images / ops
    m["model.predict.calls"] = calls.get("model.predict", 0) / ops
    m["serial.load_weights.build_model_ms"] = 1000.0 * build_in_load / ops
    m["sweep.cache_trained"] = attr_sum.get("sweep.sweep:trained", 0) / ops
    m["trace.overhead_pct"] = overhead_pct
    return {name: {"value": m[name], "unit": unit} for name, unit, _ in LAYER_METRICS}


def overhead_pct(untraced_rates: list[float], traced_rates: list[float]) -> float:
    """How much faster the untraced operations ran than the traced ones, in percent."""
    return 100.0 * (statistics.median(untraced_rates) / statistics.median(traced_rates) - 1.0)
