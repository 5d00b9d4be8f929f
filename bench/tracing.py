"""Span tracer for donlab's public functions, installed from outside the package.

`Tracer.install()` replaces every public function of the traced modules (and
`Dataset.take`) with a wrapper, in every donlab module namespace that holds
it, so calls made through `from .x import f` aliases are timed too.
`uninstall()` puts the originals back, which leaves untraced passes with no
wrapper cost at all.

Each wrapper records a span: calls, inclusive seconds and self seconds
(inclusive minus the time of traced calls made inside it). Spans nest per
thread. A few functions also record counts taken from their arguments or
results (rows, file bytes, distinct configurations), from which the
derived layer metrics are computed in `Tracer.metrics()`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import threading
import time
from collections import Counter, defaultdict

TRACED_MODULES = ("nn", "deeponet", "datagen", "scaling", "bounds", "gradcheck", "cli")
PACKAGE_MODULES = ("donlab",) + tuple(f"donlab.{m}" for m in TRACED_MODULES)


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _file_bytes(*paths) -> int:
    return sum(os.path.getsize(p) for p in paths if p is not None and os.path.exists(p))


def _sidecar(path) -> str:
    return str(path) + ".meta.json"


class _ThreadStats:
    """Counters owned by one thread, merged when metrics are read."""

    def __init__(self):
        self.stack: list[float] = []  # per open span: seconds spent in traced children
        self.spans: dict[str, list] = {}  # name -> [calls, inclusive_s, self_s]
        self.sums: defaultdict[str, float] = defaultdict(float)
        self.keys: defaultdict[str, set] = defaultdict(set)
        self.shapes: Counter = Counter()  # (kind, layer_dims, rows) -> calls


# Hooks run after the span closes: (stats, span_s, args, kwargs, result) -> None.

def _hook_forward_batch(st, span_s, args, kwargs, result):
    params = _arg(args, kwargs, 0, "params")
    rows = len(_arg(args, kwargs, 1, "x"))
    st.sums["nn.forward_batch.rows"] += rows
    st.shapes[("forward", params.spec.layer_dims, rows)] += 1


def _hook_backward_batch(st, span_s, args, kwargs, result):
    params = _arg(args, kwargs, 0, "params")
    rows = len(_arg(args, kwargs, 1, "x"))
    st.shapes[("backward", params.spec.layer_dims, rows)] += 1


def _hook_save_checkpoint(st, span_s, args, kwargs, result):
    st.sums["deeponet.save_checkpoint.bytes"] += _file_bytes(_arg(args, kwargs, 1, "path"))


def _hook_write_csv(st, span_s, args, kwargs, result):
    path = _arg(args, kwargs, 1, "path")
    st.sums["datagen.write_dataset_csv.bytes"] += _file_bytes(path, _sidecar(path))


def _hook_read_csv(st, span_s, args, kwargs, result):
    path = _arg(args, kwargs, 0, "path")
    st.sums["datagen.read_dataset_csv.bytes"] += _file_bytes(path, _sidecar(path))


def _hook_emit_plot_data(st, span_s, args, kwargs, result):
    st.sums["scaling.emit_plot_data.bytes"] += _file_bytes(*result)


def _hook_grf_cholesky(st, span_s, args, kwargs, result):
    cfg = _arg(args, kwargs, 0, "config")
    st.keys["datagen.grf_cholesky"].add((cfg.grid.tobytes(), cfg.length_scale, cfg.jitter))


def _hook_build_cell_dataset(st, span_s, args, kwargs, result):
    # the cell seed is [seed, q, n], so it carries the whole (seed, q, n) identity
    seed = _arg(args, kwargs, 2, "seed")
    n = _arg(args, kwargs, 1, "n")
    st.keys["scaling.build_cell_dataset"].add((repr(seed), n))


def _hook_run_suite(st, span_s, args, kwargs, result):
    workers = _arg(args, kwargs, 1, "max_workers", 1)
    # worker-seconds offered to the suite: its span times its worker count
    st.sums["scaling.run_suite.worker_s"] += workers * span_s


# Spans that also record the calling thread's CPU seconds: a suite worker
# blocked on the interpreter lock is busy by the wall clock but not by this.
CPU_TIMED = {"scaling.run_cell"}

HOOKS = {
    "nn.forward_batch": _hook_forward_batch,
    "nn.backward_batch": _hook_backward_batch,
    "deeponet.save_checkpoint": _hook_save_checkpoint,
    "datagen.write_dataset_csv": _hook_write_csv,
    "datagen.read_dataset_csv": _hook_read_csv,
    "scaling.emit_plot_data": _hook_emit_plot_data,
    "datagen.grf_cholesky": _hook_grf_cholesky,
    "scaling.build_cell_dataset": _hook_build_cell_dataset,
    "scaling.run_suite": _hook_run_suite,
}


def layer_flops_bytes(kind: str, dims: tuple, rows: int) -> tuple[int, int]:
    """Computed (not measured) FLOPs and bytes of one dense-net call.

    Counts the matmul and bias terms only, not activations. forward reads
    each layer's input, weights and bias and writes z and the activation;
    backward_batch repeats that forward pass, then per layer forms the
    weight gradient (delta^T a), the bias gradient, and, below the top
    layer, the propagated delta (delta W).
    """
    flops = 0
    words = 0
    for i in range(len(dims) - 1):
        d_in, d_out = dims[i], dims[i + 1]
        flops += 2 * rows * d_in * d_out + rows * d_out
        words += rows * d_in + d_in * d_out + d_out + 2 * rows * d_out
        if kind == "backward":
            flops += 2 * rows * d_in * d_out + rows * d_out
            words += rows * d_out + rows * d_in + d_in * d_out + d_out
            if i > 0:
                flops += 2 * rows * d_in * d_out
                words += d_in * d_out + 2 * rows * d_in
    return flops, 8 * words


class Tracer:
    """Installs span-recording wrappers and turns their records into metrics."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[_ThreadStats] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _stats(self) -> _ThreadStats:
        st = getattr(self._local, "stats", None)
        if st is None:
            st = self._local.stats = _ThreadStats()
            with self._lock:
                self._threads.append(st)
        return st

    def _wrap(self, name: str, fn):
        stats_of = self._stats
        hook = HOOKS.get(name)
        clock = time.perf_counter
        cpu_key = f"{name}.cpu_s" if name in CPU_TIMED else None
        cpu_clock = time.thread_time

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            st = stats_of()
            st.stack.append(0.0)
            if cpu_key:
                cpu0 = cpu_clock()
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                if cpu_key:
                    st.sums[cpu_key] += cpu_clock() - cpu0
                child = st.stack.pop()
                if st.stack:
                    st.stack[-1] += dt
                rec = st.spans.get(name)
                if rec is None:
                    rec = st.spans[name] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - child
            if hook is not None:
                hook(st, dt, args, kwargs, result)
            return result

        return traced

    def reset(self) -> None:
        with self._lock:
            self._threads = []
        self._local = threading.local()

    def install(self) -> None:
        from donlab.deeponet import Dataset

        wrappers: dict[int, object] = {}
        for short in TRACED_MODULES:
            mod = importlib.import_module(f"donlab.{short}")
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrappers[id(obj)] = self._wrap(f"{short}.{attr}", obj)
        for mod_name in PACKAGE_MODULES:
            mod = importlib.import_module(mod_name)
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[id(obj)])
        take = Dataset.take
        self._patches.append((Dataset, "take", take))
        Dataset.take = self._wrap("deeponet.Dataset.take", take)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # -- reading -----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Flat `<module>.<function>.<stat>` values for everything recorded."""
        spans: dict[str, list] = {}
        sums: defaultdict[str, float] = defaultdict(float)
        keys: defaultdict[str, set] = defaultdict(set)
        shapes: Counter = Counter()
        with self._lock:
            threads = list(self._threads)
        for st in threads:
            for name, (calls, incl, self_s) in st.spans.items():
                rec = spans.setdefault(name, [0, 0.0, 0.0])
                rec[0] += calls
                rec[1] += incl
                rec[2] += self_s
            for k, v in st.sums.items():
                sums[k] += v
            for k, v in st.keys.items():
                keys[k] |= v
            shapes.update(st.shapes)

        out: dict[str, float] = {}
        for name, (calls, incl, self_s) in spans.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.s"] = incl
            out[f"{name}.self_s"] = self_s
        out.update(sums)

        def get(key):
            return out.get(key, 0)

        flops = words = 0
        for (kind, dims, rows), calls in shapes.items():
            f, b = layer_flops_bytes(kind, dims, rows)
            flops += calls * f
            words += calls * b
        out["nn.gflop_computed"] = flops / 1e9
        out["nn.gbyte_computed"] = words / 1e9
        busy = get("nn.forward_batch.self_s") + get("nn.backward_batch.self_s")
        out["nn.gflops_achieved"] = flops / 1e9 / busy if busy > 0 else 0.0
        for name in ("datagen.grf_cholesky", "scaling.build_cell_dataset"):
            calls = get(f"{name}.calls")
            # no calls means no wasted work
            out[f"{name}.useful_ratio"] = len(keys[name]) / calls if calls else 1.0
        # CPU seconds the cells used over the worker-seconds the suites offered
        offered = get("scaling.run_suite.worker_s")
        out["scaling.run_suite.parallel_efficiency"] = (
            get("scaling.run_cell.cpu_s") / offered if offered > 0 else 0.0
        )
        return out
