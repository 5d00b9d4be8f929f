#!/usr/bin/env python3
"""donlab benchmark: runs one workload and prints its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from `src/`. The
workload's inputs are built from the seed and set up several times (the
median is `setup_s`), then timed passes run for about S seconds (the median
is `wall_s`). Both are scaled to a nominal host speed; see `HostSpeed`.

With --trace 0 every pass is untraced, and the result holds the end-to-end
metrics listed in BENCHMARK.json. With --trace 1 untraced and traced passes
alternate; the result holds the per-layer metrics (medians over traced
passes) and the tracing overhead. A human-readable report goes first, with
every end-to-end metric (including the workload-specific throughputs and
`failed_frac`), the environment, output digests and recorded verdicts. The
last line of standard output is the JSON result.
"""

import time

_PROCESS_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
# At least two untraced passes per end-to-end run: a single long pass
# (suite-pair) leaves its host scaling to two kernel samples.
MIN_PASSES = 2
# One BLAS thread everywhere: the nets' matrices are tiny (256 x 31), and
# suite-pair already runs nproc worker threads, so worker threads x BLAS
# threads never exceeds nproc.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
WORKLOADS = ("train-cell", "gen-data", "suite-pair", "verify")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_program():
    """Import donlab from this checkout's src/, never from an installed copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import donlab

    if not Path(donlab.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"donlab imported from {donlab.__file__}, not from {src}")


def environment(workers: int) -> dict:
    import numpy
    import scipy

    cpu_model = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next(ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass

    def blas(mod):
        dep = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{dep['name']} {dep['version']}"

    return {
        "cores_online": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "blas_threads": {k: os.environ[k] for k in BLAS_ENV},
        "worker_threads": workers,
    }


def peak_rss_mib() -> float:
    """Peak RSS of this process plus that of its largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def blas_reference_gflops(repeats: int = 5, size: int = 512) -> float:
    """Achieved rate of a square float64 matmul, the BLAS ceiling on this machine."""
    import numpy as np

    a = np.random.default_rng(0).standard_normal((size, size))
    times = []
    for _ in range(repeats):
        t = time.perf_counter()
        a @ a
        times.append(time.perf_counter() - t)
    return 2.0 * size**3 / statistics.median(times) / 1e9


LAYER_UNITS = ((".calls", "count"), (".rows", "count"), (".bytes", "bytes"),
               ("_s", "s"), (".s", "s"), ("useful_ratio", "ratio"),
               ("parallel_efficiency", "ratio"), ("gflop_computed", "GFLOP"),
               ("gbyte_computed", "GB"), ("gflops", "GFLOP/s"), ("gflops_achieved", "GFLOP/s"))


def layer_unit(name: str) -> str:
    for suffix, unit in LAYER_UNITS:
        if name.endswith(suffix):
            return unit
    raise KeyError(f"no unit for layer metric {name}")


class HostSpeed:
    """Times a fixed reference kernel, to put times on a nominal host's scale.

    Other tenants of a shared host slow it by up to 2x for minutes at a time,
    which moves every time of a run together. The kernel (small numpy matmuls
    shaped like the nets' and a pure-Python float loop; no donlab code) runs
    before and after each timed section, and the section's time is scaled by
    NOMINAL_S over the mean of those two kernel times. Raw times stay in the
    report.
    """

    NOMINAL_S = 0.008

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self._np = np
        self._a = rng.standard_normal((256, 31))
        self._w = rng.standard_normal((31, 31))
        self.samples: list[float] = []

    def _once(self) -> float:
        np, a, w = self._np, self._a, self._w
        t = time.perf_counter()
        for _ in range(240):
            np.maximum(a @ w, 0.0)
        x = 0.0
        for i in range(32000):
            x += math.sin(i * 1e-3)
        return time.perf_counter() - t

    def sample(self) -> float:
        """Median of three kernel timings; also kept in `samples`."""
        ref = statistics.median(self._once() for _ in range(3))
        self.samples.append(ref)
        return ref

    def scale(self, raw_s: float, *refs: float) -> float:
        """`raw_s` on the nominal host, given kernel times taken around it."""
        return raw_s * self.NOMINAL_S / statistics.fmean(refs)


def measure(workload, seconds: float, trace: bool, tracer, host: HostSpeed):
    """Timed passes for about `seconds`; traced ones alternate when tracing.

    Another pass starts only while at least half a typical pass fits in the
    time left, so a run overshoots `seconds` by at most half a pass, unless
    it still lacks MIN_PASSES untraced passes (one traced and one untraced
    pass when tracing). Returns raw and host-scaled pass times, each keyed
    by whether the pass was traced, with the per-pass layer metrics and
    outcomes. A workload whose SCALE_PASSES is false gets its raw pass
    times as the scaled ones.
    """
    walls = {False: [], True: []}
    scaled = {False: [], True: []}
    layers, outcomes = [], []
    start = time.perf_counter()
    ref_before = host.sample()
    while True:
        tracing = trace and len(walls[False]) > len(walls[True])
        if tracing:
            tracer.reset()
            tracer.install()
        t = time.perf_counter()
        try:
            outcome = workload.run_pass()
        finally:
            wall = time.perf_counter() - t
            if tracing:
                tracer.uninstall()
        ref_after = host.sample()
        outcomes.append(outcome)
        if tracing:
            layers.append(tracer.metrics())
        walls[tracing].append(wall)
        scaled[tracing].append(
            host.scale(wall, ref_before, ref_after) if workload.SCALE_PASSES else wall)
        ref_before = ref_after
        typical = statistics.median(walls[False] + walls[True])
        enough = len(walls[trace]) >= (1 if trace else MIN_PASSES)
        if enough and time.perf_counter() - start + typical / 2 >= seconds:
            return walls, scaled, layers, outcomes


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    workers = len(os.sched_getaffinity(0))

    import_program()
    import workloads  # imports numpy and scipy, counted in the import time
    from tracing import Tracer

    import_raw_s = time.perf_counter() - _PROCESS_T0
    workload = workloads.make(args.workload, workers)
    host = HostSpeed()
    setup_refs = [host.sample()]

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    try:
        setup_raw, setup_scaled = [], []
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(workdir, ignore_errors=True)
            workdir.mkdir(parents=True)
            t = time.perf_counter()
            workload.setup(args.seed, workdir)
            setup_raw.append(time.perf_counter() - t)
            setup_refs.append(host.sample())
            setup_scaled.append(host.scale(setup_raw[-1], *setup_refs[-2:]))
        # one import to time, so scale it by every kernel time of the set-up
        import_s = host.scale(import_raw_s, *setup_refs)
        tracer = Tracer() if args.trace else None
        walls, scaled, layers, outcomes = measure(
            workload, args.seconds, bool(args.trace), tracer, host)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    # correctness: every check of every pass, plus one determinism check per
    # pass after the first (its output digests must equal the first pass's)
    first = outcomes[0]
    attempted = sum(o.attempted for o in outcomes) + len(outcomes) - 1
    failures = [name for o in outcomes for name in o.failed]
    failures += [f"nondeterministic_pass_{i}" for i, o in enumerate(outcomes[1:], 1)
                 if o.digests != first.digests]

    wall_s = statistics.median(scaled[False])
    e2e = {
        "setup_s": (import_s + statistics.median(setup_scaled), "s"),
        "wall_s": (wall_s, "s"),
        "peak_rss_mib": (peak_rss_mib(), "MiB"),
        "failed_frac": (len(failures) / attempted, "ratio"),
    }
    work = first.work
    if "train_samples" in work:
        e2e["train_samples_per_s"] = (work["train_samples"] / wall_s, "1/s")
    if "triples" in work:
        e2e["gen_triples_per_s"] = (work["triples"] / wall_s, "1/s")
    if "cells" in work:
        e2e["cells_per_min"] = (60.0 * work["cells"] / wall_s, "1/min")
    e2e["setup_raw_s"] = (import_raw_s + statistics.median(setup_raw), "s")
    e2e["wall_raw_s"] = (statistics.median(walls[False]), "s")
    e2e["host_ref_ms"] = (1e3 * statistics.median(host.samples), "ms")

    if args.trace:
        layer = {name: statistics.median(s.get(name, 0) for s in layers)
                 for name in set().union(*layers)}
        layer["trace.overhead_s"] = statistics.median(scaled[True]) - wall_s
        layer["nn.blas_ref_gflops"] = blas_reference_gflops()
        wanted = spec["per_layer"]
        values = {m["name"]: (layer.get(m["name"], 0), layer_unit(m["name"])) for m in wanted}
    else:
        wanted = spec["end_to_end"]
        values = e2e

    metrics = {}
    for m in wanted:
        value, unit = values[m["name"]]
        if unit != m["unit"]:
            raise SystemExit(f"metric {m['name']} is measured in {unit}, "
                             f"BENCHMARK.json says {m['unit']}")
        metrics[m["name"]] = {"value": value, "unit": unit}

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
        "pass_s": {"raw": walls[False], "scaled": scaled[False]},
        "traced_pass_s": {"raw": walls[True], "scaled": scaled[True]},
        "setup_body_s": {"raw": setup_raw, "scaled": setup_scaled},
        "import_s": {"raw": import_raw_s, "scaled": import_s},
        "failures": failures,
        "digests": first.digests,
        "info": first.info,
        "environment": environment(workers),
    }
    if args.trace:
        report["per_layer"] = dict(sorted(layer.items()))
    print(json.dumps(report, indent=1, default=str))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
