"""Benchmark for hardy_lab: three seeded workloads timed from outside the library.

    python3 perfbench/run.py --workload rough_threshold --seed 1 --seconds 40 --trace 0

Run from the root of a checkout; the library is imported from its `src`
directory. One run pins BLAS to one thread, then repeats set-up, timed
workload and correctness checks until `--seconds` have passed (at least
twice; set-up at least three times). Each set-up builds fresh inputs and
warms up with a pass of the workload at the tiny size; setup_s is the import
time plus the median set-up. The checks run outside the timed part.

With --trace 0 it reports the end-to-end metrics: wall_ref, setup_s and
peak_rss_mb (set-up included). wall_ref is the median over the runs of the
timed part's wall time divided by the mean time of a fixed probe loop
sampled every 20 ms during that run (see speed.py): a time in units of the
probe, which follows a change of code but not a change of host speed. The
raw wall_s (least and median over the runs) is printed beside it and kept
in the details. With --trace 1 it alternates untraced and traced runs and
reports the per-layer metrics: the self time of the spans around each call
(least over the traced runs), the work counts, and the tracing overhead as
trace.overhead_s (median traced minus median untraced wall_s) and
trace.overhead_frac (the same ratio on wall_ref).

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. Above it are the environment, every metric
with its unit, failed_frac, and the scientific outputs; all of it, with the
spans, is also written to .bench_out/. Exit code 2 means the library source
is missing, 1 that set-up failed; neither prints a result.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter, process_time

ROOT = Path(__file__).resolve().parent.parent
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MIN_SETUPS = 3
MIN_RUNS = 2

END_TO_END_UNITS = {"wall_ref": "ref", "setup_s": "s", "peak_rss_mb": "MB"}


class SetupFailed(RuntimeError):
    pass


def pin_environment() -> None:
    """One BLAS thread and no library worker pool; must precede numpy."""
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was imported before BLAS threads were pinned")
    for var in BLAS_VARS:
        os.environ[var] = "1"
    os.environ.pop("HARDY_LAB_WORKERS", None)


def import_library() -> float:
    """Put the checkout's src on the path and import it; return the seconds taken."""
    src = ROOT / "src"
    if not (src / "hardy_lab" / "__init__.py").is_file():
        raise FileNotFoundError(f"no hardy_lab sources under {src}")
    sys.path.insert(0, str(src))
    t = perf_counter()
    import numpy  # noqa: F401
    import hardy_lab  # noqa: F401
    return perf_counter() - t


def _blas_threads() -> int | None:
    """Thread count reported by the loaded OpenBLAS, None if it is not found."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def environment(seed: int) -> dict:
    import numpy as np

    import hardy_lab as hl
    return {"python": platform.python_version(), "numpy": np.__version__,
            "hardy_lab": hl.__version__, "nproc": len(os.sched_getaffinity(0)),
            "cpu_model": _cpu_model(), "blas_threads": _blas_threads(),
            "blas_env": {v: os.environ.get(v) for v in BLAS_VARS},
            "HARDY_LAB_WORKERS": os.environ.get("HARDY_LAB_WORKERS"), "seed": seed}


def per_layer_units() -> dict:
    from workloads import COUNT_UNITS, SPAN_METRICS
    units = {m: "s" for m in SPAN_METRICS.values()}
    units.update(COUNT_UNITS)
    units["trace.overhead_s"] = "s"
    units["trace.overhead_frac"] = "ratio"
    return units


def measure(name: str, seed: int, seconds: float, trace: bool, size: str = "full",
            import_s: float = 0.0, workdir: Path = ROOT / ".bench_out") -> dict:
    """Set up, warm up and time one workload; returns the result and details."""
    from spans import Tracer, layer_times
    from speed import SpeedProbe
    from workloads import SIZES, SPAN_METRICS, WORKLOADS, OpFailed, Ops

    workload = WORKLOADS[name]
    tracer = Tracer(trace)
    ops = Ops(tracer)
    warm = Ops(Tracer(False))

    def set_up(traced: bool):
        """Fresh inputs plus a tiny warm-up pass; its time enters setup_s."""
        tracer.enabled = traced
        gc.collect()
        t = perf_counter()
        try:
            with tracer.span("setup"):
                inputs = workload.setup(seed, SIZES[size], ops, workdir)
                workload.run(workload.setup(seed, SIZES["tiny"], warm, workdir), warm, {})
        except OpFailed as exc:
            raise SetupFailed("; ".join(ops.errors + warm.errors)) from exc
        setup_times.append(perf_counter() - t)
        return inputs

    # Every timed run gets inputs of its own, so a cache the library fills
    # lazily on a covering is paid in each run's wall time, not hidden by
    # an earlier run.
    setup_times: list[float] = []
    runs: list[dict] = []
    start = perf_counter()
    while True:
        begun = perf_counter()
        traced = trace and sum(r["traced"] for r in runs) < len(runs) / 2  # untraced first
        tracer.run_id = f"run-{len(runs)}"
        inputs = set_up(traced)
        out: dict = {}
        gc.collect()
        with tracer.span("workload"):
            with SpeedProbe() as probe:
                t, cpu = perf_counter(), process_time()
                try:
                    workload.run(inputs, ops, out)
                except OpFailed:
                    pass
                wall, cpu = perf_counter() - t, process_time() - cpu
            with tracer.span("checks"):
                try:
                    for check, ok in workload.checks(inputs, out, ops):
                        ops.check(check, bool(ok))
                except OpFailed:
                    pass
        runs.append({"traced": traced, "wall_s": wall, "cpu_s": cpu,
                     "probe_s": probe.mean, "probes": len(probe.samples),
                     "wall_ref": wall / probe.mean})
        enough = len(runs) >= MIN_RUNS and (not trace or runs[-1]["traced"])
        now = perf_counter()
        if enough and now - start + (now - begun) > seconds:   # another would overrun
            break
    while len(setup_times) < MIN_SETUPS:
        tracer.run_id = f"setup-{len(setup_times)}"
        set_up(False)

    def med(key: str, traced: bool = False) -> float:
        return statistics.median(r[key] for r in runs if r["traced"] == traced)

    if trace:
        units = per_layer_units()
        metrics = dict.fromkeys(units, 0)
        metrics.update(layer_times(tracer.spans, SPAN_METRICS))
        metrics.update(workload.counts(inputs, out))
        metrics["trace.overhead_s"] = med("wall_s", True) - med("wall_s")
        metrics["trace.overhead_frac"] = med("wall_ref", True) / med("wall_ref") - 1.0
    else:
        units = END_TO_END_UNITS
        metrics = {"wall_ref": med("wall_ref"),
                   "setup_s": import_s + statistics.median(setup_times),
                   "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    attempted = ops.attempted + warm.attempted
    failed = ops.failed + warm.failed
    return {
        "result": {"correct": failed == 0, "attempted": attempted, "failed": failed,
                   "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()}},
        "failed_frac": failed / attempted,
        "wall_s": {"min": min(r["wall_s"] for r in runs), "median": med("wall_s")},
        "errors": ops.errors + warm.errors,
        "science": out,
        "runs": runs, "setup_times": setup_times, "import_s": import_s,
        "spans": tracer.spans,
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["rough_threshold", "demo_constants", "monte_carlo"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")

    pin_environment()
    try:
        import_s = import_library()
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    env = environment(args.seed)
    print("environment: " + json.dumps(env, sort_keys=True))
    try:
        res = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                      import_s=import_s)
    except SetupFailed as exc:
        print(f"error: set-up failed: {exc}", file=sys.stderr)
        return 1

    workdir = ROOT / ".bench_out"
    workdir.mkdir(exist_ok=True)
    detail = workdir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    detail.write_text(json.dumps({"environment": env, "workload": args.workload,
                                  **res}, indent=1, default=str) + "\n")
    for err in res["errors"]:
        print(f"error: {err}", file=sys.stderr)
    print("science: " + json.dumps(res["science"], sort_keys=True, default=str))
    for k, m in res["result"]["metrics"].items():
        print(f"{args.workload} {k} = {m['value']!r} {m['unit']}")
    for k, v in res["wall_s"].items():
        print(f"{args.workload} wall_s {k} = {v!r} s")
    traced = sum(r["traced"] for r in res["runs"])
    print(f"{args.workload} failed_frac = {res['failed_frac']!r} "
          f"({res['result']['failed']} of {res['result']['attempted']}); "
          f"runs {len(res['runs']) - traced} untraced, {traced} traced; "
          f"details in {detail.relative_to(ROOT)}")
    print(json.dumps(res["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
