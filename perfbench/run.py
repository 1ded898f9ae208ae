"""The hvmodels benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout: the package is imported from `src/`
and the frozen oracles from `tests/oracles.py`.  One process, one
thread.  The last line of standard output is a JSON object with the
keys `correct`, `attempted`, `failed` and `metrics`: the end-to-end
metrics with `--trace 0`, the per-layer metrics with `--trace 1`.  The
line before it records the environment and the workload sizes.  See
perfbench/README.md for what each workload and metric means.
"""

import os
import sys

# leave no bytecode in the checkout: every set-up compiles from source
sys.dont_write_bytecode = True
# numpy's thread pools are sized when numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import queries  # noqa: E402
import spans  # noqa: E402
import sweeps  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = tuple(sweeps.SWEEPS) + ("queries",)
MIN_QUERIES = 1000        # a run's p99 needs at least this many queries
DEFAULT_SEED = 1729
WORK_ROOT = Path(".bench_build") / "hvm-bench"

END_TO_END = {"setup_s": "s", "sweep_s": "s", "query_ms.p50": "ms",
              "query_ms.p99": "ms", "peak_rss_mb": "MB"}


def load_package(root):
    """Import hvmodels from `root/src` and the oracles from
    `root/tests/oracles.py`, dropping any copy imported before so each
    call pays the whole import."""
    for mod in [m for m in sys.modules if m == "hvmodels" or m.startswith("hvmodels.")]:
        del sys.modules[mod]
    src = str(root / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    importlib.invalidate_caches()
    hv = importlib.import_module("hvmodels")
    importlib.import_module("hvmodels.cli")
    spec = importlib.util.spec_from_file_location(
        "hvbench_oracles", root / "tests" / "oracles.py")
    oracles = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracles)
    return hv, oracles


def set_up(root, workload, seed, workdir):
    hv, oracles = load_package(root)
    if workload == "queries":
        return queries.Queries(hv, oracles, seed, workdir, root / "fixtures")
    pinned = json.loads((BENCH_DIR / "pinned.json").read_text())
    return sweeps.SWEEPS[workload](hv, oracles, seed, pinned)


def percentile(passes, q):
    """The q-th percentile of the query latencies of all `passes`."""
    return float(np.percentile(np.concatenate([r.latencies_ms for r in passes]), q))


def timed_pass(work):
    gc.collect()
    t0 = time.perf_counter()
    res = work.run_pass()
    res.wall = time.perf_counter() - t0
    return res


def measure(work, seconds, resetup):
    """Untraced passes until `seconds` are spent and at least
    MIN_QUERIES queries are made.  A set-up runs after each pass, so the
    set-up times are sampled across the whole run, as the pass times
    are; it is discarded."""
    passes, setups = [], []
    t_end = time.perf_counter() + seconds
    while True:
        passes.append(timed_pass(work))
        setups.append(resetup())
        queries_done = sum(len(r.latencies_ms) for r in passes)
        next_wall = statistics.median(r.wall + s for r, s in zip(passes, setups))
        if time.perf_counter() + next_wall > t_end and queries_done >= MIN_QUERIES:
            return passes, setups


def measure_traced(work, seconds, tracer):
    """Untraced and traced passes in turn until `seconds` are spent, at
    least one of each; returns the passes and the per-layer metrics of
    each traced pass."""
    untraced, traced, layers = [], [], []
    t_end = time.perf_counter() + seconds
    while True:
        untraced.append(timed_pass(work))
        tracer.clear()
        tracer.install()
        work.tracer = tracer
        try:
            traced.append(timed_pass(work))
        finally:
            work.tracer = None
            tracer.uninstall()
        layers.append(tracer.layer_metrics())
        pair = statistics.median(u.wall + t.wall for u, t in zip(untraced, traced))
        if time.perf_counter() + pair > t_end:
            return untraced, traced, layers


def environment(args, work):
    cpu = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "sizes": work.sizes(),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    for needed in (root / "src" / "hvmodels" / "__init__.py",
                   root / "tests" / "oracles.py", root / "fixtures"):
        if not needed.exists():
            print(f"error: {needed} not found; run from the root of an "
                  "hvmodels checkout", file=sys.stderr)
            return 2
    workdir = WORK_ROOT / f"{args.workload}-{os.getpid()}"

    def resetup():
        t0 = time.perf_counter()
        set_up(root, args.workload, args.seed, workdir)
        return time.perf_counter() - t0

    try:
        t0 = time.perf_counter()
        work = set_up(root, args.workload, args.seed, workdir)
        setups = [time.perf_counter() - t0]
        work.write_inputs()
        gc.collect()
        gc.freeze()
        if args.trace:
            tracer = spans.Tracer(work.hv)
            untraced, traced, layers = measure_traced(work, args.seconds, tracer)
        else:
            untraced, more_setups = measure(work, args.seconds, resetup)
            setups += more_setups
            traced = []
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        attempted = sum(r.attempted for r in untraced + traced)
        failed = sum(r.failed for r in untraced + traced) + work.check_oracles()
        env = environment(args, work)
        if args.trace:
            metrics, exact_failed = layer_report(layers, untraced, traced)
            failed += exact_failed
            WORK_ROOT.mkdir(parents=True, exist_ok=True)
            tracer.save(WORK_ROOT / f"spans-{args.workload}-seed{args.seed}.npz", env)
        else:
            values = {
                "setup_s": statistics.median(setups),
                "sweep_s": statistics.median(r.sweep_s for r in untraced),
                "query_ms.p50": percentile(untraced, 50),
                "query_ms.p99": percentile(untraced, 99),
                "peak_rss_mb": peak_rss_mb,
            }
            metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
        env.update(passes=len(untraced), traced_passes=len(traced), setups=len(setups),
                   queries=sum(len(r.latencies_ms) for r in untraced),
                   failed_frac=failed / attempted)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"env": env}, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def layer_report(layers, untraced, traced):
    """Per-layer metrics: medians over the traced passes for times, the
    first traced pass for counts (a count that differs between traced
    passes is a failure), and the tracing overhead."""
    failed = 0
    metrics = {}
    units = dict({k: v[0] for k, v in spans.LAYER_METRICS.items()},
                 **{spans.STORE_SIZE: "count"})
    for name, unit in units.items():
        values = [m[name] for m in layers]
        if unit == "count":
            failed += sum(1 for v in values if v != values[0])
            value = values[0]
        else:
            value = statistics.median(values)
        metrics[name] = {"value": value, "unit": unit}
    metrics["trace.overhead_sweep_s"] = {
        "value": (statistics.median(r.sweep_s for r in traced)
                  - statistics.median(r.sweep_s for r in untraced)),
        "unit": "s"}
    metrics["trace.overhead_query_ms"] = {
        "value": percentile(traced, 50) - percentile(untraced, 50),
        "unit": "ms"}
    return metrics, failed


if __name__ == "__main__":
    sys.exit(main())
