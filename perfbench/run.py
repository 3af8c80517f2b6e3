"""Benchmark for steercert: one workload per run, end-to-end or traced.

Run from the repository root:

    python3 perfbench/run.py --workload qtilde-ladder --seed 0 --seconds 10 --trace 0

The run builds the workload's inputs from the seed, warms the solver up, then
repeats whole passes over the workload's fixed item list until ``--seconds``
have gone by (at least one pass).  Set-up time is measured in fresh
interpreters before and after the passes.  Outputs are checked after each pass, outside the timed region.  With
``--trace 1`` untraced and traced passes alternate, and the run reports the
per-layer metrics of the traced passes and the tracing overhead.  The last
line of standard output is one JSON object; the lines before it give every
metric by name with its unit and the run's environment.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("qtilde-ladder", "lhs-blocks", "cli-mix")
#: Fresh interpreters started before the passes, and again after them.  The
#: median of both halves follows the host's speed over the whole run rather
#: than over the few seconds before it.
SETUP_REPEATS = 5

# Set-up ends when the CLI module is imported; the child prints the shared
# monotonic clock so the parent can count from just before it started it.
SETUP_CHILD = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); import steercert.cli; "
    "print(repr(time.monotonic()))"
)


def blas_threads() -> int:
    """Library default (one thread per core) capped at the cores this process may use."""
    return len(os.sched_getaffinity(0))


def measure_setup(env: dict[str, str]) -> list[float]:
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.monotonic()
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, SRC],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        times.append(float(done.stdout.strip()) - start)
    return times


def openblas_threads() -> dict[str, int]:
    """Thread counts reported by the OpenBLAS copies numpy and scipy loaded."""
    out = {}
    with open("/proc/self/maps", encoding="utf-8") as handle:
        paths = {line.split()[-1] for line in handle if "openblas" in line and ".so" in line}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[os.path.basename(path)] = int(fn())
                break
    return out


class PassResult:
    def __init__(self) -> None:
        self.wall = 0.0
        self.latencies: list[float] = []
        self.failed = 0
        self.iterations = 0
        self.checked = 0
        self.wrong: dict[str, list[str]] = {}
        self.spans: list = []


def run_pass(items, trace: bool) -> PassResult:
    from tracing import Probe

    result = PassResult()
    outputs = {}
    with Probe(trace=trace) as probe:
        start = time.perf_counter()
        for item in items:
            seen = len(probe.bad_statuses)
            t0 = time.perf_counter()
            try:
                out = item.run()
            except Exception:  # a raise, exit code 3 included, is a failed item
                out = None
            result.latencies.append(time.perf_counter() - t0)
            if out is None or len(probe.bad_statuses) > seen:
                result.failed += 1
            else:
                outputs[item.name] = out
        result.wall = time.perf_counter() - start
    result.spans = probe.spans
    result.iterations = probe.iterations
    for item in items:
        if item.name in outputs:
            result.checked += 1
            problems = item.check(outputs[item.name], outputs)
            if problems:
                result.wrong[item.name] = problems
    return result


def layer_metrics(passes: list[PassResult]) -> dict[str, tuple[float, str]]:
    """Per-pass averages of the traced passes' spans."""
    from tracing import self_times

    totals: dict[str, float] = {}

    def add(key: str, value: float) -> None:
        totals[key] = totals.get(key, 0.0) + value

    dense_a = 0.0
    for p in passes:
        selfs = self_times(p.spans)
        for span, own in zip(p.spans, selfs):
            layer = span.name.split(".")[0]
            add(f"{span.name}.s", span.seconds)
            add(f"{span.name}.calls", 1)
            add(f"{layer}.self_s", own)
            add(f"{span.name}.self_s", own)
            if span.name == "sdp.solve":
                add("sdp.solve.iterations", span.attrs["iterations"])
                add("sdp.solve.not_optimal", span.attrs["status"] != "optimal")
                for key in ("rows", "blocks", "svec_dim"):
                    add(f"sdp.{key}", span.attrs[key])
                dense_a = max(dense_a, span.attrs["dense_a_mb"])
    n = len(passes)
    get = lambda key: totals.get(key, 0.0) / n  # noqa: E731
    metrics = {
        "sdp.solve.s": (get("sdp.solve.s"), "s"),
        "sdp.solve.calls": (get("sdp.solve.calls"), "count"),
        "sdp.solve.iterations": (get("sdp.solve.iterations"), "count"),
        "sdp.solve.s_per_iteration": (
            get("sdp.solve.s") / get("sdp.solve.iterations") if get("sdp.solve.iterations") else 0.0,
            "s",
        ),
        "sdp.solve.not_optimal": (get("sdp.solve.not_optimal"), "count"),
        "sdp.rows": (get("sdp.rows"), "count"),
        "sdp.blocks": (get("sdp.blocks"), "count"),
        "sdp.svec_dim": (get("sdp.svec_dim"), "count"),
        "sdp.dense_a_mb": (dense_a, "MB"),
        "sdp.build.s": (get("sdp.build.s"), "s"),
        "sdp.phase1.self_s": (get("sdp.phase1.self_s"), "s"),
        "steering.self_s": (get("steering.self_s"), "s"),
    }
    for fn in ("lhs_bound", "lhs_membership", "ns_bound", "qtilde_solution", "qtilde_membership"):
        metrics[f"steering.{fn}.s"] = (get(f"steering.{fn}.s"), "s")
        metrics[f"steering.{fn}.calls"] = (get(f"steering.{fn}.calls"), "count")
    metrics["steering.residuals.s"] = (get("steering.residuals.s"), "s")
    metrics["cli.self_s"] = (get("cli.self_s"), "s")
    metrics["serialize.s"] = (get("serialize.s"), "s")
    for name in ("assemblages.validate", "assemblages.bell", "ptp.certificate", "ghjw.realize"):
        metrics[f"{name}.s"] = (get(f"{name}.s"), "s")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "steercert", "__init__.py")):
        print(f"error: no steercert sources under {SRC}", file=sys.stderr)
        return 2
    threads = blas_threads()
    # OpenBLAS reads its thread count when numpy loads, so set it first.
    os.environ["OPENBLAS_NUM_THREADS"] = str(threads)
    env = dict(os.environ)
    setup_times = measure_setup(env)

    sys.path.insert(0, SRC)
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import numpy as np
    import scipy

    import steercert
    from steercert import steering
    from workloads import WORKLOADS, workload_digest

    if not os.path.abspath(steercert.__file__).startswith(SRC + os.sep):
        print(f"error: steercert imported from {steercert.__file__}, not {SRC}", file=sys.stderr)
        return 2

    # Input files go to a directory of this run's own inside the checkout, so
    # runs started side by side in one checkout do not touch each other's.
    with tempfile.TemporaryDirectory(prefix=".perfbench_work-", dir=ROOT) as workdir:
        items = WORKLOADS[args.workload](args.seed, workdir)
        # Warm-up: lazy imports and cached index tables, on a tiny problem.
        steering.ns_bound(steering.canonical_functional())

        untraced: list[PassResult] = []
        traced: list[PassResult] = []
        start = time.perf_counter()
        while True:
            untraced.append(run_pass(items, trace=False))
            if args.trace:
                traced.append(run_pass(items, trace=True))
            if time.perf_counter() - start >= args.seconds:
                break
    setup_times += measure_setup(env)

    passes = untraced + traced
    attempted = len(items) * len(passes)
    failed = sum(p.failed for p in passes)
    checked = sum(p.checked for p in passes)
    wrong = [f"{name}: {'; '.join(problems)}" for p in passes for name, problems in p.wrong.items()]
    wall_s = statistics.median(p.wall for p in untraced)
    latencies = [t for p in untraced for t in p.latencies]

    if args.trace:
        metrics = layer_metrics(traced)
        traced_wall = statistics.median(p.wall for p in traced)
        metrics["trace.overhead_s"] = (traced_wall - wall_s, "s")
        metrics["trace.overhead_share"] = ((traced_wall - wall_s) / wall_s, "ratio")
    else:
        metrics = {
            "wall_s": (wall_s, "s"),
            "item_s.p90": (statistics.quantiles(latencies, n=10, method="inclusive")[8], "s"),
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "passes": len(untraced),
        "traced_passes": len(traced),
        "items_per_pass": len(items),
        "solver_iterations_per_pass": [p.iterations for p in untraced],
        "input_digest": workload_digest(items),
        "wrong_share": len(wrong) / checked if checked else 0.0,
        "failed_share": failed / attempted,
        "blas_threads_requested": threads,
        "blas_threads_reported": openblas_threads(),
        "nproc": threads,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version"),
    }
    print("info " + json.dumps(info, sort_keys=True))
    for problem in wrong[:20]:
        print(f"wrong {problem}")
    print(f"wrong_share {info['wrong_share']:.6g} ratio")
    print(f"failed_share {info['failed_share']:.6g} ratio")
    print(f"latency samples {len(latencies)}")
    # The median item latency is printed but not gated: see README.md.
    print(f"item_s.p50 {statistics.median(latencies):.6g} s")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": not wrong,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
