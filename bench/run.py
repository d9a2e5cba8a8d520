"""Closed-loop benchmark of hassecones: one workload per invocation.

    python3 bench/run.py --workload minpoly_session --seed 1 --seconds 55 --trace 0

Run from the root of a checkout; the library is imported from `src/`.  One
caller issues each operation after the previous one returned, in this single
process.  The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`: with `--trace 0` the
end-to-end metrics, with `--trace 1` the per-layer metrics of a separate
traced run.  A human summary goes to standard error, and the result (plus,
when traced, every span) is written under `bench/results/`.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter, perf_counter_ns

import oracle
from spans import Tracer
from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
RESULTS_DIR = BENCH_DIR / "results"

LIBRARY_MODULES = ("cli", "gfpoly", "hasse", "intlinalg", "cones", "reduction", "strata", "profile", "carousel")
TRACE_PAIRS = 3
TAIL_PERCENTILES = (0.99, 0.95, 0.9, 0.75)


def load_library() -> dict:
    """Import hassecones afresh: drop every cached module, then import again."""
    for name in [m for m in sys.modules if m == "hassecones" or m.startswith("hassecones.")]:
        del sys.modules[name]
    gc.collect()
    lib = {}
    for short in LIBRARY_MODULES:
        try:
            lib[short] = importlib.import_module(f"hassecones.{short}")
        except ModuleNotFoundError as exc:
            if exc.name != f"hassecones.{short}":
                raise
    return lib


def tail_percentile(min_samples: int) -> float:
    """The highest listed percentile with at least ten samples beyond it."""
    for q in TAIL_PERCENTILES:
        if round(min_samples * (1 - q), 6) >= 10:
            return q
    raise ValueError(f"{min_samples} samples are too few for a tail")


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, -(-int(round(q * 10000)) * len(sorted_values) // 10000))
    return sorted_values[rank - 1]


class Runner:
    def __init__(self, workload_cls, seed: int):
        self.workload_cls = workload_cls
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: dict[tuple, bytes] = {}

    def setup(self) -> float:
        """Import, input generation and warm-up, repeated; returns the median time."""
        times = []
        for _ in range(self.workload_cls.setup_reps):
            self.lib = self.workload = None
            gc.collect()
            start = perf_counter()
            self.lib = load_library()
            self.workload = self.workload_cls(self.seed)
            self.workload.generate()
            self.workload.warm_up(self.lib)
            times.append(perf_counter() - start)
        gc.collect()
        return statistics.median(times)

    def one_pass(self, index: int, tracer: Tracer | None = None) -> list[int]:
        """Run every operation of pass `index`; returns the latencies in ns."""
        w = self.workload
        ops = w.pass_ops(index)
        latencies = []
        for position, op in enumerate(ops):
            if tracer is not None:
                tracer.begin_op()
            start = perf_counter_ns()
            try:
                output = w.run(self.lib, op)
            except Exception:  # a failing operation is counted, and the run goes on
                output = None
                if not self.failed:
                    traceback.print_exc()
            latencies.append(perf_counter_ns() - start)
            self.attempted += 1
            if output is None or w.failed(output):
                self.failed += 1
                continue
            if tracer is not None:
                w.trace_counts(tracer, op, output)
            self.verify(index if w.fresh_ops else 0, position, op, output)
        gc.collect()
        return latencies

    def verify(self, key_pass: int, position: int, op, output) -> None:
        """Check each distinct operation's first output; later repeats must be identical."""
        w = self.workload
        key = (key_pass, position)
        text = w.digest(output)
        if key in self.digests:
            if self.digests[key] != text:
                self.problems.append(f"{w.name}: pass output differs from the first pass at op {position}")
            return
        self.digests[key] = text
        try:
            w.check(op, output)
        except (oracle.CheckFailure, KeyError, TypeError, ValueError) as exc:
            self.problems.append(f"{w.name} op {position}: {type(exc).__name__}: {exc}")

    def measure(self, seconds: float):
        """Whole passes until `seconds` of operation time and min_passes are reached."""
        passes = []
        busy = 0
        while busy < seconds * 1e9 or len(passes) < self.workload.min_passes:
            passes.append(self.one_pass(len(passes)))
            busy += sum(passes[-1])
        return passes

    def measure_traced(self, tracer: Tracer):
        """TRACE_PAIRS pairs of an untraced and a traced pass, alternating."""
        untraced, traced = [], []
        for pair in range(TRACE_PAIRS):
            latencies = self.one_pass(2 * pair)
            untraced.append(len(latencies) / (sum(latencies) / 1e9))
            tracer.install()
            try:
                latencies = self.one_pass(2 * pair + 1, tracer)
            finally:
                tracer.uninstall()
            traced.append(len(latencies) / (sum(latencies) / 1e9))
        return statistics.median(untraced), statistics.median(traced)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC_DIR / "hassecones" / "__init__.py").is_file():
        print(f"error: no hassecones package under {SRC_DIR}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC_DIR))

    runner = Runner(WORKLOADS[args.workload], args.seed)
    setup_s = runner.setup()
    w = runner.workload

    if args.trace:
        tracer = Tracer(runner.lib)
        untraced, traced = runner.measure_traced(tracer)
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in tracer.per_layer().items()}
        metrics["trace.overhead_ops_per_s"] = {"value": traced - untraced, "unit": "1/s"}
        RESULTS_DIR.mkdir(exist_ok=True)
        tracer.write(RESULTS_DIR / f"spans-{w.name}-seed{args.seed}.json")
        detail = {}
        summary = f"traced {tracer.ops} ops, {len(tracer.spans)} spans; untraced {untraced:.2f} ops/s, traced {traced:.2f} ops/s"
    else:
        passes = runner.measure(args.seconds)
        rss = peak_rss_mb()
        # Every pass counts.  Other tenants of the shared machine slow it in
        # phases of seconds to minutes; a whole run averages over them better
        # than any subset of its passes (the faster half spread 17% between
        # runs of geometry_sweep where all passes spread 11%).
        samples = sorted(x for lat in passes for x in lat)
        q = tail_percentile(w.ops_per_pass * w.min_passes)
        metrics = {
            "ops_per_s": {"value": len(samples) / (sum(samples) / 1e9), "unit": "1/s"},
            "lat_p50_ms": {"value": statistics.median(samples) / 1e6, "unit": "ms"},
            "lat_tail_ms": {"value": percentile(samples, q) / 1e6, "unit": "ms"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": rss, "unit": "MB"},
        }
        detail = {"pass_latencies_ns": passes}
        rates = [round(len(lat) / (sum(lat) / 1e9), 1) for lat in passes]
        summary = f"{len(passes)} passes, {len(samples)} samples, tail = p{q * 100:g}, pass rates {rates}"

    for problem in runner.problems[:20]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(f"{w.name} seed {args.seed}: {summary}; setup {setup_s:.3f} s", file=sys.stderr)
    result = {
        "correct": not runner.problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    with open(RESULTS_DIR / f"result-{w.name}-seed{args.seed}-trace{args.trace}.json", "w", encoding="utf-8") as handle:
        json.dump(dict(result, **detail), handle)
    print(json.dumps(result))
    return 0


def pin_process_environment() -> None:
    """Re-execute once with fixed string hashing.

    String hashing is randomised per process, and the layout of the
    library's dicts and sets it decides moved ops_per_s of one input by 15%
    between processes (125 against 145 ops/s on a panel of `reduce` calls).
    The process replaces itself, so no child process is left to wait for.
    """
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable] + sys.orig_argv[1:])


if __name__ == "__main__":
    pin_process_environment()
    sys.exit(main())
