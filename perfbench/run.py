"""bipsched benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S] [--trace 0|1]

Run from a checkout: the program is imported from ``src/`` next to this
directory, and the run fails (exit 2, no result) when it is not there.

One process, one client, closed loop: the next operation starts when the
previous one returns; no threads or worker processes. Workloads and the
reason for each are in BENCHMARK.json and workloads.py.

--trace 0 sets up the workload SETUP_REPEATS times (setup_s is the median of
import time, measured in a fresh interpreter, plus input generation), runs
operations for S seconds, runs the CLI parity self-checks and prints the
end-to-end metrics. ops_per_s is wall clock. op_cpu_p50_ms and op_cpu_p90_ms
are percentiles of each op's CPU time: the process is single-threaded and
the only client, and on a shared virtual machine wall-clock latency is moved
by scheduling delays and steal, not by the program. peak_rss_mb is this
process's getrusage peak, so every run is a fresh process.

--trace 1 prints the per-layer metrics instead: an untraced pass of S/2
seconds, a traced pass over a fixed number of operations (the same operations
for the same seed, so a layer's self seconds compare across commits), and a
tracemalloc pass of its own for the memory peaks.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Failed operations
(an exception, a non-zero CLI exit, a failed verify, a false guarantee
predicate, an output digest that differs from the recorded one) are logged
on standard error with their type, counted, and the run goes on.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from spans import OP_SPAN, PeakTracer, SpanTracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# workload seed used when --seed is not given, and a seed kept out of tuning
# so that a later claim can be re-checked on inputs its author never saw
DEFAULT_SEED = 2106
HELDOUT_SEED = 14354
SETUP_REPEATS = 5
# a traced pass stops early after this many times --seconds
TRACE_CAP = 3

END_TO_END_UNITS = {"ops_per_s": "1/s", "op_cpu_p50_ms": "ms", "op_cpu_p90_ms": "ms",
                    "peak_rss_mb": "MiB", "setup_s": "s"}

# per-layer self-time metrics and the span names they sum
SELF_TIME_METRICS = {
    "unrelated.fptas_core_s": "unrelated.fptas_core",
    "unrelated.fptas_bipartite_s": "unrelated.fptas_bipartite",
    "unrelated.reduce_s": "unrelated.reduce",
    "unrelated.two_approx_s": "unrelated.two_approx",
    "randgraph.gen_gilbert_s": "randgraph.gen_gilbert",
    "randgraph.alg2_s": "randgraph.alg2",
    "randgraph.mc_stats_s": "randgraph.mc_stats",
    "bipartite.build_s": "bipartite.build",
    "bipartite.coloring_s": "bipartite.coloring",
    "bipartite.matching_s": "bipartite.matching",
    "bipartite.mwis_s": "bipartite.mwis",
    "uniform.sqrt_psum_s": "uniform.sqrt_psum",
    "uniform.opt_lb_s": "uniform.opt_lb",
    "uniform.capacity_sweep_s": "uniform.capacity_sweep",
    "uniform.list_schedule_s": "uniform.list_schedule",
    "uniform.q2_exact_unit_s": "uniform.q2_exact_unit",
    "oracle.exact_s": "oracle.exact",
    "oracle.precolor_s": "oracle.precolor",
    "cli.gen_s": "cli.gen",
    "cli.solve_s": "cli.solve",
    "cli.verify_s": "cli.verify",
    "cli.parse_instance_s": "cli.parse_instance",
    "cli.write_instance_s": "cli.write_instance",
    "cli.parse_schedule_s": "cli.parse_schedule",
    "cli.write_schedule_s": "cli.write_schedule",
    "core.validate_s": "core.validate",
    "core.makespan_s": "core.makespan",
    "suites.instance_s": "suites.instance",
    "gadgets.verify_forcing_s": "gadgets.verify_forcing",
    "gadgets.build_hardness_s": "gadgets.build_hardness",
}

CALL_METRICS = {
    "unrelated.fptas_calls": "unrelated.fptas_core",
    "bipartite.build_calls": "bipartite.build",
    "bipartite.mwis_calls": "bipartite.mwis",
    "oracle.calls": "oracle.exact",
}


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed (default {DEFAULT_SEED}; "
                             f"{HELDOUT_SEED} is held out for re-checking claims)")
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_seconds() -> float:
    """Time to import the package in a fresh interpreter."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
            "t = time.perf_counter(); import bipsched; print(time.perf_counter() - t)")
    done = subprocess.run([sys.executable, "-c", code, str(SRC)], cwd=ROOT,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.split()[-1])


def _percentile(values, q):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class Runner:
    """Runs operations, times them, checks their outputs and counts failures."""

    def __init__(self, workload, recorded: dict[str, str]):
        self.wl = workload
        self.recorded = recorded
        self.seen: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: dict[str, int] = {}

    def _fail(self, i, kind, detail):
        self.failed += 1
        self.failures[kind] = self.failures.get(kind, 0) + 1
        print(f"{self.wl.name} op {i} failed: {kind}: {detail}", file=sys.stderr)

    def one(self, i, tracer=None) -> tuple[float, float, bool]:
        """Run op i; returns (wall seconds, CPU seconds, succeeded)."""
        self.attempted += 1
        start, cpu_start = time.perf_counter(), time.process_time()
        try:
            if tracer is None:
                out = self.wl.op(i)
            else:
                tracer.enter(OP_SPAN)
                try:
                    out = self.wl.op(i)
                finally:
                    tracer.exit()
        except Exception as exc:  # the loop must survive any failing op
            cpu, latency = time.process_time() - cpu_start, time.perf_counter() - start
            self._fail(i, type(exc).__name__, exc)
            return latency, cpu, False
        cpu, latency = time.process_time() - cpu_start, time.perf_counter() - start
        try:
            key, dig = self.wl.check(i, out)
        except Exception as exc:  # OpFailure carries its own kind
            self._fail(i, getattr(exc, "kind", type(exc).__name__), getattr(exc, "detail", exc))
            return latency, cpu, False
        expected = self.recorded.get(key) or self.seen.get(key)
        self.seen.setdefault(key, dig)
        if expected is not None and dig != expected:
            self._fail(i, "DigestMismatch", f"{key}: {dig} != {expected}")
            return latency, cpu, False
        return latency, cpu, True

    def loop(self, seconds, count=None, tracer=None):
        """Ops 0, 1, ... until `count` ops ran or, at the latest, `seconds` passed.

        Returns one (wall seconds, CPU seconds, succeeded) triple per op.
        """
        ops = []
        start = time.perf_counter()
        while True:
            ops.append(self.one(len(ops), tracer))
            if len(ops) == count or time.perf_counter() - start >= seconds:
                return ops

    def output_digest(self) -> str:
        lines = "".join(f"{k}={v}\n" for k, v in sorted(self.seen.items()))
        return hashlib.sha256(lines.encode()).hexdigest()[:16]


def _setup(workload_class, seed, workdir):
    samples = []
    for _ in range(SETUP_REPEATS):
        imported = _import_seconds()
        wl = workload_class(seed, workdir)
        start = time.perf_counter()
        wl.setup()
        samples.append(imported + time.perf_counter() - start)
    return wl, statistics.median(samples)


def _recorded(name, seed) -> dict[str, str]:
    path = HERE / "digests.json"
    if not path.exists():
        return {}
    return json.loads(path.read_text(encoding="utf-8")).get(name, {}).get(str(seed), {})


def _end_to_end(ops, setup_s):
    good = [op for op in ops if op[2]] or ops
    cpu = [op[1] for op in good]
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values = {
        "ops_per_s": sum(op[2] for op in ops) / sum(op[0] for op in ops),
        "op_cpu_p50_ms": 1e3 * statistics.median(cpu),
        "op_cpu_p90_ms": 1e3 * _percentile(cpu, 90),
        "peak_rss_mb": peak_kib / 1024,
        "setup_s": setup_s,
    }
    beyond = sum(1 for t in cpu if 1e3 * t > values["op_cpu_p90_ms"])
    print(f"latency over {len(good)} ops, {beyond} beyond p90"
          + ("" if beyond >= 10 else " (fewer than 10: p90 is close to the maximum)"))
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def _per_layer(wl, tracer, peaks, traced, untraced):
    s, calls, counts = tracer.self_s, tracer.calls, tracer.counts
    metrics = {name: (s.get(span, 0.0), "s") for name, span in SELF_TIME_METRICS.items()}
    metrics.update({name: (calls.get(span, 0), "count") for name, span in CALL_METRICS.items()})
    core_s = s.get("unrelated.fptas_core", 0.0)
    gen_s = s.get("randgraph.gen_gilbert", 0.0)
    # CPU time of the same ops with and without tracing
    common = min(len(traced), len(untraced))
    overhead = (sum(op[1] for op in traced[:common]) / sum(op[1] for op in untraced[:common]) - 1
                if common else 0.0)
    metrics.update({
        "unrelated.dp_states_max": (counts.get("unrelated.dp_states_max", 0), "count"),
        "unrelated.dp_jobs": (counts.get("unrelated.dp_jobs", 0), "count"),
        # computed: sum over DP calls of (largest layer x jobs) / DP self time
        "unrelated.dp_states_per_s": (
            counts.get("unrelated.dp_state_jobs", 0) / core_s if core_s else 0.0, "1/s"),
        "unrelated.fptas_peak_mb": (peaks.peak_bytes.get("unrelated.fptas_core", 0) / 2 ** 20, "MiB"),
        "randgraph.pairs_per_s": (counts.get("randgraph.pairs", 0) / gen_s if gen_s else 0.0, "1/s"),
        "randgraph.gen_peak_mb": (peaks.peak_bytes.get("randgraph.gen_gilbert", 0) / 2 ** 20, "MiB"),
        "cli.bytes_written": (counts.get("cli.bytes_written", 0), "count"),
        "trace.unattributed_s": (s.get(OP_SPAN, 0.0), "s"),
        "trace.ops": (len(traced), "count"),
        "trace.missing_spans": (len(set(tracer.missing) | set(peaks.missing)), "count"),
        "trace.overhead_frac": (overhead, "frac"),
    })
    for target in sorted(set(tracer.missing) | set(peaks.missing)):
        print(f"missing span target: {target}")
    total = sum(op[0] for op in traced)
    top = max(SELF_TIME_METRICS, key=lambda name: metrics[name][0])
    verdict = "confirmed" if top == wl.predicted_dominant else \
        f"NOT confirmed (predicted {wl.predicted_dominant})"
    print(f"dominant layer: {top} = {metrics[top][0]:.4f} s of {total:.4f} s traced "
          f"({100 * metrics[top][0] / total:.1f}%), {verdict}")
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def run_one(args, workload_class) -> int:
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORK))
    try:
        wl, setup_s = _setup(workload_class, args.seed, workdir)
        runner = Runner(wl, _recorded(args.workload, args.seed))
        gc.collect()
        if args.trace == 0:
            metrics = _end_to_end(runner.loop(args.seconds), setup_s)
        else:
            cap = TRACE_CAP * args.seconds
            untraced = runner.loop(args.seconds / 2)
            with SpanTracer() as tracer:
                traced = runner.loop(cap, count=wl.traced_ops, tracer=tracer)
            with PeakTracer() as peaks:
                runner.loop(cap, count=wl.memory_ops)
            metrics = _per_layer(wl, tracer, peaks, traced, untraced)
        problems = wl.self_checks()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    for problem in problems:
        print(f"self-check failed: {problem}", file=sys.stderr)
    matched = sum(1 for k, v in runner.seen.items() if runner.recorded.get(k) == v)
    print(f"workload {args.workload} seed {args.seed}: {runner.attempted} ops, "
          f"fail_rate {runner.failed}/{runner.attempted}, failures {runner.failures or 'none'}, "
          f"self-checks {'passed' if not problems else 'FAILED'}")
    print(f"output digest {runner.output_digest()} over {len(runner.seen)} keys, "
          f"{matched} of them equal to the digest recorded for this seed ({len(runner.recorded)} recorded)")
    for name, m in metrics.items():
        print(f"  {name:30s} {m['value']:.6g} {m['unit']}")
    result = {"correct": runner.failed == 0 and not problems, "attempted": runner.attempted,
              "failed": runner.failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


def run_all(args, names) -> int:
    """Each workload in a fresh process; a table of every metric by name and unit."""
    status = 0
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            print(f"{name}: exit {done.returncode}")
            status = 1
            continue
        result = json.loads(done.stdout.splitlines()[-1])
        print(f"{name}: correct={result['correct']} fail_rate "
              f"{result['failed']}/{result['attempted']}")
        for metric, m in result["metrics"].items():
            print(f"  {metric:30s} {m['value']:.6g} {m['unit']}")
    return status


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "bipsched" / "__init__.py").is_file():
        print(f"error: no program at {SRC / 'bipsched'}; run from a bipsched checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args, list(WORKLOADS))
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)} or all", file=sys.stderr)
        return 2
    return run_one(args, WORKLOADS[args.workload])


if __name__ == "__main__":
    sys.exit(main())
