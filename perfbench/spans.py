"""Span tracing from outside the program.

The program is never edited for tracing. Instead the tracer swaps module
attributes for wrappers while a traced pass runs and restores them afterwards.
bipsched modules import each other's public functions by name
(``from .unrelated import fptas_r2_bipartite``), and those names are looked up
in the importing module's namespace at call time, so patching
``bipsched.uniform.fptas_r2_bipartite`` catches exactly the calls that
``uniform`` makes. Each target below lists every namespace through which a
traced workload reaches the function, including the benchmark's own calls,
which go through module attributes on purpose.

A layer's time is its self time: span duration minus the time covered by its
child spans. A call is counted when a span opens whose parent span has a
different name, so a function that calls itself through another traced name
(``sqrt_psum_schedule`` -> ``sqrt_psum_schedule_detailed``) counts once.
A target that no longer exists is reported as missing, never as an error.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
import tracemalloc
from collections import defaultdict


def _gilbert_pairs(tracer, args, kwargs, result):
    params = args[0] if args else kwargs["params"]
    tracer.counts["randgraph.pairs"] += params.n * params.n


def _fptas_core_size(tracer, args, kwargs, result):
    jobs = len(args[0] if args else kwargs["jobs"])
    tracer.counts["unrelated.dp_jobs"] += jobs
    tracer.counts["unrelated.dp_state_jobs"] += result.state_count * jobs
    tracer.counts["unrelated.dp_states_max"] = max(
        tracer.counts["unrelated.dp_states_max"], result.state_count)


def _bytes_written(tracer, args, kwargs, result):
    path = kwargs["path"] if "path" in kwargs else args[-1]
    tracer.counts["cli.bytes_written"] += os.path.getsize(path)


def _cli_command(args, kwargs):
    argv = args[0] if args else kwargs["argv"]
    return f"cli.{argv[0]}" if argv else "cli.run"


# span name (or function of the call's arguments) -> "module:attr" targets,
# plus an optional hook that records counts from the call's arguments/result
TARGETS = (
    (_cli_command, ("bipsched.cli:run",), None),
    ("cli.parse_instance", ("bipsched.cli:parse_instance",), None),
    ("cli.write_instance", ("bipsched.cli:write_instance",), _bytes_written),
    ("cli.parse_schedule", ("bipsched.cli:parse_schedule",), None),
    ("cli.write_schedule", ("bipsched.cli:write_schedule",), _bytes_written),
    ("core.validate", ("bipsched.cli:validate", "bipsched.randgraph:validate",
                       "bipsched.core:validate"), None),
    ("core.makespan", ("bipsched.cli:eval_makespan", "bipsched.uniform:eval_makespan",
                       "bipsched.randgraph:eval_makespan", "bipsched.oracle:eval_makespan",
                       "bipsched.core:makespan", "bipsched.core:machine_loads",
                       "bipsched.unrelated:machine_loads"), None),
    ("bipartite.build", ("bipsched.bipartite:BipGraph.__init__",), None),
    ("bipartite.coloring", ("bipsched.randgraph:inequitable_two_coloring",
                            "bipsched.uniform:inequitable_two_coloring"), None),
    ("bipartite.matching", ("bipsched.randgraph:max_matching",), None),
    ("bipartite.mwis", ("bipsched.uniform:independent_set_containing",
                        "bipsched.bipartite:max_weight_independent_set"), None),
    ("randgraph.gen_gilbert", ("bipsched.randgraph:gen_gilbert",
                               "bipsched.cli:gen_gilbert"), _gilbert_pairs),
    ("randgraph.mc_stats", ("bipsched.randgraph:mc_stats",), None),
    ("randgraph.alg2", ("bipsched.randgraph:alg2_schedule_with_lb",), None),
    ("uniform.sqrt_psum", ("bipsched.cli:sqrt_psum_schedule",
                           "bipsched.uniform:sqrt_psum_schedule",
                           "bipsched.uniform:sqrt_psum_schedule_detailed"), None),
    ("uniform.opt_lb", ("bipsched.uniform:opt_lb",), None),
    ("uniform.capacity_sweep", ("bipsched.uniform:min_time_capacity_at_least",
                                "bipsched.randgraph:min_time_capacity_at_least"), None),
    ("uniform.list_schedule", ("bipsched.uniform:list_schedule",
                               "bipsched.randgraph:list_schedule"), None),
    ("uniform.q2_exact_unit", ("bipsched.uniform:q2_exact_unit",), None),
    ("unrelated.fptas_bipartite", ("bipsched.cli:fptas_r2_bipartite",
                                   "bipsched.uniform:fptas_r2_bipartite",
                                   "bipsched.unrelated:fptas_r2_bipartite_with_stats"), None),
    ("unrelated.two_approx", ("bipsched.cli:two_approx_r2",
                              "bipsched.unrelated:two_approx_r2",
                              "bipsched.unrelated:two_approx_r2_with_stats"), None),
    ("unrelated.reduce", ("bipsched.unrelated:reduce_components",), None),
    ("unrelated.fptas_core", ("bipsched.unrelated:fptas_r2_core",), _fptas_core_size),
    ("oracle.exact", ("bipsched.oracle:exact_min_makespan",), None),
    ("oracle.precolor", ("bipsched.oracle:exact_precolor_extension",), None),
    ("suites.instance", ("bipsched.suites:q2_unit_instance", "bipsched.suites:uniform_instance",
                         "bipsched.suites:r2_instance", "bipsched.suites:precolor_instance"), None),
    ("gadgets.verify_forcing", ("bipsched.gadgets:verify_forcing",), None),
    ("gadgets.build_hardness", ("bipsched.gadgets:build_uniform_hardness",), None),
)

# spans whose tracemalloc peak is reported by the memory pass
MEMORY_SPANS = ("unrelated.fptas_core", "randgraph.gen_gilbert")

# root span of each op; its self time is time in no traced layer
OP_SPAN = "bench.op"


def _resolve(target: str):
    """(owner, attribute name, current value) for "module:attr" or "module:Class.attr".

    Raises ImportError or AttributeError when the target is gone.
    """
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr, getattr(owner, attr)


class Patcher:
    """Installs wrappers on resolvable targets and restores the originals."""

    def __init__(self):
        self.missing: list[str] = []
        self._saved: list[tuple[object, str, object]] = []

    def install(self, targets, make_wrapper) -> None:
        for name, paths, hook in targets:
            for target in paths:
                try:
                    owner, attr, original = _resolve(target)
                except (ImportError, AttributeError):
                    self.missing.append(target)
                    continue
                self._saved.append((owner, attr, original))
                setattr(owner, attr, make_wrapper(original, name, hook))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()


class SpanTracer:
    """Self time and call counts per span name, kept in memory."""

    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []  # [name, start, child time]
        self._patcher = Patcher()

    @property
    def missing(self) -> list[str]:
        return self._patcher.missing

    def enter(self, name: str) -> None:
        self._stack.append([name, time.perf_counter(), 0.0])

    def exit(self) -> None:
        name, start, child = self._stack.pop()
        duration = time.perf_counter() - start
        self.self_s[name] += duration - child
        if self._stack:
            parent = self._stack[-1]
            parent[2] += duration
            if parent[0] != name:
                self.calls[name] += 1
        else:
            self.calls[name] += 1

    def _wrapper(self, fn, name, hook):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.enter(name(args, kwargs) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit()
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        return traced

    def __enter__(self):
        self._patcher.install(TARGETS, self._wrapper)
        return self

    def __exit__(self, *exc):
        self._patcher.restore()
        return False


class PeakTracer:
    """tracemalloc peak above the entry level of each MEMORY_SPANS call.

    Runs in a pass of its own, so tracemalloc's cost never lands in the
    timing spans. The memory spans never nest in each other, so resetting the
    peak at entry is safe.
    """

    def __init__(self):
        self.peak_bytes: dict[str, int] = defaultdict(int)
        self._patcher = Patcher()

    @property
    def missing(self) -> list[str]:
        return self._patcher.missing

    def _wrapper(self, fn, name, hook):
        peaks = self.peak_bytes

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            base, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            try:
                return fn(*args, **kwargs)
            finally:
                _, peak = tracemalloc.get_traced_memory()
                peaks[name] = max(peaks[name], peak - base)

        return traced

    def __enter__(self):
        targets = [t for t in TARGETS if t[0] in MEMORY_SPANS]
        self._patcher.install(targets, self._wrapper)
        tracemalloc.start()
        return self

    def __exit__(self, *exc):
        tracemalloc.stop()
        self._patcher.restore()
        return False
