"""The benchmark's four workloads.

Every workload draws its inputs from the benchmark seed, runs one operation
at a time (``op``, the timed part: program work only) and then checks the
operation's output outside the timed region (``check``). ``check`` returns
the operation's input key and a digest of its canonical output, or raises
OpFailure. The runner compares the digest with the one recorded for that key
and seed in digests.json, or, for keys not recorded, with the first digest
seen for the key in the same run.

The benchmark calls the program only through module attributes
(``uniform.q2_exact_unit(...)``), so the traced pass sees those calls too.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
from fractions import Fraction
from pathlib import Path

from bipsched import cli, core, gadgets, oracle, randgraph, suites, uniform, unrelated

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15


def derive(seed: int, index: int) -> int:
    """index-th splitmix64 output of ``seed``: one independent input seed per index.

    Kept in the benchmark, not imported, so that inputs cannot change when the
    program's own generator code changes.
    """
    z = (seed + (index + 1) * GOLDEN) & MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:12]


class OpFailure(Exception):
    """An operation that ran but produced a wrong or rejected output."""

    def __init__(self, kind: str, detail: str):
        super().__init__(f"{kind}: {detail}")
        self.kind = kind
        self.detail = detail


class _Discard(io.TextIOBase):
    def write(self, text):
        return len(text)


def run_cli(argv: list[str]) -> tuple[int, str]:
    """bipsched.cli.run in-process; returns (exit code, captured stderr)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(_Discard()), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return code, err.getvalue().strip()


def _require_exit_zero(step: str, result: tuple[int, str] | None) -> None:
    if result is None:
        return
    code, err = result
    if code != 0:
        kind = "VerifyFailed" if step == "verify" else "ExitCode"
        raise OpFailure(kind, f"{step} exited {code}: {err}")


class Workload:
    """Op i works on input i % pool of a pool drawn from the seed.

    The pool is about what this commit gets through in one 25 s run. Being
    fixed per seed, it makes every commit see the same inputs, however fast
    it is, so failure counts and output digests compare between commits.
    """

    name = ""
    # layer the traced run is predicted to find dominant (self time)
    predicted_dominant = ""
    pool = 1
    # fixed op counts of the traced timing pass and of the tracemalloc pass
    traced_ops = 1
    memory_ops = 1
    # ops whose output digests digests.json records per seed
    record_ops = 1

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def setup(self) -> None:
        """Generate or write the inputs; timed as part of setup_s."""

    def op(self, i: int):
        raise NotImplementedError

    def check(self, i: int, out) -> tuple[str, str]:
        raise NotImplementedError

    def self_checks(self) -> list[str]:
        """Parity checks against the CLI; returns problems found."""
        return []


class R2Fptas(Workload):
    """bipsched solve --alg r2-fptas --eps 1/100, then verify, on 40-job R2 files.

    The conflicts are sparse (Gilbert, a = 1/10), so nearly every job is a
    component of its own and the core DP gets about 39 jobs and 7k states:
    wide and shallow, as eps = 1/100 makes it. Op times still vary by about
    16% between instances, so a run cycles over 32 of them. With a = 1 on
    200 jobs an op takes 2-7 s, and the few ops a run holds cannot average
    that out.
    """

    name = "r2-fptas"
    predicted_dominant = "unrelated.fptas_core_s"
    traced_ops = 8
    memory_ops = 2
    pool = 32
    record_ops = pool
    part = 20
    a = Fraction(1, 10)
    p_max = 10 ** 4

    def setup(self) -> None:
        self.inputs = []
        for k in range(self.pool):
            params = randgraph.GilbertParams.from_a(self.part, self.a, derive(self.seed, 2 * k))
            graph = randgraph.gen_gilbert(params)
            rng = derive(self.seed, 2 * k + 1)
            rows = [(1 + derive(rng, 2 * j) % self.p_max, 1 + derive(rng, 2 * j + 1) % self.p_max)
                    for j in range(graph.n_vertices)]
            jobs = tuple(core.Job(id=j, p_row=row) for j, row in enumerate(rows))
            inst = core.Instance(jobs, core.MachineEnv.unrelated(2), graph)
            path = str(self.workdir / f"r2_{k}.json")
            cli.write_instance(inst, path)
            self.inputs.append(path)
        self.schedule = self.workdir / "r2_schedule.json"

    def op(self, i):
        inst = self.inputs[i % self.pool]
        solve = run_cli(["solve", "--alg", "r2-fptas", "--eps", "1/100",
                         "-i", inst, "-o", str(self.schedule)])
        if solve[0] != 0:
            return solve, None
        return solve, run_cli(["verify", "-i", inst, "-s", str(self.schedule)])

    def check(self, i, out):
        solve, verify = out
        _require_exit_zero("solve", solve)
        _require_exit_zero("verify", verify)
        return f"inst{i % self.pool}", digest(self.schedule.read_bytes())


class SqrtPsumCli(Workload):
    """gen gilbert --n 1000 -> solve --alg sqrt-psum -> verify, through files."""

    name = "sqrt-psum-cli"
    predicted_dominant = "unrelated.fptas_core_s"
    pool = 16
    traced_ops = 4
    memory_ops = 2
    record_ops = pool

    def setup(self) -> None:
        self.instance = str(self.workdir / "gilbert.json")
        self.schedule = str(self.workdir / "gilbert_schedule.json")

    def op(self, i):
        gen = run_cli(["gen", "gilbert", "--n", "1000", "--a", "1/1",
                       "--seed", str(derive(self.seed, i % self.pool)), "--speeds", "8,4,2,1",
                       "-o", self.instance])
        if gen[0] != 0:
            return gen, None, None
        solve = run_cli(["solve", "--alg", "sqrt-psum", "-i", self.instance,
                         "-o", self.schedule])
        if solve[0] != 0:
            return gen, solve, None
        return gen, solve, run_cli(["verify", "-i", self.instance, "-s", self.schedule])

    def check(self, i, out):
        for step, result in zip(("gen", "solve", "verify"), out):
            _require_exit_zero(step, result)
        data = Path(self.instance).read_bytes() + b"\0" + Path(self.schedule).read_bytes()
        return f"k{i % self.pool}", digest(data)


def mc_csv_row(row) -> str:
    """One data row of the `bipsched bench mc` CSV, as documented in the README."""
    ratio = f"{float(row.ratio):.6f}" if row.ratio is not None else ""
    return ",".join(map(str, (
        row.trial, row.n, row.p.numerator, row.p.denominator, row.edges,
        row.isolated_v2, row.v2prime, row.mu, row.alpha, ratio,
        row.alg2_cmax.numerator, row.alg2_cmax.denominator,
        row.lb.numerator, row.lb.denominator)))


class GilbertMc(Workload):
    """One trial of `bipsched bench mc --n 2000 --a 1/1 --speeds 8,4,2,1`."""

    name = "gilbert-mc"
    predicted_dominant = "randgraph.gen_gilbert_s"
    pool = 128
    traced_ops = 30
    memory_ops = 4
    record_ops = 64
    part = 2000
    speeds = "8,4,2,1"

    def setup(self) -> None:
        speeds = [Fraction(s) for s in self.speeds.split(",")]
        self.env = core.MachineEnv.uniform(speeds, allow_sub_unit=True)
        self.p = Fraction(1, self.part)
        self.first_row: str | None = None

    def op(self, i):
        params = randgraph.GilbertParams(self.part, self.p, derive(self.seed, i % self.pool))
        rows, _ = randgraph.mc_stats(params, self.env, 1)
        return rows[0]

    def check(self, i, row):
        line = mc_csv_row(row)
        if i % self.pool == 0:
            self.first_row = line
        return f"t{i % self.pool}", digest(line.encode())

    def self_checks(self):
        if self.first_row is None:
            self.check(0, self.op(0))
        csv = self.workdir / "mc.csv"
        code, err = run_cli(["bench", "mc", "--n", str(self.part), "--a", "1/1",
                             "--trials", "1", "--seed", str(derive(self.seed, 0)),
                             "--speeds", self.speeds, "--csv", str(csv)])
        if code != 0:
            return [f"bench mc exited {code}: {err}"]
        cli_row = csv.read_text(encoding="utf-8").splitlines()[1]
        if cli_row != self.first_row:
            return [f"bench mc row {cli_row!r} != op row {self.first_row!r}"]
        return []


# criterion 5 of the acceptance suite: every forcing component it enumerates
FORCING_CASES = (
    [(gadgets.GadgetSpec(gadgets.GadgetKind.H1, (x,)), c) for x in range(1, 5) for c in (2, 3)]
    + [(gadgets.GadgetSpec(gadgets.GadgetKind.H2, (xp, x)), 3)
       for xp in range(1, 4) for x in range(1, 4)]
    + [(gadgets.GadgetSpec(gadgets.GadgetKind.H3, (xpp, xp, x)), 3)
       for xpp in range(1, 3) for xp in range(1, 3) for x in range(1, 3)]
)

SUITE_KINDS = ("q2-exact-unit", "sqrt-psum", "r2-2apx", "r2-fptas")
FPTAS_EPS = Fraction(1, 10)
# cases per criterion in the acceptance suite (criteria 1, 4, 2, 3, 5, 6);
# the certify mix keeps these proportions
ACCEPTANCE_CASES = {"q2-exact-unit": 200, "sqrt-psum": 300, "r2-2apx": 200,
                    "r2-fptas": 200, "forcing": 25, "hardness": 20}
_UNIT = math.gcd(*ACCEPTANCE_CASES.values())
MIX_WEIGHTS = {kind: count // _UNIT for kind, count in ACCEPTANCE_CASES.items()}
# one round of the mix: (kind, j-th case of the kind in this round), interleaved
# so that every kind is spread evenly over the round
MIX_ROUND = tuple((kind, j) for _, _, kind, j in sorted(
    ((j + 0.5) / w, k, kind, j)
    for k, (kind, w) in enumerate(MIX_WEIGHTS.items()) for j in range(w)))


class Certify(Workload):
    """Acceptance and ratio-sweep cases: solve -> validate -> oracle -> guarantee.

    The pool is `rounds` rounds of MIX_ROUND; round r holds cases
    r * MIX_WEIGHTS[kind] + j. Suite cases use the benchmark seed as the suite
    seed, exactly as `bench ratio-sweep --seed` does, and their canonical
    output is the ratio-sweep CSV row. Library functions are called directly:
    building the CLI parser alone would cost more than most cases.
    """

    name = "certify"
    predicted_dominant = "oracle.exact_s"
    rounds = 64
    pool = rounds * len(MIX_ROUND)
    traced_ops = 20 * len(MIX_ROUND)
    memory_ops = 2 * len(MIX_ROUND)
    record_ops = 2 * len(MIX_ROUND)
    parity_cases = 16

    def setup(self) -> None:
        self.sweep_rows: dict[tuple[str, int], str] = {}

    @classmethod
    def locate(cls, i: int) -> tuple[str, int]:
        """(kind, case) of op i."""
        r, slot = divmod(i % cls.pool, len(MIX_ROUND))
        kind, j = MIX_ROUND[slot]
        return kind, r * MIX_WEIGHTS[kind] + j

    def op(self, i):
        kind, case = self.locate(i)
        if kind == "forcing":
            case %= len(FORCING_CASES)
            spec, colors = FORCING_CASES[case]
            verdict = gadgets.verify_forcing(spec, colors)
            return kind, case, verdict.holds, (spec.kind.value, spec.sizes, colors,
                                               verdict.holds, verdict.proper_colorings)
        if kind == "hardness":
            return (kind, case) + self._hardness(case)
        return (kind, case) + self._suite_case(kind, case)

    def _hardness(self, case):
        pre = suites.precolor_instance(self.seed, case)
        n = pre.graph.n_vertices
        ext = oracle.exact_precolor_extension(pre)
        build = gadgets.build_uniform_hardness(pre, 1, 3, ext)
        counted = build.instance.n == n + 48 * n + 4 * n + 2
        witnessed = True
        if ext is not None:
            w = build.witness
            loads = core.machine_loads(w, build.instance)
            witnessed = (core.validate(w, build.instance).valid
                         and loads[0] <= 49 * n and loads[1] <= 5 * n and loads[2] <= n
                         and core.makespan(w, build.instance) <= n)
        return counted and witnessed, (n, ext, build.instance.n, counted, witnessed)

    def _suite_case(self, kind, case):
        state_ok = True
        if kind == "q2-exact-unit":
            inst = suites.q2_unit_instance(self.seed, case)
            sched = uniform.q2_exact_unit(inst)
        elif kind == "sqrt-psum":
            inst = suites.uniform_instance(self.seed, case)
            sched = uniform.sqrt_psum_schedule(inst)
        elif kind == "r2-2apx":
            inst = suites.r2_instance(self.seed, case)
            sched = unrelated.two_approx_r2(inst)
        else:
            inst = suites.r2_instance(self.seed, case)
            sched, stats = unrelated.fptas_r2_bipartite_with_stats(inst, FPTAS_EPS)
            bound = math.ceil(2 * stats.core_jobs / FPTAS_EPS) + stats.core_jobs + 1
            state_ok = stats.state_count <= bound
        valid = core.validate(sched, inst).valid
        alg = core.makespan(sched, inst)
        opt = oracle.exact_min_makespan(inst).makespan
        ratio = alg / opt
        if kind == "q2-exact-unit":
            bound_ok = alg == opt
        elif kind == "sqrt-psum":
            bound_ok = ratio * ratio <= sum(job.p for job in inst.jobs)
        elif kind == "r2-2apx":
            bound_ok = ratio <= 2
        else:
            bound_ok = ratio <= 1 + FPTAS_EPS
        row = ",".join(map(str, (
            case, inst.n, inst.env.m, alg.numerator, alg.denominator,
            opt.numerator, opt.denominator, f"{float(ratio):.6f}", int(bound_ok))))
        return valid and bound_ok and state_ok, (row, valid, state_ok)

    def check(self, i, out):
        kind, case, ok, verdict = out
        if kind in SUITE_KINDS and case < self.parity_cases:
            self.sweep_rows[(kind, case)] = verdict[0]
        if not ok:
            raise OpFailure("GuaranteeFalse", f"{kind} case {case}: {verdict!r}")
        return f"{kind}/{case}", digest(repr(verdict).encode())

    def self_checks(self):
        problems = []
        missing = {(kind, case) for kind in SUITE_KINDS
                   for case in range(self.parity_cases)} - set(self.sweep_rows)
        i = 0
        while missing:
            if self.locate(i) in missing:
                missing.discard(self.locate(i))
                try:
                    self.check(i, self.op(i))
                except OpFailure:
                    pass  # the row is stored before the guarantee is judged
                except Exception as exc:
                    return [f"op {i} raised {type(exc).__name__}: {exc}"]
            i += 1
        for kind in SUITE_KINDS:
            csv = self.workdir / f"sweep_{kind}.csv"
            run_cli(["bench", "ratio-sweep", "--suite", kind, "--count", str(self.parity_cases),
                     "--seed", str(self.seed), "--eps", "1/10", "--csv", str(csv)])
            if not csv.exists():
                problems.append(f"ratio-sweep {kind} wrote no CSV")
                continue
            lines = csv.read_text(encoding="utf-8").splitlines()[1:1 + self.parity_cases]
            for case, line in enumerate(lines):
                if line != self.sweep_rows[(kind, case)]:
                    problems.append(f"ratio-sweep {kind} case {case}: {line!r} "
                                    f"!= op {self.sweep_rows[(kind, case)]!r}")
        return problems


WORKLOADS = {w.name: w for w in (R2Fptas, SqrtPsumCli, GilbertMc, Certify)}
