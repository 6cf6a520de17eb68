"""Command-line surface and on-disk formats.

Instance and schedule files are canonical JSON: sorted keys, no insignificant
whitespace, one trailing newline, rationals written "num/den" in lowest
terms. Exit codes: 0 success, 1 infeasible or invalid input, 2 usage error,
3 search budget exceeded.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction
from pathlib import Path

from .bipartite import BipGraph
from .core import (Instance, Job, MachineEnv, MachineKind, Schedule,
                   makespan as eval_makespan, strict_int, unit_jobs, validate)
from .errors import BudgetExceededError, SchedulingError
from .gadgets import (GadgetKind, GadgetSpec, PrecolorInstance, build_gadget,
                      build_uniform_hardness, build_unrelated_hardness)
from .oracle import SearchBudget, exact_min_makespan, exact_precolor_extension
from .randgraph import GilbertParams, alg2_schedule, gen_gilbert, mc_stats
from .suites import q2_unit_instance, r2_instance, uniform_instance
from .unrelated import fptas_r2_bipartite, two_approx_r2
from .uniform import q2_exact_unit, sqrt_psum_schedule


def fmt_rational(x: Fraction) -> str:
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def parse_rational(text: str) -> Fraction:
    if not isinstance(text, str):
        raise ValueError(f"bad rational {text!r}: expected a 'num/den' string")
    try:
        if "/" in text:
            num, den = text.split("/", 1)
            return Fraction(int(num), int(den))
        return Fraction(int(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad rational {text!r}: expected 'num/den'") from exc


def canonical_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def instance_to_obj(inst: Instance) -> dict:
    machines: dict = {"kind": inst.env.kind.value, "m": inst.env.m}
    if inst.env.kind is MachineKind.UNIFORM:
        machines["speeds"] = [fmt_rational(s) for s in inst.env.speeds]
    jobs = []
    for job in inst.jobs:
        if job.p_row is not None:
            jobs.append({"id": job.id, "p_row": list(job.p_row)})
        else:
            jobs.append({"id": job.id, "p": job.p})
    edges = [[a, b] for a, b in inst.conflicts.edges]
    return {"edges": edges, "jobs": jobs, "machines": machines}


def obj_to_instance(obj) -> Instance:
    if not isinstance(obj, dict):
        raise ValueError("instance document must be a JSON object")
    try:
        machines = obj["machines"]
        kind = MachineKind(machines["kind"])
        m = strict_int(machines["m"], "machine count")
    except (KeyError, ValueError, TypeError) as exc:
        raise ValueError(f"bad 'machines' section: {exc}") from exc
    if kind is MachineKind.UNIFORM:
        speeds = machines.get("speeds")
        if not isinstance(speeds, list) or len(speeds) != m:
            raise ValueError("uniform machines need a list of one speed per machine")
        env = MachineEnv.uniform([parse_rational(s) for s in speeds], allow_sub_unit=True)
    elif kind is MachineKind.IDENTICAL:
        env = MachineEnv.identical(m)
    else:
        env = MachineEnv.unrelated(m)
    raw_jobs = obj.get("jobs")
    if not isinstance(raw_jobs, list) or not raw_jobs:
        raise ValueError("'jobs' must be a non-empty list")
    jobs = []
    try:
        for rec in sorted(raw_jobs, key=lambda r: r["id"]):
            job_id = strict_int(rec["id"], "job id")
            if "p_row" in rec:
                jobs.append(Job(id=job_id, p_row=tuple(rec["p_row"])))
            else:
                try:
                    p = strict_int(rec["p"], "p")
                except ValueError as exc:
                    raise ValueError(f"job {job_id}: {exc}") from None
                jobs.append(Job(id=job_id, p=p))
    except (KeyError, TypeError) as exc:
        raise ValueError(f"bad job record: {exc}") from exc
    edges = obj.get("edges", [])
    if not isinstance(edges, list):
        raise ValueError("'edges' must be a list of [a, b] pairs")
    for e in edges:
        if not (isinstance(e, list) and len(e) == 2):
            raise ValueError(f"bad edge record {e!r}")
    graph = BipGraph(len(jobs), [(strict_int(a, "edge end"), strict_int(b, "edge end"))
                                 for a, b in edges])
    return Instance(tuple(jobs), env, graph)


def _load_json(path: str):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except RecursionError as exc:
        raise ValueError(f"{path}: JSON nested too deeply") from exc


def _write_text(path: str, text: str) -> None:
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def parse_instance(path: str) -> Instance:
    return obj_to_instance(_load_json(path))


def write_instance(inst: Instance, path: str) -> None:
    _write_text(path, canonical_dumps(instance_to_obj(inst)))


def schedule_to_obj(sched: Schedule, inst: Instance) -> dict:
    return {"assignment": list(sched.assignment),
            "makespan": fmt_rational(eval_makespan(sched, inst))}


def parse_schedule(path: str, inst: Instance) -> Schedule:
    obj = _load_json(path)
    if not isinstance(obj, dict) or not isinstance(obj.get("assignment"), list):
        raise ValueError(f"{path}: schedule document needs an 'assignment' list")
    sched = Schedule(tuple(obj["assignment"]))
    stored = parse_rational(obj.get("makespan", "0/1"))
    actual = eval_makespan(sched, inst)
    if stored != actual:
        raise ValueError(f"{path}: stored makespan {fmt_rational(stored)} "
                         f"!= recomputed {fmt_rational(actual)}")
    return sched


def write_schedule(sched: Schedule, inst: Instance, path: str) -> None:
    _write_text(path, canonical_dumps(schedule_to_obj(sched, inst)))


def _parse_speeds(text: str) -> list[Fraction]:
    return [parse_rational(s) for s in text.split(",") if s]


def _parse_ints(text: str) -> list[int]:
    return [int(s) for s in text.split(",") if s]


MC_CSV_HEADER = ("trial,n,p_num,p_den,edges,isolated_v2,v2prime,mu,alpha,"
                 "ratio,alg2_cmax_num,alg2_cmax_den,lb_num,lb_den")


def _mc_csv_lines(rows, summary) -> list[str]:
    lines = [MC_CSV_HEADER]
    for r in rows:
        ratio = f"{float(r.ratio):.6f}" if r.ratio is not None else ""
        lines.append(",".join(map(str, (
            r.trial, r.n, r.p.numerator, r.p.denominator, r.edges,
            r.isolated_v2, r.v2prime, r.mu, r.alpha, ratio,
            r.alg2_cmax.numerator, r.alg2_cmax.denominator,
            r.lb.numerator, r.lb.denominator))))
    for stat in ("mean", "stddev", "max"):
        cells = " ".join(f"{col}={summary[stat][col]:.6f}"
                         for col in summary[stat])
        lines.append(f"# {stat} {cells}")
    return lines


def _gilbert_params(args) -> GilbertParams:
    if (args.p is None) == (args.a is None):
        raise ValueError("exactly one of --p / --a required")
    if args.p is not None:
        return GilbertParams(args.n, parse_rational(args.p), args.seed)
    return GilbertParams.from_a(args.n, parse_rational(args.a), args.seed)


def _cmd_gen_gilbert(args) -> int:
    g = gen_gilbert(_gilbert_params(args))
    env = MachineEnv.uniform(_parse_speeds(args.speeds), allow_sub_unit=True)
    inst = Instance(unit_jobs(g.n_vertices), env, g)
    write_instance(inst, args.output)
    print(f"wrote {args.output}: {g.n_vertices} unit jobs, {len(g.edges)} edges")
    return 0


def _cmd_gen_gadget(args) -> int:
    spec = GadgetSpec(GadgetKind(args.kind), tuple(_parse_ints(args.sizes)))
    g, stub = build_gadget(spec)
    inst = Instance(unit_jobs(g.n_vertices), MachineEnv.identical(args.m), g)
    write_instance(inst, args.output)
    print(f"wrote {args.output}: {spec.kind.value} with stub vertex {stub}")
    return 0


def _load_precolor(args) -> PrecolorInstance:
    base = parse_instance(args.input)
    anchors = _parse_ints(args.anchors)
    if len(anchors) != 3:
        raise ValueError("--anchors needs three comma-separated vertex ids")
    return PrecolorInstance(base.conflicts, tuple(anchors))


def _emit_hardness(build, args) -> int:
    write_instance(build.instance, args.output)
    print(f"wrote {args.output}: {build.instance.n} jobs")
    if args.witness:
        if build.witness is None:
            print("no proper extension exists; witness not written", file=sys.stderr)
            return 1
        write_schedule(build.witness, build.instance, args.witness)
        print(f"wrote witness {args.witness}")
    return 0


def _cmd_gen_hardness_uniform(args) -> int:
    pre = _load_precolor(args)
    extension = exact_precolor_extension(pre) if args.witness else None
    build = build_uniform_hardness(pre, args.k, args.m, extension)
    return _emit_hardness(build, args)


def _cmd_gen_hardness_unrelated(args) -> int:
    pre = _load_precolor(args)
    extension = exact_precolor_extension(pre) if args.witness else None
    build = build_unrelated_hardness(pre, args.d, args.m, extension)
    return _emit_hardness(build, args)


def _solve_alg2(inst: Instance, args) -> Schedule:
    if any(job.p != 1 for job in inst.jobs):
        raise ValueError("alg2 requires unit jobs")
    return alg2_schedule(inst.conflicts, inst.env)


def _is_exact(alg, opt, inst, eps) -> bool:
    return alg == opt


# --alg name -> (solve(inst, args), the seeded suite that `bench ratio-sweep
# --suite` draws or None, guarantee(alg, opt, inst, eps) on the exact solver
# and optimal makespans or None). Solvers are called by their names in this
# module, so wrappers installed on those names see every call.
SOLVERS = {
    "sqrt-psum": (lambda inst, args: sqrt_psum_schedule(inst), uniform_instance,
                  lambda alg, opt, inst, eps:
                  (alg / opt) ** 2 <= sum(job.p for job in inst.jobs)),
    "alg2": (_solve_alg2, None, None),
    "r2-2apx": (lambda inst, args: two_approx_r2(inst), r2_instance,
                lambda alg, opt, inst, eps: alg <= 2 * opt),
    "r2-fptas": (lambda inst, args: fptas_r2_bipartite(inst, parse_rational(args.eps)),
                 r2_instance, lambda alg, opt, inst, eps: alg <= (1 + eps) * opt),
    "q2-exact-unit": (lambda inst, args: q2_exact_unit(inst), q2_unit_instance, _is_exact),
    "oracle": (lambda inst, args: exact_min_makespan(
        inst, SearchBudget(max_jobs=args.max_jobs)).schedule, None, _is_exact),
}


def _cmd_solve(args) -> int:
    inst = parse_instance(args.input)
    sched = SOLVERS[args.alg][0](inst, args)
    report = validate(sched, inst)
    if not report.valid:
        raise SchedulingError(f"solver produced conflicts: {report.violations}")
    write_schedule(sched, inst, args.output)
    print(f"wrote {args.output}: makespan {fmt_rational(eval_makespan(sched, inst))}")
    return 0


def _cmd_verify(args) -> int:
    inst = parse_instance(args.instance)
    sched = parse_schedule(args.schedule, inst)
    report = validate(sched, inst)
    if report.valid:
        print(f"valid; makespan {fmt_rational(eval_makespan(sched, inst))}")
        return 0
    for a, b in report.violations:
        print(f"conflict: jobs {a} and {b} share machine {sched.assignment[a]}")
    return 1


def _cmd_bench_mc(args) -> int:
    env = MachineEnv.uniform(_parse_speeds(args.speeds), allow_sub_unit=True)
    rows, summary = mc_stats(_gilbert_params(args), env, args.trials)
    lines = _mc_csv_lines(rows, summary)
    if args.csv:
        _write_text(args.csv, "\n".join(lines) + "\n")
        print(f"wrote {args.csv}: {len(rows)} trials")
    for stat in ("mean", "stddev", "max"):
        cells = " ".join(f"{col}={summary[stat][col]:.6f}" for col in summary[stat])
        print(f"{stat}: {cells}")
    return 0


_SWEEP_HEADER = "case,n,m,alg_cmax_num,alg_cmax_den,opt_num,opt_den,ratio,bound_ok"


def _cmd_bench_ratio_sweep(args) -> int:
    if args.count < 1:
        raise ValueError("--count must be at least 1")
    solve, suite, guarantee = SOLVERS[args.suite]
    eps = parse_rational(args.eps)
    lines = [_SWEEP_HEADER]
    ok = 0
    for case in range(args.count):
        inst = suite(args.seed, case)
        sched = solve(inst, args)
        if not validate(sched, inst).valid:
            raise SchedulingError(f"case {case}: solver produced conflicts")
        alg = eval_makespan(sched, inst)
        opt = exact_min_makespan(inst).makespan
        ratio = alg / opt
        good = guarantee(alg, opt, inst, eps)
        ok += good
        lines.append(",".join(map(str, (
            case, inst.n, inst.env.m, alg.numerator, alg.denominator,
            opt.numerator, opt.denominator, f"{float(ratio):.6f}", int(good)))))
    lines.append(f"# within_bound {ok}/{args.count}")
    if args.csv:
        _write_text(args.csv, "\n".join(lines) + "\n")
        print(f"wrote {args.csv}")
    print(f"within bound: {ok}/{args.count}")
    return 0 if ok == args.count else 1


@functools.cache  # parsing leaves the parser unchanged, so one serves every run()
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bipsched",
        description="Makespan scheduling under bipartite incompatibility graphs")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate instances")
    gsub = gen.add_subparsers(dest="generator", required=True)

    gg = gsub.add_parser("gilbert", help="random bipartite unit-job instance")
    gg.add_argument("--n", type=int, required=True, help="part size")
    gg.add_argument("--p", help="edge probability num/den")
    gg.add_argument("--a", help="edge probability a/n, given a")
    gg.add_argument("--seed", type=int, required=True)
    gg.add_argument("--speeds", default="8,4,2,1", help="comma-separated rationals")
    gg.add_argument("-o", "--output", required=True)
    gg.set_defaults(func=_cmd_gen_gilbert)

    gd = gsub.add_parser("gadget", help="standalone forcing component")
    gd.add_argument("--kind", choices=[k.value for k in GadgetKind], required=True)
    gd.add_argument("--sizes", required=True, help="comma-separated row sizes")
    gd.add_argument("--m", type=int, default=3)
    gd.add_argument("-o", "--output", required=True)
    gd.set_defaults(func=_cmd_gen_gadget)

    hu = gsub.add_parser("hardness-uniform", help="Q|bipartite hardness instance")
    hu.add_argument("-i", "--input", required=True, help="base instance file")
    hu.add_argument("--anchors", required=True, help="v1,v2,v3")
    hu.add_argument("--k", type=int, default=1)
    hu.add_argument("--m", type=int, default=3)
    hu.add_argument("-o", "--output", required=True)
    hu.add_argument("--witness", help="write a witness schedule here (YES instances)")
    hu.set_defaults(func=_cmd_gen_hardness_uniform)

    hr = gsub.add_parser("hardness-unrelated", help="Rm|bipartite hardness instance")
    hr.add_argument("-i", "--input", required=True)
    hr.add_argument("--anchors", required=True, help="v1,v2,v3")
    hr.add_argument("--d", type=int, required=True)
    hr.add_argument("--m", type=int, default=3)
    hr.add_argument("-o", "--output", required=True)
    hr.add_argument("--witness")
    hr.set_defaults(func=_cmd_gen_hardness_unrelated)

    sv = sub.add_parser("solve", help="run a solver on an instance file")
    sv.add_argument("--alg", required=True, choices=list(SOLVERS))
    sv.add_argument("--eps", default="1/10", help="rational epsilon for r2-fptas")
    sv.add_argument("--max-jobs", type=int, default=14, help="oracle job cap")
    sv.add_argument("-i", "--input", required=True)
    sv.add_argument("-o", "--output", required=True)
    sv.set_defaults(func=_cmd_solve)

    vf = sub.add_parser("verify", help="check a schedule against an instance")
    vf.add_argument("-i", "--instance", required=True)
    vf.add_argument("-s", "--schedule", required=True)
    vf.set_defaults(func=_cmd_verify)

    bench = sub.add_parser("bench", help="benchmarks")
    bsub = bench.add_subparsers(dest="benchmark", required=True)

    mc = bsub.add_parser("mc", help="Monte Carlo over Gilbert graphs")
    mc.add_argument("--n", type=int, required=True)
    mc.add_argument("--p")
    mc.add_argument("--a")
    mc.add_argument("--trials", type=int, required=True)
    mc.add_argument("--seed", type=int, required=True)
    mc.add_argument("--speeds", default="8,4,2,1")
    mc.add_argument("--csv")
    mc.set_defaults(func=_cmd_bench_mc)

    rs = bsub.add_parser("ratio-sweep", help="solver vs oracle on a random suite")
    rs.add_argument("--suite", required=True,
                    choices=[name for name, (_, suite, _) in SOLVERS.items() if suite])
    rs.add_argument("--count", type=int, required=True)
    rs.add_argument("--seed", type=int, required=True)
    rs.add_argument("--eps", default="1/10")
    rs.add_argument("--csv")
    rs.set_defaults(func=_cmd_bench_ratio_sweep)

    return parser


def run(argv) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (SchedulingError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
