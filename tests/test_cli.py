import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from bipsched import (BipGraph, Instance, Job, MachineEnv, exact_min_makespan,
                      fptas_r2_bipartite, makespan, q2_exact_unit, sqrt_psum_schedule,
                      two_approx_r2, unit_jobs)
from bipsched.cli import (SOLVERS, canonical_dumps, fmt_rational, obj_to_instance,
                          parse_instance, parse_rational, parse_schedule, run,
                          write_instance)
from bipsched.suites import q2_unit_instance, r2_instance, uniform_instance

MINIMAL = '{"edges":[],"jobs":[{"id":0,"p":1}],"machines":{"kind":"identical","m":1}}\n'


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_rational_format():
    assert fmt_rational(Fraction(49)) == "49/1"
    assert parse_rational("6/4") == Fraction(3, 2)
    assert parse_rational("3") == 3
    with pytest.raises(ValueError):
        parse_rational("x/y")
    with pytest.raises(ValueError):
        parse_rational("1/0")


def test_minimal_instance_golden_round_trip(tmp_path):
    path = write(tmp_path / "min.json", MINIMAL)
    inst = parse_instance(path)
    assert inst.n == 1 and inst.env.m == 1
    out = tmp_path / "again.json"
    write_instance(inst, str(out))
    assert out.read_text(encoding="utf-8") == MINIMAL


def test_uniform_round_trip_preserves_speed_order(tmp_path):
    jobs = tuple(Job(id=i, p=i + 1) for i in range(3))
    inst = Instance(jobs, MachineEnv.uniform([1, 3, 2]), BipGraph(3, [(0, 2)]))
    p = tmp_path / "u.json"
    write_instance(inst, str(p))
    text1 = p.read_text(encoding="utf-8")
    again = parse_instance(str(p))
    assert again.env.speeds == (1, 3, 2)
    write_instance(again, str(p))
    assert p.read_text(encoding="utf-8") == text1


def test_self_loop_rejected(tmp_path):
    bad = json.loads(MINIMAL)
    bad["edges"] = [[0, 0]]
    path = write(tmp_path / "bad.json", canonical_dumps(bad))
    with pytest.raises(ValueError, match="self-loop"):
        parse_instance(path)


def test_non_bipartite_rejected(tmp_path):
    obj = {"edges": [[0, 1], [1, 2], [0, 2]],
           "jobs": [{"id": i, "p": 1} for i in range(3)],
           "machines": {"kind": "identical", "m": 2}}
    path = write(tmp_path / "tri.json", canonical_dumps(obj))
    assert run(["solve", "--alg", "oracle", "-i", path,
                "-o", str(path) + ".out"]) == 1


def test_job_record_errors_name_the_job():
    base = {"machines": {"kind": "identical", "m": 2}, "edges": []}
    cases = (([{"id": 0, "p": None}], "job 0: p must be an integer, got None"),
             ([{"id": 0, "p": 1.5}], "job 0: p must be an integer, got 1.5"),
             ([{"id": 1, "p": 2}, {"id": 0, "p": False}], "job 0: p must be an integer, got False"),
             ([{"id": 0, "p": 0}], "job 0: processing requirement must be >= 1"),
             ([{"id": 0, "p_row": [1, 2.5]}], "job 0: p_row entry must be an integer, got 2.5"),
             ([{"id": 0}], "bad job record: 'p'"))
    for jobs, message in cases:
        with pytest.raises(ValueError) as exc:
            obj_to_instance(dict(base, jobs=jobs))
        assert str(exc.value) == message


def test_malformed_json_diagnostic(tmp_path):
    path = write(tmp_path / "broken.json", '{"jobs": [,]}')
    with pytest.raises(ValueError, match="line 1"):
        parse_instance(path)


def test_gen_gilbert_is_byte_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["gen", "gilbert", "--n", "16", "--a", "1/1", "--seed", "42",
            "--speeds", "2,1"]
    assert run(argv + ["-o", str(a)]) == 0
    assert run(argv + ["-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_gen_gilbert_requires_seed(tmp_path, capsys):
    code = run(["gen", "gilbert", "--n", "4", "--a", "1/1",
                "-o", str(tmp_path / "x.json")])
    assert code == 2
    capsys.readouterr()


def test_solve_outputs_pass_verify(tmp_path):
    uni = tmp_path / "uni.json"
    assert run(["gen", "gilbert", "--n", "5", "--a", "1/1", "--seed", "9",
                "--speeds", "3,2,1", "-o", str(uni)]) == 0
    for alg in ("sqrt-psum", "alg2", "oracle"):
        out = tmp_path / f"{alg}.json"
        assert run(["solve", "--alg", alg, "-i", str(uni), "-o", str(out)]) == 0
        assert run(["verify", "-i", str(uni), "-s", str(out)]) == 0

    q2 = tmp_path / "q2.json"
    assert run(["gen", "gilbert", "--n", "3", "--a", "1/1", "--seed", "5",
                "--speeds", "2,1", "-o", str(q2)]) == 0
    out = tmp_path / "q2s.json"
    assert run(["solve", "--alg", "q2-exact-unit", "-i", str(q2), "-o", str(out)]) == 0
    assert run(["verify", "-i", str(q2), "-s", str(out)]) == 0

    r2obj = {"edges": [[0, 1]],
             "jobs": [{"id": 0, "p_row": [2, 3]}, {"id": 1, "p_row": [7, 9]}],
             "machines": {"kind": "unrelated", "m": 2}}
    r2 = write(tmp_path / "r2.json", canonical_dumps(r2obj))
    for alg in ("r2-2apx", "r2-fptas"):
        out = tmp_path / f"{alg}.json"
        assert run(["solve", "--alg", alg, "--eps", "1/10",
                    "-i", r2, "-o", str(out)]) == 0
        assert run(["verify", "-i", r2, "-s", str(out)]) == 0


def test_sqrt_psum_on_long_path_graph(tmp_path):
    # unit jobs on a 1402-vertex path, whose MWIS min cut augments along the
    # whole path
    k = 700
    edges = [(k - i, k + 1 + i) for i in range(k + 1)]
    edges += [(k + 1 + i, k - i - 1) for i in range(k)]
    inst = Instance(unit_jobs(2 * k + 2), MachineEnv.uniform([8, 4, 2, 1]),
                    BipGraph(2 * k + 2, edges))
    path, out = tmp_path / "path.json", tmp_path / "sched.json"
    write_instance(inst, str(path))
    assert run(["solve", "--alg", "sqrt-psum", "-i", str(path), "-o", str(out)]) == 0
    assert run(["verify", "-i", str(path), "-s", str(out)]) == 0


def test_verify_rejects_conflicts_and_bad_makespan(tmp_path, capsys):
    obj = {"edges": [[0, 1]],
           "jobs": [{"id": 0, "p": 1}, {"id": 1, "p": 1}],
           "machines": {"kind": "identical", "m": 2}}
    inst_path = write(tmp_path / "i.json", canonical_dumps(obj))
    sched = write(tmp_path / "s.json",
                  canonical_dumps({"assignment": [0, 0], "makespan": "2/1"}))
    assert run(["verify", "-i", inst_path, "-s", sched]) == 1
    out = capsys.readouterr().out
    assert "jobs 0 and 1" in out

    lying = write(tmp_path / "lie.json",
                  canonical_dumps({"assignment": [0, 1], "makespan": "7/1"}))
    assert run(["verify", "-i", inst_path, "-s", lying]) == 1


def test_schedule_round_trip(tmp_path):
    obj = {"edges": [],
           "jobs": [{"id": 0, "p": 3}, {"id": 1, "p": 2}],
           "machines": {"kind": "uniform", "m": 2, "speeds": ["2/1", "1/1"]}}
    inst = parse_instance(write(tmp_path / "i.json", canonical_dumps(obj)))
    sp = tmp_path / "s.json"
    assert run(["solve", "--alg", "oracle", "-i", str(tmp_path / "i.json"),
                "-o", str(sp)]) == 0
    sched = parse_schedule(str(sp), inst)
    assert len(sched.assignment) == 2


def test_oracle_budget_exit_code(tmp_path):
    inst = Instance(unit_jobs(16), MachineEnv.identical(2), BipGraph(16))
    path = tmp_path / "big.json"
    write_instance(inst, str(path))
    out = tmp_path / "o.json"
    assert run(["solve", "--alg", "oracle", "--max-jobs", "8",
                "-i", str(path), "-o", str(out)]) == 3


def test_alg2_requires_unit_jobs(tmp_path):
    obj = {"edges": [], "jobs": [{"id": 0, "p": 2}],
           "machines": {"kind": "uniform", "m": 2, "speeds": ["2/1", "1/1"]}}
    path = write(tmp_path / "i.json", canonical_dumps(obj))
    assert run(["solve", "--alg", "alg2", "-i", path,
                "-o", str(tmp_path / "s.json")]) == 1


MC_GOLDEN = (
    "trial,n,p_num,p_den,edges,isolated_v2,v2prime,mu,alpha,ratio,"
    "alg2_cmax_num,alg2_cmax_den,lb_num,lb_den\n"
    "0,8,1,8,3,6,2,2,14,1.000000,7,1,11,2\n"
    "1,8,1,8,6,4,3,3,13,1.000000,13,2,11,2\n"
    "# mean edges=4.500000 isolated_v2=5.000000 v2prime=2.500000 mu=2.500000"
    " alpha=13.500000 ratio=1.000000 alg2_cmax=6.750000 lb=5.500000"
    " cmax_over_lb=1.227273\n"
    "# stddev edges=1.500000 isolated_v2=1.000000 v2prime=0.500000 mu=0.500000"
    " alpha=0.500000 ratio=0.000000 alg2_cmax=0.250000 lb=0.000000"
    " cmax_over_lb=0.045455\n"
    "# max edges=6.000000 isolated_v2=6.000000 v2prime=3.000000 mu=3.000000"
    " alpha=14.000000 ratio=1.000000 alg2_cmax=7.000000 lb=5.500000"
    " cmax_over_lb=1.272727\n"
)


def test_bench_mc_csv_golden(tmp_path):
    csv = tmp_path / "mc.csv"
    assert run(["bench", "mc", "--n", "8", "--a", "1/1", "--trials", "2",
                "--seed", "7", "--speeds", "2,1", "--csv", str(csv)]) == 0
    assert csv.read_text(encoding="utf-8") == MC_GOLDEN
    # byte-identical regeneration
    again = tmp_path / "mc2.csv"
    assert run(["bench", "mc", "--n", "8", "--a", "1/1", "--trials", "2",
                "--seed", "7", "--speeds", "2,1", "--csv", str(again)]) == 0
    assert csv.read_bytes() == again.read_bytes()


# suite -> (sampler, solver at eps = 1/2, guarantee(ratio, inst, eps)), written
# out here independently of the solver table in bipsched.cli
SWEEPS = {
    "q2-exact-unit": (q2_unit_instance, q2_exact_unit, lambda ratio, inst, eps: ratio == 1),
    "sqrt-psum": (uniform_instance, sqrt_psum_schedule,
                  lambda ratio, inst, eps: ratio * ratio <= sum(job.p for job in inst.jobs)),
    "r2-2apx": (r2_instance, two_approx_r2, lambda ratio, inst, eps: ratio <= 2),
    "r2-fptas": (r2_instance, lambda inst: fptas_r2_bipartite(inst, Fraction(1, 2)),
                 lambda ratio, inst, eps: ratio <= 1 + eps),
}


def test_bench_ratio_sweep(tmp_path):
    count, seed, eps = 6, 2002, Fraction(1, 2)
    assert sorted(name for name, (_, suite, _) in SOLVERS.items() if suite) == sorted(SWEEPS)
    for suite, (sample, solve, bound) in SWEEPS.items():
        csv = tmp_path / f"{suite}.csv"
        assert run(["bench", "ratio-sweep", "--suite", suite, "--count", str(count),
                    "--seed", str(seed), "--eps", "1/2", "--csv", str(csv)]) == 0
        want = ["case,n,m,alg_cmax_num,alg_cmax_den,opt_num,opt_den,ratio,bound_ok"]
        for case in range(count):
            inst = sample(seed, case)
            alg = makespan(solve(inst), inst)
            opt = exact_min_makespan(inst).makespan
            ratio = alg / opt
            want.append(f"{case},{inst.n},{inst.env.m},{alg.numerator},{alg.denominator},"
                        f"{opt.numerator},{opt.denominator},{float(ratio):.6f},"
                        f"{int(bound(ratio, inst, eps))}")
        want.append(f"# within_bound {count}/{count}")
        assert csv.read_text(encoding="utf-8").splitlines() == want, suite
        # the table's guarantee agrees with the formula above on both sides of
        # every bound: ratios 1..8 cover sqrt(psum) <= sqrt(40) in these suites
        guarantee = SOLVERS[suite][2]
        inst, opt = sample(seed, 0), Fraction(7, 3)
        for eighths in range(8, 65):
            alg = opt * Fraction(eighths, 8)
            assert guarantee(alg, opt, inst, eps) == bound(alg / opt, inst, eps), (suite, alg)


@pytest.mark.parametrize("argv", [
    ["gen", "gilbert", "--n", "0", "--a", "1", "--seed", "1", "-o", "g.json"],
    ["bench", "mc", "--n", "0", "--a", "1", "--trials", "1", "--seed", "1"],
])
def test_zero_part_size_exits_1(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    assert run(argv) == 1
    assert capsys.readouterr().err.startswith("error: part size")


def test_deeply_nested_json_exits_1(tmp_path, capsys):
    deep = write(tmp_path / "deep.json", "[" * 100_000 + "]" * 100_000)
    inst = write(tmp_path / "i.json", json.dumps(STRICT_DOCS["uniform"]))
    assert run(["solve", "--alg", "oracle", "-i", deep, "-o", str(tmp_path / "s.json")]) == 1
    assert run(["verify", "-i", inst, "-s", deep]) == 1
    assert capsys.readouterr().err.count("nested too deeply") == 2


@pytest.mark.parametrize("argv", [
    ["solve", "--alg", "oracle", "-i", "i.json", "-o"],
    ["gen", "gilbert", "--n", "3", "--a", "1", "--seed", "1", "-o"],
    ["bench", "mc", "--n", "3", "--a", "1", "--trials", "1", "--seed", "1", "--csv"],
    ["bench", "ratio-sweep", "--suite", "r2-2apx", "--count", "1", "--seed", "1", "--csv"],
])
@pytest.mark.parametrize("target", ["missing/x.out", "."])
def test_unwritable_output_exits_1(tmp_path, monkeypatch, capsys, argv, target):
    # a missing directory and a directory as the file: both OSErrors
    monkeypatch.chdir(tmp_path)
    (tmp_path / "i.json").write_text(MINIMAL, encoding="utf-8")
    assert run(argv + [target]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {target}: ") and "Traceback" not in err


@pytest.mark.parametrize("count", ["0", "-1"])
def test_ratio_sweep_needs_a_positive_count(capsys, count):
    assert run(["bench", "ratio-sweep", "--suite", "r2-2apx", "--count", count,
                "--seed", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: --count must be at least 1\n"
    assert "within bound" not in captured.out


def test_gen_gadget_and_hardness(tmp_path):
    gpath = tmp_path / "g.json"
    assert run(["gen", "gadget", "--kind", "h2", "--sizes", "1,2",
                "-o", str(gpath)]) == 0
    inst = parse_instance(str(gpath))
    assert inst.n == 4

    base = tmp_path / "base.json"
    binst = Instance(unit_jobs(4), MachineEnv.identical(3),
                     BipGraph(4, [(0, 1), (1, 2), (2, 3)]))
    write_instance(binst, str(base))
    hpath = tmp_path / "hard.json"
    wpath = tmp_path / "wit.json"
    assert run(["gen", "hardness-uniform", "-i", str(base),
                "--anchors", "0,1,3", "--k", "1", "--m", "3",
                "-o", str(hpath), "--witness", str(wpath)]) == 0
    hard = parse_instance(str(hpath))
    assert hard.n == 4 + 48 * 4 + 4 * 4 + 2
    assert run(["verify", "-i", str(hpath), "-s", str(wpath)]) == 0

    upath = tmp_path / "unrel.json"
    assert run(["gen", "hardness-unrelated", "-i", str(base),
                "--anchors", "0,1,3", "--d", "5", "-o", str(upath)]) == 0
    assert parse_instance(str(upath)).env.m == 3


STRICT_DOCS = {
    "uniform": {"edges": [[0, 1]], "jobs": [{"id": 0, "p": 2}, {"id": 1, "p": 1}],
                "machines": {"kind": "uniform", "m": 2, "speeds": ["2/1", "1/1"]}},
    "unrelated": {"edges": [[0, 1]],
                  "jobs": [{"id": 0, "p_row": [2, 3]}, {"id": 1, "p_row": [7, 9]}],
                  "machines": {"kind": "unrelated", "m": 2}},
}


@pytest.mark.parametrize("doc, path, value", [
    ("uniform", ("jobs", 0, "p"), 2.7),
    ("uniform", ("jobs", 0, "p"), True),
    ("uniform", ("jobs", 0, "p"), "3"),
    ("uniform", ("jobs", 0, "id"), 0.5),
    ("uniform", ("machines", "m"), 2.0),
    ("unrelated", ("jobs", 0, "p_row"), [1.9, 2]),
    ("uniform", ("edges", 0), [0, 1.5]),
    ("uniform", ("edges",), 7),
    ("uniform", ("edges",), [[0, None]]),
    ("uniform", ("machines", "speeds"), [2, 1]),
    ("uniform", ("machines", "speeds"), "21"),
])
def test_instance_numbers_are_strict(tmp_path, capsys, doc, path, value):
    obj = json.loads(json.dumps(STRICT_DOCS[doc]))
    _set_path(obj, path, value)
    inst = write(tmp_path / "i.json", json.dumps(obj))
    assert run(["solve", "--alg", "oracle", "-i", inst, "-o", str(tmp_path / "s.json")]) == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("sched", [
    {"assignment": [0.0, 1], "makespan": "1/1"},
    {"assignment": [True, 0], "makespan": "2/1"},
    {"assignment": 1, "makespan": "1/1"},
    {"assignment": [0, 1], "makespan": 1},
])
def test_schedule_numbers_are_strict(tmp_path, capsys, sched):
    inst = write(tmp_path / "i.json", json.dumps(STRICT_DOCS["uniform"]))
    path = write(tmp_path / "s.json", json.dumps(sched))
    assert run(["verify", "-i", inst, "-s", path]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def _set_path(obj, path, value):
    _get_path(obj, path[:-1])[path[-1]] = value


def _paths(obj, prefix=()):
    yield prefix
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list):
        items = enumerate(obj)
    else:
        return
    for key, child in items:
        yield from _paths(child, prefix + (key,))


def _get_path(obj, path):
    for key in path:
        obj = obj[key]
    return obj


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=6)


@st.composite
def retyped_documents(draw):
    """A valid instance and schedule with one field set to a value of another JSON type."""
    kind = draw(st.sampled_from(sorted(STRICT_DOCS)))
    docs = {"instance": json.loads(json.dumps(STRICT_DOCS[kind])),
            "schedule": {"assignment": [0, 1],
                         "makespan": {"uniform": "1/1", "unrelated": "9/1"}[kind]}}
    which = draw(st.sampled_from(sorted(docs)))
    path = draw(st.sampled_from(list(_paths(docs[which]))))
    old = _get_path(docs[which], path)
    value = draw(JSON_VALUES.filter(lambda v: type(v) is not type(old)))
    if path:
        _set_path(docs[which], path, value)
    else:
        docs[which] = value
    return docs


@settings(max_examples=200, deadline=None)
@given(retyped_documents())
def test_retyped_fields_end_in_an_exit_code(tmp_path_factory, docs):
    base = tmp_path_factory.mktemp("retyped")
    inst = write(base / "i.json", json.dumps(docs["instance"]))
    sched = write(base / "s.json", json.dumps(docs["schedule"]))
    for argv in (["solve", "--alg", "oracle", "-i", inst, "-o", str(base / "o.json")],
                 ["verify", "-i", inst, "-s", sched]):
        assert run(argv) in (0, 1, 2, 3)
