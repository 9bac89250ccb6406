import itertools
import random
import time

import pytest

from cpconftest import solver
from cpconftest.conformity import CheckOptions, check, ground_pair
from cpconftest.corpus import corpus_path, load_manifest
from cpconftest.grounding import (
    AllDiffC,
    AndC,
    Const,
    CountC,
    OrC,
    PackC,
    Prod,
    RelAtom,
    Sum,
    TableC,
    Var,
    build_instance,
    evaluate_ground,
    ground,
    mk_diff,
)
from cpconftest.parser import parse_data_file, parse_model_file
from cpconftest.solver import SearchConfig, presolve, solve, solve_optimal
from cpconftest.transform import negate

from conftest import brute_min, brute_solutions, rand_tree

x, y, z = Var(0), Var(1), Var(2)


def doms(n, lo=0, hi=4):
    return {v: (lo, hi) for v in range(n)}


def test_sat_simple():
    out = solve(doms(2), [RelAtom("<", x, y), RelAtom("==", Sum((x, y)), Const(5))])
    assert out.status == "SAT"
    assert out.assignment[0] < out.assignment[1]
    assert out.assignment[0] + out.assignment[1] == 5


def test_unsat_simple():
    out = solve(doms(2), [RelAtom(">", x, y), RelAtom(">", y, x)])
    assert out.status == "UNSAT"


def test_alldiff_pigeonhole():
    out = solve({v: (0, 1) for v in range(3)}, [AllDiffC((x, y, z))])
    assert out.status == "UNSAT"


def test_count_exact():
    t = CountC((x, y, z), Const(2), "==", Const(3))
    out = solve(doms(3), [t])
    assert out.status == "SAT"
    assert list(out.assignment.values()) == [2, 2, 2]


def test_table_allowed():
    t = TableC("allowed", (x, y), ((1, 3), (2, 0)))
    sols = {tuple(a.values()) for a in brute_solutions(doms(2), [t])}
    out = solve(doms(2), [t])
    assert out.status == "SAT" and tuple(out.assignment.values()) in sols


def test_pack_loads():
    # three items sized 2,3,4 into two bins; loads must track memberships
    domains = {0: (0, 9), 1: (0, 9), 2: (1, 2), 3: (1, 2), 4: (1, 2)}
    t = PackC((0, 1), (2, 3, 4), (2, 3, 4), (1, 2))
    out = solve(domains, [t, RelAtom("==", Var(0), Const(5))])
    assert out.status == "SAT"
    a = out.assignment
    assert sum(s for s, b in zip((2, 3, 4), (a[2], a[3], a[4])) if b == 1) == 5
    assert a[0] + a[1] == 9


def test_optimal_matches_brute_force():
    trees = [RelAtom("<", x, y), RelAtom("!=", Sum((x, y)), Const(3))]
    obj = Sum((Prod((Const(3), x)), y))
    out = solve_optimal(doms(2), trees, obj)
    assert out.status == "SAT" and out.proven
    assert out.value == brute_min(doms(2), trees, obj)


def test_optimal_unsat():
    out = solve_optimal(doms(1, 2, 3), [RelAtom(">", x, Const(5))], x)
    assert out.status == "UNSAT"


def test_node_budget_reports_resource_out():
    trees = [AllDiffC(tuple(Var(v) for v in range(5)))]
    out = solve({v: (0, 3) for v in range(5)}, trees, config=SearchConfig(node_limit=1))
    assert out.status in ("UNSAT", "RESOURCE_OUT")
    big = {v: (0, 9) for v in range(8)}
    t = [AllDiffC(tuple(Var(v) for v in range(8)))]
    out = solve_optimal(big, t, Sum(tuple(Var(v) for v in range(8))),
                        config=SearchConfig(node_limit=5))
    assert out.status == "RESOURCE_OUT" and not out.proven


def test_deterministic():
    trees = [AllDiffC((x, y, z)), RelAtom("<", x, z)]
    runs = [solve(doms(3), trees) for _ in range(3)]
    assert all(r.assignment == runs[0].assignment for r in runs)
    assert all(r.stats.nodes == runs[0].stats.nodes for r in runs)


def test_time_limit_counts_presolve():
    # presolve keys every disjunct of a wide disjunction and then drops it,
    # since its last disjunct always holds; posting and search are trivial
    vs = [Var(v) for v in range(8)]
    wide = OrC(
        tuple(RelAtom("==", Sum((a, b)), Sum((c, d))) for a, b, c, d in itertools.permutations(vs, 4))
        + (RelAtom("<=", x, Sum((x, Const(1)))),)
    )
    hard = [RelAtom("<", x, y)]
    t0 = time.monotonic()
    presolve(hard, [wide])
    took = time.monotonic() - t0
    out = solve(doms(8, 0, 9), hard, [wide], config=SearchConfig(time_limit=took / 4))
    assert out.status == "RESOURCE_OUT"


def test_extras_behave_like_hard_constraints():
    out = solve(doms(2), [RelAtom("<", x, y)], extras=[RelAtom("==", x, Const(4))])
    assert out.status == "UNSAT"
    out = solve(doms(2), [RelAtom("<", x, y)], extras=[RelAtom("==", x, Const(3))])
    assert out.status == "SAT" and out.assignment[0] == 3


# -- presolve ----------------------------------------------------------------


def test_presolve_substitutes_definitions():
    # difference variables d01=v4, d23=v5 defined from x0..x3; asking for
    # equal differences contradicts the alldiff with no search at all
    defs = [
        RelAtom("==", Var(4), mk_diff(Var(1), Var(0))),
        RelAtom("==", Var(5), mk_diff(Var(3), Var(2))),
    ]
    hard = defs + [AllDiffC((Var(4), Var(5)))]
    extras = [OrC((RelAtom("==", mk_diff(Var(1), Var(0)), mk_diff(Var(3), Var(2))),))]
    h2, e2, unsat = presolve(hard, extras)
    assert unsat
    domains = {v: (0, 9) for v in range(4)} | {v: (-9, 9) for v in (4, 5)}
    out = solve(domains, hard, extras)
    assert out.status == "UNSAT" and out.stats.nodes == 0


def test_presolve_drops_contradicted_disjuncts():
    ne = RelAtom("!=", x, y)
    disj = OrC((RelAtom("==", x, y), RelAtom("<", x, y)))
    h2, e2, unsat = presolve([ne], [disj])
    assert not unsat
    (kept,) = e2
    assert kept == RelAtom("<", x, y)


def test_presolve_proves_unsat_via_alldiff_pairs():
    alldiff = AllDiffC((x, y, z))
    h2, e2, unsat = presolve([alldiff], [OrC((RelAtom("==", x, y),))])
    assert unsat


def test_presolve_keeps_satisfiable_problems():
    hard = [RelAtom("<", x, y)]
    h2, e2, unsat = presolve(hard, [])
    assert not unsat
    assert solve(doms(2), h2).status == "SAT"


def _full_scan_reduce(p, defs):
    """The unindexed reduction: every definition tried, in order."""
    changed = True
    while changed:
        changed = False
        for d, _ in defs:
            for sign in (1, -1):
                q = dict(p)
                for m, c in d.items():
                    nc = q.get(m, 0) - sign * c
                    if nc == 0:
                        q.pop(m, None)
                    else:
                        q[m] = nc
                if len(q) < len(p):
                    p = q
                    changed = True
                    break
            if changed:
                break
    return p


def _linear_system(rng):
    """Overlapping linear definitions and atoms built around them."""
    vs = [Var(v) for v in range(rng.randint(4, 6))]

    def terms(k):
        return [Prod((Const(rng.choice((-2, -1, 1, 2))), v)) for v in rng.sample(vs, k)]

    defs = [
        RelAtom("==", Sum(tuple(terms(rng.randint(2, 4)))), Const(rng.randint(-2, 2)))
        for _ in range(rng.randint(2, 5))
    ]
    if rng.random() < 0.5:
        defs.append(RelAtom("==", Sum((x, Const(2))), x))  # constant only: 2 == 0
    atoms = []
    for _ in range(rng.randint(3, 8)):
        base = rng.choice(defs).left
        sign = rng.choice((1, -1))
        items = [Prod((Const(sign), base))] + terms(rng.randint(0, 2))
        op = rng.choice(("==", "!=", "<", "<="))
        atoms.append(RelAtom(op, Sum(tuple(items)), Const(rng.randint(-3, 3))))
    own = defs[0]  # a definition source that also sits inside a disjunction
    hard = defs[:-1] + [AndC((defs[-1], atoms[0])), OrC(tuple(atoms[1:3]) + (own,))]
    extras = [OrC(tuple(atoms[3:]) + (own,))] if atoms[3:] else []
    return hard, extras


def test_indexed_reduction_matches_full_scan(monkeypatch):
    rng = random.Random(5150)
    cases = [_linear_system(rng) for _ in range(200)]
    oracle = parse_model_file(corpus_path("golomb", "oracle.cpm"))
    program = parse_model_file(corpus_path("golomb", "p.cpm"))
    oracle_gm, p_gm = ground_pair(oracle, program, overrides={"m": 8})
    cases.append(([c.tree for c in p_gm.constraints], [negate(oracle_gm.constraint("c2").tree).tree]))
    indexed = [presolve(hard, extras) for hard, extras in cases]
    shrunk = []

    def full_scan(p, defs, index):
        q = _full_scan_reduce(p, defs)
        shrunk.append(len(q) < len(p))
        return q

    monkeypatch.setattr(solver, "_try_reduce", full_scan)
    full = [presolve(hard, extras) for hard, extras in cases]
    assert indexed == full
    assert sum(shrunk) > len(cases)  # reductions happen, so the test can see one go wrong


# -- randomized cross-checks ---------------------------------------------------


def test_random_models_agree_with_brute_force(rng):
    for _ in range(150):
        n = rng.randint(2, 3)
        domains = {v: (0, rng.randint(1, 3)) for v in range(n)}
        trees = [rand_tree(rng, list(range(n))) for _ in range(rng.randint(1, 3))]
        sols = brute_solutions(domains, trees)
        out = solve(domains, trees, config=SearchConfig(node_limit=20000))
        assert out.status in ("SAT", "UNSAT")
        if sols:
            assert out.status == "SAT"
            assert all(evaluate_ground(t, out.assignment) for t in trees)
        else:
            assert out.status == "UNSAT"


def test_random_optimization_agrees_with_brute_force(rng):
    for _ in range(60):
        n = rng.randint(2, 3)
        domains = {v: (0, rng.randint(1, 3)) for v in range(n)}
        trees = [rand_tree(rng, list(range(n)))]
        obj = Sum(tuple(Prod((Const(rng.randint(-2, 2)), Var(v))) for v in range(n)))
        expect = brute_min(domains, trees, obj)
        out = solve_optimal(domains, trees, obj, config=SearchConfig(node_limit=50000))
        if expect is None:
            assert out.status == "UNSAT"
        else:
            assert out.status == "SAT" and out.proven
            assert out.value == expect


# -- domains and the propagation loop ------------------------------------------


def _assert_bounds_cached(d, expect=None):
    """Cached bounds equal the ones recomputed from the domain's contents,
    and the contents are `expect` when given."""
    vals = list(d.values())
    if expect is not None:
        assert vals == sorted(expect)
    assert (d.min, d.max, d.size) == (min(vals), max(vals), len(vals))
    assert d.fixed == (len(vals) == 1)
    assert d.value == d.min


def test_cached_domain_bounds(rng):
    for _ in range(300):
        offset = rng.randint(-40, 40)
        span = rng.randint(1, 70)
        mask = rng.getrandbits(span) | 1 << rng.randrange(span)
        d = solver.BitDom(offset, mask)
        ref = {offset + k for k in range(span) if mask >> k & 1}
        _assert_bounds_cached(d, ref)
        v = rng.randint(offset - 2, offset + span + 1)
        some = rng.sample(range(offset - 2, offset + span + 2), rng.randint(1, 5))
        for nd, want in (
            (d.remove(v), ref - {v}),
            (d.with_min(v), {w for w in ref if w >= v}),
            (d.with_max(v), {w for w in ref if w <= v}),
            (d.restrict(some), ref & set(some)),
        ):
            if want:
                _assert_bounds_cached(nd, want)
            else:
                assert nd is None
    for _ in range(100):
        lo = rng.randint(-3000, 3000)
        hi = lo + solver._BITDOM_SPAN + rng.randint(1, 400)
        holes = {rng.randint(lo, lo + 5) for _ in range(3)} | {rng.randint(hi - 5, hi) for _ in range(3)}
        holes |= {rng.randint(lo, hi) for _ in range(5)}
        d = solver.IntDom.make(lo, hi, holes)
        ref = set(range(lo, hi + 1)) - holes
        _assert_bounds_cached(d, ref)
        v = rng.choice((rng.randint(lo - 1, lo + 6), rng.randint(hi - 6, hi + 1), rng.randint(lo, hi)))
        for nd, want in (
            (d.remove(v), ref - {v}),
            (d.remove(d.min), ref - {min(ref)}),
            (d.remove(d.max), ref - {max(ref)}),
            (d.with_min(v), {w for w in ref if w >= v}),
            (d.with_max(v), {w for w in ref if w <= v}),
        ):
            if want:
                _assert_bounds_cached(nd, want)
            else:
                assert nd is None
        # restrict keeps only the bounds of a wide result, so check consistency
        _assert_bounds_cached(d.restrict(rng.sample(range(lo, hi + 1), 20) + [d.min, d.max]))
        _assert_bounds_cached(d.restrict(rng.sample(range(lo, lo + 50), 10) + [d.min]))


def _effort(out):
    return out.status, out.assignment, out.stats.nodes, out.stats.failures


def test_event_wakeups_match_waking_on_every_change(rng, monkeypatch):
    # Problems drawn from the families the other solver tests use: seeded
    # random systems, the Golomb reference's optimum and conformity subproblems.
    runs = []
    for _ in range(150):
        n = rng.randint(2, 3)
        domains = {v: (0, rng.randint(1, 3)) for v in range(n)}
        trees = [rand_tree(rng, list(range(n))) for _ in range(rng.randint(1, 3))]
        runs.append(lambda d=domains, t=trees: solve(d, t, config=SearchConfig(node_limit=20000)))
    oracle = parse_model_file(corpus_path("golomb", "oracle.cpm"))
    gm = ground(oracle, build_instance(oracle, None, {"m": 6}))
    runs.append(lambda: solve_optimal(dict(gm.domains), [c.tree for c in gm.constraints], gm.objective))
    # the refuted c2 subproblem of golomb-p-fixed-one at m=5, and the c2
    # subproblem of carseq-cput1-one, which finds its witness
    for family, program, data, params in (
        ("golomb", "p_fixed.cpm", None, {"m": 5}),
        ("carseq", "cput1.cpm", parse_data_file(corpus_path("carseq", "slots10.data")), None),
    ):
        ref_gm, cput_gm = ground_pair(
            parse_model_file(corpus_path(family, "oracle.cpm")),
            parse_model_file(corpus_path(family, program)), data, params,
        )
        hard = [c.tree for c in cput_gm.constraints]
        extra = negate(ref_gm.constraint("c2").tree).tree
        runs.append(lambda d=dict(cput_gm.domains), h=hard, e=extra: solve(d, h, [e]))

    woken = [run() for run in runs]
    register = solver.Engine.register

    def wake_on_every_change(eng, prop):
        prop.event = solver.DOMAIN
        register(eng, prop)

    monkeypatch.setattr(solver.Engine, "register", wake_on_every_change)
    monkeypatch.setattr(solver.OrProp, "late", False)  # one queue, in wake order
    every = [run() for run in runs]
    assert [_effort(a) for a in woken] == [_effort(b) for b in every]
    # the propagator runs saved; their count also depends on queue order
    assert sum(a.stats.propagations for a in woken) < sum(b.stats.propagations for b in every)


def test_search_effort_pinned():
    # Node and failure counts of the propagation loop at the time it was
    # reworked; a change that moves them must say why.
    oracle = parse_model_file(corpus_path("golomb", "oracle.cpm"))
    gm = ground(oracle, build_instance(oracle, None, {"m": 7}))
    out = solve_optimal(dict(gm.domains), [c.tree for c in gm.constraints], gm.objective)
    assert (out.status, out.value, out.stats.nodes, out.stats.failures) == ("SAT", 25, 8886, 6698)
    pinned = {"golomb-p-fixed-best-m5": (5, 221, 164), "carseq-cput1-one": (2, 1715, 852)}
    for run in load_manifest()["runs"]:
        if run["name"] not in pinned:
            continue
        v = check(
            parse_model_file(corpus_path(*run["oracle"].split("/"))),
            parse_model_file(corpus_path(*run["program"].split("/"))),
            data=parse_data_file(corpus_path(*run["data"].split("/"))) if run.get("data") else None,
            overrides=run.get("params"),
            opts=CheckOptions(relation=run["relation"],
                              bounds=tuple(run["bounds"]) if run.get("bounds") else None),
        )
        got = (v.stats["solves"], v.stats["nodes"], v.stats["failures"])
        assert got == pinned.pop(run["name"]), run["name"]
    assert not pinned
