"""Acceptance checks for the toolkit as a whole.

Each test covers one advertised capability on the bundled corpus or on
randomized inputs, asserts it outright, and records a PASS/FAIL line that
the terminal summary echoes after the run.  These are the slow tests;
deselect them with `pytest -k "not acceptance"` during development.
"""

import itertools
import json
import random
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from cpconftest import (
    CheckOptions,
    SearchConfig,
    UsageError,
    ac_equal,
    build_instance,
    canonical_key,
    check,
    evaluate_ground,
    expand_witness,
    ground,
    ground_pair,
    negate,
    parse_data_file,
    parse_model_file,
    solve,
    solve_optimal,
    validate_witness,
)
from cpconftest.corpus import corpus_path
from cpconftest.grounding import (
    AndC,
    Const,
    OrC,
    RelAtom,
    Var,
    mk_prod,
    mk_sum,
)

from conftest import (
    ACCEPTANCE_LINES,
    RULER_OPT,
    all_assignments,
    brute_min,
    brute_ruler_optimum,
    brute_solutions,
    rand_expr,
    rand_tree,
    ruler_ok,
)

ORACLE = "golomb/oracle.cpm"


def model(rel):
    return parse_model_file(corpus_path(*rel.split("/")))


def run_check(oracle, cput, relation="one", m=None, data=None, bounds=None, tl=None, **kw):
    overrides = {"m": m} if m is not None else None
    opts = CheckOptions(relation=relation, time_limit=tl, bounds=bounds, **kw)
    return check(model(oracle), model(cput), data=data, overrides=overrides, opts=opts)


def pair(oracle, cput, m=None, data=None):
    overrides = {"m": m} if m is not None else None
    return ground_pair(model(oracle), model(cput), data, overrides)


@contextmanager
def criterion(n, title):
    try:
        yield
    except BaseException:
        ACCEPTANCE_LINES.append(f"ACCEPTANCE {n:>2} {title}: FAIL")
        raise
    ACCEPTANCE_LINES.append(f"ACCEPTANCE {n:>2} {title}: PASS")


def revalidate(oracle_rel, cput_rel, witness, m=None, data=None):
    oracle_gm, cput_gm = pair(oracle_rel, cput_rel, m=m, data=data)
    a = expand_witness(cput_gm.space, witness)
    return validate_witness(oracle_gm, cput_gm, a)


def test_acceptance_1_golomb_faulty_drafts():
    with criterion(1, "golomb drafts 1-4 non-conform at m=8 with live witnesses"):
        for name in ("cput1", "cput2", "cput3", "cput4"):
            rel = f"golomb/{name}.cpm"
            v = run_check(ORACLE, rel, m=8, tl=300.0)
            assert v.kind == "NonConf", (name, v.reason)
            assert v.stats["elapsed"] < 300.0, name
            rep = revalidate(ORACLE, rel, v.witness, m=8)
            assert rep.genuine and rep.direction == "extra-solution", name
            assert rep.program_satisfied and not rep.reference_satisfied, name
            xs = [v.witness[f"x[{i}]"] for i in range(1, 9)]
            assert not ruler_ok(xs), (name, xs)


def test_acceptance_2_stored_point_still_proves_the_fault():
    with criterion(2, "refined program non-conform at m=8; stored point revalidates"):
        v = run_check(ORACLE, "golomb/p.cpm", m=8, tl=300.0)
        assert v.kind == "NonConf" and v.reason == "extra-solution"
        assert v.stats["elapsed"] < 300.0
        raw = json.loads(
            corpus_path("witnesses", "golomb_m8_extra.json").read_text(encoding="utf-8")
        )
        assert raw["x"] == [0, 1, 3, 6, 10, 26, 27, 28]
        rep = revalidate(ORACLE, "golomb/p.cpm", raw, m=8)
        assert rep.genuine and rep.direction == "extra-solution"
        assert rep.program_satisfied
        assert "c2" in rep.reference_violations


def test_acceptance_3_certificates_and_exhaustive_inclusion():
    with criterion(3, "repaired program certified at m=5 and m=6; inclusion exhaustive at m=4"):
        for m in (5, 6):
            v = run_check(ORACLE, "golomb/p_fixed.cpm", m=m, tl=600.0)
            assert v.kind == "Conf", (m, v.reason)
            assert v.stats["elapsed"] < 600.0, m
        oracle_gm, cput_gm = pair(ORACLE, "golomb/p_fixed.cpm", m=4)
        xv = [cput_gm.space.index[("x", (i,))] for i in range(1, 5)]
        assert all(cput_gm.domains[v] == (0, 16) for v in xv)
        accepted = 0
        for combo in itertools.product(range(17), repeat=4):
            full, open_vids = cput_gm.extend_assignment(dict(zip(xv, combo)))
            assert not open_vids
            if cput_gm.in_domains(full) and cput_gm.evaluate(full):
                accepted += 1
                # independent ruler property, not the packaged evaluator
                assert ruler_ok(combo), combo
        assert accepted > 0


def test_acceptance_4_projection_equality_fails_on_symmetry_breaking():
    with criterion(4, "repaired program fails projection equality at m=6"):
        v = run_check(ORACLE, "golomb/p_fixed.cpm", relation="all", m=6, tl=600.0)
        assert v.kind == "NonConf" and v.reason == "missing-solution"
        rep = revalidate(ORACLE, "golomb/p_fixed.cpm", v.witness, m=6)
        assert rep.genuine and rep.direction == "missing-solution"
        assert rep.reference_satisfied and rep.program_satisfied is False
        xs = [v.witness[f"x[{i}]"] for i in range(1, 7)]
        assert ruler_ok(xs), xs


def test_acceptance_5_best_relation_locates_the_optimum():
    with criterion(5, "best relation accepts [opt,opt] and rejects [opt+1,opt+10]"):
        assert brute_ruler_optimum(4) == RULER_OPT[4] == 6
        assert brute_ruler_optimum(5) == RULER_OPT[5] == 11
        for m in (4, 5):
            opt = RULER_OPT[m]
            v = run_check(
                ORACLE, "golomb/p_fixed.cpm", relation="best", m=m,
                bounds=(opt, opt), tl=60.0,
            )
            assert v.kind == "Conf", (m, v.reason)
            assert v.stats["elapsed"] < 60.0
            v = run_check(
                ORACLE, "golomb/p_fixed.cpm", relation="best", m=m,
                bounds=(opt + 1, opt + 10), tl=60.0,
            )
            assert v.kind == "NonConf", m
            assert v.reason == "reference-beats-lower-bound"
            assert v.stats["elapsed"] < 60.0


def test_acceptance_6_car_sequencing_matrix():
    with criterion(6, "car sequencing: three faults caught, unsatisfiable draft reported"):
        data = parse_data_file(corpus_path("carseq", "slots10.data"))
        for name in ("cput1", "cput2", "cput3"):
            rel = f"carseq/{name}.cpm"
            v = check(
                model("carseq/oracle.cpm"), model(rel), data=data,
                opts=CheckOptions(time_limit=60.0),
            )
            assert v.kind == "NonConf", (name, v.reason)
            assert v.stats["elapsed"] < 60.0, name
            rep = revalidate("carseq/oracle.cpm", rel, v.witness, data=data)
            assert rep.genuine, name
        v4 = check(
            model("carseq/oracle.cpm"), model("carseq/cput4.cpm"), data=data,
            opts=CheckOptions(time_limit=60.0),
        )
        assert v4.kind == "NonConf"
        assert v4.reason == "unsatisfiable-program"
        # the report itself explains why an empty program cannot conform
        assert any("no solution" in note for note in v4.notes)


def test_acceptance_7_negation_complements_exactly():
    with criterion(7, "10^4 random ground constraints: negation complements exactly"):
        rng = random.Random(740031)
        checked = 0
        for _ in range(10000):
            nv = rng.randint(1, 4)
            vids = list(range(nv))
            lo = rng.randint(0, 2)
            hi = rng.randint(lo, 4)
            tree = rand_tree(rng, vids)
            neg = negate(tree)
            for a in all_assignments(vids, lo, hi):
                assert evaluate_ground(neg, a) == (not evaluate_ground(tree, a))
            checked += 1
        assert checked >= 10000


def test_acceptance_8_solver_agrees_with_enumeration():
    with criterion(8, "10^3 random models: solver status and optimum match brute force"):
        rng = random.Random(55117)
        for _ in range(1000):
            nv = rng.randint(2, 3)
            vids = list(range(nv))
            domains = {v: (0, rng.randint(1, 3)) for v in vids}
            trees = [rand_tree(rng, vids) for _ in range(rng.randint(1, 3))]
            sols = brute_solutions(domains, trees)
            out = solve(domains, trees, (), SearchConfig(node_limit=100000))
            assert out.status == ("SAT" if sols else "UNSAT"), trees
            if out.status == "SAT":
                assert all(evaluate_ground(t, out.assignment) for t in trees)
            obj = rand_expr(rng, vids)
            best = brute_min(domains, trees, obj)
            opt = solve_optimal(domains, trees, obj, SearchConfig(node_limit=200000))
            if best is None:
                assert opt.status == "UNSAT"
            else:
                assert opt.status == "SAT" and opt.proven
                assert opt.value == best, (trees, obj)


def test_acceptance_9_rewriter_identities_and_reflexive_checks():
    with criterion(9, "rewrite identities hold; equality test sound; corpus models conform to themselves with no search"):
        w, x, y, z = Var(0), Var(1), Var(2), Var(3)
        a = RelAtom("<", x, y)
        b = RelAtom("==", y, z)
        c = RelAtom(">=", z, w)
        identities = [
            # commutativity and associative flattening
            (RelAtom("<", mk_sum((x, y)), z), RelAtom("<", mk_sum((y, x)), z)),
            (RelAtom("==", mk_prod((x, y)), z), RelAtom("==", mk_prod((y, x)), z)),
            (
                RelAtom("<", mk_sum((x, mk_sum((y, z)))), w),
                RelAtom("<", mk_sum((mk_sum((x, y)), z)), w),
            ),
            # neutral and absorbing elements
            (RelAtom("==", mk_sum((x, Const(0))), y), RelAtom("==", x, y)),
            (RelAtom("==", mk_prod((x, Const(1))), y), RelAtom("==", x, y)),
            (RelAtom("==", mk_prod((x, Const(0))), y), RelAtom("==", Const(0), y)),
            # distribution
            (
                RelAtom("==", mk_prod((x, mk_sum((y, z)))), w),
                RelAtom("==", mk_sum((mk_prod((x, y)), mk_prod((x, z)))), w),
            ),
            # relation mirroring
            (RelAtom("<", x, y), RelAtom(">", y, x)),
            (RelAtom("<=", x, y), RelAtom(">=", y, x)),
            # connective flattening and shared-branch factoring
            (AndC((a, AndC((b, c)))), AndC((a, b, c))),
            (OrC((a, OrC((b, c)))), OrC((a, b, c))),
            (AndC((OrC((a, b)), OrC((a, c)))), OrC((a, AndC((b, c))))),
        ]
        vids = [0, 1, 2, 3]
        for left, right in identities:
            assert canonical_key(left) == canonical_key(right), (left, right)
            assert ac_equal(left, right)
            for asg in all_assignments(vids, 0, 2):
                assert evaluate_ground(left, asg) == evaluate_ground(right, asg)

        # soundness: whenever the equality test fires, semantics agree
        rng = random.Random(90210)
        trees = [rand_tree(rng, [0, 1, 2]) for _ in range(120)]
        for t1, t2 in itertools.combinations(trees, 2):
            if ac_equal(t1, t2):
                for asg in all_assignments([0, 1, 2], 0, 2):
                    assert evaluate_ground(t1, asg) == evaluate_ground(t2, asg)
        assert all(ac_equal(t, t) for t in trees)

        # every corpus model conforms to itself under all with no search:
        # presolve refutes the negation of each constraint it asserts
        usual = {"golomb/cput4.cpm": ("NonConf", "unsatisfiable-program")}
        slots = parse_data_file(corpus_path("carseq", "slots10.data"))
        for family, data, overrides in (("golomb", None, {"m": 5}), ("carseq", slots, None)):
            for path in sorted(Path(corpus_path(family, "oracle.cpm")).parent.glob("*.cpm")):
                rel = f"{family}/{path.name}"
                both = parse_model_file(path)
                opts = CheckOptions(relation="all", time_limit=60.0)
                if rel == "carseq/cput4.cpm":
                    # it asks for more cars than slots: no reference to check
                    with pytest.raises(UsageError):
                        check(both, both, data=data, overrides=overrides, opts=opts)
                    continue
                v = check(both, both, data=data, overrides=overrides, opts=opts)
                assert (v.kind, v.reason) == usual.get(rel, ("Conf", None)), rel
                assert v.subreports, rel
                assert all(s.status == "unsat" and s.nodes == 0 for s in v.subreports), rel


def test_acceptance_10_detection_scales_better_than_solving():
    with criterion(10, "witness detection beats optimal solving at every m in 6..10"):
        oracle = model(ORACLE)
        cput = model("golomb/p.cpm")
        for m in range(6, 11):
            # at m = 6 and 7 both take about 0.1 s, so one pause could
            # decide a single run: each side is timed as its best of three
            detect, solving = [], []
            for _ in range(3 if m <= 7 else 1):
                v = check(
                    oracle, cput, overrides={"m": m}, opts=CheckOptions(time_limit=60.0)
                )
                assert v.kind == "NonConf", m
                gm = ground(oracle, build_instance(oracle, None, {"m": m}))
                out = solve_optimal(
                    dict(gm.domains),
                    [ctr.tree for ctr in gm.constraints],
                    gm.objective,
                    SearchConfig(deadline=time.monotonic() + 60.0),
                )
                detect.append(v.stats["elapsed"])
                solving.append(out.stats.elapsed)
            detect, solving = min(detect), min(solving)
            assert detect < solving, f"m={m}: detection {detect:.3f}s, solving {solving:.3f}s"
