"""End-to-end checks on tiny models where every verdict is hand-computable."""

import time

import pytest

from cpconftest import (
    CheckOptions,
    UsageError,
    check,
    expand_witness,
    ground_pair,
    parse_data_file,
    parse_model,
    parse_model_file,
    validate_witness,
)
from cpconftest import conformity
from cpconftest.solver import presolve
from cpconftest.corpus import corpus_path

ORACLE_LT = """
dvar int x[1..2] in 0..3;
subject to { c1: x[1] < x[2]; }
"""

# strict subset of the reference solutions (drops x[1] == 0)
CPUT_SUBSET = """
dvar int x[1..2] in 0..3;
subject to {
  k1: x[1] < x[2];
  k2: x[1] >= 1;
}
"""

# strict superset (admits ties)
CPUT_TIES = """
dvar int x[1..2] in 0..3;
subject to { k1: x[1] <= x[2]; }
"""

CPUT_MIRROR = """
dvar int x[1..2] in 0..3;
subject to { p1: x[1] < x[2]; }
"""

CPUT_UNSAT = """
dvar int x[1..2] in 0..3;
subject to {
  k1: x[1] < x[2];
  k2: x[2] < x[1];
}
"""


def run(oracle, cput, relation="one", **kw):
    opts = CheckOptions(relation=relation, **kw)
    return check(parse_model(oracle), parse_model(cput), opts=opts)


def test_one_subset_is_conf():
    v = run(ORACLE_LT, CPUT_SUBSET)
    assert v.kind == "Conf"
    assert v.reason is None and v.witness is None
    assert all(s.status == "unsat" for s in v.subreports)
    assert v.stats["solves"] > 0


def test_one_superset_yields_extra_witness():
    v = run(ORACLE_LT, CPUT_TIES)
    assert v.kind == "NonConf"
    assert v.reason == "extra-solution"
    assert v.violated == "c1"
    # the only program points outside the reference are ties
    assert v.witness["x[1]"] == v.witness["x[2]"]


def test_extra_witness_revalidates():
    v = run(ORACLE_LT, CPUT_TIES)
    oracle_gm, cput_gm = ground_pair(parse_model(ORACLE_LT), parse_model(CPUT_TIES))
    a = expand_witness(cput_gm.space, v.witness)
    rep = validate_witness(oracle_gm, cput_gm, a)
    assert rep.genuine and rep.direction == "extra-solution"
    assert "c1" in rep.reference_violations


def test_all_detects_missing_solution():
    v = run(ORACLE_LT, CPUT_SUBSET, relation="all")
    assert v.kind == "NonConf"
    assert v.reason == "missing-solution"
    assert v.violated == "k2"
    assert v.witness["x[1]"] == 0 and v.witness["x[2]"] > 0


def test_all_equal_sets_is_conf():
    v = run(ORACLE_LT, CPUT_MIRROR, relation="all")
    assert v.kind == "Conf"
    # the mirrored constraint is asserted on the solving side, so presolve
    # refutes it in both directions before search
    refuted = [s.label for s in v.subreports if s.status == "unsat" and s.nodes == 0]
    assert "c1" in refuted and "p1" in refuted


@pytest.mark.parametrize("relation", ["one", "all"])
def test_strict_and_non_strict_spellings_are_refuted_by_presolve(relation):
    # x < y and x + 1 <= y have one normal form, so the negation of either
    # meets the other's key in presolve: no propagation is left to refute it
    oracle = """
    dvar int x in 0..3;
    dvar int y in 0..3;
    subject to { c1: x < y; }
    """
    cput = """
    dvar int x in 0..3;
    dvar int y in 0..3;
    subject to { k1: x + 1 <= y; }
    """
    v = run(oracle, cput, relation)
    assert v.kind == "Conf"
    subs = [s for s in v.subreports if s.label in ("c1", "k1")]
    assert [s.label for s in subs] == (["c1"] if relation == "one" else ["c1", "k1"])
    for s in subs:
        assert (s.status, s.solves, s.nodes, s.failures, s.propagations) == ("unsat", 1, 0, 0, 0)


def test_each_side_is_presolved_once(monkeypatch):
    # the probe's state of the reference serves the missing direction, and
    # the extra direction's state of the program serves its nonemptiness
    # solve; a subproblem only simplifies its negation against them
    sides = []

    def counting_presolve(hard, deadline=None):
        sides.append(len(hard))
        return presolve(hard, deadline)

    monkeypatch.setattr(conformity.solver, "presolve", counting_presolve)
    v = run(ORACLE_LT, CPUT_SUBSET, relation="all")
    assert (v.kind, v.reason) == ("NonConf", "missing-solution")
    assert sides == [1, 2]
    # a subproblem that pulls in channelings presolves them with the
    # reference, so its candidates keep the auxiliaries consistent: cc2
    # (d == x[j] - x[i]) is refuted with no false alarm
    oracle = parse_model_file(corpus_path("golomb", "oracle.cpm"))
    program = parse_model_file(corpus_path("golomb", "p_fixed.cpm"))
    v = check(oracle, program, overrides={"m": 5}, opts=CheckOptions(relation="all"))
    assert (v.kind, v.reason, v.violated) == ("NonConf", "missing-solution", "cc3")
    assert [s.false_alarms for s in v.subreports] == [0] * 6


def test_unsatisfiable_program_is_nonconf():
    v = run(ORACLE_LT, CPUT_UNSAT)
    assert v.kind == "NonConf"
    assert v.reason == "unsatisfiable-program"
    assert v.notes


def test_extra_witness_settles_nonemptiness():
    # the program is solved once per subproblem and never on its own
    v = run(ORACLE_LT, CPUT_TIES)
    assert (v.kind, v.reason) == ("NonConf", "extra-solution")
    assert v.stats["solves"] == 1 + sum(s.solves for s in v.subreports)


# three variables over 0..1 cannot all differ, and presolve has no atom to
# refute, so only search finds the program empty
O_SUM3 = """
dvar int x[1..3] in 0..1;
minimize x[1] + x[2] + x[3];
subject to { c1: x[1] <= x[2]; }
"""

P_PIGEON = """
dvar int x[1..3] in 0..1;
minimize x[1] + x[2] + x[3];
subject to { k1: allDifferent(all (i in 1..3) x[i]); }
"""


def test_empty_program_is_found_after_the_extra_direction():
    expect = {
        "one": "unsatisfiable-program",
        "all": "unsatisfiable-program",
        "bounds": "no-solution-within-bounds",
    }
    for relation, reason in expect.items():
        bounds = (0, 3) if relation == "bounds" else None
        v = run(O_SUM3, P_PIGEON, relation=relation, bounds=bounds)
        assert (v.kind, v.reason) == ("NonConf", reason), relation
        assert v.subreports, relation
        assert all(s.origin == "reference" for s in v.subreports), relation
        assert all(s.status == "unsat" for s in v.subreports), relation


# allDifferent over one variable written twice holds nowhere
O_LE3 = """
dvar int x[1..2] in 0..3;
subject to { c1: x[1] <= 3; }
"""

P_REPEATED = """
dvar int x[1..2] in 0..3;
subject to { cc1: allDifferent(all (i in 1..2) x[1]); }
"""


@pytest.mark.parametrize("relation", ["one", "all"])
def test_alldifferent_over_a_repeated_variable_is_unsatisfiable(relation):
    v = run(O_LE3, P_REPEATED, relation=relation)
    assert (v.kind, v.reason) == ("NonConf", "unsatisfiable-program")


def test_unsatisfiable_carseq_draft_within_budget():
    data = parse_data_file(corpus_path("carseq", "slots10.data"))
    oracle = parse_model_file(corpus_path("carseq", "oracle.cpm"))
    program = parse_model_file(corpus_path("carseq", "cput4.cpm"))
    for relation in ("one", "all"):
        opts = CheckOptions(relation=relation, time_limit=60.0)
        v = check(oracle, program, data=data, opts=opts)
        assert (v.kind, v.reason) == ("NonConf", "unsatisfiable-program"), relation


def test_unsatisfiable_reference_is_an_error():
    bad = """
    dvar int x[1..2] in 0..3;
    subject to { c1: x[1] < x[1]; }
    """
    with pytest.raises(UsageError, match="unsatisfiable"):
        run(bad, CPUT_MIRROR)


def test_domain_membership_counts_as_violation():
    oracle = """
    dvar int x in 0..2;
    subject to { c1: x >= 0; }
    """
    cput = """
    dvar int x in 0..4;
    subject to { k1: x >= 0; }
    """
    v = run(oracle, cput)
    assert v.kind == "NonConf"
    assert v.violated == "(domains)"
    assert v.witness["x"] > 2


def test_false_alarms_are_cut_and_search_resumes():
    # z is unconstrained by any channeling, so every missing-direction
    # candidate extends to a program solution and must be excluded
    oracle = """
    dvar int x in 0..1;
    subject to { c1: x >= 0; }
    """
    cput = """
    dvar int x in 0..1;
    dvar int z in 0..1;
    subject to { k1: z != x; }
    """
    v = run(oracle, cput, relation="all")
    assert v.kind == "Conf"
    sub = next(s for s in v.subreports if s.label == "k1")
    assert sub.origin == "program"
    assert sub.false_alarms == 2


def test_missing_direction_pulls_in_channelings():
    oracle = """
    dvar int x in 0..3;
    subject to { c1: x <= 2; }
    """
    cput = """
    dvar int x in 0..3;
    dvar int y in 0..9;
    subject to {
      k1: y == 2 * x;  @channeling
      k2: y <= 2;
    }
    """
    v = run(oracle, cput, relation="all")
    assert v.kind == "NonConf"
    assert v.reason == "missing-solution"
    assert v.violated == "k2"
    assert v.witness == {"x": 2, "y": 4}


O_MIN2 = """
dvar int x in 0..5;
minimize x;
subject to { c1: x >= 2; }
"""

P_MIN2 = """
dvar int x in 0..5;
minimize x;
subject to { k1: x >= 2; }
"""

P_MIN0 = """
dvar int x in 0..5;
minimize x;
subject to { k1: x >= 0; }
"""


def test_bounds_relation_needs_bounds():
    with pytest.raises(UsageError, match="--bounds"):
        run(O_MIN2, P_MIN2, relation="bounds")
    # also when the budget would run out in grounding first
    oracle = parse_model_file(corpus_path("golomb", "oracle.cpm"))
    program = parse_model_file(corpus_path("golomb", "p.cpm"))
    with pytest.raises(UsageError, match="--bounds"):
        check(oracle, program, overrides={"m": 16}, opts=CheckOptions(relation="best", time_limit=0.0))


def test_bounds_relation_needs_objectives():
    no_obj = """
    dvar int x in 0..5;
    subject to { c1: x >= 2; }
    """
    with pytest.raises(UsageError, match="reference model has no objective"):
        run(no_obj, P_MIN2, relation="bounds", bounds=(2, 2))
    with pytest.raises(UsageError, match="program model has no objective"):
        run(O_MIN2, no_obj, relation="bounds", bounds=(2, 2))


def test_bounds_conf_within_interval():
    v = run(O_MIN2, P_MIN2, relation="bounds", bounds=(2, 2))
    assert v.kind == "Conf"


def test_bounds_empty_interval_is_nonconf():
    v = run(O_MIN2, P_MIN2, relation="bounds", bounds=(0, 1))
    assert v.kind == "NonConf"
    assert v.reason == "no-solution-within-bounds"


def test_bounds_extra_solution_inside_interval():
    v = run(O_MIN2, P_MIN0, relation="bounds", bounds=(0, 1))
    assert v.kind == "NonConf"
    assert v.reason == "extra-solution"
    assert v.violated == "c1"
    assert v.witness["x"] < 2


def test_best_conf_at_the_optimum():
    v = run(O_MIN2, P_MIN2, relation="best", bounds=(2, 2))
    assert v.kind == "Conf"


def test_best_detects_reference_below_interval():
    v = run(O_MIN2, P_MIN2, relation="best", bounds=(3, 5))
    assert v.kind == "NonConf"
    assert v.reason == "reference-beats-lower-bound"
    assert v.witness["x"] == 2


def test_best_detects_program_below_interval():
    oracle = """
    dvar int x in 0..5;
    minimize x;
    subject to { c1: x >= 1; }
    """
    v = run(oracle, P_MIN0, relation="best", bounds=(1, 1))
    assert v.kind == "NonConf"
    assert v.reason == "program-beats-lower-bound"
    assert v.witness["x"] == 0


def test_exhausted_budget_reports_unknown():
    # under one the reference probe finds the budget spent and ends the
    # check before any subproblem is planned; nothing is blamed on the program
    v = run(ORACLE_LT, CPUT_SUBSET, time_limit=0.0)
    assert v.kind == "Unknown"
    assert v.reason == "timeout"
    assert v.notes == ()
    assert v.subreports == ()
    v = run(O_MIN2, P_MIN2, relation="bounds", bounds=(2, 2), time_limit=0.0)
    assert (v.kind, v.reason) == ("Unknown", "timeout")
    assert v.notes == ("budget exhausted while checking the program for solutions",)
    assert v.subreports
    assert {s.status for s in v.subreports} == {"resource_out"}


def test_budget_spent_before_the_missing_direction_is_unknown(monkeypatch):
    # the budget runs out right after the program check: the missing
    # direction's subproblems are left open, which is no refutation
    def program_sat_then_spend(r):
        out = conformity._program_sat(r)
        r.deadline = time.monotonic()
        return out

    phases = tuple(
        program_sat_then_spend if p is conformity._program_sat else p
        for p in conformity._PHASES["all"]
    )
    monkeypatch.setitem(conformity._PHASES, "all", phases)
    v = run(ORACLE_LT, CPUT_MIRROR, relation="all", time_limit=60.0)
    assert (v.kind, v.reason) == ("Unknown", "timeout")
    assert any(s.origin == "program" and s.status == "resource_out" for s in v.subreports)


@pytest.mark.parametrize("side", ("reference", "program"))
def test_best_budget_spent_in_the_lower_bound_phase(monkeypatch, side):
    # the budget runs out before the lower-bound solve of one side, the
    # reference's or, once the reference is refuted, the program's: a bound
    # left unproven is no Conf
    calls = []
    run_solve = conformity._Run.solve

    def solve_then_spend(r, gm, extra_atoms, opts=None, **kw):
        out = run_solve(r, gm, extra_atoms, opts, **kw)
        calls.append("reference" if gm is r.oracle_gm else "program")
        if len(calls) == (1 if side == "reference" else 2):
            r.deadline = time.monotonic()
        return out

    monkeypatch.setattr(conformity._Run, "solve", solve_then_spend)
    v = run(O_MIN2, P_MIN2, relation="best", bounds=(2, 2), time_limit=60.0)
    assert (v.kind, v.reason, v.notes) == ("Unknown", "timeout", ())
    # the program check, then the lower bound: the reference's, the program's
    assert calls == ["program", "reference", "program"][: 2 if side == "reference" else 3]


# the program's auxiliary z, which no channeling defines, is decided by search
ORACLE_ANY = """
dvar int x in 0..1;
subject to { c1: x >= 0; }
"""

CPUT_OPEN_AUX = """
dvar int x in 0..1;
dvar int z in 0..1;
subject to { k1: z != x; }
"""


def test_missing_candidate_left_undecided_is_unknown(monkeypatch):
    # each candidate of the missing direction is a false alarm: the program
    # accepts x with z = 1 - x, which only the search for z finds
    v = run(ORACLE_ANY, CPUT_OPEN_AUX, relation="all")
    assert v.kind == "Conf"
    assert [s.false_alarms for s in v.subreports if s.label == "k1"] == [2]
    # with no time left for that search the first candidate stays undecided,
    # which refutes nothing
    genuine_missing = conformity._genuine_missing

    def no_time_left(oracle_gm, cput_gm, w, deadline, effort, opts):
        return genuine_missing(oracle_gm, cput_gm, w, time.monotonic(), effort, opts)

    monkeypatch.setattr(conformity, "_genuine_missing", no_time_left)
    v = run(ORACLE_ANY, CPUT_OPEN_AUX, relation="all")
    assert (v.kind, v.reason) == ("Unknown", "timeout")
    (undecided,) = [s for s in v.subreports if s.status == "undecided"]
    assert (undecided.origin, undecided.label, undecided.false_alarms) == ("program", "k1", 0)


@pytest.mark.parametrize(
    "relation, oracle, cput, bounds",
    [
        ("one", ORACLE_LT, CPUT_SUBSET, None),
        ("all", ORACLE_LT, CPUT_MIRROR, None),
        ("bounds", O_MIN2, P_MIN2, (2, 2)),
        ("best", O_MIN2, P_MIN2, (2, 2)),
    ],
)
def test_only_the_nonemptiness_solve_branches_in_declaration_order(
    monkeypatch, relation, oracle, cput, bounds
):
    calls = []  # (inside the nonemptiness phase, fail-first) per solve
    inside = []
    solve, program_sat = conformity.solve, conformity._program_sat

    def recording_solve(*args, **kw):
        calls.append((bool(inside), kw.get("first_fail", True)))
        return solve(*args, **kw)

    def recording_program_sat(r):
        inside.append(True)
        try:
            return program_sat(r)
        finally:
            inside.pop()

    monkeypatch.setattr(conformity, "solve", recording_solve)
    monkeypatch.setitem(conformity._PHASES, relation, tuple(
        recording_program_sat if p is program_sat else p for p in conformity._PHASES[relation]
    ))
    assert run(oracle, cput, relation=relation, bounds=bounds).kind == "Conf"
    assert (True, False) in calls
    assert all(nonempty != first_fail for nonempty, first_fail in calls), calls


def test_negation_past_the_deadline_is_resource_out(monkeypatch):
    # the budget runs out while a subproblem's constraint is negated
    def negate_past_deadline(tree, tick=None):
        raise TimeoutError

    monkeypatch.setattr(conformity, "negate", negate_past_deadline)
    v = run(ORACLE_LT, CPUT_SUBSET, time_limit=60.0)
    assert (v.kind, v.reason) == ("Unknown", "timeout")
    assert [(s.status, s.solves) for s in v.subreports] == [("resource_out", 0)] * 2


def test_extra_direction_timeout_is_not_blamed_on_the_program():
    # c2 needs far longer than the budget (its witness takes some 33,000
    # nodes), so the program check after it starts with nothing left; the
    # note belongs to a program check that ran
    oracle = parse_model_file(corpus_path("golomb", "oracle.cpm"))
    program = parse_model_file(corpus_path("golomb", "cput4.cpm"))
    v = check(oracle, program, overrides={"m": 8}, opts=CheckOptions(time_limit=0.5))
    assert (v.kind, v.reason, v.notes) == ("Unknown", "timeout", ())
    assert any(s.status == "resource_out" for s in v.subreports)


def test_time_limit_counts_grounding():
    # grounding Golomb at m=20 alone takes longer than the budget (about
    # 1.8 s; m=14 takes about 0.4 s since grounding joins)
    oracle = parse_model_file(corpus_path("golomb", "oracle.cpm"))
    program = parse_model_file(corpus_path("golomb", "p.cpm"))
    t0 = time.monotonic()
    ground_pair(oracle, program, overrides={"m": 20})
    grounding = time.monotonic() - t0
    t0 = time.monotonic()
    v = check(oracle, program, overrides={"m": 20}, opts=CheckOptions(time_limit=0.5))
    wall = time.monotonic() - t0
    assert (v.kind, v.reason) == ("Unknown", "timeout")
    assert wall < grounding + 0.5, (wall, grounding)
    assert v.stats["elapsed"] <= wall


def test_grounding_stops_at_the_deadline():
    # grounding both models at m=20 alone takes about 1.8 s (m=16 takes
    # about 0.7 s); it looks at the deadline every few hundred bindings, so
    # the check ends soon after its budget
    oracle = parse_model_file(corpus_path("golomb", "oracle.cpm"))
    program = parse_model_file(corpus_path("golomb", "p.cpm"))
    t0 = time.monotonic()
    v = check(oracle, program, overrides={"m": 20}, opts=CheckOptions(time_limit=0.5))
    wall = time.monotonic() - t0
    assert (v.kind, v.reason, v.notes, v.subreports) == ("Unknown", "timeout", (), ())
    assert v.stats["solves"] == 0 and 0.5 <= v.stats["elapsed"] <= wall < 1.5, (v.stats, wall)


def test_detection_at_m20_within_a_minute():
    # ROADMAP item 2's target: grounding by joins and the lowering memo
    # bring this check to some 6 s; it took about 17 s without them
    oracle = parse_model_file(corpus_path("golomb", "oracle.cpm"))
    program = parse_model_file(corpus_path("golomb", "p.cpm"))
    v = check(oracle, program, overrides={"m": 20}, opts=CheckOptions(time_limit=60))
    assert (v.kind, v.reason, v.violated) == ("NonConf", "extra-solution", "c2")


def test_unknown_relation_rejected():
    with pytest.raises(UsageError, match="unknown relation"):
        run(ORACLE_LT, CPUT_MIRROR, relation="superset")


def test_verdict_report_shape():
    v = run(ORACLE_LT, CPUT_TIES)
    d = v.to_dict()
    assert set(d) == {
        "verdict",
        "relation",
        "reason",
        "witness",
        "violated",
        "direction",
        "notes",
        "subproblems",
        "stats",
    }
    assert d["subproblems"] and all("elapsed" in s for s in d["subproblems"])


def test_jobs_other_than_one_is_a_usage_error():
    # subproblems run one after another; the field takes no other value
    assert CheckOptions(jobs=1).jobs == 1
    with pytest.raises(UsageError):
        CheckOptions(jobs=2)


# ---------------------------------------------------------------------------
# witness expansion and validation


def spaces(oracle_src=ORACLE_LT, cput_src=CPUT_SUBSET):
    return ground_pair(parse_model(oracle_src), parse_model(cput_src))


def test_expand_witness_arrays_and_scalars():
    oracle_gm, cput_gm = spaces()
    space = cput_gm.space
    a = expand_witness(space, {"x": [1, 3]})
    assert a == {space.lookup("x", (1,)): 1, space.lookup("x", (2,)): 3}
    b = expand_witness(space, {"x[2]": 3})
    assert b == {space.lookup("x", (2,)): 3}


def test_expand_witness_rejects_bad_input():
    _, cput_gm = spaces()
    space = cput_gm.space
    with pytest.raises(UsageError, match="unknown array"):
        expand_witness(space, {"y": [1, 2]})
    with pytest.raises(UsageError, match="cells"):
        expand_witness(space, {"x": [1, 2, 3]})
    with pytest.raises(UsageError, match="unknown variable"):
        expand_witness(space, {"x[9]": 1})
    with pytest.raises(UsageError, match="integer"):
        expand_witness(space, {"x[1]": True})
    with pytest.raises(UsageError, match="integer"):
        expand_witness(space, {"x[1]": "0"})


def test_validate_witness_missing_direction():
    oracle_gm, cput_gm = spaces()
    a = expand_witness(cput_gm.space, {"x": [0, 1]})
    rep = validate_witness(oracle_gm, cput_gm, a)
    assert rep.genuine and rep.direction == "missing-solution"
    assert "k2" in rep.program_violations and not rep.reference_violations


def test_validate_witness_not_genuine():
    oracle_gm, cput_gm = spaces()
    a = expand_witness(cput_gm.space, {"x": [1, 2]})
    rep = validate_witness(oracle_gm, cput_gm, a)
    assert not rep.genuine
    assert rep.program_satisfied and rep.reference_satisfied


def test_validate_witness_requires_reference_coverage():
    oracle_gm, cput_gm = spaces()
    a = expand_witness(cput_gm.space, {"x[1]": 0})
    with pytest.raises(UsageError, match="does not cover"):
        validate_witness(oracle_gm, cput_gm, a)


def test_validate_witness_decides_open_auxiliaries_by_search():
    oracle = """
    dvar int x in 0..1;
    subject to { c1: x >= 0; }
    """
    sat_cput = """
    dvar int x in 0..1;
    dvar int z in 0..1;
    subject to { k1: z != x; }
    """
    unsat_cput = """
    dvar int x in 0..1;
    dvar int z in 0..1;
    subject to {
      k1: z != x;
      k2: z == x;
    }
    """
    oracle_gm, cput_gm = spaces(oracle, sat_cput)
    rep = validate_witness(oracle_gm, cput_gm, {next(iter(oracle_gm.vids)): 0})
    assert not rep.genuine and rep.program_satisfied
    assert any("search" in n for n in rep.notes)

    oracle_gm, cput_gm = spaces(oracle, unsat_cput)
    rep = validate_witness(oracle_gm, cput_gm, {next(iter(oracle_gm.vids)): 0})
    assert rep.genuine and rep.direction == "missing-solution"
