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
    assert all(s.status in ("skipped", "unsat") for s in v.subreports)
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
    # the mirrored constraint is structurally equal, so both directions skip it
    skipped = [s.label for s in v.subreports if s.status == "skipped"]
    assert "c1" in skipped and "p1" in skipped


def test_disabling_skip_keeps_verdict():
    v = run(ORACLE_LT, CPUT_MIRROR, relation="all", use_skip=False)
    assert v.kind == "Conf"
    assert not [s for s in v.subreports if s.status == "skipped"]


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
        assert all(s.status in ("unsat", "skipped") for s in v.subreports), relation


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
    v = run(ORACLE_LT, CPUT_SUBSET, time_limit=0.0)
    assert v.kind == "Unknown"
    assert v.reason == "timeout"
    v = run(O_MIN2, P_MIN2, relation="bounds", bounds=(2, 2), time_limit=0.0)
    assert (v.kind, v.reason) == ("Unknown", "timeout")
    assert v.notes == ("budget exhausted while checking the program for solutions",)


def test_extra_direction_timeout_is_not_blamed_on_the_program():
    # c2 needs far longer than the budget, so the program check after it
    # starts with nothing left; the note belongs to a program check that ran
    oracle = parse_model_file(corpus_path("golomb", "oracle.cpm"))
    program = parse_model_file(corpus_path("golomb", "p_fixed.cpm"))
    v = check(oracle, program, overrides={"m": 6}, opts=CheckOptions(time_limit=0.5))
    assert (v.kind, v.reason, v.notes) == ("Unknown", "timeout", ())
    assert any(s.status == "resource_out" for s in v.subreports)


def test_time_limit_counts_grounding():
    # grounding Golomb at m=14 alone takes longer than the budget
    oracle = parse_model_file(corpus_path("golomb", "oracle.cpm"))
    program = parse_model_file(corpus_path("golomb", "p.cpm"))
    t0 = time.monotonic()
    ground_pair(oracle, program, overrides={"m": 14})
    grounding = time.monotonic() - t0
    t0 = time.monotonic()
    v = check(oracle, program, overrides={"m": 14}, opts=CheckOptions(time_limit=0.5))
    wall = time.monotonic() - t0
    assert (v.kind, v.reason) == ("Unknown", "timeout")
    assert wall < grounding + 0.5, (wall, grounding)
    assert v.stats["elapsed"] <= wall


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


def test_parallel_jobs_agree_with_sequential():
    def effort(v):
        subs = [(s.label, s.status, s.nodes, s.propagations, s.false_alarms) for s in v.subreports]
        counters = {k: v.stats[k] for k in ("solves", "nodes", "failures", "propagations")}
        return subs, counters

    for relation in ("one", "all"):
        lone = run(ORACLE_LT, CPUT_SUBSET, relation=relation, jobs=1)
        par = run(ORACLE_LT, CPUT_SUBSET, relation=relation, jobs=2)
        assert (lone.kind, lone.reason, lone.violated) == (par.kind, par.reason, par.violated)
        assert lone.witness == par.witness
        assert effort(lone) == effort(par)


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
