import pytest

from cpconftest import parse_data, parse_model, parse_model_file
from cpconftest.corpus import corpus_path
from cpconftest.errors import EvaluationError, GroundingError, UsageError
from cpconftest.grounding import (
    AllMinDistC,
    AndC,
    CountC,
    InverseC,
    PackC,
    Prod,
    RelAtom,
    Sum,
    VarSpace,
    build_instance,
    evaluate_ground,
    ground,
    parse_var_name,
)

RULER3 = """
int m = ...;
tuple indexerTuple { int i; int j; }
{indexerTuple} indexes = {<i, j> | i, j in 1..m : i < j};
dvar int x[1..m] in 0..m*m;
dvar int d[indexes] in 1..m*m;
subject to {
  cc1: forall (i in 1..m-1) x[i] < x[i+1];
  cc2: forall (ind in indexes) d[ind] == x[ind.j] - x[ind.i];  @channeling
}
"""


def ruler3():
    m = parse_model(RULER3)
    return ground(m, build_instance(m, {"m": 3}))


def test_comprehension_instance():
    m = parse_model(RULER3)
    inst = build_instance(m, {"m": 3})
    assert inst["indexes"] == ((1, 2), (1, 3), (2, 3))


def test_variable_layout():
    gm = ruler3()
    names = [gm.space.pretty(v) for v in gm.vids]
    assert names == ["x[1]", "x[2]", "x[3]", "d[1,2]", "d[1,3]", "d[2,3]"]
    assert gm.domains[gm.space.index[("x", (1,))]] == (0, 9)
    assert gm.domains[gm.space.index[("d", (1, 2))]] == (1, 9)


def test_forall_expands_to_conjunction():
    gm = ruler3()
    cc1 = gm.constraint("cc1").tree
    assert isinstance(cc1, AndC) and len(cc1.items) == 2
    assert all(isinstance(a, RelAtom) and a.op == "<" for a in cc1.items)


def test_channel_defs_recorded_in_order():
    gm = ruler3()
    assert [gm.space.pretty(cd.vid) for cd in gm.channel_defs] == [
        "d[1,2]",
        "d[1,3]",
        "d[2,3]",
    ]
    assert all(cd.guard is None for cd in gm.channel_defs)
    assert gm.base_vids == tuple(gm.space.index[("x", (i,))] for i in (1, 2, 3))


def test_extension_derives_auxiliaries():
    gm = ruler3()
    base = {gm.space.index[("x", (i,))]: v for i, v in zip((1, 2, 3), (0, 1, 3))}
    full, missing = gm.extend_assignment(base)
    assert not missing
    assert full[gm.space.index[("d", (1, 2))]] == 1
    assert full[gm.space.index[("d", (1, 3))]] == 3
    assert full[gm.space.index[("d", (2, 3))]] == 2
    assert gm.in_domains(full) and gm.evaluate(full)


def test_guarded_channels_fire_per_binding():
    # regression: sides of => must not register as unconditional definitions
    m = parse_model(
        """
        dvar int x in 1..3;
        dvar int y in 0..9;
        subject to {
          c1: x == 1 => y == 5;  @channeling
          c2: x == 2 => y == 7;  @channeling
          c3: x == 3 => y == 9;  @channeling
        }
        """
    )
    gm = ground(m, build_instance(m))
    xv = gm.space.index[("x", ())]
    yv = gm.space.index[("y", ())]
    for xval, yval in ((1, 5), (2, 7), (3, 9)):
        full, missing = gm.extend_assignment({xv: xval})
        assert not missing and full[yv] == yval


def test_evaluate_reports_failing_labels():
    gm = ruler3()
    base = {gm.space.index[("x", (i,))]: v for i, v in zip((1, 2, 3), (0, 2, 1))}
    full, _ = gm.extend_assignment(base)
    assert gm.evaluate_with_failures(full) == ["cc1"]


def test_in_domains_needs_every_variable():
    gm = ruler3()
    with pytest.raises(EvaluationError, match="unassigned"):
        gm.in_domains({gm.space.index[("x", (1,))]: 0})


def test_shared_space_requires_counterparts():
    oracle = parse_model(
        """
        int m = ...;
        dvar int y[1..m] in 0..9;
        subject to { c: forall (i in 1..m) y[i] >= 0; }
        """
    )
    cput = parse_model(RULER3)
    space = VarSpace()
    ground(cput, build_instance(cput, {"m": 3}), space)
    with pytest.raises(UsageError, match="no counterpart"):
        ground(oracle, build_instance(oracle, {"m": 3}), space, require_existing=True)


def _subexpressions(e, out):
    out.append(e)
    if isinstance(e, (Sum, Prod)):
        for it in e.items:
            _subexpressions(it, out)
    return out


def test_equal_ground_expressions_are_one_object():
    # the Golomb reference at m=7 uses each difference x[j] - x[i] in 40
    # atoms, and each x[i] in more; one ground() call makes one object of
    # each distinct expression, at every depth, and a second call shares
    # none of them
    oracle = parse_model_file(corpus_path("golomb", "oracle.cpm"))
    gm, again = (ground(oracle, build_instance(oracle, None, {"m": 7})) for _ in range(2))

    def nodes(g):
        out = _subexpressions(g.objective, [])
        for c in g.constraints:
            for atom in c.tree.items:
                _subexpressions(atom.left, out)
                _subexpressions(atom.right, out)
        return out

    seen = nodes(gm)
    assert len(seen) == 4213 and len(set(seen)) == len({id(e) for e in seen}) == 35
    assert not {id(e) for e in seen} & {id(e) for e in nodes(again)}


def test_data_round_trip_through_instance():
    m = parse_model(
        """
        int n = ...;
        tuple wRec { int item; int w; }
        {wRec} ws = ...;
        dvar int x[1..n] in 0..1;
        subject to { c: forall (i in 1..n) x[i] <= 1; }
        """
    )
    data = parse_data("n = 2; ws = {<1, 5>, <2, 7>};")
    inst = build_instance(m, data)
    assert inst["ws"] == ((1, 5), (2, 7))


def test_missing_required_parameter():
    m = parse_model(RULER3)
    with pytest.raises(GroundingError, match="m"):
        build_instance(m, {})


def test_unknown_data_entry_rejected():
    m = parse_model(RULER3)
    with pytest.raises(GroundingError, match="does not match"):
        build_instance(m, {"m": 3, "q": 1})


def test_computed_parameter_not_settable():
    m = parse_model(RULER3)
    with pytest.raises(GroundingError, match="computed"):
        build_instance(m, {"m": 3, "indexes": [(1, 2)]})


def test_overrides_win():
    m = parse_model(RULER3)
    inst = build_instance(m, {"m": 3}, {"m": 4})
    assert len(inst["indexes"]) == 6


def test_division_is_parameter_only():
    m = parse_model(
        """
        dvar int x in 0..9;
        subject to { c: x / 2 == 1; }
        """
    )
    with pytest.raises(GroundingError, match="parameter-only"):
        ground(m, build_instance(m))


def test_constant_relations_fold():
    m = parse_model(
        """
        int n = ...;
        dvar int x in 0..9;
        subject to {
          a: forall (i in 1..n : i < n) i < n;
          b: x >= 0;
        }
        """
    )
    gm = ground(m, build_instance(m, {"n": 3}))
    tree = gm.constraint("a").tree
    assert evaluate_ground(tree, {})


def test_pack_grounding_aligns_sizes():
    m = parse_model(
        """
        int n = ...;
        tuple wRec { int item; int w; }
        {wRec} ws = ...;
        dvar int bin[1..n] in 1..2;
        dvar int load[1..2] in 0..99;
        subject to { c: pack(load, bin, ws); }
        """
    )
    data = parse_data("n = 3; ws = {<1, 5>, <2, 7>, <3, 11>};")
    gm = ground(m, build_instance(m, data))
    tree = gm.constraint("c").tree
    assert isinstance(tree, PackC)
    assert tree.sizes == (5, 7, 11)
    assert tree.bins == (1, 2)


def test_count_grounding():
    m = parse_model(
        """
        int n = ...;
        dvar int x[1..n] in 1..3;
        subject to { c: count(all (i in 1..n) x[i], 2) == 1; }
        """
    )
    gm = ground(m, build_instance(m, {"n": 4}))
    tree = gm.constraint("c").tree
    assert isinstance(tree, CountC) and len(tree.items) == 4
    a = {gm.space.index[("x", (i,))]: v for i, v in zip(range(1, 5), (2, 1, 1, 3))}
    assert evaluate_ground(tree, a)
    a[gm.space.index[("x", (4,))]] = 2
    assert not evaluate_ground(tree, a)


def test_allmindistance_grounding():
    m = parse_model(
        """
        int n = ...;
        int g = ...;
        dvar int x[1..n] in 0..9;
        subject to { c: allMinDistance(all (i in 1..n) x[i], g + 1); }
        """
    )
    gm = ground(m, build_instance(m, {"n": 3, "g": 1}))
    tree = gm.constraint("c").tree
    assert isinstance(tree, AllMinDistC) and len(tree.items) == 3 and tree.gap == 2
    a = {gm.space.index[("x", (i,))]: v for i, v in zip(range(1, 4), (0, 4, 2))}
    assert evaluate_ground(tree, a)
    a[gm.space.index[("x", (3,))]] = 3
    assert not evaluate_ground(tree, a)


def test_inverse_grounding():
    m = parse_model(
        """
        int n = ...;
        dvar int f[1..n] in 1..n;
        dvar int g[1..n] in 1..n;
        subject to { c: inverse(f, g); }
        """
    )
    gm = ground(m, build_instance(m, {"n": 3}))
    tree = gm.constraint("c").tree
    assert isinstance(tree, InverseC) and tree.f_idx == tree.g_idx == (1, 2, 3)
    f, g = (2, 3, 1), (3, 1, 2)  # g is f's inverse
    a = {gm.space.index[("f", (i,))]: v for i, v in zip(range(1, 4), f)}
    a.update({gm.space.index[("g", (i,))]: v for i, v in zip(range(1, 4), g)})
    assert evaluate_ground(tree, a)
    a[gm.space.index[("g", (1,))]] = 1
    assert not evaluate_ground(tree, a)


def test_index_out_of_range():
    m = parse_model(
        """
        int n = ...;
        dvar int x[1..n] in 0..9;
        subject to { c: x[n+1] >= 0; }
        """
    )
    with pytest.raises(GroundingError, match="out of range"):
        ground(m, build_instance(m, {"n": 2}))


def test_overflow_guard():
    m = parse_model(
        """
        int n = ...;
        dvar int x in 0..9;
        subject to { c: x * n * n >= 0; }
        """
    )
    with pytest.raises(EvaluationError, match="64-bit"):
        ground(m, build_instance(m, {"n": 2**40}))


def test_parse_var_name():
    assert parse_var_name("x") == ("x", ())
    assert parse_var_name("x[3]") == ("x", (3,))
    assert parse_var_name("d[2,5]") == ("d", (2, 5))
    with pytest.raises(UsageError):
        parse_var_name("d[a]")
