import itertools
import random
import re
import time

import pytest

from cpconftest import grounding, parse_data, parse_data_file, parse_model, parse_model_file
from cpconftest.corpus import corpus_path
from cpconftest.errors import EvaluationError, GroundingError, UsageError
from cpconftest.ops import check64, div_trunc, rel_holds
from cpconftest.grounding import (
    AndC,
    Const,
    CountC,
    OrC,
    PackBinC,
    Prod,
    RelAtom,
    Sum,
    TRUE_C,
    Var,
    VarSpace,
    build_instance,
    evaluate_ground,
    gexpr_vars,
    ground,
    iter_bindings,
    mk_diff,
    parse_var_name,
)
from cpconftest.solver import solve
from cpconftest.syntax import (
    BinderGroup,
    BinOp,
    BoolNot,
    BoolOp,
    FieldRef,
    IndexedRef,
    IntLit,
    NameRef,
    Neg,
    RangeDom,
    RelChain,
    SetDom,
    names_in,
    walk_bool,
)

from conftest import brute_solutions, grounded_globals

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


CHANNELED = """
int n = ...;
dvar int x[1..2] in 0..3;
dvar int y[1..2] in 0..9;
dvar int z in 0..9;
dvar int w in 0..9;
subject to {
  a: z == x[1] + 1;  @channeling
  b: forall (i in 1..2) x[i] == 1 => y[i] == 5;  @channeling
  c: if (n > 1) x[1] == 2 => w == 7 else w == 0;  @channeling
  d: or (i in 1..2) y[i] == x[i];  @channeling
}
"""


def test_channeling_records_asserted_definitions():
    m = parse_model(CHANNELED)
    gm = ground(m, build_instance(m, None, {"n": 2}))
    x = [Var(gm.space.index[("x", (i,))]) for i in (1, 2)]
    got = [(gm.space.pretty(cd.vid), cd.guard, cd.label) for cd in gm.channel_defs]
    # the top-level equality, and each implication's right side guarded by
    # its left, under forall and under if/else; neither side of => on its
    # own, and no disjunct of the or
    assert got == [
        ("z", None, "a"),
        ("y[1]", RelAtom("==", x[0], Const(1)), "b"),
        ("y[2]", RelAtom("==", x[1], Const(1)), "b"),
        ("w", RelAtom("==", x[0], Const(2)), "c"),
    ]
    plain = parse_model(CHANNELED.replace("@channeling", ""))
    assert not ground(plain, build_instance(plain, None, {"n": 2})).channel_defs


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
    # one == atom per bin, over the one item list and its sizes
    bins = [gm.space.index[("bin", (i,))] for i in range(1, 4)]
    loads = [gm.space.index[("load", (b,))] for b in (1, 2)]
    assert tree == AndC(tuple(PackBinC(b, load, tuple(bins), (5, 7, 11), "==") for b, load in zip((1, 2), loads)))


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
    # one distance disjunction per pair i < j, in pair order, over one gap
    xs = [Var(gm.space.index[("x", (i,))]) for i in range(1, 4)]
    assert tree == AndC(tuple(
        OrC((RelAtom(">=", mk_diff(a, b), Const(2)), RelAtom(">=", mk_diff(b, a), Const(2))))
        for a, b in itertools.combinations(xs, 2)
    ))
    assert len({id(atom.right) for pair in tree.items for atom in pair.items}) == 1
    a = {gm.space.index[("x", (i,))]: v for i, v in zip(range(1, 4), (0, 4, 2))}
    assert evaluate_ground(tree, a)
    a[gm.space.index[("x", (3,))]] = 3
    assert not evaluate_ground(tree, a)
    # a gap of at most 0, or fewer than two items, is TRUE_C itself
    for n, g in ((3, -1), (3, -2), (1, 5), (0, 5)):
        assert ground(m, build_instance(m, {"n": n, "g": g})).constraint("c").tree is TRUE_C


def test_allmindistance_grounding_polls_the_deadline():
    # n*(n-1)/2 pairs outside any forall: the lowering itself looks at the clock
    m = parse_model(
        """
        int n = ...;
        dvar int x[1..n] in 0..9;
        subject to { c: allMinDistance(all (i in 1..n) x[i], 1); }
        """
    )
    n = 40
    assert n * (n - 1) // 2 > 2 * grounding._POLL_EVERY
    instance = build_instance(m, {"n": n})
    with pytest.raises(TimeoutError):
        ground(m, instance, deadline=time.monotonic() - 1.0)
    assert len(ground(m, instance, deadline=time.monotonic() + 60.0).constraint("c").tree.items) == 780


def test_alldifferent_grounding():
    m = parse_model(
        """
        int n = ...;
        dvar int x[1..n] in 0..9;
        subject to { c: allDifferent(all (i in 1..n) x[i]); }
        """
    )
    gm = ground(m, build_instance(m, {"n": 4}))
    # one disequality per pair i < j, in pair order
    xs = [Var(gm.space.index[("x", (i,))]) for i in range(1, 5)]
    assert gm.constraint("c").tree == AndC(tuple(RelAtom("!=", a, b) for a, b in itertools.combinations(xs, 2)))
    for n in (0, 1):
        assert ground(m, build_instance(m, {"n": n})).constraint("c").tree == TRUE_C


def test_alldifferent_grounding_stops_within_one_poll_interval(monkeypatch):
    # 200 items make 19,900 pairs.  With time left at grounding's first look
    # at the deadline and none at any later one, grounding stops at its
    # second look, with at most one polling interval of pairs built
    m = parse_model(
        """
        int n = ...;
        dvar int x[1..n] in 0..9;
        subject to { c: allDifferent(all (i in 1..n) x[i]); }
        """
    )
    instance = build_instance(m, {"n": 200})
    looks, built = [], []

    class Clock:
        @staticmethod
        def monotonic():
            looks.append(None)
            return 0.0 if len(looks) == 1 else 2.0

    def counting_atom(*args):
        built.append(args)
        return RelAtom(*args)

    monkeypatch.setattr(grounding, "time", Clock)
    monkeypatch.setattr(grounding, "RelAtom", counting_atom)
    with pytest.raises(TimeoutError):
        ground(m, instance, deadline=1.0)
    assert len(looks) == 2 and 0 < len(built) <= grounding._POLL_EVERY


def test_grounded_globals_agree_with_their_plain_definitions():
    # evaluate_ground on the lowered trees is the oracle of the brute-force
    # tests; here it meets the plain-Python definitions on every assignment
    seen = set()
    for domains, tree, holds in grounded_globals():
        vids = sorted(domains)
        for combo in itertools.product(*(range(lo, hi + 1) for lo, hi in map(domains.get, vids))):
            a = dict(zip(vids, combo))
            assert evaluate_ground(tree, a) == holds(a), (tree, a)
            seen.add(holds(a))
    assert seen == {True, False}


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
    # one Or per cell of f, then per cell of g: f[i] == j and g[j] == i
    cell = {(name, i): Var(gm.space.index[(name, (i,))]) for name in "fg" for i in (1, 2, 3)}

    def cells(f, g):
        return tuple(
            OrC(tuple(
                AndC((RelAtom("==", cell[f, i], Const(j)), RelAtom("==", cell[g, j], Const(i))))
                for j in (1, 2, 3)
            ))
            for i in (1, 2, 3)
        )

    assert tree == AndC(cells("f", "g") + cells("g", "f"))
    f, g = (2, 3, 1), (3, 1, 2)  # g is f's inverse
    a = {gm.space.index[("f", (i,))]: v for i, v in zip(range(1, 4), f)}
    a.update({gm.space.index[("g", (i,))]: v for i, v in zip(range(1, 4), g)})
    assert evaluate_ground(tree, a)
    a[gm.space.index[("g", (1,))]] = 1
    assert not evaluate_ground(tree, a)


SOURCE_CONSTRUCTS = """
    int n = ...;
    tuple P { int a; int b; }
    {P} ok = ...;
    dvar int x[1..n] in 0..2;
    subject to {
      o: or (i in 1..n : i > 1) x[i] == x[i - 1] + 1;
      f: if (n > 2) x[1] <= x[n] else x[1] != x[n];
      t: allowedAssignments(<x[1], x[2]>, ok);
      g: forbiddenAssignments(<x[2], x[n]>, ok);
    }
"""


@pytest.mark.parametrize("n", [2, 3])
def test_source_constructs_agree_with_brute_force(n):
    # an or aggregate, both branches of if/else and the two table kinds,
    # parsed and grounded from source, then judged on every assignment
    ok = {(0, 1), (1, 2), (2, 2)}
    m = parse_model(SOURCE_CONSTRUCTS)
    gm = ground(m, build_instance(m, parse_data(f"n = {n}; ok = {{<0, 1>, <1, 2>, <2, 2>}};")))
    meaning = {
        "o": lambda x: any(x[i] == x[i - 1] + 1 for i in range(1, n)),
        "f": lambda x: x[0] <= x[-1] if n > 2 else x[0] != x[-1],
        "t": lambda x: (x[0], x[1]) in ok,
        "g": lambda x: (x[1], x[-1]) not in ok,
    }
    vids = [gm.space.lookup("x", (i,)) for i in range(1, n + 1)]
    trees = [c.tree for c in gm.constraints]
    sols = []
    for vals in itertools.product(range(3), repeat=n):
        a = dict(zip(vids, vals))
        for c in gm.constraints:
            assert evaluate_ground(c.tree, a) == meaning[c.label](vals), (c.label, vals)
        if all(meaning[c.label](vals) for c in gm.constraints):
            sols.append(a)
    assert sols and brute_solutions(gm.domains, trees) == sols
    assert solve(gm.domains, trees).assignment in sols


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


def test_arithmetic_is_exact_and_inputs_are_64_bit():
    # a product past 64 bits grounds to its exact value, and evaluates
    # exactly; a literal or a data value outside 64 bits is an input error
    m = parse_model(
        """
        int n = ...;
        dvar int x in 0..9;
        subject to {
          c: x * n * n >= (2 * n * n * n - 1) / n;
          d: x * n * n != (1 - 2 * n * n * n) / n;
        }
        """
    )
    gm = ground(m, build_instance(m, {"n": 2**40}))
    tree = gm.constraint("c").tree
    assert tree == RelAtom(">=", Prod((Const(2**80), Var(0))), Const(2**81 - 1))
    assert evaluate_ground(tree, {0: 2}) and not evaluate_ground(tree, {0: 1})
    # a quotient is rounded toward zero
    assert gm.constraint("d").tree.right == Const(1 - 2**81)
    with pytest.raises(EvaluationError, match="64-bit"):
        build_instance(m, {"n": 2**63})
    big = parse_model("dvar int x in 0..9; subject to { c: x <= 9223372036854775808; }")
    with pytest.raises(EvaluationError, match="64-bit"):
        ground(big, build_instance(big))


def test_parse_var_name():
    assert parse_var_name("x") == ("x", ())
    assert parse_var_name("x[3]") == ("x", (3,))
    assert parse_var_name("d[2,5]") == ("d", (2, 5))
    with pytest.raises(UsageError):
        parse_var_name("d[a]")


# ---------------------------------------------------------------------------
# Indexed joins and the lowering memo


def filtering_bindings(model, instance, binders, env0=None, guard=None):
    """iter_bindings without access paths: every value of every binder is
    filtered through the conjuncts placed at its depth."""
    pairs = [(nm, g.domain) for g in binders for nm in g.names]
    checks = [[] for _ in range(len(pairs) + 1)]
    if guard is not None:
        for conj in grounding._guard_conjuncts(guard):
            names = names_in(walk_bool(conj))
            depth = max((i + 1 for i, (nm, _) in enumerate(pairs) if nm in names), default=0)
            checks[depth].append(conj)

    tests = [[grounding._compile_bool(c, instance) for c in cs] for cs in checks]
    values = {}  # depth -> its binder's values; a set's are the same at every binding

    def rec(k, env):
        if k == len(pairs):
            yield env
            return
        nm, dom = pairs[k]
        if isinstance(dom, RangeDom) or k not in values:
            values[k] = grounding._domain_values(model, instance, env, dom)
        for v in values[k]:
            child = dict(env)
            child[nm] = v
            if all(test(child) for test in tests[k + 1]):
                yield from rec(k + 1, child)

    env0 = dict(env0 or {})
    if all(test(env0) for test in tests[0]):
        yield from rec(0, env0)


JOIN_MODEL = parse_model(
    """
    int n = ...;
    tuple T { int i; int j; }
    {T} s = ...;
    {T} t = ...;
    {int} u = ...;
    dvar int x in 0..1;
    subject to { c: x >= 0; }
    """
)


def join_instance(rng, empty):
    def rows():
        return [(rng.randint(0, 2), rng.randint(0, 3)) for _ in range(rng.randint(1, 7))]

    data = {"n": rng.randint(0, 3), "s": rows(), "t": rows(), "u": [rng.randint(0, 3) for _ in range(3)]}
    for name in empty:
        data[name] = []
    return build_instance(JOIN_MODEL, data)


def outcome(enumerate_bindings, instance, binders, env0, guard):
    """The envs enumerated and the error that ended them, if any."""
    envs = []
    try:
        for env in enumerate_bindings(JOIN_MODEL, instance, binders, env0, guard):
            envs.append(env)
    except (GroundingError, EvaluationError) as exc:
        return envs, (type(exc), str(exc))
    return envs, None


def counting(monkeypatch, name):
    """Count the calls to grounding.<name>; returns the one-item counter."""
    calls = [0]
    fn = getattr(grounding, name)

    def counted(*args):
        calls[0] += 1
        return fn(*args)

    monkeypatch.setattr(grounding, name, counted)
    return calls


def counting_guards(monkeypatch):
    """Count the guard evaluations of grounding at the top level: the calls
    of each closure that grounding._compile_bool returns, but not those
    made inside another (a condition's parts are compiled through it too)."""
    calls, depth = [0], [0]
    compile_bool = grounding._compile_bool

    def compiled(b, instance):
        test = compile_bool(b, instance)

        def counted(env):
            calls[0] += depth[0] == 0
            depth[0] += 1
            try:
                return test(env)
            finally:
                depth[0] -= 1
        return counted

    monkeypatch.setattr(grounding, "_compile_bool", compiled)
    return calls


def f(base, name):
    return FieldRef(base, name)


def eq(a, b):
    return RelChain((a, b), ("==",))


def rel(op, a, b):
    return RelChain((a, b), (op,))


def both(*items):
    return BoolOp("and", items)


S, T, U = SetDom("s"), SetDom("t"), SetDom("u")
RANGE = RangeDom(IntLit(0), NameRef("n"))

# (binder groups, guard): each names a case the join must reproduce exactly
JOIN_CASES = [
    # the field on either side of the equality
    ((BinderGroup(("a",), S), BinderGroup(("b",), T)), eq(f("b", "i"), f("a", "j"))),
    ((BinderGroup(("a",), S), BinderGroup(("b",), T)), eq(f("a", "j"), f("b", "i"))),
    # e is an expression of outer binders and parameters
    ((BinderGroup(("a", "b"), S),), eq(BinOp("+", f("a", "i"), NameRef("n")), f("b", "j"))),
    # the cc7 shape: two joins and a chain over three binders
    (
        (BinderGroup(("a", "b", "c"), S),),
        both(
            eq(f("a", "i"), f("b", "i")),
            eq(f("b", "j"), f("c", "i")),
            eq(f("a", "j"), f("c", "j")),
            RelChain((f("a", "i"), f("b", "j"), f("a", "j")), ("<", "<")),
        ),
    ),
    # a chain placed first at b's depth: not a join, filtered as before
    ((BinderGroup(("a",), S), BinderGroup(("b",), T)), RelChain((f("a", "i"), f("b", "j"), f("a", "j")), ("<", "<"))),
    # a field the tuple type lacks, as the join field and inside e
    ((BinderGroup(("a",), S), BinderGroup(("b",), T)), eq(f("b", "k"), f("a", "i"))),
    ((BinderGroup(("a",), S), BinderGroup(("b",), T)), eq(f("b", "i"), f("a", "k"))),
    # an int set and a range binder under a field equality
    ((BinderGroup(("a",), S), BinderGroup(("b",), U)), eq(f("b", "i"), f("a", "i"))),
    ((BinderGroup(("a",), S), BinderGroup(("r",), RANGE)), eq(NameRef("r"), f("a", "i"))),
    # e mentions the binder itself
    ((BinderGroup(("a",), S), BinderGroup(("b",), T)), eq(f("b", "i"), BinOp("-", f("b", "j"), f("a", "i")))),
    # e holds a literal past 64 bits
    ((BinderGroup(("a",), S), BinderGroup(("b",), T)), eq(f("b", "i"), BinOp("*", IntLit(2**62), IntLit(2**64)))),
    # two and three leading equalities: a composite key, then a filter
    ((BinderGroup(("a",), S), BinderGroup(("b",), T)), both(eq(f("b", "i"), f("a", "i")), eq(f("a", "j"), f("b", "j")))),
    (
        (BinderGroup(("a",), S), BinderGroup(("b",), T)),
        both(eq(f("b", "j"), f("a", "j")), eq(f("b", "i"), f("a", "i")), eq(f("b", "i"), NameRef("n")),
             rel("<", f("b", "j"), f("a", "i"))),
    ),
    # the cc8 shape: composite keys at two depths behind a range binder
    (
        (BinderGroup(("r",), RANGE), BinderGroup(("a", "b", "c"), S)),
        both(eq(f("a", "i"), NameRef("r")), eq(f("b", "i"), f("a", "j")), eq(f("a", "i"), f("b", "j")),
             eq(f("c", "j"), f("b", "j")), eq(f("c", "i"), f("a", "i")), rel("<=", f("c", "j"), f("a", "j"))),
    ),
    # a key that raises (division by zero where a.j == 0), first and second;
    # the second is evaluated only when a row matches the first
    ((BinderGroup(("a",), S), BinderGroup(("b",), T)), eq(f("b", "i"), BinOp("/", IntLit(6), f("a", "j")))),
    ((BinderGroup(("a",), S), BinderGroup(("b",), T)), both(eq(f("b", "i"), f("a", "i")), eq(f("b", "j"), BinOp("/", NameRef("n"), f("a", "j"))))),
    # a missing field and a whole row as an integer, as a second key
    ((BinderGroup(("a",), S), BinderGroup(("b",), T)), both(eq(f("b", "i"), f("a", "i")), eq(f("b", "j"), f("a", "k")))),
    ((BinderGroup(("a",), S), BinderGroup(("b",), T)), both(eq(f("b", "i"), f("a", "i")), eq(f("b", "j"), NameRef("a")))),
    ((BinderGroup(("a",), S), BinderGroup(("b",), T)), eq(f("b", "i"), NameRef("a"))),
    # ! and || over chains, behind a join and alone
    (
        (BinderGroup(("a",), S), BinderGroup(("b",), T)),
        both(eq(f("b", "i"), f("a", "i")), BoolNot(RelChain((f("a", "i"), f("b", "j"), f("a", "j")), ("<=", "<")))),
    ),
    (
        (BinderGroup(("a",), S), BinderGroup(("b",), T)),
        BoolOp("or", (RelChain((f("b", "i"), f("a", "j"), f("b", "j")), ("<", "!=")), BoolNot(eq(f("a", "i"), f("b", "i"))))),
    ),
    # a literal past 64 bits behind a conjunct that no binding passes, and
    # in a conjunct that every binding reaches
    ((BinderGroup(("a",), S), BinderGroup(("b",), T)), both(rel(">", f("a", "i"), IntLit(5)), rel("<", f("b", "j"), IntLit(2**64)))),
    ((BinderGroup(("a",), S), BinderGroup(("b",), T)), both(eq(f("b", "i"), f("a", "i")), rel("<", f("b", "j"), IntLit(-(2**64))))),
]


def random_case(rng, outer):
    names = ["a", "b", "c"][: rng.choice((1, 2, 3, 3))]
    groups, rows = [], {"o"} if outer else set()
    for nm in names:
        dom = rng.choice((S, S, T, T, U, RANGE))
        if dom in (S, T):
            rows.add(nm)
        if groups and groups[-1].domain == dom and rng.random() < 0.5:
            groups[-1] = BinderGroup(groups[-1].names + (nm,), dom)
        else:
            groups.append(BinderGroup((nm,), dom))

    def operand():
        nm = rng.choice(names + ["o"] * outer)
        pick = rng.random()
        if pick < 0.05:  # a missing field, or a field of an int
            return f(nm, "k") if nm in rows else f(nm, "i")
        if pick < 0.1:  # a whole row as an int
            return NameRef(nm)
        if pick < 0.13:  # division by zero wherever the divisor reads 0
            return BinOp("/", IntLit(6), f(nm, "j") if nm in rows else NameRef(nm))
        if pick < 0.14:  # a literal past 64 bits
            return IntLit(rng.choice((2**63, -(2**63) - 1)))
        if pick < 0.2:
            return rng.choice((IntLit(rng.randint(0, 3)), NameRef("n")))
        ref = f(nm, rng.choice(("i", "j"))) if nm in rows else NameRef(nm)
        return BinOp("+", ref, IntLit(1)) if pick < 0.3 else ref

    def conjunct():
        if rng.random() < 0.1:
            return BoolNot(conjunct())
        if rng.random() < 0.1:
            return BoolOp("or", (conjunct(), conjunct()))
        size = rng.choice((2, 2, 2, 3))
        ops = tuple(rng.choice(("==", "==", "==", "<", "!=")) for _ in range(size - 1))
        return RelChain(tuple(operand() for _ in range(size)), ops)

    def key():  # b.f == e, a join unless e mentions b
        nm = rng.choice(sorted(rows - {"o"}) or names)
        return eq(f(nm, rng.choice(("i", "j"))), operand())

    conjuncts = tuple(conjunct() for _ in range(rng.randint(1, 4)))
    if rng.random() < 0.5:  # leading keys, up to three at one depth
        conjuncts = tuple(key() for _ in range(rng.randint(1, 3))) + conjuncts
    return tuple(groups), (conjuncts[0] if len(conjuncts) == 1 else both(*conjuncts))


def test_joins_enumerate_what_filtering_enumerates(monkeypatch):
    # the same envs, in the same order, ended by the same error, on fixed
    # cases and 1,500 seeded random ones; the join must also save guard
    # evaluations, or it never fired
    calls = counting_guards(monkeypatch)
    errors = joined = 0
    for seed in range(1500):
        rng = random.Random(seed)
        outer = rng.random() < 0.5
        env0 = {"o": {"i": rng.randint(0, 2), "j": rng.randint(0, 3)}} if outer else None
        if seed < 4 * len(JOIN_CASES):
            binders, guard = JOIN_CASES[seed % len(JOIN_CASES)]
            instance = join_instance(rng, ("s", "t", "u") if seed < len(JOIN_CASES) else ())
        else:
            binders, guard = random_case(rng, outer)
            instance = join_instance(rng, rng.choice(((), (), ("s",), ("t",))))
        results, spent = [], []
        for fn in (iter_bindings, filtering_bindings):
            calls[0] = 0
            results.append(outcome(fn, instance, binders, env0, guard))
            spent.append(calls[0])
        assert results[0] == results[1], (seed, binders, guard)
        errors += results[0][1] is not None
        joined += spent[0] < spent[1]
    assert errors > 150 and joined > 150, (errors, joined)


def test_join_cuts_guard_evaluations(monkeypatch):
    # grounding p at m=16 filtered 429,065 guard evaluations through
    # cc7/cc8's nested binders over `indexes` before the joins, and 49,400
    # (top level) with a key of each binder's first equality only; the
    # composite keys of ind1.i == ind2.i && ind1.j == ind3.j ... make 28,456
    program = parse_model_file(corpus_path("golomb", "p.cpm"))
    instance = build_instance(program, None, {"m": 16})
    calls = counting_guards(monkeypatch)
    ground(program, instance)
    assert calls[0] < 29_000


# Range binders narrowed by their guards


def ref(nm):
    return NameRef(nm)


def plus(e, c):
    return BinOp("+", e, IntLit(c))


def rng_dom(lo, hi):
    """lo..hi, either end an int or an expression."""
    return RangeDom(*(IntLit(e) if isinstance(e, int) else e for e in (lo, hi)))


ABC = (BinderGroup(("a", "b", "c"), rng_dom(0, NameRef("n"))),)
AB = (BinderGroup(("a",), rng_dom(-1, 2)), BinderGroup(("b",), rng_dom(0, NameRef("n"))))

# (binder groups, guard): each names a case narrowing must reproduce exactly
NARROW_CASES = [
    # every relation, the range binder on either side
    *((AB, rel(op, ref("b"), ref("a"))) for op in ("<", "<=", ">", ">=", "==")),
    *((AB, rel(op, plus(ref("a"), 1), ref("b"))) for op in ("<", "<=", ">", ">=", "==")),
    # chains, and two cuts at one depth followed by a filter
    (ABC, RelChain((ref("a"), ref("b"), ref("c")), ("<", "<"))),
    (ABC, RelChain((ref("c"), ref("b"), ref("a")), (">=", ">"))),
    (ABC, both(rel("<", ref("a"), ref("c")), rel("<", ref("c"), plus(ref("b"), 2)), rel("!=", ref("c"), ref("b")))),
    # the reference's c2 shape
    (
        (BinderGroup(("i", "j", "k", "l"), rng_dom(1, NameRef("n"))),),
        both(rel("<", ref("i"), ref("j")), rel("<", ref("k"), ref("l")),
             BoolOp("or", (rel("!=", ref("i"), ref("k")), rel("!=", ref("j"), ref("l"))))),
    ),
    # empty ranges: a bound past the range, and a range that is empty itself
    (AB, rel(">", ref("b"), plus(ref("n"), 3))),
    ((BinderGroup(("a",), rng_dom(0, 2)), BinderGroup(("b",), rng_dom(3, 1))), rel("<", ref("a"), ref("b"))),
    # a filter first: the cut behind it filters too
    (AB, both(rel("!=", ref("b"), IntLit(1)), rel("<", ref("a"), ref("b")))),
    # bounds that raise: division by zero at a == 0 only, everywhere, and
    # behind a cut; an unknown name; a literal past 64 bits
    (AB, rel("<", ref("b"), BinOp("/", IntLit(6), ref("a")))),
    (AB, rel(">=", BinOp("/", ref("a"), BinOp("-", ref("n"), ref("n"))), ref("b"))),
    (AB, both(rel(">", ref("b"), ref("a")), rel("<", ref("b"), BinOp("/", IntLit(6), ref("a"))))),
    (AB, rel("==", ref("b"), ref("q"))),
    (AB, rel("<=", ref("b"), BinOp("*", IntLit(2**62), IntLit(2**64)))),
]


def random_range_case(rng):
    names = ["a", "b", "c", "d"][: rng.randint(2, 4)]
    groups = []

    def operand(upto):
        pick = rng.random()
        if pick < 0.15:
            return rng.choice((IntLit(rng.randint(-1, 4)), ref("n")))
        if pick < 0.2:  # division by zero wherever the divisor reads 0
            return BinOp("/", IntLit(6), ref(rng.choice(upto)))
        e = ref(rng.choice(upto))
        return plus(e, rng.choice((-1, 1))) if pick < 0.35 else e

    for i, nm in enumerate(names):
        earlier = names[:i]
        lo = operand(earlier) if earlier and rng.random() < 0.3 else IntLit(rng.randint(-1, 2))
        hi = rng.choice((IntLit(rng.randint(-1, 4)), ref("n"))) if rng.random() < 0.8 else operand(earlier or ["n"])
        if groups and rng.random() < 0.3:
            groups[-1] = BinderGroup(groups[-1].names + (nm,), groups[-1].domain)
        else:
            groups.append(BinderGroup((nm,), rng_dom(lo, hi)))

    def conjunct():
        if rng.random() < 0.1:
            return BoolNot(conjunct())
        size = rng.choice((2, 2, 2, 3))
        ops = tuple(rng.choice(("<", "<=", ">", ">=", "==", "!=")) for _ in range(size - 1))
        return RelChain(tuple(operand(names) for _ in range(size)), ops)

    conjuncts = tuple(conjunct() for _ in range(rng.randint(1, 4)))
    return tuple(groups), (conjuncts[0] if len(conjuncts) == 1 else both(*conjuncts))


def test_narrowing_enumerates_what_filtering_enumerates(monkeypatch):
    # the same envs, in the same order, ended by the same error, on fixed
    # cases over every n and 1,500 seeded random ones; narrowing must also
    # save guard evaluations, or it never fired
    calls = counting_guards(monkeypatch)
    errors = narrowed = 0
    cases = [(binders, guard, n) for binders, guard in NARROW_CASES for n in (-1, 0, 1, 3)]
    for seed in range(len(cases) + 1500):
        if seed < len(cases):
            binders, guard, n = cases[seed]
        else:
            rng = random.Random(seed)
            (binders, guard), n = random_range_case(rng), rng.randint(-1, 4)
        instance = build_instance(JOIN_MODEL, {"n": n, "s": [], "t": [], "u": []})
        results, spent = [], []
        for fn in (iter_bindings, filtering_bindings):
            calls[0] = 0
            results.append(outcome(fn, instance, binders, None, guard))
            spent.append(calls[0])
        assert results[0] == results[1], (seed, binders, guard, n)
        errors += results[0][1] is not None
        narrowed += spent[0] < spent[1]
    assert errors > 80 and narrowed > 300, (errors, narrowed)


def test_narrowing_cuts_guard_evaluations(monkeypatch):
    # the reference's c2 at m=20 filtered 112,500 guards through its range
    # binders i < j and k < l; 36,100 of them, one per kept binding, are
    # left to its disjunction.  Counted at the top level: a guard's parts
    # are not counted again
    oracle = parse_model_file(corpus_path("golomb", "oracle.cpm"))
    instance = build_instance(oracle, None, {"m": 20})
    calls = counting_guards(monkeypatch)
    ground(oracle, instance)
    assert calls[0] < 60_000


# Compiled conditions against the interpreter they replace


def interpret(e, instance, env):
    """A parameter-only expression's value, by walking it at every call."""
    if isinstance(e, IntLit):
        return check64(e.value)
    if isinstance(e, NameRef):
        if e.name in env:
            v = env[e.name]
            if not isinstance(v, int):
                raise GroundingError(f"binder {e.name!r} is not an integer")
            return v
        if e.name in instance:
            v = instance[e.name]
            if not isinstance(v, int):
                raise GroundingError(f"set parameter {e.name!r} used as an integer")
            return v
        raise GroundingError(f"{e.name!r} is not a parameter or binder")
    if isinstance(e, FieldRef):
        row = env.get(e.base)
        if not isinstance(row, dict):
            raise GroundingError(f"{e.base!r} is not a tuple binder")
        if e.fieldname not in row:
            raise GroundingError(f"tuple binder {e.base!r} has no field {e.fieldname!r}")
        return row[e.fieldname]
    if isinstance(e, Neg):
        return -interpret(e.operand, instance, env)
    if isinstance(e, BinOp):
        a, b = interpret(e.left, instance, env), interpret(e.right, instance, env)
        return {"+": a + b, "-": a - b, "*": a * b}[e.op] if e.op != "/" else div_trunc(a, b)
    raise GroundingError(f"expression must be parameter-only, found {type(e).__name__}")


def interpret_bool(b, instance, env):
    if isinstance(b, RelChain):
        vals = [interpret(e, instance, env) for e in b.operands]
        return all(rel_holds(op, vals[i], vals[i + 1]) for i, op in enumerate(b.rel_ops))
    if isinstance(b, BoolOp):
        quantifier = all if b.op == "and" else any
        return quantifier(interpret_bool(it, instance, env) for it in b.items)
    if isinstance(b, BoolNot):
        return not interpret_bool(b.item, instance, env)
    raise GroundingError(f"not a boolean expression: {type(b).__name__}")


def random_condition(rng, depth=0):
    """A condition over binders a (an int), r (a row <i, j>) and o (unbound),
    parameters n (an int) and s (a set), with every error the evaluation
    can raise somewhere in it."""

    def operand(depth):
        pick = rng.random()
        if pick < 0.3 and depth < 3:
            if rng.random() < 0.2:
                return Neg(operand(depth + 1))
            return BinOp(rng.choice("+-*/"), operand(depth + 1), operand(depth + 1))
        if pick < 0.4:
            return IntLit(rng.choice((0, 1, -2, 2, 2**63 - 1, 2**63 - 1, 2**63, -(2**63) - 1)))
        if pick < 0.7:
            return NameRef(rng.choice(("a",) * 6 + ("n",) * 6 + ("r", "s", "o")))
        if pick < 0.99:
            return f(rng.choice(("r",) * 12 + ("a", "o")), rng.choice(("i", "j") * 6 + ("k",)))
        return IndexedRef("x", NameRef("a"))  # not parameter-only

    pick = rng.random()
    if pick < 0.2 and depth < 3:
        return BoolOp(rng.choice(("and", "or")), tuple(random_condition(rng, depth + 1) for _ in range(rng.randint(1, 3))))
    if pick < 0.3 and depth < 3:
        return BoolNot(random_condition(rng, depth + 1))
    if pick < 0.31:
        return IntLit(1)  # not a condition
    size = rng.choice((2, 2, 3, 4))
    ops = tuple(rng.choice(("==", "!=", "<", "<=", ">", ">=")) for _ in range(size - 1))
    return RelChain(tuple(operand(depth) for _ in range(size)), ops)


def test_compiled_conditions_agree_with_the_interpreter():
    # the same value, or the same error at the same env, on 3,000 seeded
    # random conditions; compiling raises nothing, even for a literal past
    # 64 bits that no env reaches
    instance = {"n": 3, "s": (1, 2)}
    envs = [{"a": a, "r": {"i": i, "j": j}} for a in (-1, 0, 2) for i, j in ((0, 0), (1, 3), (2, -2))]

    def run(fn, env):
        try:
            return fn(env)
        except (GroundingError, EvaluationError) as exc:
            return type(exc), str(exc)

    outcomes = set()
    for seed in range(3000):
        b = random_condition(random.Random(seed))
        test = grounding._compile_bool(b, instance)
        for env in envs:
            got = run(test, env)
            assert got == run(lambda env: interpret_bool(b, instance, env), env), (seed, b, env)
            outcomes.add(got if isinstance(got, bool) else re.sub(r"'[^']*'|-?\d+", "_", got[1]))
    assert len(outcomes) == 11, outcomes  # True, False and each of the nine errors


def model_parts(gm):
    """What makes a ground model: GroundModel itself has no ==."""
    trees = [(c.label, c.tree) for c in gm.constraints]
    return gm.vids, gm.domains, trees, gm.channel_defs, gm.objective, gm.space.keys


def corpus_inputs():
    """(model, data, overrides) of the 7 Golomb models at m = 3..12 and the
    5 car-sequencing models on slots10."""
    for prog in ("oracle", "p", "p_fixed", "cput1", "cput2", "cput3", "cput4"):
        model = parse_model_file(corpus_path("golomb", prog + ".cpm"))
        for m in range(3, 13):
            yield model, None, {"m": m}
    data = parse_data_file(corpus_path("carseq", "slots10.data"))
    for prog in ("oracle", "cput1", "cput2", "cput3", "cput4"):
        yield parse_model_file(corpus_path("carseq", prog + ".cpm")), data, None


def corpus_groundings():
    for model, data, overrides in corpus_inputs():
        yield model, build_instance(model, data, overrides)


def test_ground_models_match_the_filtering_reference(monkeypatch):
    # the access paths (joins, range cuts) change only what is enumerated to
    # be filtered: instances and ground models are those of filtering every
    # binder, on the corpus and on p, cput3 and the reference at m = 16, 20
    large = [(parse_model_file(corpus_path("golomb", prog + ".cpm")), None, {"m": m})
             for prog in ("oracle", "p", "cput3") for m in (16, 20)]
    inputs = list(corpus_inputs()) + large

    def grounded():
        return [model_parts(ground(model, build_instance(model, data, overrides)))
                for model, data, overrides in inputs]

    indexed = grounded()
    monkeypatch.setattr(grounding, "iter_bindings", filtering_bindings)
    assert len(inputs) == 81 and grounded() == indexed


def test_memo_leaves_ground_models_unchanged(monkeypatch):
    cases = list(corpus_groundings())
    memoised = [model_parts(ground(model, instance)) for model, instance in cases]
    monkeypatch.setattr(
        grounding, "lower_expr", lambda e, ctx, env: ctx.share(grounding._lower(e, ctx, env))
    )
    plain = [model_parts(ground(model, instance)) for model, instance in cases]
    assert len(cases) == 75 and memoised == plain


def test_memo_lowers_each_difference_once(monkeypatch):
    # the reference's c2 uses each of the 45 differences x[j] - x[i] at
    # m=10 in 88 atoms; without the memo one ground() made 11,899 _lower calls
    oracle = parse_model_file(corpus_path("golomb", "oracle.cpm"))
    instance = build_instance(oracle, None, {"m": 10})
    calls = counting(monkeypatch, "_lower")
    ground(oracle, instance)
    assert calls[0] <= 300


def test_memo_keys_reach_array_indexes():
    # a memo keyed without the names inside x[...] would lower x[j] - x[i]
    # once and reuse it for every pair
    model = parse_model(
        """
        int n = ...;
        tuple P { int i; int j; }
        {P} pairs = {<i, j> | i, j in 1..n : i < j};
        dvar int x[1..n] in 0..99;
        dvar int d[pairs] in 0..99;
        subject to {
          a: forall (i, j in 1..n : i < j) x[j] - x[i] >= 1;
          b: forall (p in pairs) x[p.j] - x[p.i] <= 50;
          c: forall (i, j in 1..n : i < j) d[<i, j>] >= x[j] - x[i];
          e: forall (p in pairs) d[p] <= 99 - x[p.i];
        }
        """
    )
    gm = ground(model, build_instance(model, {"n": 5}))
    x = {i: gm.space.index[("x", (i,))] for i in range(1, 6)}
    d = {key: vid for (base, key), vid in gm.space.index.items() if base == "d"}
    pairs = [(i, j) for i in range(1, 6) for j in range(i + 1, 6)]
    for label, side in (("a", "left"), ("b", "left"), ("c", "right")):
        atoms = gm.constraint(label).tree.items
        assert [gexpr_vars(getattr(a, side)) for a in atoms] == [{x[i], x[j]} for i, j in pairs]
        assert len({getattr(a, side) for a in atoms}) == len(pairs)
    assert [gexpr_vars(a.left) for a in gm.constraint("c").tree.items] == [{d[p]} for p in pairs]
    assert [gexpr_vars(a.left) | gexpr_vars(a.right) for a in gm.constraint("e").tree.items] == [
        {d[p], x[p[0]]} for p in pairs
    ]
