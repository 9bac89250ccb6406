import itertools
import random

import pytest

from cpconftest import grounding, parse_data, parse_data_file, parse_model, parse_model_file
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
    gexpr_vars,
    ground,
    iter_bindings,
    parse_var_name,
)
from cpconftest.solver import solve
from cpconftest.syntax import (
    BinderGroup,
    BinOp,
    BoolNot,
    BoolOp,
    FieldRef,
    IntLit,
    NameRef,
    RangeDom,
    RelChain,
    SetDom,
    names_in,
    walk_bool,
)

from conftest import brute_solutions

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


# ---------------------------------------------------------------------------
# Indexed joins and the lowering memo


def filtering_bindings(model, instance, binders, env0=None, guard=None):
    """iter_bindings without joins: every value of every binder is filtered
    through the conjuncts placed at its depth."""
    pairs = [(nm, g.domain) for g in binders for nm in g.names]
    checks = [[] for _ in range(len(pairs) + 1)]
    if guard is not None:
        for conj in grounding._guard_conjuncts(guard):
            names = names_in(walk_bool(conj))
            depth = max((i + 1 for i, (nm, _) in enumerate(pairs) if nm in names), default=0)
            checks[depth].append(conj)

    def holds(c, env):
        return grounding._peval_bool(c, instance, env)

    def rec(k, env):
        if k == len(pairs):
            yield env
            return
        nm, dom = pairs[k]
        for v in grounding._domain_values(model, instance, env, dom):
            child = dict(env)
            child[nm] = v
            if all(holds(c, child) for c in checks[k + 1]):
                yield from rec(k + 1, child)

    env0 = dict(env0 or {})
    if all(holds(c, env0) for c in checks[0]):
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


def f(base, name):
    return FieldRef(base, name)


def eq(a, b):
    return RelChain((a, b), ("==",))


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
    # e overflows
    ((BinderGroup(("a",), S), BinderGroup(("b",), T)), eq(f("b", "i"), BinOp("*", IntLit(2**62), IntLit(4)))),
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

    conjuncts = tuple(conjunct() for _ in range(rng.randint(1, 4)))
    return tuple(groups), (conjuncts[0] if len(conjuncts) == 1 else both(*conjuncts))


def test_joins_enumerate_what_filtering_enumerates(monkeypatch):
    # the same envs, in the same order, ended by the same error, on fixed
    # cases and 1,500 seeded random ones; the join must also save guard
    # evaluations, or it never fired
    calls = counting(monkeypatch, "_peval_bool")
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
    # cc7/cc8's nested binders over `indexes` before the joins
    program = parse_model_file(corpus_path("golomb", "p.cpm"))
    instance = build_instance(program, None, {"m": 16})
    calls = counting(monkeypatch, "_peval_bool")
    ground(program, instance)
    assert calls[0] < 60_000


def model_parts(gm):
    """What makes a ground model: GroundModel itself has no ==."""
    trees = [(c.label, c.tree) for c in gm.constraints]
    return gm.vids, gm.domains, trees, gm.channel_defs, gm.objective, gm.space.keys


def corpus_groundings():
    for prog in ("oracle", "p", "p_fixed", "cput1", "cput2", "cput3", "cput4"):
        model = parse_model_file(corpus_path("golomb", prog + ".cpm"))
        for m in range(3, 13):
            yield model, build_instance(model, None, {"m": m})
    data = parse_data_file(corpus_path("carseq", "slots10.data"))
    for prog in ("oracle", "cput1", "cput2", "cput3", "cput4"):
        model = parse_model_file(corpus_path("carseq", prog + ".cpm"))
        yield model, build_instance(model, data)


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
