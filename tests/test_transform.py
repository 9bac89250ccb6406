import dataclasses
import time

import pytest

from cpconftest import conformity, grounding, solver
from cpconftest.corpus import corpus_path, load_manifest
from cpconftest.grounding import (
    AndC,
    Const,
    CountC,
    FALSE_C,
    OrC,
    PackBinC,
    Prod,
    RelAtom,
    Sum,
    TableC,
    TRUE_C,
    Var,
    ctr_vars,
    evaluate_ground,
)
from cpconftest.ops import rel_holds
from cpconftest.parser import parse_data_file, parse_model_file
from cpconftest.transform import (
    FALSE_KEY,
    TRUE_KEY,
    ac_equal,
    canonical_key,
    gexpr_key,
    negate,
    poly_of,
    rel_form,
)

from conftest import REL_OPS, all_assignments, alldiff, pack, rand_expr, rand_tree, small_globals

x, y, z = Var(0), Var(1), Var(2)


def k(op, left, right):
    return canonical_key(RelAtom(op, left, right))


# -- rewriting identities ----------------------------------------------------


def test_commutativity():
    assert k("<", Sum((x, y)), z) == k("<", Sum((y, x)), z)
    assert k("==", Prod((x, y)), z) == k("==", Prod((y, x)), z)


def test_additive_identity():
    assert k("==", Sum((x, Const(0))), y) == k("==", x, y)
    assert gexpr_key(Sum((x, Const(0)))) == gexpr_key(x)


def test_multiplicative_identity():
    assert k("==", Prod((x, Const(1))), y) == k("==", x, y)


def test_multiplication_by_zero():
    assert k("==", Prod((x, Const(0))), y) == k("==", Const(0), y)


def test_distribution():
    lhs = Prod((x, Sum((y, z))))
    rhs = Sum((Prod((x, y)), Prod((x, z))))
    assert gexpr_key(lhs) == gexpr_key(rhs)


def test_mirrored_inequalities():
    assert k("<", x, y) == k(">", y, x)
    assert k("<=", x, y) == k(">=", y, x)
    # a strict relation is its non-strict form over the integers
    x_plus_1, y_minus_1 = Sum((x, Const(1))), Sum((y, Const(-1)))
    assert k("<", x, y) == k("<=", x_plus_1, y) == k(">", y, x) == k(">=", y_minus_1, x)
    assert ac_equal(RelAtom("<", x, y), RelAtom(">=", y_minus_1, x))


def test_rel_form_orients_and_checks_overflow():
    assert rel_form(RelAtom(">", x, y)) == ("<=", {(0,): -1, (1,): 1, (): 1})
    assert rel_form(RelAtom(">=", x, Const(2))) == ("<=", {(0,): -1, (): 2})
    assert rel_form(RelAtom("!=", x, x)) == ("!=", {})
    # each side fits in 64 bits, their difference's coefficient 2^63 does
    # not: the form is exact all the same
    assert rel_form(RelAtom("==", Prod((Const(2**62), x)), Prod((Const(-(2**62)), x)))) == (
        "==",
        {(0,): 2**63},
    )


def test_rel_form_is_computed_once_per_atom():
    a, b = RelAtom(">", x, Const(1)), RelAtom(">", x, Const(1))
    assert rel_form(a) is rel_form(a)
    # kept on the atom object, not in a cache shared by equal atoms, and
    # invisible to equality, hashing and repr
    assert getattr(b, "_form", None) is None
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)


def _old_rel_key(atom):
    """_rel_key as it sorted before: by degree, then monomial, with a
    second sort for the sign of == and !=."""
    op, p = rel_form(atom)
    if all(m == () for m in p):
        return TRUE_KEY if rel_holds(op, p.get((), 0), 0) else FALSE_KEY
    order = sorted(p, key=lambda m: (len(m), m))
    sign = -1 if op != "<=" and p[order[-1]] < 0 else 1
    return ("rel", op, ("poly",) + tuple((m, sign * p[m]) for m in order))


def test_plain_monomial_order_keeps_every_key_equality(rng):
    # keys sort their terms in plain tuple order: linear keys are laid out
    # as before, and on atoms with products (powers included) the keys are
    # equal exactly where the degree-first keys were
    atoms = [RelAtom(rng.choice(REL_OPS), rand_expr(rng, [0, 1]), rand_expr(rng, [0, 1])) for _ in range(600)]
    new, old = {}, {}
    for i, a in enumerate(atoms):
        new.setdefault(canonical_key(a), []).append(i)
        old.setdefault(_old_rel_key(a), []).append(i)
        if all(len(m) <= 1 for m in rel_form(a)[1]):
            assert canonical_key(a) == _old_rel_key(a)
    assert sorted(new.values()) == sorted(old.values())
    products = sum(any(len(m) > 1 for m in rel_form(a)[1]) for a in atoms)
    assert len(new) < len(atoms) and products > 100, (len(new), products)


def _fresh(e):
    """An equal expression of new objects, on which nothing is kept yet."""
    if isinstance(e, Const):
        return Const(e.value)
    if isinstance(e, Var):
        return Var(e.vid)
    return type(e)(tuple(_fresh(it) for it in e.items))


def _expressions(tree, out):
    """Every expression node of a ground tree, atoms' sides and items down."""
    stack = []
    if isinstance(tree, RelAtom):
        stack = [tree.left, tree.right]
    elif isinstance(tree, (AndC, OrC)):
        for it in tree.items:
            _expressions(it, out)
    elif isinstance(tree, CountC):
        stack = [*tree.items, tree.value, tree.rhs]
    elif isinstance(tree, TableC):
        stack = list(tree.items)
    while stack:
        e = stack.pop()
        out.append(e)
        if isinstance(e, (Sum, Prod)):
            stack.extend(e.items)
    return out


def test_negation_reuses_the_kept_form(rng):
    # negate() gives an atom's complement the form that rel_form would
    # compute for it afresh, built from the atom's own kept form: == and !=
    # share its polynomial, p <= 0 becomes -p + 1 <= 0.  So the complement
    # keys alike, with and without a presolve reduction, for every relation,
    # on linear atoms and on atoms with products and powers
    rows = solver._echelon([RelAtom("==", y, Sum((Prod((Const(2), x)), Const(-1))))], lambda: None)
    reductions = (None, solver._normal_form(rows))
    fixed = [
        (Sum((x, Const(1))), y),
        (x, Const(1)),  # p = x - 1: the constant leaves x - 1 + 1
        (Sum((x, Const(1))), Const(0)),  # and x + 1 - 1 for > and <=
        (Prod((x, x)), Sum((Prod((x, y)), Const(-1)))),
        (Prod((y, y, x)), Prod((Const(3), z))),
    ]
    atoms = [RelAtom(op, a, b) for op in REL_OPS for a, b in fixed]
    atoms += [RelAtom(rng.choice(REL_OPS), rand_expr(rng, [0, 1, 2]), rand_expr(rng, [0, 1, 2])) for _ in range(400)]
    for atom in atoms:
        neg = negate(atom)
        assert getattr(neg, "_form", None) is not None
        if atom.op in ("==", "!="):
            assert rel_form(neg)[1] is rel_form(atom)[1]
        fresh = RelAtom(neg.op, _fresh(neg.left), _fresh(neg.right))
        assert rel_form(neg) == rel_form(fresh)
        for reduce in reductions:
            assert canonical_key(neg, reduce) == canonical_key(fresh, reduce)


def test_poly_of_is_kept_and_equals_a_fresh_expansion(rng):
    checked = 0
    for _ in range(300):
        for e in _expressions(rand_tree(rng, [0, 1, 2], depth=2), []):
            # in a sum of e with itself, e's kept polynomial is read twice
            for expr in (e, Sum((e, e))):
                p = poly_of(expr)
                assert poly_of(expr) is p and poly_of(_fresh(expr)) == p
                checked += 1
    assert checked > 1000


@pytest.mark.parametrize("name", ["golomb-p-fixed-best-m5", "carseq-cput1-one"])
def test_kept_polynomials_survive_a_check(monkeypatch, name):
    # every layer reads the polynomials and normal forms kept on the ground
    # models; after a whole check each still equals its recomputation, so
    # no caller changed a shared dict
    run = next(r for r in load_manifest()["runs"] if r["name"] == name)
    grounded = []

    def keep(*args, **kwargs):
        grounded.extend(ground_pair(*args, **kwargs))
        return grounded[-2:]

    ground_pair = conformity.ground_pair
    monkeypatch.setattr(conformity, "ground_pair", keep)
    conformity.check(
        parse_model_file(corpus_path(*run["oracle"].split("/"))),
        parse_model_file(corpus_path(*run["program"].split("/"))),
        data=parse_data_file(corpus_path(*run["data"].split("/"))) if run.get("data") else None,
        overrides=run.get("params"),
        opts=conformity.CheckOptions(relation=run["relation"], bounds=run.get("bounds")),
    )
    polys = forms = 0
    for gm in grounded:
        trees = [c.tree for c in gm.constraints]
        for tree in trees:
            for e in _expressions(tree, []):
                kept = getattr(e, "_poly", None)
                if kept is not None:
                    polys += 1
                    assert kept == poly_of(_fresh(e))
            stack = [tree]
            while stack:
                t = stack.pop()
                if isinstance(t, (AndC, OrC)):
                    stack.extend(t.items)
                elif isinstance(t, RelAtom) and getattr(t, "_form", None) is not None:
                    forms += 1
                    fresh = RelAtom(t.op, _fresh(t.left), _fresh(t.right))
                    assert t._form == rel_form(fresh)
    assert polys > 100 and forms > 50


def test_subtracting_zero():
    assert k("==", Sum((x, Prod((Const(-1), Const(0))))), y) == k("==", x, y)


def test_canonicalization_is_stable():
    t = RelAtom("<", Sum((x, y, Const(3))), Prod((Const(2), z)))
    assert canonical_key(t) == canonical_key(t)
    assert ac_equal(t, t)


def test_ground_relations_fold_to_truth():
    assert canonical_key(RelAtom("<", Const(1), Const(2))) == TRUE_KEY
    assert canonical_key(RelAtom(">", Const(1), Const(2))) == FALSE_KEY
    assert canonical_key(TRUE_C) == TRUE_KEY
    assert canonical_key(FALSE_C) == FALSE_KEY


def test_nested_flattening():
    t1 = AndC((RelAtom("<", x, y), AndC((RelAtom("<", y, z), RelAtom("<", x, z)))))
    t2 = AndC((RelAtom("<", y, z), RelAtom("<", x, z), RelAtom("<", x, y)))
    assert ac_equal(t1, t2)


def test_shared_disjunct_factoring():
    # (a|b) & (a|c) = a | (b&c), and its dual (a&b) | (a&c) = a & (b|c)
    a, b, c = RelAtom("==", x, Const(0)), RelAtom("==", y, Const(1)), RelAtom("==", z, Const(2))
    for outer, inner in ((AndC, OrC), (OrC, AndC)):
        left = outer((inner((a, b)), inner((a, c))))
        right = inner((a, outer((b, c))))
        assert canonical_key(left) == canonical_key(right)
        for asg in all_assignments([0, 1, 2], 0, 2):
            assert evaluate_ground(left, asg) == evaluate_ground(right, asg)


def test_ac_equal_is_sound(rng):
    vids = [0, 1, 2]
    trees = [rand_tree(rng, vids) for _ in range(60)]
    for i, t1 in enumerate(trees):
        for t2 in trees[i + 1 :]:
            if ac_equal(t1, t2):
                for a in all_assignments(vids, 0, 2):
                    assert evaluate_ground(t1, a) == evaluate_ground(t2, a)


# -- negation ----------------------------------------------------------------


def exhaustive_negation_check(tree, vids, lo=0, hi=2):
    neg = negate(tree)
    for a in all_assignments(vids, lo, hi):
        assert evaluate_ground(neg, a) == (not evaluate_ground(tree, a))


def test_negate_relation():
    for op in ("==", "!=", "<", "<=", ">", ">="):
        exhaustive_negation_check(RelAtom(op, Sum((x, y)), z), [0, 1, 2])


def test_negate_conjunction_disjunction():
    t = AndC((RelAtom("<", x, y), OrC((RelAtom("==", y, z), RelAtom(">", x, z)))))
    exhaustive_negation_check(t, [0, 1, 2])


def test_negate_alldiff_shape():
    r = negate(alldiff((x, y, z)))
    assert isinstance(r, OrC) and len(r.items) == 3
    exhaustive_negation_check(alldiff((x, y, z)), [0, 1, 2])


def test_negate_allmindist_and_inverse():
    for domains, t in small_globals():
        exhaustive_negation_check(t, list(domains), *domains.get(0, (0, 0)))


def test_negate_table_flips_kind():
    t = TableC("allowed", (x, y), ((0, 1), (2, 2)))
    assert negate(t).kind == "forbidden"
    exhaustive_negation_check(t, [0, 1])


def test_negate_count_flips_op():
    t = CountC((x, y, z), Const(1), "<=", Const(2))
    assert negate(t).op == ">"
    exhaustive_negation_check(t, [0, 1, 2])


def test_negate_pack_by_bins():
    # loads v0,v1 for bins 1,2; items v2,v3 with sizes 2,3
    t = pack((0, 1), (2, 3), (2, 3), (1, 2))
    r = negate(t)
    assert isinstance(r, OrC)
    assert all(isinstance(b, PackBinC) and b.op == "!=" for b in r.items)
    for a in all_assignments([0, 1, 2, 3], 0, 2):
        if a[2] in (1, 2) and a[3] in (1, 2):
            assert evaluate_ground(r, a) == (not evaluate_ground(t, a))


def test_every_ground_constraint_class_has_a_complement():
    # one tree per constraint class that grounding defines (its frozen
    # dataclasses other than expressions and per-model records), so a class
    # added without a complement fails here: negate raises TypeError for it
    samples = {
        RelAtom: RelAtom("<", Sum((x, y)), z),
        AndC: AndC((RelAtom("<", x, y), RelAtom("!=", y, z))),
        OrC: OrC((RelAtom("==", x, y), RelAtom(">", y, z))),
        TableC: TableC("forbidden", (x, y), ((0, 1), (2, 2))),
        CountC: CountC((x, y), Const(1), "==", z),
        PackBinC: PackBinC(2, 0, (1, 2), (1, 2), "=="),
    }
    others = {Const, Var, Sum, Prod, grounding.ChannelDef, grounding.GroundCtr}
    defined = {
        c
        for c in vars(grounding).values()
        if isinstance(c, type) and dataclasses.is_dataclass(c) and c.__module__ == grounding.__name__
    }
    assert defined - others == set(samples)
    for tree in samples.values():
        exhaustive_negation_check(tree, sorted(ctr_vars(tree)))
    with pytest.raises(TypeError, match="not a ground constraint"):
        negate(x)


def test_negation_polls_the_deadline():
    tree = AndC(tuple(RelAtom("!=", x, Const(c)) for c in range(grounding._POLL_EVERY + 1)))
    with pytest.raises(TimeoutError):
        negate(tree, grounding._clock(time.monotonic() - 1.0))
    assert negate(tree, grounding._clock(time.monotonic() + 60.0)) == negate(tree)


def test_negation_double_is_equivalent(rng):
    vids = [0, 1, 2]
    for _ in range(40):
        t = rand_tree(rng, vids)
        twice = negate(negate(t))
        for a in all_assignments(vids, 0, 2):
            assert evaluate_ground(twice, a) == evaluate_ground(t, a)


def test_random_negation_soundness(rng):
    vids = [0, 1, 2, 3]
    for _ in range(200):
        t = rand_tree(rng, vids)
        exhaustive_negation_check(t, vids)
