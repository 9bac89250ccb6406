import itertools
import random
import time

import pytest

from cpconftest import grounding, solver
from cpconftest.conformity import CheckOptions, check, ground_pair
from cpconftest.corpus import corpus_path, load_manifest
from cpconftest.grounding import (
    AllDiffC,
    AllMinDistC,
    AndC,
    Const,
    CountC,
    FALSE_C,
    InverseC,
    OrC,
    PackC,
    Prod,
    RelAtom,
    Sum,
    TRUE_C,
    TableC,
    Var,
    build_instance,
    eval_gexpr,
    evaluate_ground,
    expansion,
    ground,
    mk_diff,
)
from cpconftest.parser import parse_data_file, parse_model_file
from cpconftest.solver import SearchConfig, presolve, solve, solve_optimal
from cpconftest.transform import FALSE_KEY, TRUE_KEY, canonical_key, negate

from conftest import brute_min, brute_solutions, rand_expr, rand_tree, small_globals

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


def wide_disjunction():
    """1,681 atoms, built afresh: each atom object keeps its normal form once
    computed, so a second presolve over the same objects does less work."""
    vs = [Var(v) for v in range(8)]
    return OrC(
        tuple(RelAtom("==", Sum((a, b)), Sum((c, d))) for a, b, c, d in itertools.permutations(vs, 4))
        + (RelAtom("<=", x, Sum((x, Const(1)))),)
    )


def test_time_limit_counts_presolve():
    # presolve keys every disjunct of a wide disjunction and then drops it,
    # since its last disjunct always holds; posting and search are trivial
    hard = [RelAtom("<", x, y)]
    t0 = time.monotonic()
    presolve(hard).extras([wide_disjunction()])
    took = time.monotonic() - t0
    extras = [wide_disjunction()]
    deadline = time.monotonic() + took / 4
    out = solve(doms(8, 0, 9), hard, extras, config=SearchConfig(deadline=deadline))
    assert out.status == "RESOURCE_OUT"


@pytest.mark.parametrize("hard", [[RelAtom("<", x, y)], []])
def test_presolve_polls_its_deadline(monkeypatch, hard):
    # with no time left, presolve stops within one polling interval of
    # atoms, whether the deadline is first looked at while it reads the
    # asserted constraints or while it simplifies the disjunction
    keyed = []

    def counting_key(tree, reduce=None):
        keyed.append(tree)
        return canonical_key(tree, reduce)

    monkeypatch.setattr(solver, "canonical_key", counting_key)
    none_left = SearchConfig(deadline=time.monotonic())
    for run in (
        lambda: solve(doms(8, 0, 9), hard, [wide_disjunction()], none_left),
        lambda: solve_optimal(doms(8, 0, 9), hard + [wide_disjunction()], x, none_left),
    ):
        keyed.clear()
        assert run().status == "RESOURCE_OUT"
        assert len(keyed) <= grounding._POLL_EVERY


@pytest.mark.parametrize("shape", ("atoms", "global"))
def test_posting_polls_the_deadline(monkeypatch, shape):
    # with the hard constraints presolved beforehand and no time left, a
    # solve stops within one polling interval of posted trees, before root
    # propagation, also inside the expansion of one global
    n = 4 * grounding._POLL_EVERY if shape == "atoms" else 40
    if shape == "atoms":
        hard = [AndC(tuple(RelAtom("<=", Var(v), Const(5)) for v in range(n)))]
        calls = n + 1
    else:  # posted as its expansion, n*(n-1)/2 disequalities
        hard = [AllDiffC(tuple(Sum((Var(v), Const(v))) for v in range(n)))]
        calls = 2 + n * (n - 1) // 2
    pre = presolve(hard)
    posted = []
    post_tree = solver.Engine.post_tree

    def counting_post(eng, tree, choice, tick=None):
        posted.append(tree)
        return post_tree(eng, tree, choice, tick)

    monkeypatch.setattr(solver.Engine, "post_tree", counting_post)
    assert solve(doms(n, 0, 9), pre).status == "SAT"
    assert len(posted) == calls > grounding._POLL_EVERY
    none_left = SearchConfig(deadline=time.monotonic())
    for run in (
        lambda: solve(doms(n, 0, 9), pre, (), none_left),
        lambda: solve_optimal(doms(n, 0, 9), pre, x, none_left),
    ):
        posted.clear()
        out = run()
        assert out.status == "RESOURCE_OUT" and out.assignment is None
        assert out.stats.propagations == out.stats.nodes == 0
        assert len(posted) <= grounding._POLL_EVERY


def test_atom_without_normal_form_is_judged_exactly():
    # x*2^62 - x*-2^62 has coefficient 2^63, past 64 bits: its normal form is
    # exact and posted as a linear atom like any other
    left, right = Prod((Const(2**62), x)), Prod((Const(-(2**62)), x))
    eq = RelAtom("==", left, right)
    eng = solver.Engine(doms(1, 0, 1), SearchConfig())
    assert eng.post_tree(eq, False)
    [prop] = eng.queues[0]
    assert type(prop) is solver.LinProp and prop.coefs == (2**63,)
    assert eng.tree_status(eq) is None
    assert solve(doms(1, 0, 1), [eq]).assignment == {0: 0}
    assert solve(doms(1, 0, 1), [RelAtom("!=", left, right)]).assignment == {0: 1}


def test_extras_behave_like_hard_constraints():
    out = solve(doms(2), [RelAtom("<", x, y)], extras=[RelAtom("==", x, Const(4))])
    assert out.status == "UNSAT"
    out = solve(doms(2), [RelAtom("<", x, y)], extras=[RelAtom("==", x, Const(3))])
    assert out.status == "SAT" and out.assignment[0] == 3


# -- presolve ----------------------------------------------------------------


def test_presolve_substitutes_definitions():
    # difference variables d01=v4, d23=v5 defined from x0..x3, the second
    # written the other way round; asking for equal differences contradicts
    # the alldiff with no search at all
    defs = [
        RelAtom("==", Var(4), mk_diff(Var(1), Var(0))),
        RelAtom("==", mk_diff(Var(3), Var(2)), Var(5)),
    ]
    hard = defs + [AllDiffC((Var(4), Var(5)))]
    extras = [OrC((RelAtom("==", mk_diff(Var(1), Var(0)), mk_diff(Var(3), Var(2))),))]
    assert presolve(hard).extras(extras)[1] == "UNSAT"
    domains = {v: (0, 9) for v in range(4)} | {v: (-9, 9) for v in (4, 5)}
    out = solve(domains, hard, extras)
    assert out.status == "UNSAT" and out.stats.nodes == 0


def test_presolve_drops_contradicted_disjuncts():
    ne = RelAtom("!=", x, y)
    disj = OrC((RelAtom("==", x, y), RelAtom("<", x, y)))
    e2, status = presolve([ne]).extras([disj])
    assert status is None
    (kept,) = e2
    assert kept == RelAtom("<", x, y)


def test_presolve_proves_unsat_via_alldiff_pairs():
    alldiff = AllDiffC((x, y, z))
    assert presolve([alldiff]).extras([OrC((RelAtom("==", x, y),))])[1] == "UNSAT"


def test_presolve_refutes_conjunctions_whose_negation_is_asserted():
    # not(x < y or y < z) is refuted whole, though neither of its atoms is
    or_ = OrC((RelAtom("<", x, y), RelAtom("<", y, z)))
    pre = presolve([or_])
    assert pre.extras([AndC((RelAtom(">=", y, z), RelAtom(">=", x, y)))])[1] == "UNSAT"
    assert pre.extras([AndC((RelAtom(">=", x, y),))])[1] is None
    # so is an Or's negation whose disjuncts are such conjunctions
    assert pre.extras([negate(AndC((or_, RelAtom("<", x, z))))])[1] is None
    assert presolve([or_, RelAtom("<", x, z)]).extras(
        [negate(AndC((or_, RelAtom("<", x, z))))]
    )[1] == "UNSAT"


def test_presolve_keys_the_expansion_of_globals():
    # not(allMinDistance) is an Or of conjunctions, each the negation of one
    # pair's disjunction in the expansion
    amd = AllMinDistC((x, y, z), 2)
    assert presolve([amd]).extras([negate(amd)])[1] == "UNSAT"


def test_presolved_state_is_shared_by_solves():
    hard = [RelAtom("<", x, y), RelAtom("<", y, z)]
    pre = presolve(hard)
    for extra in ([RelAtom("==", x, Const(3))], [RelAtom(">=", x, z)], []):
        a, b = solve(doms(3), pre, extra), solve(doms(3), hard, extra)
        assert (a.status, a.assignment, a.stats.nodes) == (b.status, b.assignment, b.stats.nodes)
    assert solve(doms(3), pre, [RelAtom(">=", x, y)]).stats.nodes == 0


def test_presolve_keeps_satisfiable_problems():
    hard = [RelAtom("<", x, y)]
    pre = presolve(hard)
    assert pre.status is None
    assert solve(doms(2), pre.hard).status == "SAT"


def _lin(rng, vs, coefs=(-2, -1, 1, 2)):
    """Terms of a random linear expression over two or three of the variables."""
    k = rng.randint(2, min(3, len(vs)))
    return [Prod((Const(rng.choice(coefs)), v)) for v in rng.sample(vs, k)]


def _equality_system(rng):
    """(hard, extras) around linear equalities that hold at a hidden point.

    hard asserts independent, dependent (a sum of two earlier ones) and
    non-unit (even coefficients only) equalities, atoms that mostly hold at
    the point too, sometimes an allDifferent, and one to three disjunctions.
    Each extra is a disjunction of random atoms, of negated asserted atoms
    with a multiple of an equality added, which presolve can delete only
    modulo the equalities, and of conjunctions: the negation of an asserted
    disjunction disguised the same way, or random atoms, sometimes with an
    asserted atom disguised too."""
    vs = [Var(v) for v in range(rng.randint(3, 4))]
    point = {v.vid: rng.randint(0, 3) for v in vs}

    def holding(terms):
        return RelAtom("==", Sum(tuple(terms)), Const(eval_gexpr(Sum(tuple(terms)), point)))

    eqs = [holding(_lin(rng, vs)) for _ in range(rng.randint(1, 3))]
    if len(eqs) > 1 and rng.random() < 0.5:
        a, b = rng.sample(eqs, 2)
        eqs.append(RelAtom("==", Sum((a.left, b.left)), Sum((a.right, b.right))))
    if rng.random() < 0.5:
        eqs.append(holding(_lin(rng, vs, (-2, 2))))
    atoms = []
    for _ in range(rng.randint(1, 3)):
        left = Sum(tuple(_lin(rng, vs)))
        op = rng.choice(("!=", "<", "<=", "=="))
        # mostly true at the point, so that hard has solutions to test on
        shift = {"!=": rng.choice((-1, 1)), "<": 1, "<=": 0, "==": 0}[op]
        if rng.random() < 0.2:
            shift = rng.randint(-2, 2)
        atoms.append(RelAtom(op, left, Const(eval_gexpr(left, point) + shift)))
    hard = eqs + atoms
    if rng.random() < 0.3:
        hard.append(AllDiffC(tuple(rng.sample(vs, 2))))

    def disguised(atom):
        """not(atom), with k * (an equality's left - right) added to its left."""
        eq = rng.choice(eqs)
        k = Const(rng.choice((-1, 1, 2)))
        left = Sum((atom.left, Prod((k, eq.left)), Prod((Const(-1), k, eq.right))))
        return negate(RelAtom(atom.op, left, atom.right))

    def disjunction(others):
        items = [disguised(rng.choice(atoms)) for _ in range(rng.randint(1, 3))]
        items += [
            RelAtom(rng.choice(("==", "!=", "<")), Sum(tuple(_lin(rng, vs))), Const(rng.randint(0, 4)))
            for _ in range(others)
        ]
        rng.shuffle(items)
        return OrC(tuple(items))

    ors = [disjunction(rng.randint(0, 2)) for _ in range(rng.randint(1, 3))]
    hard += ors

    def conjunction():
        if rng.random() < 0.6:
            items = [disguised(d) for d in rng.choice(ors).items]
        else:
            items = [RelAtom(rng.choice(("==", "!=", "<")), Sum(tuple(_lin(rng, vs))),
                             Const(rng.randint(0, 4))) for _ in range(rng.randint(1, 2))]
            items += [disguised(negate(rng.choice(atoms)))] * rng.randint(0, 1)
        rng.shuffle(items)
        return AndC(tuple(items))

    extras = []
    for _ in range(rng.randint(1, 2)):
        extra = disjunction(rng.randint(0, 2))
        extras.append(OrC(extra.items + tuple(conjunction() for _ in range(rng.randint(0, 2)))))
    return vs, hard, extras


def _kept(tree):
    if isinstance(tree, OrC):
        return {id(t) for t in tree.items}
    return {id(tree)}


def test_echelon_presolve_is_sound(rng):
    # brute force over 0..3 decides every claim presolve makes
    modulo = 0  # deletions the atoms' own keys could not justify
    whole = 0  # conjunctions deleted although none of their atoms is
    for _ in range(200):
        vs, hard, extras = _equality_system(rng)
        domains = {v.vid: (0, 3) for v in vs}
        pre = presolve(hard)
        (e2, status), h2 = pre.extras(extras), pre.hard
        sols = brute_solutions(domains, hard)
        both = brute_solutions(domains, hard + extras)
        for conj in (d for t in extras for d in t.items if isinstance(d, AndC)):
            # an Or simplifies each disjunct on its own
            if pre.extras([conj])[1] == "UNSAT":
                assert not any(evaluate_ground(conj, a) for a in sols)
                whole += all(pre.extras([c])[1] is None for c in conj.items)
        if pre.status or status:
            assert not both
            continue
        assert brute_solutions(domains, h2) == sols
        assert brute_solutions(domains, h2 + e2) == both
        plain = {canonical_key(t) for t in hard if not isinstance(t, OrC)}
        plain |= {canonical_key(RelAtom("!=", *t.items)) for t in hard if isinstance(t, AllDiffC)}
        for before, after in zip(hard + extras, h2 + e2):
            if after is TRUE_C:  # dropped as implied
                assert all(evaluate_ground(before, a) for a in sols)
                continue
            if not isinstance(before, OrC):
                continue
            for d in before.items:
                if isinstance(d, AndC) or id(d) in _kept(after):
                    continue
                assert not any(evaluate_ground(d, a) for a in sols)
                modulo += canonical_key(negate(d)) not in plain
    assert modulo > 50 and whole > 15


def _reference_keys(hard, reduce):
    """The asserted keys of the earlier rule: own reduced keys of the
    top-level leaves and of the expansion leaves of globals."""
    keys = set()
    for tree in hard:
        for leaf in solver._and_spine(tree):
            if isinstance(leaf, (AllDiffC, AllMinDistC, InverseC, PackC)):
                keys |= {canonical_key(t, reduce) for t in solver._and_spine(expansion(leaf))}
            keys.add(canonical_key(leaf, reduce))
    return keys


def _reference_deletes(tree, keys, reduce):
    """Whether the earlier rule deletes a tree that is not asserted: it
    negated each candidate (an atom or a conjunction), keyed the negation
    and looked that up among the asserted keys."""
    if isinstance(tree, OrC):
        return all(_reference_deletes(t, keys, reduce) for t in tree.items)
    if isinstance(tree, AndC):
        if any(_reference_deletes(t, keys, reduce) for t in tree.items):
            return True
    elif canonical_key(tree, reduce) in (TRUE_KEY, FALSE_KEY):
        return canonical_key(tree, reduce) == FALSE_KEY
    return canonical_key(negate(tree), reduce) in keys


def _has_global(tree):
    if isinstance(tree, (AndC, OrC)):
        return any(_has_global(t) for t in tree.items)
    return isinstance(tree, (AllDiffC, AllMinDistC, InverseC, PackC))


def _lookup_matches_reference(hard, candidates):
    """Number of asserted atoms and candidates deleted, after asserting that
    the lookup deletes exactly those that the earlier rule did."""
    pre = presolve(hard)
    old = _reference_keys(hard, pre.reduce)
    deleted = 0
    for t in (t for tree in hard for t in solver._and_spine(tree)):
        if not isinstance(t, OrC) and not _has_global(t):
            new = solver._simplify(t, pre.keys, pre.reduce, set(), lambda: None) is FALSE_C
            own = canonical_key(t)  # an asserted atom is a tautology by this key only
            want = own == FALSE_KEY or (
                own != TRUE_KEY and canonical_key(negate(t), pre.reduce) in old
            )
            assert new == want, t
            deleted += new
    for d in candidates:
        new = solver._simplify(d, pre.keys, pre.reduce, None, lambda: None) is FALSE_C
        assert new == _reference_deletes(d, old, pre.reduce), d
        deleted += new
    return deleted


def test_lookup_deletes_what_negating_each_candidate_deleted(rng):
    # the rules agree wherever negate() is an involution on keys, so globals
    # are kept out of the candidates and out of asserted Ors here
    deleted = 0
    for _ in range(200):
        vs, hard, extras = _equality_system(rng)
        ors = [t for t in hard + extras if isinstance(t, OrC)]
        deleted += _lookup_matches_reference(hard, [d for t in ors for d in t.items])
    assert deleted > 500
    # table and count atoms too, and candidates that negate asserted trees
    deleted, vids = 0, [0, 1, 2]
    for _ in range(200):
        hard = [t for t in (rand_tree(rng, vids) for _ in range(3))
                if not (isinstance(t, OrC) and _has_global(t))]
        candidates = [negate(t) for t in hard] + [rand_tree(rng, vids) for _ in range(3)]
        deleted += _lookup_matches_reference(hard, [c for c in candidates if not _has_global(c)])
    assert deleted > 300


def test_presolve_negates_no_candidate(monkeypatch):
    # presolve negates each asserted leaf once, an allDifferent through its
    # expansion, and simplifying the extras negates nothing
    alldiff, or_ = AllDiffC((x, y, z)), OrC((RelAtom("<", x, y), RelAtom("<", y, z)))
    negated = []

    def spy(tree):
        negated.append(tree)
        return negate(tree)

    monkeypatch.setattr(solver, "negate", spy)
    pre = presolve([alldiff, or_])
    assert negated == list(solver._and_spine(expansion(alldiff))) + [or_]

    def refuse(tree):
        raise AssertionError(f"negated a candidate: {tree}")

    monkeypatch.setattr(solver, "negate", refuse)
    extras = [OrC((RelAtom("==", x, y), AndC((RelAtom(">=", y, z), RelAtom(">=", x, y))),
                   RelAtom("<", z, x)))]
    assert pre.extras(extras) == ([RelAtom("<", z, x)], None)


@pytest.mark.parametrize("m", [5, 6, 7])
def test_presolve_refutes_p_fixed_c2(m):
    # every disjunct of not(c2) equates two differences that allDifferent(d)
    # keeps apart, once d is substituted by x through the channeling
    oracle = parse_model_file(corpus_path("golomb", "oracle.cpm"))
    program = parse_model_file(corpus_path("golomb", "p_fixed.cpm"))
    oracle_gm, p_gm = ground_pair(oracle, program, overrides={"m": m})
    c2 = negate(oracle_gm.constraint("c2").tree)
    assert presolve([c.tree for c in p_gm.constraints]).extras([c2])[1] == "UNSAT"


# -- randomized cross-checks ---------------------------------------------------


def test_random_models_agree_with_brute_force(rng):
    # the last models give one variable a domain too wide for a bitmask
    for i in range(210):
        n = rng.randint(2, 3)
        domains = {v: (0, rng.randint(1, 3)) for v in range(n)}
        if i >= 150:
            domains[0] = (-600, 600)
        trees = [rand_tree(rng, list(range(n))) for _ in range(rng.randint(1, 3))]
        sols = brute_solutions(domains, trees)
        out = solve(domains, trees, config=SearchConfig(node_limit=20000))
        assert out.status in ("SAT", "UNSAT")
        if sols:
            assert out.status == "SAT"
            assert all(evaluate_ground(t, out.assignment) for t in trees)
        else:
            assert out.status == "UNSAT"


def test_declaration_order_agrees_with_brute_force():
    # the random models of acceptance criterion 8, drawn the same way
    rng = random.Random(55117)
    for _ in range(1000):
        vids = list(range(rng.randint(2, 3)))
        domains = {v: (0, rng.randint(1, 3)) for v in vids}
        trees = [rand_tree(rng, vids) for _ in range(rng.randint(1, 3))]
        rand_expr(rng, vids)  # criterion 8's objective
        sols = brute_solutions(domains, trees)
        out = solve(domains, trees, config=SearchConfig(node_limit=100000), first_fail=False)
        assert out.status == ("SAT" if sols else "UNSAT"), trees
        if sols:
            assert all(evaluate_ground(t, out.assignment) for t in trees)


@pytest.mark.parametrize("first_fail, first", [(True, 1), (False, 0)])
def test_branching_orders(first_fail, first):
    # x has the larger domain: fail-first branches on y, declaration order on x
    eng = solver.Engine({0: (0, 3), 1: (0, 1)}, SearchConfig(), first_fail)
    assert {alt[1] for alt in eng._pick()} == {first}


@pytest.mark.parametrize("negated", [False, True])
def test_allmindist_and_inverse_agree_with_brute_force(negated):
    # as a hard constraint, and negated as a choice, the way a witness
    # subproblem posts it
    for domains, t in small_globals():
        hard, extras = ([], [negate(t)]) if negated else ([t], [])
        sols = brute_solutions(domains, hard + extras)
        out = solve(domains, hard, extras)
        assert out.status == ("SAT" if sols else "UNSAT"), t
        if sols:
            assert out.assignment in sols


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
        extra = negate(ref_gm.constraint("c2").tree)
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


def test_tree_status_reads_only_bounds_and_fixedness(rng):
    # why a disjunction waits for bound changes only: removing values from
    # inside the domains leaves the judgement of every tree as it was
    for _ in range(300):
        n = rng.randint(2, 3)
        domains = {v: (rng.randint(-2, 0), rng.randint(2, 5)) for v in range(n)}
        tree = rand_tree(rng, list(range(n)), depth=2)
        eng = solver.Engine(domains, SearchConfig())
        before = eng.tree_status(tree)
        for v, d in eng.doms.items():
            for k in rng.sample(range(d.min + 1, d.max), rng.randint(0, d.max - d.min - 1)):
                eng.doms[v] = eng.doms[v].remove(k)
            assert (eng.doms[v].min, eng.doms[v].max) == (d.min, d.max)
        assert eng.tree_status(tree) == before, tree


def test_presolve_posts_each_asserted_constraint_once():
    # the Golomb reference at m=7 asserts 426 atoms with 131 own keys: c2
    # writes x[j]-x[i] != x[l]-x[k] for both orders of the two pairs, and
    # x[j]-x[i] != x[l]-x[k] has the key of x[k]-x[i] != x[l]-x[j]
    oracle = parse_model_file(corpus_path("golomb", "oracle.cpm"))
    gm = ground(oracle, build_instance(oracle, None, {"m": 7}))
    hard = [c.tree for c in gm.constraints]
    leaves = [t for tree in hard for t in solver._and_spine(tree)]
    pre = presolve(hard)
    kept = [t for tree in pre.hard for t in solver._and_spine(tree)]
    assert (pre.status, len(leaves), len(kept)) == (None, 426, 131)
    assert {canonical_key(t) for t in kept} == {canonical_key(t) for t in leaves}
    # a one-disjunct Or is not asserted, so presolve posts every copy of it:
    # the same fixpoint at every node, with more propagator runs
    once = solve_optimal(dict(gm.domains), hard, gm.objective)
    copies = solve_optimal(dict(gm.domains), [OrC((t,)) for t in leaves], gm.objective)
    assert [(o.value, o.stats.nodes, o.stats.failures) for o in (once, copies)] == [(25, 8886, 6698)] * 2
    assert once.stats.propagations < copies.stats.propagations


def test_search_effort_pinned():
    # Node and failure counts of the propagation loop at the time it was
    # reworked; a change that moves them must say why.
    oracle = parse_model_file(corpus_path("golomb", "oracle.cpm"))
    gm = ground(oracle, build_instance(oracle, None, {"m": 7}))
    out = solve_optimal(dict(gm.domains), [c.tree for c in gm.constraints], gm.objective)
    assert (out.status, out.value, out.stats.nodes, out.stats.failures) == ("SAT", 25, 8886, 6698)
    # golomb-p-fixed-best-m5 was (5, 221, 164) until presolve compared atoms
    # modulo the asserted equalities: its c2 subproblem (100 nodes, 76
    # failures) is now refuted before search
    # Each row's solves rose by one per subproblem of a constraint that the
    # solving side asserts too (one, one, one and three of them) when the
    # rule that skipped those went: presolve refutes them with no search,
    # so nodes and failures stay.
    pinned = {
        "golomb-p-fixed-best-m5": (6, 121, 88),
        # the rows under `one` were (2, 1715, 852), (2, 15, 0) and
        # (3, 1153, 577) until the reference was probed, not searched: its
        # nonemptiness check now stops after root propagation
        "carseq-cput1-one": (3, 562, 277),
        # Conf under one and all needs one program solution.  These were
        # (5, 112, 84) and (8, 118, 84), and the m10 row was Unknown at 60 s,
        # until that solve branched in declaration order: smallest domain
        # first picked x[m], which cc4 narrows, and so tried ruler lengths
        # upwards from m(m-1)/2, proving the optimum before any ruler came.
        "golomb-p-fixed-one-m6": (5, 5, 1),
        "golomb-p-fixed-all-m6": (8, 11, 1),
        "golomb-p-fixed-one-m10": (5, 9, 1),
        # detection: a fault found, and an unsatisfiable program proven
        "golomb-p-one-m8": (3, 7, 0),
        "carseq-cput4-one": (6, 0, 2),
        # every other row but golomb-cput4-one-m8, which takes seconds
        "golomb-cput1-one-m8": (3, 36, 0),
        "golomb-cput2-one-m8": (3, 8, 0),
        "golomb-cput3-one-m8": (3, 8, 0),
        "golomb-cput1-bounds-m8": (2, 36, 0),
        "carseq-cput2-one": (3, 632, 312),
        "carseq-cput3-one": (3, 693, 341),
        "carseq-cput1-all": (3, 562, 277),
        "carseq-cput4-all": (6, 0, 2),
    }
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
        if run["name"] == "carseq-cput1-one":
            # no search outside the subproblems
            assert v.stats["nodes"] == sum(s.nodes for s in v.subreports)
    assert not pinned
