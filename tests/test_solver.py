import itertools
import random
import time

import pytest

from cpconftest import grounding, solver
from cpconftest.conformity import CheckOptions, check, ground_pair
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
    TRUE_C,
    TableC,
    Var,
    build_instance,
    eval_gexpr,
    evaluate_ground,
    ground,
    mk_diff,
)
from cpconftest.ops import rel_holds
from cpconftest.parser import parse_data_file, parse_model, parse_model_file
from cpconftest.solver import SearchConfig, presolve, solve, solve_optimal
from cpconftest.transform import FALSE_KEY, TRUE_KEY, canonical_key, negate, rel_form

from conftest import (
    REL_OPS,
    alldiff,
    brute_min,
    brute_solutions,
    pack,
    rand_expr,
    rand_tree,
    small_globals,
)

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
    out = solve({v: (0, 1) for v in range(3)}, [alldiff((x, y, z))])
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
    t = pack((0, 1), (2, 3, 4), (2, 3, 4), (1, 2))
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
    trees = [alldiff(tuple(Var(v) for v in range(5)))]
    out = solve({v: (0, 3) for v in range(5)}, trees, config=SearchConfig(node_limit=1))
    assert out.status in ("UNSAT", "RESOURCE_OUT")
    big = {v: (0, 9) for v in range(8)}
    t = [alldiff(tuple(Var(v) for v in range(8)))]
    out = solve_optimal(big, t, Sum(tuple(Var(v) for v in range(8))),
                        config=SearchConfig(node_limit=5))
    assert out.status == "RESOURCE_OUT" and not out.proven


def test_deterministic():
    trees = [alldiff((x, y, z)), RelAtom("<", x, z)]
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


def test_presolve_polls_inside_a_ground_alldifferent(monkeypatch):
    # one allDifferent over 40 variables is one conjunction of 780 pairs,
    # which presolve reads once for equalities and then keys.  With time
    # left at each look at the deadline of the first pass (one per
    # _POLL_EVERY pairs) and none at any later one, presolve stops within
    # one polling interval of keyed pairs
    pairs = alldiff(tuple(Var(v) for v in range(40)))
    assert len(pairs.items) > 2 * grounding._POLL_EVERY
    looks = iter([0.0] * -(-len(pairs.items) // grounding._POLL_EVERY))

    class Clock:
        @staticmethod
        def monotonic():
            return next(looks, 2.0)

    keyed = []

    def counting_key(tree, reduce=None):
        keyed.append(tree)
        return canonical_key(tree, reduce)

    monkeypatch.setattr(grounding, "time", Clock)
    monkeypatch.setattr(solver, "canonical_key", counting_key)
    assert presolve([pairs], deadline=1.0).status == "RESOURCE_OUT"
    assert 0 < len(keyed) <= grounding._POLL_EVERY


@pytest.mark.parametrize("shape", ("atoms", "global"))
def test_posting_polls_the_deadline(monkeypatch, shape):
    # with the hard constraints presolved beforehand and no time left, a
    # solve stops within one polling interval of posted trees, before root
    # propagation, also inside one ground allDifferent
    n = 4 * grounding._POLL_EVERY if shape == "atoms" else 40
    if shape == "atoms":
        hard = [AndC(tuple(RelAtom("<=", Var(v), Const(5)) for v in range(n)))]
    else:  # over expressions, so posted as its n*(n-1)/2 disequalities
        hard = [alldiff(tuple(Sum((Var(v), Const(v))) for v in range(n)))]
    calls = 1 + len(hard[0].items)
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
    # exact, and posting it prunes x in exact arithmetic like any atom over
    # one variable; so does 2^63*x <= 2^63 - 1, which a rounded quotient
    # ((2^63 - 1) / 2^63 == 1.0 in floating point) would leave at 0..1
    left, right = Prod((Const(2**62), x)), Prod((Const(-(2**62)), x))
    eq = RelAtom("==", left, right)
    below = RelAtom("<=", Prod((Const(2**63), x)), Const(2**63 - 1))
    for atom in (eq, below):
        eng = solver.Engine(doms(1, 0, 1), SearchConfig())
        assert eng.tree_status(atom) is None
        assert eng.post_tree(atom, False)
        assert not eng.queues[0] and list(eng.doms[0].values()) == [0]
        assert eng.tree_status(atom) is True
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
    hard = defs + [alldiff((Var(4), Var(5)))]
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
    assert presolve([alldiff((x, y, z))]).extras([OrC((RelAtom("==", x, y),))])[1] == "UNSAT"


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
    # not(allDifferent) is an Or of equalities, each the negation of one
    # pair's disequality; not(pack) an Or of one "!=" per bin, each the
    # negation of that bin's equation
    for glob in (alldiff((Sum((x, Const(1))), y, Prod((Const(2), z)))),
                 pack((0, 1), (2, 3), (2, 3), (1, 2))):
        pre = presolve([glob])
        assert pre.extras([negate(glob)])[1] == "UNSAT"
        # one disjunct left standing keeps the Or
        (kept,) = pre.extras([OrC(negate(glob).items + (RelAtom("<", x, y),))])[0]
        assert kept == RelAtom("<", x, y)


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
        hard.append(alldiff(rng.sample(vs, 2)))

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
    top-level leaves."""
    return {canonical_key(leaf, reduce) for tree in hard for leaf in solver._and_spine(tree)}


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


def _lookup_matches_reference(hard, candidates):
    """Number of asserted atoms and candidates deleted, after asserting that
    the lookup deletes exactly those that the earlier rule did."""
    pre = presolve(hard)
    old = _reference_keys(hard, pre.reduce)
    deleted = 0
    for t in (t for tree in hard for t in solver._and_spine(tree)):
        if not isinstance(t, OrC):
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
    # the rules agree wherever negate() is an involution on keys, as it is
    # on every ground tree, globals included
    deleted = 0
    for _ in range(200):
        vs, hard, extras = _equality_system(rng)
        ors = [t for t in hard + extras if isinstance(t, OrC)]
        deleted += _lookup_matches_reference(hard, [d for t in ors for d in t.items])
    assert deleted > 500
    # table and count atoms too, and candidates that negate asserted trees
    deleted, vids = 0, [0, 1, 2]
    for _ in range(200):
        hard = [rand_tree(rng, vids) for _ in range(3)]
        candidates = [negate(t) for t in hard] + [rand_tree(rng, vids) for _ in range(3)]
        deleted += _lookup_matches_reference(hard, candidates)
    assert deleted > 300


def test_presolve_negates_no_candidate(monkeypatch):
    # presolve negates each asserted leaf once, an allDifferent pair by
    # pair, and simplifying the extras negates nothing
    pairs, or_ = alldiff((x, y, z)), OrC((RelAtom("<", x, y), RelAtom("<", y, z)))
    negated = []

    def spy(tree):
        negated.append(tree)
        return negate(tree)

    monkeypatch.setattr(solver, "negate", spy)
    pre = presolve([pairs, or_])
    assert negated == list(pairs.items) + [or_]

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


# -- recognised decompositions ---------------------------------------------------


def _posting(domains, tree, ok=True):
    """(engine, propagators registered) after posting one tree, which
    succeeds or fails as `ok` says."""
    eng = solver.Engine(domains, SearchConfig())
    registered = []
    register = eng.register
    eng.register = lambda prop: (registered.append(prop), register(prop))
    assert eng.post_tree(tree, False) == ok
    return eng, registered


def _fixpoint(eng):
    """Whether propagation succeeds, and then the domains it leaves."""
    ok = eng.propagate()
    return ok, ok and {v: list(d.values()) for v, d in eng.doms.items()}


def test_recognised_clique_reaches_the_fixpoint_of_its_pairs():
    # exhaustively over 3 and 4 variables with domains that are nonempty
    # subsets of 0..3: posting a ground allDifferent registers one
    # AllDiffProp, and it fails exactly where the pairs posted as NeProps
    # fail, and prunes exactly what they prune
    outcomes = set()
    for n in (3, 4):
        vs = tuple(Var(v) for v in range(n))
        pairs = alldiff(vs)
        for ms in itertools.product(range(1, 16), repeat=n):
            eng, registered = _posting(doms(n, 0, 3), pairs)
            assert [type(p) for p in registered] == [solver.AllDiffProp]
            ref = solver.Engine(doms(n, 0, 3), SearchConfig())
            for e in (eng, ref):
                e.doms.update((v, solver.BitDom(0, m)) for v, m in enumerate(ms))
            for atom in pairs.items:
                _, poly = rel_form(atom)
                ref.register(solver.NeProp(solver._linear_terms(poly)[0], 0))
            got = _fixpoint(eng)
            assert got == _fixpoint(ref), ms
            outcomes.add(got[0])
    assert outcomes == {True, False}


def test_clique_recognition_takes_only_complete_graphs_of_distinct_variables():
    w = Var(3)
    posted_whole = [
        alldiff((x, y, z)),
        AndC(tuple(reversed(alldiff((x, y, z, w)).items))),  # pairs permuted
        AndC((RelAtom("!=", y, x), RelAtom("!=", z, x), RelAtom("!=", y, z))),  # mirrored
    ]
    for tree, vids in zip(posted_whole, ((0, 1, 2), (2, 3, 1, 0), (1, 0, 2))):
        _, registered = _posting(doms(4), tree)
        assert [(type(p), p.vids) for p in registered] == [(solver.AllDiffProp, vids)]
    pairs = alldiff((x, y, z)).items
    posted_by_pairs = [
        AndC(pairs[:2]),  # a missing pair
        AndC(pairs + (RelAtom("!=", z, y),)),  # a duplicated pair
        AndC(pairs[:2] + (RelAtom("!=", x, x),)),  # x != x, where y != z should be
        alldiff((x, y, Sum((z, Const(1))))),  # an expression item
        alldiff((x, y)),  # two variables
    ]
    for tree in posted_by_pairs:
        # x != x fails when posted, after the atoms before it
        ok = RelAtom("!=", x, x) not in tree.items
        _, registered = _posting(doms(4), tree, ok)
        assert [type(p) for p in registered] == [solver.NeProp] * (len(tree.items) - (not ok)), tree


def test_pack_adds_its_load_sum_only_when_every_item_lies_in_its_bins():
    # loads v0, v1 for bins 1, 2; items v2, v3 of sizes 2, 3
    def load_sums(item_domain, tree):
        domains = {0: (0, 9), 1: (0, 9), 2: item_domain, 3: item_domain}
        _, registered = _posting(domains, tree)
        assert {type(p) for p in registered} >= {solver.PackBinProp}
        return [(p.terms, p.const) for p in registered if isinstance(p, solver.LinProp)]

    closed = pack((0, 1), (2, 3), (2, 3), (1, 2))
    assert load_sums((1, 2), closed) == [(((0, 1), (1, 1)), -5)]
    assert load_sums((1, 3), closed) == []  # an item may fall outside
    # every item lies in the bins, but the loads do not sum to the total:
    # two loads of bin 1, one load of both bins, or bins over other items
    bins = closed.items
    repeated_key = AndC((bins[0], PackBinC(1, 1, (2, 3), (2, 3), "==")))
    repeated_load = AndC((bins[0], PackBinC(2, 0, (2, 3), (2, 3), "==")))
    other_items = AndC((bins[0], PackBinC(2, 1, (3, 2), (3, 2), "==")))
    for item_domain, tree in (((1, 1), repeated_key), ((1, 2), repeated_load), ((1, 2), other_items)):
        assert load_sums(item_domain, tree) == [], tree


def test_corpus_globals_post_their_strong_form():
    # p_fixed's cc5 at m = 6 is one AllDiffProp over its 15 differences,
    # and carseq cput4's c4 adds the sum of its loads: without either, the
    # check would still be right, with weaker or slower propagation
    oracle = parse_model_file(corpus_path("golomb", "oracle.cpm"))
    program = parse_model_file(corpus_path("golomb", "p_fixed.cpm"))
    _, p_gm = ground_pair(oracle, program, overrides={"m": 6})
    cc5 = presolve([p_gm.constraint("cc5").tree]).hard[0]
    _, registered = _posting(dict(p_gm.domains), cc5)
    assert [(type(p), len(p.vids)) for p in registered] == [(solver.AllDiffProp, 15)]
    ref_gm, cput_gm = ground_pair(
        parse_model_file(corpus_path("carseq", "oracle.cpm")),
        parse_model_file(corpus_path("carseq", "cput4.cpm")),
        parse_data_file(corpus_path("carseq", "slots10.data")),
    )
    c4 = presolve([cput_gm.constraint("c4").tree]).hard[0]
    _, registered = _posting(dict(cput_gm.domains), c4)
    loads = {cput_gm.space.index[k] for k in cput_gm.space.keys if k[0] == "load"}
    (total,) = [p for p in registered if isinstance(p, solver.LinProp)]
    assert {v for v, _ in total.terms} == loads and total.const == -10


def test_presolve_keeps_an_asserted_alldifferent_whole():
    # x[1] != x[2] is asserted before allDifferent(x) repeats it: presolve
    # keeps the repeated pair inside the allDifferent, which then posts as
    # one AllDiffProp, not as its pairs
    model = parse_model(
        """
        dvar int x[1..4] in 1..4;
        subject to { a: x[1] != x[2]; b: allDifferent(all (i in 1..4) x[i]); }
        """
    )
    gm = ground(model, build_instance(model))
    hard = presolve([c.tree for c in gm.constraints]).hard
    registered = [p for tree in hard for p in _posting(dict(gm.domains), tree)[1]]
    assert [type(p) for p in registered] == [solver.NeProp, solver.AllDiffProp]
    assert registered[1].vids == (0, 1, 2, 3)


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


def _effort_runs(rng):
    """Problems drawn from the families the other solver tests use: seeded
    random systems, the Golomb reference's optimum and conformity
    subproblems, each as a call that solves it."""
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
    return runs


def test_event_wakeups_match_waking_on_every_change(rng, monkeypatch):
    runs = _effort_runs(rng)
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


def test_each_deduction_once_keeps_the_effort(rng, monkeypatch):
    # Entailed propagators retire until backtrack, and an atom over one
    # variable prunes it when posted.  The reference engine does neither:
    # only disjunctions are ever done, and every linear atom is a LinProp or
    # a NeProp.
    runs = _effort_runs(rng)
    once = [run() for run in runs]
    set_done = solver.Engine.set_done
    monkeypatch.setattr(
        solver.Engine, "set_done",
        lambda eng, prop: set_done(eng, prop) if isinstance(prop, solver.OrProp) else None,
    )
    monkeypatch.setattr(solver, "_narrow", lambda *args: None)
    again = [run() for run in runs]
    assert [_effort(a) for a in once] == [_effort(b) for b in again]
    assert all(a.stats.propagations <= b.stats.propagations for a, b in zip(once, again))
    assert sum(a.stats.propagations for a in once) < sum(b.stats.propagations for b in again)


def _one_var_domains():
    """Bitmask domains over 6 values at two offsets, holes included, and
    IntDoms (which make_dom builds only for wide spans) with holes at and
    inside their bounds."""
    out = [solver.BitDom(offset, mask) for offset in (-3, 1) for mask in range(1, 64)]
    out += [solver.IntDom.make(-6, 6, holes) for holes in (set(), {-6, 0, 1}, {-2, 3, 6})]
    return out


def test_one_variable_posts_prune_like_their_linprop():
    # exhaustively over small domains: the values a post keeps are exactly
    # those satisfying the atom, and exactly those its propagator (a NeProp
    # for !=, else a LinProp) keeps at its fixpoint; an emptied domain posts
    # the propagator, which fails when run
    for c in (1, -1, 2, -2, 2**63, -(2**63)):
        consts = range(-9, 10) if abs(c) < 3 else [k * c + r for k in range(-4, 5) for r in (-1, 0, 1)]
        for d, const, op in itertools.product(_one_var_domains(), consts, ("<=", "==", "!=")):
            want = [v for v in d.values() if rel_holds(op, c * v + const, 0)]
            nd = solver._narrow(d, c, const, op)
            assert (list(nd.values()) if nd is not None else []) == want, (d, c, const, op)
            eng = solver.Engine({0: (0, 0)}, SearchConfig())
            eng.doms[0] = d
            eng.register(solver.NeProp(((0, c),), const) if op == "!=" else solver.LinProp(((0, c),), const, op))
            assert (list(eng.doms[0].values()) if eng.propagate() else []) == want
            eng = solver.Engine({0: (0, 0)}, SearchConfig())
            eng.doms[0] = d
            atom = RelAtom(op, Sum((Prod((Const(c), x)), Const(const))), Const(0))
            assert eng.post_tree(atom, False)
            assert bool(eng.queues[0]) == (not want) == (nd is None)
            assert eng.propagate() == bool(want) and eng.stats.failures == (not want)
            assert not want or list(eng.doms[0].values()) == want


def test_ne_prop_is_forward_checking():
    # exhaustively over 1-3 variables with fixed values and holes, every
    # coefficient in +-1..+-3 (some do not divide the rest of the sum) and
    # constants -6..6: while two variables are open nothing goes; with one
    # open, the values kept are those at which the sum, tried value by
    # value, is not 0; with none open, it fails exactly when the sum is 0
    ds_all = [solver.BitDom(-2, m) for m in (0b00100, 0b01000, 0b10101, 0b01110, 0b11011)]
    ds_all.append(solver.IntDom.make(-2, 2, {0}))
    coefs = (1, -1, 2, -2, 3, -3)
    for n, ds_n in ((1, ds_all), (2, ds_all), (3, ds_all[1:4])):
        eng = solver.Engine(doms(n), SearchConfig())
        for ds, cs, const in itertools.product(
            itertools.product(ds_n, repeat=n), itertools.product(coefs, repeat=n), range(-6, 7)
        ):
            eng.doms.update(enumerate(ds))
            marks = eng.marks()
            eng.register(solver.NeProp(tuple(enumerate(cs)), const))
            ok = eng.propagate()
            open_ = [v for v, d in enumerate(ds) if not d.fixed]
            want = list(ds)
            if len(open_) == 1:
                (i,) = open_
                rest = const + sum(c * d.value for v, (c, d) in enumerate(zip(cs, ds)) if v != i)
                kept = [x for x in ds[i].values() if cs[i] * x + rest != 0]
                assert ok == bool(kept), (ds, cs, const)
                if ok:
                    assert list(eng.doms[i].values()) == kept, (ds, cs, const)
                    want[i] = eng.doms[i]
            elif not open_:
                assert ok == (const + sum(c * d.value for c, d in zip(cs, ds)) != 0)
            else:
                assert ok
            assert not ok or [eng.doms[v] for v in range(n)] == want
            eng.restore(marks)


def test_one_variable_disjuncts_are_judged_and_forced_like_their_atom():
    # exhaustively over small domains, coefficients +-1..+-3, constants -6..6
    # and the normal forms of all six relations: a disjunction keeps a linear
    # disjunct over one variable as (vid, c, const, op), whose status is the
    # interval rule's on the atom's form, and as the last live disjunct it
    # leaves the domain that posting the atom leaves; where no value is left
    # the fallback posts a propagator that fails, as posting does
    empties = 0
    for c, const, rel in itertools.product((1, -1, 2, -2, 3, -3), range(-6, 7), REL_OPS):
        atom = RelAtom(rel, Sum((Prod((Const(c), x)), Const(const))), Const(0))
        op, poly = rel_form(atom)
        assert solver.OrProp((atom,), False).forms == [(0, poly[(0,)], poly.get((), 0), op)]
        for d in _one_var_domains():
            eng = solver.Engine({0: (0, 0)}, SearchConfig())
            eng.doms[0] = d
            prop = solver.OrProp((atom,), False)
            live = prop.open_disjuncts(eng, 1)
            status = True if live is None else (None if live else False)
            assert status == solver._status(op, *solver.poly_interval(poly, eng.doms)), (d, atom)
            empties += status is None and solver._narrow(d, poly[(0,)], poly.get((), 0), op) is None
            eng.register(prop)
            forced = eng.propagate(), list(eng.doms[0].values()), eng.stats.failures
            eng = solver.Engine({0: (0, 0)}, SearchConfig())
            eng.doms[0] = d
            assert eng.post_tree(atom, False)
            assert (eng.propagate(), list(eng.doms[0].values()), eng.stats.failures) == forced, (d, atom)
    assert empties > 0


@pytest.mark.parametrize("n", (1, 2, 3, 4))
def test_constant_count_bounds_agree_with_the_general_rule(n):
    # count(items, 1) op r over plain variables with holes, for all six ops:
    # one run with the constant r gives the return value, done flag and
    # domains that the same atom gives with a variable fixed to r on the
    # right; an unfixed right-hand side retires only once every count the
    # items allow meets every value it has, and never by constant bounds
    ds_all = [solver.BitDom(0, m) for m in (0b001, 0b010, 0b101, 0b011, 0b110, 0b111)]
    ds_n = ds_all if n < 4 else ds_all[2:5]
    rhs_doms = [(r, r) for r in range(-1, n + 2)] + [(r, r + 1) for r in range(-1, n + 1)]
    items = tuple(Var(v) for v in range(n))
    runs = retired = 0
    for ds, op, (rlo, rhi) in itertools.product(itertools.product(ds_n, repeat=n), REL_OPS, rhs_doms):
        got, props = [], []
        for rhs in (Const(rlo), Var(n)) if rlo == rhi else (Var(n),):
            eng = solver.Engine(doms(n + 1), SearchConfig())
            eng.doms.update(enumerate(ds))
            eng.doms[n] = solver.make_dom(rlo, rhi)
            prop = solver.CountProp(CountC(items, Const(1), op, rhs))
            ok = prop.propagate(eng)
            got.append((ok, prop.done, [list(d.values()) for d in eng.doms.values()]))
            props.append(prop)
        assert props[-1].bounds is None  # a variable right-hand side
        if rlo == rhi:
            assert (props[0].bounds is None) == (op == "!=")
            assert got[0] == got[1], (ds, op, rlo)
            runs += 1
            continue
        if prop.done:
            fixed = sum(d.min == d.max == 1 for d in ds)
            open_ = sum(d.min < d.max and d.contains(1) for d in ds)
            assert all(rel_holds(op, k, r) for k in range(fixed, fixed + open_ + 1) for r in (rlo, rhi))
            retired += 1
    assert runs and retired


def test_restore_returns_to_each_mark(rng, monkeypatch):
    # random searches whose disjunctions post atoms, conjunctions and choice
    # disjunctions by their unit rule and when branched on: at every mark
    # the domains, the length of every watcher list, the done flag of every
    # registered propagator and the choices are taken, and restoring that
    # mark gives each of them back
    def snapshot(eng):
        return (
            dict(eng.doms),
            {v: tuple(map(len, ws)) for v, ws in eng.watchers.items()},
            [(p, p.done) for ws in eng.watchers.values() for props in ws for p in props],
            list(eng.choices),
        )

    snaps, undone = {}, {"watchers": 0, "retired": 0, "choices": 0}
    marks, restore = solver.Engine.marks, solver.Engine.restore

    def marks_and_snapshot(eng):
        m = marks(eng)
        snaps[m] = snapshot(eng)
        return m

    def restore_and_compare(eng, m):
        undone["watchers"] += len(eng.wtrail) > m[1]
        undone["retired"] += len(eng.rtrail) > m[2]
        undone["choices"] += len(eng.choices) > m[3]
        restore(eng, m)
        assert snapshot(eng) == snaps[m]

    monkeypatch.setattr(solver.Engine, "marks", marks_and_snapshot)
    monkeypatch.setattr(solver.Engine, "restore", restore_and_compare)
    for _ in range(150):
        n = rng.randint(3, 4)
        vs = [Var(v) for v in range(n)]

        def atom():
            return RelAtom(rng.choice(REL_OPS), Sum(tuple(_lin(rng, vs))), Const(rng.randint(-3, 3)))

        hard = [OrC(tuple(atom() for _ in range(rng.randint(2, 3)))) for _ in range(rng.randint(1, 3))]
        hard.append(rand_tree(rng, list(range(n))))
        choice = OrC(tuple(AndC((atom(), OrC((atom(), atom())))) for _ in range(rng.randint(2, 3))))
        eng = solver.Engine({v: (0, 3) for v in range(n)}, SearchConfig(node_limit=2000))
        if all(eng.post_tree(t, False) for t in hard) and eng.post_tree(choice, True):
            eng.search(lambda a: False)  # every solution: the whole tree
    assert min(undone.values()) > 100, undone


def test_root_propagation_polls_the_deadline(monkeypatch):
    # a chain of order atoms takes thousands of propagator runs at the root;
    # with a clock that advances one second per reading and a deadline 1.5 s
    # away, root propagation reads it before runs 0, 256 and 512 and stops
    # at the third reading, and the search is out of resources
    chain = [RelAtom("<", Var(v), Var(v + 1)) for v in range(200)]
    readings = itertools.count()
    monkeypatch.setattr(grounding, "time", type("Clock", (), {"monotonic": lambda: next(readings)}))
    eng = solver.Engine(doms(201, 0, 200), SearchConfig(deadline=1.5))
    assert all(eng.post_tree(t, False) for t in chain)
    assert eng.search(lambda a: True) == "RESOURCE_OUT"
    assert eng.stats.propagations == 2 * grounding._POLL_EVERY and eng.stats.nodes == 0
    assert next(readings) == 3
    eng = solver.Engine(doms(201, 0, 200), SearchConfig())
    assert all(eng.post_tree(t, False) for t in chain)
    assert eng.search(lambda a: True) == "SAT" and eng.stats.propagations > 4 * grounding._POLL_EVERY


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
