"""Shared helpers: independent brute-force oracles and random generators.

Expected values used across the suite are computed by the plain-Python
code here, never by the solver under test, so a solver bug cannot
silently agree with itself.
"""

import itertools
import random

import pytest

# Filled by test_acceptance.py, one line per criterion, echoed after the run.
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)

from cpconftest.grounding import (
    AllDiffC,
    AllMinDistC,
    AndC,
    Const,
    CountC,
    InverseC,
    OrC,
    PackC,
    Prod,
    RelAtom,
    Sum,
    TableC,
    Var,
    evaluate_ground,
)

# Optimal ruler lengths, frozen from brute_ruler_optimum below.
RULER_OPT = {2: 1, 3: 3, 4: 6, 5: 11, 6: 17}


def ruler_ok(xs):
    """Strictly increasing marks with pairwise distinct differences."""
    if any(b <= a for a, b in zip(xs, xs[1:])):
        return False
    diffs = [b - a for a, b in itertools.combinations(xs, 2)]
    return len(diffs) == len(set(diffs))


def brute_ruler_optimum(m):
    """Smallest last mark of any valid m-mark ruler, by iterative deepening."""
    for length in itertools.count(m - 1):
        for mid in itertools.combinations(range(1, length), m - 2):
            if ruler_ok((0,) + mid + (length,)):
                return length


def brute_solutions(domains, trees):
    """Every assignment over explicit (lo, hi) domains satisfying all trees."""
    vids = sorted(domains)
    spans = [range(domains[v][0], domains[v][1] + 1) for v in vids]
    out = []
    for combo in itertools.product(*spans):
        a = dict(zip(vids, combo))
        if all(evaluate_ground(t, a) for t in trees):
            out.append(a)
    return out


def brute_min(domains, trees, objective):
    """Minimal objective value over the brute-force solution set, or None."""
    from cpconftest.grounding import eval_gexpr

    best = None
    for a in brute_solutions(domains, trees):
        v = eval_gexpr(objective, a)
        if best is None or v < best:
            best = v
    return best


# ---------------------------------------------------------------------------
# Random ground constraints (for negation soundness and solver cross-checks)


def rand_expr(rng, vids, depth=2):
    roll = rng.random()
    if depth == 0 or roll < 0.35:
        if rng.random() < 0.5:
            return Var(rng.choice(vids))
        return Const(rng.randint(-3, 3))
    if roll < 0.7:
        n = rng.randint(2, 3)
        return Sum(tuple(rand_expr(rng, vids, depth - 1) for _ in range(n)))
    return Prod(tuple(rand_expr(rng, vids, depth - 1) for _ in range(2)))


REL_OPS = ("==", "!=", "<", "<=", ">", ">=")


def rand_atom(rng, vids):
    roll = rng.random()
    if roll < 0.55:
        return RelAtom(rng.choice(REL_OPS), rand_expr(rng, vids), rand_expr(rng, vids))
    if roll < 0.7 and len(vids) >= 2:
        items = tuple(Var(v) for v in rng.sample(vids, rng.randint(2, min(3, len(vids)))))
        return AllDiffC(items)
    if roll < 0.85:
        items = tuple(rand_expr(rng, vids, 1) for _ in range(rng.randint(2, 4)))
        return CountC(items, rand_expr(rng, vids, 0), rng.choice(REL_OPS), rand_expr(rng, vids, 0))
    arity = rng.randint(1, min(3, len(vids)))
    items = tuple(Var(v) for v in rng.sample(vids, arity))
    rows = tuple(
        tuple(rng.randint(0, 4) for _ in range(arity)) for _ in range(rng.randint(1, 5))
    )
    return TableC(rng.choice(("allowed", "forbidden")), items, rows)


def rand_tree(rng, vids, depth=1):
    if depth == 0 or rng.random() < 0.6:
        return rand_atom(rng, vids)
    node = AndC if rng.random() < 0.5 else OrC
    return node(tuple(rand_tree(rng, vids, depth - 1) for _ in range(rng.randint(2, 3))))


def small_globals():
    """(domains, tree) pairs of allDifferent, allMinDistance, inverse, pack
    and table atoms small enough to enumerate: allDifferent over a repeated
    variable, gaps <= 0, fewer than two items, inverse arrays of unequal
    lengths whose values may fall outside the other's indices, pack with a
    zero and a negative size whose items may land outside every bin or not,
    and tables over expressions.  Every variable of a pair has one domain."""
    x, y, z = Var(0), Var(1), Var(2)
    cases = [({v: (0, 4) for v in range(3)}, AllDiffC(items)) for items in ((x, x), (x, y, x))]
    cases += [
        ({v: (0, 4) for v in range(3)}, AllMinDistC(items, gap))
        for items in ((), (x,), (x, y), (x, y, z), (x, Sum((y, Const(1))), z))
        for gap in (-1, 0, 1, 2, 3)
    ]
    for f_idx, g_idx in (((), ()), ((1,), (1,)), ((1,), (1, 2)), ((1, 2), (1, 2)), ((1, 2), (2,))):
        f_vids, g_vids = (0, 1)[: len(f_idx)], (2, 3)[: len(g_idx)]
        cases.append(({v: (0, 3) for v in range(4)}, InverseC(f_vids, g_vids, f_idx, g_idx)))
    # loads first, then assignments; bins -1, 0, 1 hold every value an item
    # may take, bins 0, 1 do not
    for loads, assigns, bins in (((0, 1, 2), (3, 4), (-1, 0, 1)), ((0, 1), (2, 3), (0, 1))):
        for sizes in ((0, -1), (2, -1), (-1, -1)):
            domains = {v: (-1, 1) for v in loads + assigns}
            cases.append((domains, PackC(loads, assigns, sizes, bins)))
    rows = ((0, 0), (1, 2), (2, 1), (3, 4), (4, 0))
    for items in ((Sum((x, Const(1))), y), (Prod((x, y)), z), (x, Sum((y, z)))):
        for kind in ("allowed", "forbidden"):
            cases.append(({v: (0, 2) for v in range(3)}, TableC(kind, items, rows)))
    return cases


def all_assignments(vids, lo, hi):
    for combo in itertools.product(range(lo, hi + 1), repeat=len(vids)):
        yield dict(zip(vids, combo))


@pytest.fixture
def rng():
    return random.Random(20260822)
