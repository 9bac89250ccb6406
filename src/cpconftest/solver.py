"""Finite-domain solver for ground constraint systems.

The engine does chronological DFS over immutable integer domains with a
propagation queue.  Hard constraints become propagators; a second group of
"choice" trees (negated constraints during witness search) contributes the
only disjunctions that drive branching: the first unresolved choice
disjunction is branched disjunct by disjunct, in declaration order, before
any variable enumeration.  A choice disjunction with many open disjuncts
is left to its unit rule instead, since committing to one of hundreds of
disjuncts near the root buries solutions that plain variable enumeration
reaches quickly.  Everything else is decided by variable branching
(smallest domain first, values ascending) plus exact checks once
all variables are fixed, so quiescence with fixed variables is a solution.

Propagation wakes a propagator only on the kind of domain change it reads
(after Schulte & Stuckey, "Efficient constraint propagation engines",
TOPLAS 2008): FIX when a variable becomes fixed, BOUND when its min or max
moves, DOMAIN when any value goes.  Each propagator's output depends only
on the facts of its class, and all are monotone, so one left asleep is
already at its fixpoint: every node reaches the same fixpoint as waking on
every change would, with fewer propagator runs.  Disjunctions run last:
they wait in a second queue until every other woken propagator is idle,
since their unit rule re-evaluates each disjunct.  Domains compute their
bounds once, when built, since they are read far more often than changed.

Two presolve passes run before search.  Linear equalities asserted at the
top level are subtracted out of other linear atoms whenever that strictly
shrinks them, which turns auxiliary-variable definitions back into relations
over the variables they define; only definitions sharing over half their
monomials with the atom are tried, since no other can shrink it.  Then
disjuncts whose negation is asserted at the top level (directly or via an
allDifferent pair) are deleted; an Or that loses all disjuncts, or an
asserted atom contradicted the same way, proves unsatisfiability with zero
search.

solve() finds one solution or proves there is none; solve_optimal() runs
branch and bound on a minimization objective and reports whether optimality
was proven within the budget.  Both respect wall-clock and node budgets,
the wall-clock one counted from entry (presolve and posting included), and
are fully deterministic.
"""

import time
from collections import deque
from dataclasses import dataclass, field

from .errors import EvaluationError
from .grounding import (
    AllDiffC,
    AllMinDistC,
    AndC,
    Const,
    CountC,
    FALSE_C,
    InverseC,
    OrC,
    PackBinC,
    PackC,
    Prod,
    RelAtom,
    Sum,
    TableC,
    TRUE_C,
    Var,
    ctr_vars,
    eval_gexpr,
    evaluate_ground,
    expansion,
    mk_prod,
    mk_sum,
)
from .transform import FALSE_KEY, TRUE_KEY, canonical_key, negate, poly_of

_BITDOM_SPAN = 1024
_OR_BRANCH_LIMIT = 64  # choice disjunctions wider than this don't drive branching


class BitDom:
    """Small domain as a bitmask over offset..offset+span-1.  The bounds are
    computed once, on construction, since propagators read them far more
    often than domains change."""

    __slots__ = ("offset", "mask", "min", "max")

    def __init__(self, offset, mask):
        self.offset = offset
        self.mask = mask
        self.min = offset + (mask & -mask).bit_length() - 1
        self.max = offset + mask.bit_length() - 1

    @property
    def size(self):
        return self.mask.bit_count()

    @property
    def fixed(self):
        return self.min == self.max

    @property
    def value(self):
        return self.min

    def contains(self, v):
        k = v - self.offset
        return 0 <= k and (self.mask >> k) & 1 == 1

    def remove(self, v):
        if not self.contains(v):
            return self
        m = self.mask & ~(1 << (v - self.offset))
        return BitDom(self.offset, m) if m else None

    def with_min(self, lo):
        if lo <= self.min:
            return self
        if lo > self.max:
            return None
        k = lo - self.offset
        return BitDom(self.offset, self.mask >> k << k)

    def with_max(self, hi):
        if hi >= self.max:
            return self
        if hi < self.min:
            return None
        return BitDom(self.offset, self.mask & ((1 << (hi - self.offset + 1)) - 1))

    def restrict(self, values):
        m = 0
        for v in values:
            if self.contains(v):
                m |= 1 << (v - self.offset)
        if m == self.mask:
            return self
        return BitDom(self.offset, m) if m else None

    def values(self):
        m = self.mask
        base = self.offset
        while m:
            low = m & -m
            yield base + low.bit_length() - 1
            m ^= low


class IntDom:
    """Wide domain as bounds plus a set of interior holes."""

    __slots__ = ("min", "max", "holes")

    def __init__(self, lo, hi, holes=frozenset()):
        self.min = lo
        self.max = hi
        self.holes = holes

    @staticmethod
    def make(lo, hi, holes):
        while lo in holes:
            lo += 1
        while hi in holes:
            hi -= 1
        if lo > hi:
            return None
        holes = frozenset(h for h in holes if lo < h < hi)
        return IntDom(lo, hi, holes)

    @property
    def size(self):
        return self.max - self.min + 1 - len(self.holes)

    @property
    def fixed(self):
        return self.min == self.max

    @property
    def value(self):
        return self.min

    def contains(self, v):
        return self.min <= v <= self.max and v not in self.holes

    def remove(self, v):
        if not self.contains(v):
            return self
        return IntDom.make(self.min, self.max, self.holes | {v})

    def with_min(self, lo):
        if lo <= self.min:
            return self
        if lo > self.max:
            return None
        return IntDom.make(lo, self.max, self.holes)

    def with_max(self, hi):
        if hi >= self.max:
            return self
        if hi < self.min:
            return None
        return IntDom.make(self.min, hi, self.holes)

    def restrict(self, values):
        # over-approximates on wide spans (bounds only); exact checks at
        # fixpoint keep this sound
        vals = sorted(v for v in values if self.contains(v))
        if not vals:
            return None
        if len(vals) == self.size:
            return self
        lo, hi = vals[0], vals[-1]
        if hi - lo + 1 <= _BITDOM_SPAN:
            return make_dom(lo, hi).restrict(vals)
        return IntDom.make(lo, hi, self.holes)

    def values(self):
        for v in range(self.min, self.max + 1):
            if v not in self.holes:
                yield v


def make_dom(lo, hi):
    span = hi - lo + 1
    if span <= _BITDOM_SPAN:
        return BitDom(lo, (1 << span) - 1)
    return IntDom(lo, hi)


def fixed_dom(v):
    return BitDom(v, 1)


# ---------------------------------------------------------------------------
# Interval arithmetic over polynomials


def _mono_interval(mono, doms):
    lo = hi = 1
    for vid in mono:
        d = doms[vid]
        a, b = d.min, d.max
        cands = (lo * a, lo * b, hi * a, hi * b)
        lo, hi = min(cands), max(cands)
    return lo, hi


def poly_interval(poly, doms):
    lo = hi = 0
    for mono, c in poly.items():
        if mono == ():
            lo += c
            hi += c
            continue
        a, b = _mono_interval(mono, doms)
        if c >= 0:
            lo += c * a
            hi += c * b
        else:
            lo += c * b
            hi += c * a
    return lo, hi


def _poly_is_linear(poly):
    return all(len(m) <= 1 for m in poly)


def poly_to_gexpr(poly):
    items = []
    for mono in sorted(poly.keys(), key=lambda m: (len(m), m)):
        c = poly[mono]
        if mono == ():
            items.append(Const(c))
        else:
            items.append(mk_prod((Const(c),) + tuple(Var(v) for v in mono)))
    return mk_sum(items)


# ---------------------------------------------------------------------------
# Propagators


# Event classes: the kind of domain change a propagator must be woken by.
# A change that fixes a variable is also a bound change, and a bound change
# also a domain change, so prune() wakes the lists from its event onwards.
FIX, BOUND, DOMAIN = 0, 1, 2


class Prop:
    """A propagator over the variables in `watch`.  Its output depends only
    on the facts of its event class, so it need not run again until a
    change of that class happens to one of them."""

    __slots__ = ("watch", "event", "done", "queued")
    late = False  # runs only once every propagator that is not late is idle

    def __init__(self, watch, event):
        self.watch = tuple(watch)
        self.event = event
        self.done = False
        self.queued = False

    def propagate(self, eng):
        raise NotImplementedError


def _lin_le(eng, vids, coefs, const):
    """Propagate sum(c_i x_i) + const <= 0; False on failure."""
    doms = eng.doms
    fmin = const
    for vid, c in zip(vids, coefs):
        d = doms[vid]
        fmin += c * d.min if c > 0 else c * d.max
    if fmin > 0:
        return False
    slack = -fmin
    for vid, c in zip(vids, coefs):
        d = doms[vid]
        # a term whose whole span fits in the slack prunes nothing
        if c > 0:
            if c * (d.max - d.min) > slack and not eng.prune(vid, d.with_max(d.min + slack // c)):
                return False
        elif c * (d.min - d.max) > slack and not eng.prune(vid, d.with_min(d.max - slack // -c)):
            return False
    return True


class LinProp(Prop):
    """Linear atom sum(c_i x_i) + const op 0 with op in {<=, ==, !=}."""

    __slots__ = ("vids", "coefs", "const", "op", "neg")

    def __init__(self, vids, coefs, const, op):
        super().__init__(vids, FIX if op == "!=" else BOUND)
        self.vids = vids
        self.coefs = coefs
        self.const = const
        self.op = op
        self.neg = tuple(-c for c in coefs)  # the >= half of ==

    def propagate(self, eng):
        if self.op == "!=":
            doms = eng.doms
            acc = self.const
            open_i = -1
            for i, vid in enumerate(self.vids):
                d = doms[vid]
                if d.fixed:
                    acc += self.coefs[i] * d.value
                elif open_i >= 0:
                    return True
                else:
                    open_i = i
            if open_i < 0:
                return acc != 0
            c = self.coefs[open_i]
            if acc % c == 0:
                vid = self.vids[open_i]
                return eng.prune(vid, doms[vid].remove(-acc // c))
            return True
        if not _lin_le(eng, self.vids, self.coefs, self.const):
            return False
        if self.op == "==":
            return _lin_le(eng, self.vids, self.neg, -self.const)
        return True


class ExprProp(Prop):
    """Nonlinear relational atom checked by interval evaluation."""

    __slots__ = ("poly", "op")

    def __init__(self, poly, op, watch):
        super().__init__(watch, BOUND)
        self.poly = poly
        self.op = op

    def propagate(self, eng):
        lo, hi = poly_interval(self.poly, eng.doms)
        if self.op == "<=":
            return lo <= 0
        if self.op == "==":
            return lo <= 0 <= hi
        return not (lo == 0 and hi == 0)  # !=


class ExactProp(Prop):
    """Fallback that evaluates a tree once all its variables are fixed."""

    __slots__ = ("tree",)

    def __init__(self, tree):
        super().__init__(ctr_vars(tree), FIX)
        self.tree = tree

    def propagate(self, eng):
        doms = eng.doms
        if all(doms[v].fixed for v in self.watch):
            a = {v: doms[v].value for v in self.watch}
            return evaluate_ground(self.tree, a)
        return True


class AllDiffProp(Prop):
    __slots__ = ("vids",)

    def __init__(self, vids):
        super().__init__(vids, FIX)
        self.vids = vids

    def propagate(self, eng):
        doms = eng.doms
        seen = {}
        for vid in self.vids:
            d = doms[vid]
            if d.fixed:
                v = d.value
                if v in seen and seen[v] != vid:
                    return False
                seen[v] = vid
        if not seen:
            return True
        for vid in self.vids:
            d = doms[vid]
            if d.fixed:
                continue
            for v in seen:
                d2 = doms[vid].remove(v)
                if not eng.prune(vid, d2):
                    return False
        return True


class CountProp(Prop):
    __slots__ = ("tree", "item_polys", "value_const", "rhs_poly", "bare")

    def __init__(self, tree):
        super().__init__(ctr_vars(tree), DOMAIN)
        self.tree = tree
        self.item_polys = [poly_of(it) for it in tree.items]
        self.value_const = tree.value.value if isinstance(tree.value, Const) else None
        self.rhs_poly = poly_of(tree.rhs)
        self.bare = [it.vid if isinstance(it, Var) else None for it in tree.items]

    def propagate(self, eng):
        doms = eng.doms
        if self.value_const is None:
            if all(doms[v].fixed for v in self.watch):
                a = {v: doms[v].value for v in self.watch}
                return evaluate_ground(self.tree, a)
            return True
        v = self.value_const
        cnt_min = cnt_max = 0
        for i, p in enumerate(self.item_polys):
            b = self.bare[i]
            if b is not None:
                d = doms[b]
                if d.contains(v):
                    cnt_max += 1
                    if d.fixed:
                        cnt_min += 1
            else:
                lo, hi = poly_interval(p, doms)
                if lo <= v <= hi:
                    cnt_max += 1
                    if lo == hi:
                        cnt_min += 1
        rlo, rhi = poly_interval(self.rhs_poly, doms)
        op = self.tree.op
        if op == "!=":
            if cnt_min == cnt_max and rlo == rhi:
                return cnt_min != rlo
            return True
        lb, ub = None, None
        if op == "==":
            lb, ub = rlo, rhi
        elif op == "<=":
            ub = rhi
        elif op == "<":
            ub = rhi - 1
        elif op == ">=":
            lb = rlo
        else:  # >
            lb = rlo + 1
        if ub is not None and cnt_min > ub:
            return False
        if lb is not None and cnt_max < lb:
            return False
        if lb is not None and cnt_max == lb:
            # every candidate is needed
            for i, b in enumerate(self.bare):
                if b is None:
                    continue
                d = doms[b]
                if not d.fixed and d.contains(v):
                    if not eng.prune(b, fixed_dom(v)):
                        return False
        if ub is not None and cnt_min == ub:
            # no further item may take the value
            for i, b in enumerate(self.bare):
                if b is None:
                    continue
                d = doms[b]
                if not d.fixed and d.contains(v):
                    if not eng.prune(b, d.remove(v)):
                        return False
        if isinstance(self.tree.rhs, Var) and op == "==":
            rv = self.tree.rhs.vid
            d = doms[rv].with_min(cnt_min)
            d = d.with_max(cnt_max) if d is not None else None
            if not eng.prune(rv, d):
                return False
        return True


class TableProp(Prop):
    __slots__ = ("kind", "items", "rows", "item_polys", "bare")

    def __init__(self, tree):
        super().__init__(ctr_vars(tree), DOMAIN)
        self.kind = tree.kind
        self.items = tree.items
        self.rows = tree.rows
        self.item_polys = [poly_of(it) for it in tree.items]
        self.bare = [it.vid if isinstance(it, Var) else None for it in tree.items]

    def _cell_may(self, eng, pos, val):
        b = self.bare[pos]
        if b is not None:
            return eng.doms[b].contains(val)
        lo, hi = poly_interval(self.item_polys[pos], eng.doms)
        return lo <= val <= hi

    def propagate(self, eng):
        doms = eng.doms
        n = len(self.items)
        if self.kind == "allowed":
            feasible = [
                row
                for row in self.rows
                if all(self._cell_may(eng, p, row[p]) for p in range(n))
            ]
            if not feasible:
                return False
            for p in range(n):
                b = self.bare[p]
                if b is None or doms[b].fixed:
                    continue
                support = {row[p] for row in feasible}
                if not eng.prune(b, doms[b].restrict(support)):
                    return False
            return True
        # forbidden
        for row in self.rows:
            open_pos = -1
            match = True
            for p in range(n):
                b = self.bare[p]
                d = doms[b] if b is not None else None
                if b is not None and d.fixed:
                    if d.value != row[p]:
                        match = False
                        break
                elif b is None:
                    lo, hi = poly_interval(self.item_polys[p], doms)
                    if lo == hi:
                        if lo != row[p]:
                            match = False
                            break
                    else:
                        match = False  # can't reason, leave to later wakeups
                        break
                else:
                    if open_pos >= 0 or not d.contains(row[p]):
                        match = False
                        break
                    open_pos = p
            if not match:
                continue
            if open_pos < 0:
                return False  # fully matched a forbidden row
            b = self.bare[open_pos]
            if not eng.prune(b, doms[b].remove(row[open_pos])):
                return False
        return True


class PackBinProp(Prop):
    __slots__ = ("bin_key", "load_vid", "assigns", "sizes", "op")

    def __init__(self, tree):
        super().__init__((tree.load_vid,) + tree.assigns, DOMAIN)
        self.bin_key = tree.bin_key
        self.load_vid = tree.load_vid
        self.assigns = tree.assigns
        self.sizes = tree.sizes
        self.op = tree.op

    def propagate(self, eng):
        doms = eng.doms
        s_min = s_max = 0
        b = self.bin_key
        for vid, sz in zip(self.assigns, self.sizes):
            d = doms[vid]
            if d.fixed:
                if d.value == b:
                    s_min += sz
                    s_max += sz
            elif d.contains(b):
                s_min += min(0, sz)
                s_max += max(0, sz)
        ld = doms[self.load_vid]
        if self.op == "==":
            nd = ld.with_min(s_min)
            nd = nd.with_max(s_max) if nd is not None else None
            return eng.prune(self.load_vid, nd)
        # != : decide only when everything is pinned down
        if s_min == s_max and ld.fixed:
            return ld.value != s_min
        return True


class OrProp(Prop):
    """A disjunction over constraint trees, with the unit rule.

    When flagged as a choice it also serves as a branch point: the search
    tries its unresolved disjuncts in order before enumerating variables.
    """

    __slots__ = ("items", "choice")
    late = True

    def __init__(self, items, choice):
        watch = set()
        for it in items:
            ctr_vars(it, watch)
        super().__init__(watch, DOMAIN)
        self.items = items
        self.choice = choice

    def propagate(self, eng):
        if self.done:
            return True
        unknown = None
        count = 0
        for it in self.items:
            s = eng.tree_status(it)
            if s is True:
                eng.set_done(self)
                return True
            if s is None:
                count += 1
                if count > 1:
                    return True
                unknown = it
        if count == 0:
            return False
        # exactly one live disjunct: it must hold
        eng.set_done(self)
        return eng.post_tree(unknown, self.choice)


class BoundProp(Prop):
    """objective <= incumbent - 1, consulted under a mutable bound."""

    __slots__ = ("vids", "coefs", "const", "poly", "linear")

    def __init__(self, poly):
        super().__init__({v for m in poly for v in m}, BOUND)
        self.poly = poly
        self.linear = _poly_is_linear(poly)
        if self.linear:
            self.vids = tuple(m[0] for m in poly if m != ())
            self.coefs = tuple(poly[(v,)] for v in self.vids)
            self.const = poly.get((), 0)

    def propagate(self, eng):
        if eng.bound is None:
            return True
        limit = eng.bound - 1
        if self.linear:
            return _lin_le(eng, self.vids, self.coefs, self.const - limit)
        lo, _ = poly_interval(self.poly, eng.doms)
        return lo <= limit


# ---------------------------------------------------------------------------
# Presolve


def _and_spine(tree):
    if isinstance(tree, AndC):
        for it in tree.items:
            yield from _and_spine(it)
    else:
        yield tree


def _linear_eq_defs(trees):
    """Polynomials asserted equal to zero at the top level, with sources."""
    defs = []
    for tree in trees:
        for leaf in _and_spine(tree):
            if isinstance(leaf, RelAtom) and leaf.op == "==":
                try:
                    p = _poly_sub_pair(leaf.left, leaf.right)
                except EvaluationError:
                    continue
                if p and _poly_is_linear(p):
                    defs.append((p, id(leaf)))
    return defs


def _poly_sub_pair(left, right):
    p = dict(poly_of(left))
    for m, c in poly_of(right).items():
        nc = p.get(m, 0) - c
        if nc == 0:
            p.pop(m, None)
        else:
            p[m] = nc
    return p


def _try_reduce(p, defs, index):
    """Subtract asserted-zero polynomials while the term count shrinks;
    `index` maps each monomial to the positions in defs that contain it."""
    changed = True
    while changed:
        changed = False
        shared = {}
        for m in p:
            for i in index.get(m, ()):
                shared[i] = shared.get(i, 0) + 1
        for i in sorted(i for i, k in shared.items() if 2 * k > len(defs[i][0])):
            d = defs[i][0]
            for sign in (1, -1):
                q = dict(p)
                for m, c in d.items():
                    nc = q.get(m, 0) - sign * c
                    if nc == 0:
                        q.pop(m, None)
                    else:
                        q[m] = nc
                if len(q) < len(p):
                    p = q
                    changed = True
                    break
            if changed:
                break
    return p


def _rewrite_tree(tree, defs, index, protected):
    if isinstance(tree, AndC):
        return AndC(tuple(_rewrite_tree(it, defs, index, protected) for it in tree.items))
    if isinstance(tree, OrC):
        return OrC(tuple(_rewrite_tree(it, defs, index, protected) for it in tree.items))
    if isinstance(tree, RelAtom) and id(tree) not in protected:
        try:
            p = _poly_sub_pair(tree.left, tree.right)
        except EvaluationError:
            return tree
        if not _poly_is_linear(p):
            return tree
        q = _try_reduce(p, defs, index)
        if q is p or q == p:
            return tree
        return RelAtom(tree.op, poly_to_gexpr(q), Const(0))
    return tree


def _asserted_keys(trees):
    """Canonical keys of everything asserted at the top level."""
    keys = set()
    for tree in trees:
        for leaf in _and_spine(tree):
            if isinstance(leaf, (AndC, OrC)):
                continue
            try:
                keys.add(canonical_key(leaf))
            except EvaluationError:
                continue
            if isinstance(leaf, AllDiffC):
                for pair in _and_spine(expansion(leaf)):
                    try:
                        keys.add(canonical_key(pair))
                    except EvaluationError:
                        pass
    return keys


def _refutes(tree, keys):
    r = negate(tree)
    if not r.ok:
        return False
    try:
        return canonical_key(r.tree) in keys
    except EvaluationError:
        return False


def _simplify(tree, keys):
    if isinstance(tree, AndC):
        parts = []
        for it in tree.items:
            s = _simplify(it, keys)
            if s is FALSE_C:
                return FALSE_C
            if s is TRUE_C:
                continue
            parts.append(s)
        if not parts:
            return TRUE_C
        if len(parts) == 1:
            return parts[0]
        return AndC(tuple(parts))
    if isinstance(tree, OrC):
        parts = []
        for it in tree.items:
            s = _simplify(it, keys)
            if s is TRUE_C:
                return TRUE_C
            if s is FALSE_C:
                continue
            parts.append(s)
        if not parts:
            return FALSE_C
        if len(parts) == 1:
            return parts[0]
        return OrC(tuple(parts))
    try:
        k = canonical_key(tree)
    except EvaluationError:
        return tree
    if k == TRUE_KEY:
        return TRUE_C
    if k == FALSE_KEY:
        return FALSE_C
    if _refutes(tree, keys):
        return FALSE_C
    return tree


def presolve(hard, extras):
    """Rewrite and filter constraint trees before search.

    Returns (hard2, extras2, proven_unsat).  Sound over the hard-constrained
    space: equalities asserted in `hard` justify both the substitutions and
    the disjunct deletions.
    """
    hard = list(hard)
    extras = list(extras)
    defs = _linear_eq_defs(hard)
    protected = {src for _, src in defs}
    if defs:
        index = {}
        for i, (d, _) in enumerate(defs):
            for m in d:
                index.setdefault(m, []).append(i)
        hard = [_rewrite_tree(t, defs, index, protected) for t in hard]
        extras = [_rewrite_tree(t, defs, index, protected) for t in extras]
    keys = _asserted_keys(hard)
    hard = [_simplify(t, keys) for t in hard]
    extras = [_simplify(t, keys) for t in extras]
    unsat = any(t is FALSE_C for t in hard) or any(t is FALSE_C for t in extras)
    return hard, extras, unsat


# ---------------------------------------------------------------------------
# Engine


@dataclass
class SearchConfig:
    time_limit: float = None  # seconds
    node_limit: int = None


@dataclass
class Stats:
    nodes: int = 0
    failures: int = 0
    propagations: int = 0
    elapsed: float = 0.0

    def as_dict(self):
        return {
            "nodes": self.nodes,
            "failures": self.failures,
            "propagations": self.propagations,
            "elapsed": round(self.elapsed, 6),
        }


@dataclass
class SolveOutcome:
    status: str  # SAT | UNSAT | RESOURCE_OUT
    assignment: dict = None
    stats: Stats = field(default_factory=Stats)


@dataclass
class OptOutcome:
    status: str  # SAT (proven) | UNSAT | RESOURCE_OUT
    assignment: dict = None
    value: int = None
    proven: bool = False
    stats: Stats = field(default_factory=Stats)


class Engine:
    def __init__(self, domains, config, start):
        self.doms = {vid: make_dom(lo, hi) for vid, (lo, hi) in domains.items()}
        self.order = sorted(self.doms)
        # per variable, one propagator list per event class (FIX, BOUND, DOMAIN)
        self.watchers = {vid: ([], [], []) for vid in self.doms}
        self.choices = []  # choice OrProps, in posting order
        self.dtrail = []
        self.strail = []  # watcher lists to pop, and props to mark not done
        # woken propagators; late ones (disjunctions) wait in the second queue
        # until the first is empty, since their unit rule re-evaluates every
        # disjunct and runs far fewer times once the rest is at its fixpoint
        self.queues = (deque(), deque())
        self.config = config
        self.start = start  # time.monotonic() the time limit counts from
        self.stats = Stats()
        self.bound = None
        self.bound_prop = None
        self.root_failed = False
        self._status_cache = {}

    # -- bookkeeping ---------------------------------------------------------

    def enqueue(self, p):
        if not p.queued:
            p.queued = True
            self.queues[p.late].append(p)

    def clear_queue(self):
        for queue in self.queues:
            for p in queue:
                p.queued = False
            queue.clear()

    def prune(self, vid, nd):
        """Narrow vid's domain to nd and wake the propagators whose event
        class the change belongs to; False when nd is empty."""
        old = self.doms[vid]
        if nd is old:
            return True
        if nd is None:
            return False
        self.dtrail.append((vid, old))
        self.doms[vid] = nd
        if nd.min == nd.max:
            event = FIX
        elif nd.min != old.min or nd.max != old.max:
            event = BOUND
        else:
            event = DOMAIN
        queues = self.queues
        for props in self.watchers[vid][event:]:
            for p in props:
                if not p.queued:
                    p.queued = True
                    queues[p.late].append(p)
        return True

    def set_done(self, prop):
        if not prop.done:
            prop.done = True
            self.strail.append(prop)

    def register(self, prop):
        for vid in prop.watch:
            props = self.watchers[vid][prop.event]
            props.append(prop)
            self.strail.append(props)
        self.enqueue(prop)

    def marks(self):
        return (len(self.dtrail), len(self.strail), len(self.choices))

    def restore(self, marks):
        dmark, smark, cmark = marks
        while len(self.dtrail) > dmark:
            vid, old = self.dtrail.pop()
            self.doms[vid] = old
        while len(self.strail) > smark:
            x = self.strail.pop()
            if isinstance(x, Prop):
                x.done = False
            else:
                x.pop()
        del self.choices[cmark:]
        self.clear_queue()

    # -- posting -------------------------------------------------------------

    def post_tree(self, tree, choice):
        """Install propagators for a ground tree; False when trivially unsat."""
        if isinstance(tree, AndC):
            for it in tree.items:
                if not self.post_tree(it, choice):
                    return False
            return True
        if isinstance(tree, OrC):
            if not tree.items:
                return False
            prop = OrProp(tree.items, choice)
            self.register(prop)
            if choice:
                self.choices.append(prop)
            return True
        if isinstance(tree, RelAtom):
            try:
                poly = _poly_sub_pair(tree.left, tree.right)
            except EvaluationError:
                poly = None
            if poly is None:
                # overflow while normalizing; fall back to exact-only checks
                self.register(ExactProp(tree))
                return True
            op = tree.op
            if op == "<":
                op = "<="
                poly[()] = poly.get((), 0) + 1
            elif op == ">":
                poly = {m: -c for m, c in poly.items()}
                op = "<="
                poly[()] = poly.get((), 0) + 1
            elif op == ">=":
                poly = {m: -c for m, c in poly.items()}
                op = "<="
            poly = {m: c for m, c in poly.items() if c != 0 or m == ()}
            if not any(m != () for m in poly):
                c = poly.get((), 0)
                ok = c <= 0 if op == "<=" else (c == 0 if op == "==" else c != 0)
                return ok
            if _poly_is_linear(poly):
                vids = tuple(m[0] for m in poly if m != ())
                coefs = tuple(poly[(v,)] for v in vids)
                self.register(LinProp(vids, coefs, poly.get((), 0), op))
            else:
                watch = {v for m in poly for v in m}
                self.register(ExprProp(poly, op, watch))
            return True
        if isinstance(tree, AllDiffC):
            if len(tree.items) < 2:
                return True
            if all(isinstance(it, Var) for it in tree.items):
                self.register(AllDiffProp(tuple(it.vid for it in tree.items)))
                return True
            return self.post_tree(expansion(tree), choice)
        if isinstance(tree, (AllMinDistC, InverseC)):
            return self.post_tree(expansion(tree), choice)
        if isinstance(tree, TableC):
            self.register(TableProp(tree))
            return True
        if isinstance(tree, CountC):
            self.register(CountProp(tree))
            return True
        if isinstance(tree, PackC):
            if not self.post_tree(expansion(tree), choice):
                return False
            bins = set(tree.bins)
            closed = all(
                all(v in bins for v in self.doms[a].values()) for a in tree.assigns
            )
            if closed:
                # every item lands in a tracked bin, so loads sum to the total
                total = sum(tree.sizes)
                self.register(
                    LinProp(tree.loads, (1,) * len(tree.loads), -total, "==")
                )
            return True
        if isinstance(tree, PackBinC):
            self.register(PackBinProp(tree))
            return True
        raise TypeError(f"cannot post {type(tree).__name__}")

    # -- status of a tree under current domains -------------------------------

    def _atom_poly(self, atom):
        key = id(atom)
        hit = self._status_cache.get(key)
        if hit is None:
            try:
                poly = _poly_sub_pair(atom.left, atom.right)
            except EvaluationError:
                poly = {}
            hit = (poly, ctr_vars(atom))
            self._status_cache[key] = hit
        return hit

    def _vars_cache(self, tree):
        key = id(tree)
        hit = self._status_cache.get(key)
        if hit is None:
            hit = (None, ctr_vars(tree))
            self._status_cache[key] = hit
        return hit[1]

    def tree_status(self, tree):
        """True = entailed, False = violated, None = unknown."""
        if isinstance(tree, RelAtom):
            poly, _ = self._atom_poly(tree)
            lo, hi = poly_interval(poly, self.doms)
            op = tree.op
            if op == "==":
                if lo == hi == 0:
                    return True
                return None if lo <= 0 <= hi else False
            if op == "!=":
                if lo == hi == 0:
                    return False
                return True if (lo > 0 or hi < 0) else None
            if op == "<":
                return True if hi < 0 else (False if lo >= 0 else None)
            if op == "<=":
                return True if hi <= 0 else (False if lo > 0 else None)
            if op == ">":
                return True if lo > 0 else (False if hi <= 0 else None)
            return True if lo >= 0 else (False if hi < 0 else None)  # >=
        if isinstance(tree, AndC):
            out = True
            for it in tree.items:
                s = self.tree_status(it)
                if s is False:
                    return False
                if s is None:
                    out = None
            return out
        if isinstance(tree, OrC):
            out = False
            for it in tree.items:
                s = self.tree_status(it)
                if s is True:
                    return True
                if s is None:
                    out = None
            return out
        # global atoms: exact once their variables are fixed
        vs = self._vars_cache(tree)
        if all(self.doms[v].fixed for v in vs):
            a = {v: self.doms[v].value for v in vs}
            return evaluate_ground(tree, a)
        return None

    # -- propagation and search ----------------------------------------------

    def propagate(self):
        if self.bound_prop is not None and self.bound is not None:
            self.enqueue(self.bound_prop)
        first, last = self.queues
        while first or last:
            p = first.popleft() if first else last.popleft()
            p.queued = False
            if p.done:
                continue
            self.stats.propagations += 1
            if not p.propagate(self):
                self.clear_queue()
                self.stats.failures += 1
                return False
        return True

    def _pick(self):
        for p in self.choices:
            if not p.done:
                entailed = False
                unknown = []
                for it in p.items:
                    s = self.tree_status(it)
                    if s is True:
                        entailed = True
                        break
                    if s is None:
                        unknown.append(it)
                if entailed:
                    continue
                if unknown and len(unknown) <= _OR_BRANCH_LIMIT:
                    return [("or", p, d) for d in unknown]
        best = best_size = None
        for vid in self.order:
            d = self.doms[vid]
            if d.fixed:
                continue
            if best_size is None or d.size < best_size:
                best, best_size = vid, d.size
        if best is None:
            return None
        return [("assign", best, v) for v in self.doms[best].values()]

    def _apply(self, alt):
        self.stats.nodes += 1
        if alt[0] == "assign":
            vid, v = alt[1], alt[2]
            if not self.doms[vid].contains(v):
                return False
            return self.prune(vid, fixed_dom(v))
        _, prop, disjunct = alt
        self.set_done(prop)
        return self.post_tree(disjunct, prop.choice)

    def _over_budget(self):
        c = self.config
        if c.node_limit is not None and self.stats.nodes >= c.node_limit:
            return True
        if c.time_limit is not None and time.monotonic() - self.start > c.time_limit:
            return True
        return False

    def search(self, on_solution):
        """DFS; on_solution(assignment) returns True to stop the search.

        Returns "SAT" when stopped by on_solution, "UNSAT" when exhausted,
        "RESOURCE_OUT" when a budget tripped.
        """
        if self.root_failed or not self.propagate():
            return "UNSAT"
        frames = []
        failed = False
        while True:
            if self._over_budget():
                return "RESOURCE_OUT"
            if failed:
                while frames:
                    marks, alts, idx = frames[-1]
                    self.restore(marks)
                    idx += 1
                    if idx < len(alts):
                        frames[-1] = (marks, alts, idx)
                        break
                    frames.pop()
                else:
                    return "UNSAT"
                failed = not (self._apply(alts[idx]) and self.propagate())
                continue
            alts = self._pick()
            if alts is None:
                a = {vid: d.value for vid, d in self.doms.items()}
                if on_solution(a):
                    return "SAT"
                failed = True
                continue
            frames.append((self.marks(), alts, 0))
            failed = not (self._apply(alts[0]) and self.propagate())


def _setup(domains, hard, extras, config, start):
    eng = Engine(domains, config, start)
    for t in hard:
        if not eng.post_tree(t, False):
            eng.root_failed = True
    for t in extras:
        if not eng.post_tree(t, True):
            eng.root_failed = True
    return eng


def solve(domains, hard, extras=(), config=None):
    """Find one assignment satisfying hard plus every extra tree."""
    config = config or SearchConfig()
    t0 = time.monotonic()
    hard2, extras2, unsat = presolve(hard, extras)
    if unsat:
        out = SolveOutcome("UNSAT")
        out.stats.elapsed = time.monotonic() - t0
        return out
    eng = _setup(domains, hard2, extras2, config, t0)
    hit = {}

    def grab(a):
        hit.update(a)
        return True

    status = eng.search(grab)
    eng.stats.elapsed = time.monotonic() - t0
    if status == "SAT":
        return SolveOutcome("SAT", hit, eng.stats)
    return SolveOutcome(status, None, eng.stats)


def solve_optimal(domains, hard, objective, config=None):
    """Branch and bound minimization of a ground objective expression."""
    config = config or SearchConfig()
    t0 = time.monotonic()
    hard2, _, unsat = presolve(hard, ())
    if unsat:
        out = OptOutcome("UNSAT")
        out.stats.elapsed = time.monotonic() - t0
        return out
    eng = _setup(domains, hard2, (), config, t0)
    obj_poly = poly_of(objective)
    eng.bound_prop = BoundProp(obj_poly)
    eng.register(eng.bound_prop)
    best = {}

    def record(a):
        v = eval_gexpr(objective, a)
        if eng.bound is None or v < eng.bound:
            eng.bound = v
            best["assignment"] = dict(a)
            best["value"] = v
        return False  # keep searching for better

    status = eng.search(record)
    eng.stats.elapsed = time.monotonic() - t0
    if "value" not in best:
        if status == "UNSAT":
            return OptOutcome("UNSAT", stats=eng.stats)
        return OptOutcome("RESOURCE_OUT", stats=eng.stats)
    if status == "UNSAT":
        # search space exhausted below the incumbent: optimality proven
        return OptOutcome("SAT", best["assignment"], best["value"], True, eng.stats)
    return OptOutcome("RESOURCE_OUT", best["assignment"], best["value"], False, eng.stats)
