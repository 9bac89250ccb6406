"""Finite-domain solver for ground constraint systems.

The engine does chronological DFS over immutable integer domains with a
propagation queue.  Hard constraints become propagators; a second group of
"choice" trees (negated constraints during witness search) contributes the
only disjunctions that drive branching: the first unresolved choice
disjunction is branched disjunct by disjunct, in declaration order, before
any variable enumeration.  A choice disjunction with many open disjuncts
is left to its unit rule instead, since committing to one of hundreds of
disjuncts near the root buries solutions that plain variable enumeration
reaches quickly.  Everything else is decided by variable branching, values
ascending, plus exact checks once all variables are fixed, so quiescence
with fixed variables is a solution.  Searches that refute or prove optimal
pick the smallest domain first (fail-first: Haralick & Elliott, AIJ 1980);
one that wants any solution takes the first unfixed variable in
declaration order, since fail-first picks what a bound leaves small (a
ruler's length) and proves the optimum before it returns a solution.
A relational atom is posted in its normal form from transform.rel_form; a
linear one over one variable narrows its domain when posted, and is posted
as a propagator (which fails where failures are counted) only if that
empties it: a LinProp for `<=` and `==` (both halves from one reading of
the bounds), a NeProp for `!=` (once at most one variable is open, it
removes that variable's one forbidden value).  Engine.tree_status is the
one judgement of a tree under the current domains: interval evaluation of
a normal form (_status), exact evaluation of any other atom once its
variables are fixed.  Disjunctions use it for their unit rule and for
branching, through one scan of their disjuncts, reading a relational
disjunct's kept (op, poly) directly, a linear one over one variable from
that variable's bounds alone; an atom the engine can judge but not
prune (a nonlinear relation, a count of a non-constant value) is posted
as a CheckProp that fails once tree_status finds it violated.
Normal forms and presolve's row arithmetic are exact integers, as the
models' own evaluation is.

Propagation wakes a propagator only on the kind of domain change it reads
(after Schulte & Stuckey, "Efficient constraint propagation engines",
TOPLAS 2008): FIX when a variable becomes fixed, BOUND when its min or max
moves, DOMAIN when any value goes.  Each propagator's output depends only
on the facts of its class, and all are monotone, so one left asleep is
already at its fixpoint: every node reaches the same fixpoint as waking on
every change would, with fewer propagator runs.  An entailed propagator
retires (the same paper's subsumption): it marks itself done, which is
trailed, and sleeps until backtracking undoes the mark.  BoundProp never
retires, since the bound it reads changes.  Disjunctions run last:
they wait in a second queue until every other woken propagator is idle,
since their unit rule re-evaluates each disjunct.  Domains compute their
bounds once, when built, since they are read far more often than changed.
Old domains, watcher lists to pop and retired propagators each have a
trail of their own, so that backtracking tests no entry for its kind.

Presolve deletes disjuncts whose negation is asserted at the top level,
directly, as an Or, or as a leaf of a global's decomposition (an
allDifferent pair, say).  It negates each asserted leaf once per state and
keeps the keys of the negations, so a disjunct (an atom or a conjunction)
is refuted by looking up its own key; no candidate is negated.  Keys
compare atoms modulo the linear equalities asserted there (substituting
variables out with equality rows, as in Andersen & Andersen, "Presolving
in linear programming", 1995).  The equalities are put in reduced
row-echelon form once, pivoting on the highest unit-coefficient
variable so that channeled auxiliaries go, and each linear atom is keyed
with every pivot substituted out: with d[i,j] == x[j] - x[i] asserted, the
disjunct x[3] - x[2] == x[2] - x[1] meets d[1,2] != d[2,3].  An Or with a
disjunct the equalities imply is dropped.  An Or that loses all disjuncts,
or an asserted atom contradicted the same way, proves unsatisfiability with
zero search.  Atoms are posted as written, and each distinct asserted
constraint once: of the atoms asserted at the top level with one canonical
key, only the first is posted.  Solves that share their hard constraints
share one Presolved state of them and simplify only their extras.

solve() finds one solution or proves there is none; solve_optimal() runs
branch and bound on a minimization objective and reports whether optimality
was proven within the budget.  Both run one body and are fully
deterministic.  Their budgets are a node limit and a deadline: an absolute
time.monotonic() value that the caller fixes once (check() at its entry,
for every solve of the check), read in presolve, while posting, in root
propagation (once every grounding._POLL_EVERY propagator runs) and at
every node.

Posting a conjunction recognises the two decompositions that have a
stronger propagator than their parts: the disequalities of every pair of
three or more distinct variables (an allDifferent) register one
AllDiffProp, and the equations of a pack's bins, over one item list with
distinct bin keys and loads, add the sum of the loads when every item's
domain lies in those bins.
"""

import time
from collections import deque
from dataclasses import dataclass, field

from .grounding import (
    AndC,
    Const,
    CountC,
    FALSE_C,
    OrC,
    PackBinC,
    RelAtom,
    TableC,
    TRUE_C,
    Var,
    _clock,
    ctr_vars,
    eval_gexpr,
    evaluate_ground,
)
from .ops import rel_holds
from .transform import FALSE_KEY, TRUE_KEY, _poly_neg, axpy, canonical_key, negate, poly_of, rel_form

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
        k = v - self.offset
        if k < 0 or not (self.mask >> k) & 1:
            return self
        m = self.mask & ~(1 << k)
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


def poly_interval(poly, doms):
    lo = hi = 0
    for mono, c in poly.items():
        if not mono:  # the constant
            lo += c
            hi += c
            continue
        d = doms[mono[0]]
        a, b = d.min, d.max  # the monomial's interval: a variable's bounds, products after
        if len(mono) > 1:
            for vid in mono[1:]:
                d = doms[vid]
                cands = (a * d.min, a * d.max, b * d.min, b * d.max)
                a, b = min(cands), max(cands)
        if c >= 0:
            lo += c * a
            hi += c * b
        else:
            lo += c * b
            hi += c * a
    return lo, hi


def _poly_is_linear(poly):
    return all(len(m) <= 1 for m in poly)


def _linear_terms(poly):
    """(terms, const) of a linear polynomial, terms as (vid, coef) pairs."""
    return tuple((m[0], c) for m, c in poly.items() if m), poly.get((), 0)


def _status(op, lo, hi):
    """`f op 0` for f in lo..hi: True = entailed, False = violated, None = unknown."""
    if op == "<=":
        return True if hi <= 0 else (False if lo > 0 else None)
    if op == "==":
        return True if lo == hi == 0 else (None if lo <= 0 <= hi else False)
    return False if lo == hi == 0 else (None if lo <= 0 <= hi else True)  # !=


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


def _lin(eng, terms, const, eq):
    """Propagate sum(c_i x_i) + const <= 0, and >= 0 too when eq, from one
    reading of the bounds.  None on failure, else the maximum of the sum
    before pruning: at most 0 once it is entailed (for ==, the >= half has
    then fixed every variable)."""
    doms = eng.doms
    lo = hi = const
    for vid, c in terms:
        d = doms[vid]
        if c > 0:
            lo += c * d.min
            hi += c * d.max
        else:
            lo += c * d.max
            hi += c * d.min
    if lo > 0 or eq and hi < 0:
        return None
    # a term may rise by at most -lo and, for ==, fall by at most hi; one
    # whose whole span fits in both prunes nothing
    rise, fall = -lo, hi if eq else hi - lo
    for vid, c in terms:
        d = doms[vid]
        span = c * (d.max - d.min) if c > 0 else c * (d.min - d.max)
        if span > rise or span > fall:
            nd = (d.with_min(d.max - fall // c).with_max(d.min + rise // c) if c > 0
                  else d.with_min(d.max - rise // -c).with_max(d.min + fall // -c))
            if not eng.prune(vid, nd):
                return None
    return hi


def _narrow(d, c, const, op):
    """The values of domain d at which c*x + const op 0 holds, op in {<=, ==,
    !=}, in exact integers: what a LinProp or NeProp over x alone leaves at
    its fixpoint.  None when no value is left."""
    if op == "<=":
        return d.with_max(-const // c) if c > 0 else d.with_min(-(const // c))
    v, r = divmod(-const, c)
    if op == "!=":
        return d.remove(v) if r == 0 else d
    if r:
        return None
    d = d.with_min(v)
    return d.with_max(v) if d is not None else None


class LinProp(Prop):
    """Linear atom sum(c_i x_i) + const op 0, op in {<=, ==}, over (vid, c_i) terms."""

    __slots__ = ("terms", "const", "eq")

    def __init__(self, terms, const, op):
        super().__init__([vid for vid, _ in terms], BOUND)
        self.terms = terms
        self.const = const
        self.eq = op == "=="

    def propagate(self, eng):
        hi = _lin(eng, self.terms, self.const, self.eq)
        if hi is not None and hi <= 0:
            eng.set_done(self)
        return hi is not None


class NeProp(Prop):
    """Linear atom sum(c_i x_i) + const != 0, by forward checking: once at most one
    variable is open it removes that variable's forbidden value, if any, and retires."""

    __slots__ = ("terms", "const")

    def __init__(self, terms, const):
        super().__init__([vid for vid, _ in terms], FIX)
        self.terms = terms
        self.const = const

    def propagate(self, eng):
        doms = eng.doms
        acc, open_c = self.const, 0  # open_c: the coefficient of the one open variable
        for vid, c in self.terms:
            d = doms[vid]
            if d.min == d.max:
                acc += c * d.min
            elif open_c:
                return True
            else:
                open_vid, open_c = vid, c
        eng.set_done(self)
        if not open_c:
            return acc != 0
        v, r = divmod(-acc, open_c)
        return r != 0 or eng.prune(open_vid, doms[open_vid].remove(v))


class CheckProp(Prop):
    """A tree the engine judges but does not prune: it fails once
    tree_status finds the tree violated."""

    __slots__ = ("tree",)

    def __init__(self, tree, watch, event):
        super().__init__(watch, event)
        self.tree = tree

    def propagate(self, eng):
        s = eng.tree_status(self.tree)
        if s:
            eng.set_done(self)
        return s is not False


class AllDiffProp(Prop):
    """Pairwise distinct variables (see _clique), by forward checking: a
    fixed value goes from every open variable's domain."""

    __slots__ = ("vids",)

    def __init__(self, vids):
        super().__init__(vids, FIX)
        self.vids = vids

    def propagate(self, eng):
        doms = eng.doms
        seen = {}  # values taken, in order: the removals below keep that order
        for vid in self.vids:
            d = doms[vid]
            if d.fixed:
                v = d.value
                if v in seen:
                    return False
                seen[v] = None
        if len(self.vids) - len(seen) <= 1:  # entailed once the open one loses seen
            eng.set_done(self)
        if not seen:
            return True
        for vid in self.vids:
            d = doms[vid]
            if d.fixed:
                continue
            for v in seen:
                if not eng.prune(vid, doms[vid].remove(v)):
                    return False
        return True


def _clique(items):
    """The variables of a conjunction of x != y atoms over every pair of at
    least three distinct plain variables, in first-seen order; else None."""
    if len(items) < 3:
        return None
    seen, pairs = {}, set()
    for it in items:
        if not (isinstance(it, RelAtom) and it.op == "!="
                and type(it.left) is Var and type(it.right) is Var):
            return None
        a, b = it.left.vid, it.right.vid
        if a == b:
            return None
        seen[a] = seen[b] = None
        pairs.add((a, b) if a < b else (b, a))
    n = len(seen)
    return tuple(seen) if len(pairs) == len(items) == n * (n - 1) // 2 else None


def _count_bounds(op, rlo, rhi, n):
    """(lb, ub) on a count of n items that `count op rhs` allows for some
    rhs in rlo..rhi, op not !=; -1 and n + 1 where it sets no bound.  Read
    with rhi and rlo swapped, the bounds within which it is entailed."""
    if op == "==":
        return rlo, rhi
    if op in ("<=", "<"):
        return -1, rhi - (op == "<")
    return rlo + (op == ">"), n + 1


class CountProp(Prop):
    """Count atom whose value is a constant.  With a constant right-hand
    side and op not !=, its bounds on the count are fixed when posted."""

    __slots__ = ("tree", "item_polys", "value_const", "rhs_poly", "bare", "plain", "bounds")

    def __init__(self, tree):
        super().__init__(ctr_vars(tree), DOMAIN)
        self.tree = tree
        self.item_polys = [poly_of(it) for it in tree.items]
        self.value_const = tree.value.value
        self.rhs_poly = poly_of(tree.rhs)
        self.bare = [it.vid if isinstance(it, Var) else None for it in tree.items]
        self.plain = None not in self.bare
        r = self.rhs_poly.get((), 0)
        const = self.rhs_poly.keys() <= {()} and tree.op != "!="
        self.bounds = _count_bounds(tree.op, r, r, len(self.bare)) if const else None

    def propagate(self, eng):
        doms = eng.doms
        v = self.value_const
        cnt_min = cnt_max = 0
        if self.plain:
            for b in self.bare:
                d = doms[b]
                if d.min <= v <= d.max and d.contains(v):
                    cnt_max += 1
                    if d.min == d.max:
                        cnt_min += 1
        else:
            for p, b in zip(self.item_polys, self.bare):
                lo, hi = (doms[b].min, doms[b].max) if b is not None else poly_interval(p, doms)
                if lo <= v <= hi and (b is None or doms[b].contains(v)):
                    cnt_max += 1
                    if lo == hi:
                        cnt_min += 1
        op = self.tree.op
        if self.bounds is not None:
            lb, ub = elb, eub = self.bounds
        else:
            rlo, rhi = poly_interval(self.rhs_poly, doms)
            if op == "!=":
                if cnt_max < rlo or cnt_min > rhi:  # entailed
                    eng.set_done(self)
                    return True
                return not cnt_min == cnt_max == rlo == rhi
            n = len(self.bare)
            (lb, ub), (elb, eub) = _count_bounds(op, rlo, rhi, n), _count_bounds(op, rhi, rlo, n)
        if elb <= cnt_min and cnt_max <= eub:  # entailed
            eng.set_done(self)
            return True
        if cnt_min > ub or cnt_max < lb:
            return False
        # every candidate is needed, or no further item may take the value
        # (both only when no candidate is open)
        need = cnt_max == lb
        if need or cnt_min == ub:
            for b in self.bare:
                if b is None:
                    continue
                d = doms[b]
                if not d.fixed and d.contains(v):
                    if not eng.prune(b, fixed_dom(v) if need else d.remove(v)):
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
        # forbidden: a row that every cell matches fails, and one that every
        # cell but one open variable matches takes that value from it; an
        # expression cell matches only once it is fixed
        for row in self.rows:
            open_pos = -1
            for p in range(n):
                b = self.bare[p]
                if b is None:
                    lo, hi = poly_interval(self.item_polys[p], doms)
                    if not lo == hi == row[p]:
                        break
                elif doms[b].fixed:
                    if doms[b].value != row[p]:
                        break
                elif open_pos >= 0 or not doms[b].contains(row[p]):
                    break
                else:
                    open_pos = p
            else:
                if open_pos < 0:
                    return False
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
            if s_min == s_max:  # the load is fixed below
                eng.set_done(self)
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
    A linear disjunct over one variable is kept as (vid, c, const, op), judged
    from that variable's bounds and, as the last live one, pruned directly.
    """

    __slots__ = ("items", "forms", "choice")
    late = True

    def __init__(self, items, choice):
        watch, forms = set(), []  # per disjunct: that, another relational one's kept (op, poly), or None
        for it in items:
            if isinstance(it, RelAtom):
                op, poly = form = rel_form(it)
                vs = [v for m in poly for v in m]
                if len(vs) == 1:  # one monomial, of degree 1
                    form = (vs[0], poly[(vs[0],)], poly.get((), 0), op)
                forms.append(form)
                watch.update(vs)
            else:
                forms.append(None)
                ctr_vars(it, watch)
        super().__init__(watch, BOUND)  # tree_status reads bounds and fixedness
        self.items = items
        self.forms = forms
        self.choice = choice

    def open_disjuncts(self, eng, limit):
        """None when a disjunct is entailed, else the indices of the
        disjuncts not yet decided, in order, up to limit + 1 of them."""
        out = []
        doms = eng.doms
        for i, form in enumerate(self.forms):
            if form is None:
                s = eng.tree_status(self.items[i])
            elif len(form) == 2:
                s = _status(form[0], *poly_interval(form[1], doms))
            else:
                vid, c, k, op = form
                d = doms[vid]
                lo, hi = c * d.min + k, c * d.max + k
                s = _status(op, lo, hi) if c > 0 else _status(op, hi, lo)
            if s is True:
                return None
            if s is None:
                out.append(i)
                if len(out) > limit:
                    break
        return out

    def propagate(self, eng):
        live = self.open_disjuncts(eng, 1)
        if live is None:
            eng.set_done(self)
            return True
        if len(live) != 1:
            return len(live) > 1  # none left fails, two or more wait
        # exactly one live disjunct: it must hold
        eng.set_done(self)
        form = self.forms[live[0]]
        if form is not None and len(form) == 4:  # as post_tree would, short of an empty domain
            nd = _narrow(eng.doms[form[0]], *form[1:])
            if nd is not None:
                return eng.prune(form[0], nd)
        return eng.post_tree(self.items[live[0]], self.choice)


class BoundProp(Prop):
    """objective <= incumbent - 1, consulted under a mutable bound."""

    __slots__ = ("terms", "const", "poly", "linear")

    def __init__(self, poly):
        super().__init__({v for m in poly for v in m}, BOUND)
        self.poly = poly
        self.linear = _poly_is_linear(poly)
        if self.linear:
            self.terms, self.const = _linear_terms(poly)

    def propagate(self, eng):
        if eng.bound is None:
            return True
        limit = eng.bound - 1
        if self.linear:
            return _lin(eng, self.terms, self.const - limit, False) is not None
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


def _reduce(p, rows):
    """p with every row pivot substituted out.  A row holds no other row's
    pivot, so each substitution adds only non-pivot monomials."""
    for m in [m for m in p if m in rows]:
        p = axpy(p, -p[m], rows[m])
    return p


def _echelon(trees, tick):
    """Reduced row-echelon form of the linear equalities asserted at the top
    level of `trees`: pivot monomial -> polynomial equal to zero, with
    coefficient 1 on its pivot and no other row's pivot in it.  The pivot is
    the highest unit-coefficient variable, so auxiliaries (declared after the
    variables they are defined from) are eliminated.  Rows that reduce to
    zero or keep no unit coefficient are skipped."""
    rows = {}
    for tree in trees:
        for leaf in _and_spine(tree):
            tick()
            if not (isinstance(leaf, RelAtom) and leaf.op == "=="):
                continue
            _, p = rel_form(leaf)
            if not _poly_is_linear(p):
                continue
            p = _reduce(p, rows)
            pivot = max((m for m, c in p.items() if m and abs(c) == 1), default=None)
            if pivot is None:
                continue
            if p[pivot] == -1:
                p = _poly_neg(p)
            rows = {k: axpy(r, -r[pivot], p) if pivot in r else r for k, r in rows.items()}
            rows[pivot] = p
    return rows


def _normal_form(rows):
    """The `reduce` hook of canonical_key: linear polynomials modulo the
    rows, others as they are."""

    def reduce(p):
        return _reduce(p, rows) if _poly_is_linear(p) else p

    return reduce if rows else None


def _asserted_keys(trees, reduce, tick):
    """Reduced canonical keys of the negations of everything asserted at the
    top level, Or leaves included.  A tree whose own reduced key is among
    them is false wherever `trees` hold.  `tick` is called once per leaf
    keyed."""
    keys = set()
    for tree in trees:
        for leaf in _and_spine(tree):
            tick()
            keys.add(canonical_key(negate(leaf), reduce))
    return keys


def _simplify(tree, keys, reduce, seen, tick):
    """`seen` (own keys so far) is None unless the tree is asserted at the
    top level of hard.  Such an atom is a tautology by its own key only:
    modulo the rows, the equalities that justify every deletion would read
    as true.  A seen key is TRUE_C: the earlier atom prunes the same.  A tree
    whose reduced key is in `keys` is FALSE_C.  Of the composite trees only a
    conjunction that is not asserted is looked up whole: an Or's key is an
    Or, which the negation of an asserted leaf almost never is, and keying
    it costs most on the widest trees.  An asserted allDifferent (see
    _clique) keeps its seen pairs, so that it still posts as one propagator."""
    if isinstance(tree, (AndC, OrC)):
        conj = isinstance(tree, AndC)
        if conj and seen is None and canonical_key(tree, reduce) in keys:
            return FALSE_C
        whole = conj and seen is not None and _clique(tree.items) is not None
        unit, zero = (TRUE_C, FALSE_C) if conj else (FALSE_C, TRUE_C)
        parts = []
        for it in tree.items:
            s = _simplify(it, keys, reduce, seen if conj else None, tick)
            if s is zero:
                return zero
            if s is not unit or whole:  # a pair x != y is TRUE_C only when seen
                parts.append(it if s is unit else s)
        if len(parts) == 1:
            return parts[0]
        return type(tree)(tuple(parts)) if parts else unit
    tick()
    k = canonical_key(tree, reduce if seen is None else None)
    if seen is not None:
        if k in seen:
            return TRUE_C
        seen.add(k)
    if k == TRUE_KEY:
        return TRUE_C
    if k == FALSE_KEY:
        return FALSE_C
    if seen is not None and reduce is not None:
        k = canonical_key(tree, reduce)
    return FALSE_C if k in keys else tree


@dataclass
class Presolved:
    """Hard constraints presolved once, for any number of solves that add
    different extra trees to them: the simplified trees, their status
    (UNSAT, RESOURCE_OUT or None) and what simplifying an extra needs: the
    reduced keys of the negations of what they assert, and the reduction."""

    hard: list
    status: str
    keys: set = frozenset()
    reduce: object = None

    def extras(self, extras, deadline=None):
        """(extras2, status): the extra trees simplified against the hard
        ones, and the status of both together."""
        if self.status:
            return [], self.status
        tick = _clock(deadline)
        try:
            extras = [_simplify(t, self.keys, self.reduce, None, tick) for t in extras]
        except TimeoutError:
            return [], "RESOURCE_OUT"
        return extras, "UNSAT" if any(t is FALSE_C for t in extras) else None


def presolve(hard, deadline=None):
    """Filter hard constraint trees before search, as a Presolved state.

    Its status is UNSAT when no solution is left, RESOURCE_OUT when
    time.monotonic() passed `deadline` first, else None.  Atoms are compared
    modulo the linear equalities asserted in `hard`: the negation of each
    asserted leaf is keyed in that normal form once, here, and a disjunct
    (an atom or a conjunction) is deleted when its own key is one of them,
    and an Or goes when those equalities imply one of its disjuncts.  Sound
    over the hard space: asserted atoms stay, one per key.
    """
    hard, tick = list(hard), _clock(deadline)
    try:
        reduce = _normal_form(_echelon(hard, tick))
        keys = _asserted_keys(hard, reduce, tick)
        seen = set()
        hard = [_simplify(t, keys, reduce, seen, tick) for t in hard]
    except TimeoutError:
        return Presolved(hard, "RESOURCE_OUT")
    return Presolved(hard, "UNSAT" if any(t is FALSE_C for t in hard) else None, keys, reduce)


# ---------------------------------------------------------------------------
# Engine


@dataclass
class SearchConfig:
    deadline: float = None  # time.monotonic() value past which a solve stops
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
    def __init__(self, domains, config, first_fail=True):
        self.doms = {vid: make_dom(lo, hi) for vid, (lo, hi) in domains.items()}
        self.order = sorted(self.doms)
        self.first_fail = first_fail  # else branch on the first unfixed in order
        # per variable, one propagator list per event class (FIX, BOUND, DOMAIN)
        self.watchers = {vid: ([], [], []) for vid in self.doms}
        self.choices = []  # choice OrProps, in posting order
        # (vid, old domain), watcher lists to pop, retired propagators
        self.dtrail, self.wtrail, self.rtrail = [], [], []
        # woken propagators; late ones (disjunctions) wait in the second queue
        # until the first is empty, since their unit rule re-evaluates every
        # disjunct and runs far fewer times once the rest is at its fixpoint
        self.queues = (deque(), deque())
        self.config = config
        self.stats = Stats()
        self.bound = None
        self.bound_prop = None

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
        doms = self.doms
        old = doms[vid]
        if nd is old:
            return True
        if nd is None:
            return False
        self.dtrail.append((vid, old))
        doms[vid] = nd
        if nd.min == nd.max:
            event = FIX
        elif nd.min != old.min or nd.max != old.max:
            event = BOUND
        else:
            event = DOMAIN
        queues = self.queues
        for props in self.watchers[vid][event:]:
            for p in props:
                if not (p.queued or p.done):
                    p.queued = True
                    queues[p.late].append(p)
        return True

    def set_done(self, prop):
        if not prop.done:
            prop.done = True
            self.rtrail.append(prop)

    def register(self, prop):
        for vid in prop.watch:
            props = self.watchers[vid][prop.event]
            props.append(prop)
            self.wtrail.append(props)
        self.enqueue(prop)

    def marks(self):
        return len(self.dtrail), len(self.wtrail), len(self.rtrail), len(self.choices)

    def restore(self, marks):
        dmark, wmark, rmark, cmark = marks
        doms, dtrail, wtrail, rtrail = self.doms, self.dtrail, self.wtrail, self.rtrail
        for vid, old in reversed(dtrail[dmark:]):
            doms[vid] = old
        for props in wtrail[wmark:]:
            props.pop()
        for prop in rtrail[rmark:]:
            prop.done = False
        del dtrail[dmark:], wtrail[wmark:], rtrail[rmark:], self.choices[cmark:]
        self.clear_queue()

    # -- posting -------------------------------------------------------------

    def post_tree(self, tree, choice, tick=None):
        """Install propagators for a ground tree; False when trivially unsat.
        `tick` (see grounding._clock), when given, is called once for every
        tree and subtree posted, but a recognised allDifferent is one tree."""
        if tick is not None:
            tick()
        if isinstance(tree, AndC):
            items = tree.items
            vids = _clique(items)
            if vids is not None:
                self.register(AllDiffProp(vids))
                return True
            for it in items:
                if not self.post_tree(it, choice, tick):
                    return False
            if items and isinstance(items[0], PackBinC):
                self._pack_total(items)
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
            op, poly = rel_form(tree)
            if poly.keys() <= {()}:  # a constant
                return rel_holds(op, poly.get((), 0), 0)
            if not _poly_is_linear(poly):
                self.register(CheckProp(tree, {v for m in poly for v in m}, BOUND))
                return True
            terms, const = _linear_terms(poly)
            nd = _narrow(self.doms[terms[0][0]], terms[0][1], const, op) if len(terms) == 1 else None
            if nd is not None:
                return self.prune(terms[0][0], nd)
            self.register(NeProp(terms, const) if op == "!=" else LinProp(terms, const, op))
            return True
        if isinstance(tree, TableC):
            self.register(TableProp(tree))
            return True
        if isinstance(tree, CountC):
            if isinstance(tree.value, Const):
                self.register(CountProp(tree))
            else:
                self.register(CheckProp(tree, ctr_vars(tree), FIX))
            return True
        if isinstance(tree, PackBinC):
            self.register(PackBinProp(tree))
            return True
        raise TypeError(f"cannot post {type(tree).__name__}")

    def _pack_total(self, bins):
        """Register the sum of the loads of a conjunction of == pack bins over
        one item list, with distinct bin keys and loads, when every item's
        domain lies in those bins: the loads then sum to the total size."""
        b0 = bins[0]
        if not all(isinstance(b, PackBinC) and b.op == "==" and b.assigns == b0.assigns
                   and b.sizes == b0.sizes for b in bins):
            return
        keys = {b.bin_key for b in bins}
        if len(keys) == len({b.load_vid for b in bins}) == len(bins) and all(
            all(v in keys for v in self.doms[a].values()) for a in b0.assigns
        ):
            self.register(LinProp(tuple((b.load_vid, 1) for b in bins), -sum(b0.sizes), "=="))

    # -- status of a tree under current domains -------------------------------

    def tree_status(self, tree):
        """True = entailed, False = violated, None = unknown."""
        if isinstance(tree, RelAtom):
            op, poly = rel_form(tree)
            return _status(op, *poly_interval(poly, self.doms))
        if isinstance(tree, (AndC, OrC)):
            # an And is decided by a False item, an Or by a True one
            decisive = isinstance(tree, OrC)
            out = not decisive
            for it in tree.items:
                s = self.tree_status(it)
                if s is decisive:
                    return decisive
                if s is None:
                    out = None
            return out
        return self._exact_status(tree)

    def _exact_status(self, tree):
        """Status of an atom without a normal form (any but a relational
        atom): exact once its variables are fixed."""
        doms = self.doms
        vs = ctr_vars(tree)
        if all(doms[v].fixed for v in vs):
            return evaluate_ground(tree, {v: doms[v].value for v in vs})
        return None

    # -- propagation and search ----------------------------------------------

    def propagate(self, tick=None):
        """Run woken propagators to a fixpoint, calling `tick` (as in
        post_tree) before each run; False on failure."""
        if self.bound_prop is not None and self.bound is not None:
            self.enqueue(self.bound_prop)
        first, last = self.queues
        runs = 0
        try:
            while first or last:
                if tick is not None:
                    tick()
                p = first.popleft() if first else last.popleft()
                p.queued = False
                runs += 1
                if not p.propagate(self):
                    self.clear_queue()
                    self.stats.failures += 1
                    return False
            return True
        finally:
            self.stats.propagations += runs

    def _pick(self):
        for p in self.choices:
            if not p.done:
                live = p.open_disjuncts(self, _OR_BRANCH_LIMIT)
                if live and len(live) <= _OR_BRANCH_LIMIT:
                    return [("or", p, p.items[i]) for i in live]
        best = best_size = None
        for vid in self.order:
            d = self.doms[vid]
            if d.fixed:
                continue
            if best_size is None or d.size < best_size:
                best, best_size = vid, d.size
                if not self.first_fail:
                    break
        if best is None:
            return None
        return [("assign", best, v) for v in self.doms[best].values()]

    def _apply(self, alt):
        self.stats.nodes += 1
        if alt[0] == "assign":
            return self.prune(alt[1], fixed_dom(alt[2]))
        _, prop, disjunct = alt
        self.set_done(prop)
        return self.post_tree(disjunct, prop.choice)

    def _over_budget(self):
        c = self.config
        if c.node_limit is not None and self.stats.nodes >= c.node_limit:
            return True
        return c.deadline is not None and time.monotonic() > c.deadline

    def search(self, on_solution):
        """DFS; on_solution(assignment) returns True to stop the search.

        Returns "SAT" when stopped by on_solution, "UNSAT" when exhausted,
        "RESOURCE_OUT" when a budget tripped.
        """
        try:
            if not self.propagate(_clock(self.config.deadline)):
                return "UNSAT"
        except TimeoutError:
            return "RESOURCE_OUT"
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


def _solve(domains, hard, extras, objective, config, first_fail=True):
    """The one body of solve and solve_optimal: presolve `hard` unless it is
    a Presolved state, simplify the extras against it, post both and search;
    with an objective, branch and bound on it.  Returns (status, assignment,
    value, stats): the search status, the last solution found (the best one
    under an objective) and its objective value, or None for each."""
    config = config or SearchConfig()
    t0 = time.monotonic()
    pre = hard if isinstance(hard, Presolved) else presolve(hard, config.deadline)
    extras, status = pre.extras(extras, config.deadline)
    best, stats = {}, Stats()
    if not status:
        eng = Engine(domains, config, first_fail)
        stats = eng.stats
        tick = _clock(config.deadline)
        try:
            for choice, trees in ((False, pre.hard), (True, extras)):
                if not all(eng.post_tree(t, choice, tick) for t in trees):
                    status = "UNSAT"  # a failed post refutes the root
                    break
        except TimeoutError:
            status = "RESOURCE_OUT"
    if not status:
        if objective is not None:
            eng.bound_prop = BoundProp(poly_of(objective))
            eng.register(eng.bound_prop)

        def on_solution(a):
            if objective is None:
                best["assignment"] = a
                return True
            v = eval_gexpr(objective, a)
            if eng.bound is None or v < eng.bound:
                eng.bound = v
                best["assignment"], best["value"] = a, v
            return False  # keep searching for better

        status = eng.search(on_solution)
    stats.elapsed = time.monotonic() - t0
    return status, best.get("assignment"), best.get("value"), stats


def solve(domains, hard, extras=(), config=None, *, first_fail=True):
    """Find one assignment satisfying hard plus every extra tree.  `hard` is
    a list of trees, or a Presolved state of them that solves with other
    extras share; then only the extras are simplified here.  first_fail=False
    branches on variables in declaration order, for a caller that wants any
    solution rather than a refutation."""
    status, assignment, _, stats = _solve(domains, hard, extras, None, config, first_fail)
    return SolveOutcome(status, assignment, stats)


def solve_optimal(domains, hard, objective, config=None):
    """Branch and bound minimization of a ground objective expression.  SAT
    means optimality was proven: the search space below the incumbent was
    exhausted."""
    status, assignment, value, stats = _solve(domains, hard, (), objective, config)
    if assignment is None:
        return OptOutcome(status, stats=stats)
    proven = status == "UNSAT"
    return OptOutcome("SAT" if proven else "RESOURCE_OUT", assignment, value, proven, stats)
