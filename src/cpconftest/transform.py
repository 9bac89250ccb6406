"""Constraint negation and canonical forms for structural equality.

negate() builds the logical complement of a ground constraint tree:
relational operators flip and De Morgan pushes through And/Or.  Table, count
and pack-bin atoms have a dedicated complement of the same kind, which keeps
the structure their propagators use.  The other globals arrive as their
decompositions, since grounding lowers them to And / Or trees: the
complement of an allDifferent is a disjunction of equalities, that of a pack
"some bin load is off".  The result is again a ground constraint tree that
the solver can post; an atom's complement takes its normal form from the
atom's kept one (see rel_form), not from its sides.

canonical_key() maps a tree to a hashable key such that two trees with equal
keys are logically equivalent.  Arithmetic is expanded into a multivariate
polynomial normal form, which absorbs commutativity, associativity,
distribution, identity and annihilator elements in one step.  Relations are
brought to p <= 0, p == 0 or p != 0 (p < 0 is p + 1 <= 0 over the
integers), with a fixed sign for the two symmetric ones, and terms in plain
monomial order.  And/Or trees are flattened, sorted, deduplicated, and
common factors are pulled out greedily until a fixpoint, which covers the
distributive laws.  The equivalence is deliberately incomplete: unequal
keys prove nothing.
"""

from .grounding import AndC, Const, CountC, OrC, PackBinC, Prod, RelAtom, Sum, TableC, Var
from .ops import FLIP, MIRROR, rel_holds

# ---------------------------------------------------------------------------
# Negation


def negate(tree, tick=None):
    """Complement of a ground constraint tree; TypeError for anything else.
    `tick` (see grounding._clock), when given, is called once per tree node
    negated."""
    if tick is not None:
        tick()
    if isinstance(tree, RelAtom):
        neg = RelAtom(FLIP[tree.op], tree.left, tree.right)
        op, p = rel_form(tree)
        object.__setattr__(neg, "_form", _normal(FLIP[op], p))  # rel_form(neg), from tree's form
        return neg
    if isinstance(tree, (AndC, OrC)):
        dual = OrC if isinstance(tree, AndC) else AndC
        return dual(tuple(negate(it, tick) for it in tree.items))
    if isinstance(tree, TableC):
        other = "forbidden" if tree.kind == "allowed" else "allowed"
        return TableC(other, tree.items, tree.rows)
    if isinstance(tree, CountC):
        return CountC(tree.items, tree.value, FLIP[tree.op], tree.rhs)
    if isinstance(tree, PackBinC):
        return PackBinC(tree.bin_key, tree.load_vid, tree.assigns, tree.sizes, FLIP[tree.op])
    raise TypeError(f"not a ground constraint: {tree!r}")


# ---------------------------------------------------------------------------
# Polynomial normal form
#
# A polynomial is a dict from monomial to coefficient, where a monomial is a
# sorted tuple of variable ids (repeats encode powers) and () is the constant
# term.  Zero coefficients are dropped.


def poly_of(e):
    """Polynomial of a ground expression, kept on the expression object once
    computed: an expression that grounding shares is expanded once per model,
    and the result lives as long as the model.  Callers must not change it."""
    acc = getattr(e, "_poly", None)
    if acc is not None:
        return acc
    if isinstance(e, Const):
        acc = {(): e.value} if e.value != 0 else {}
    elif isinstance(e, Var):
        acc = {(e.vid,): 1}
    elif isinstance(e, Sum):
        acc = {}
        for it in e.items:
            _add_into(acc, 1, poly_of(it))  # in place: a long sum stays linear
    elif isinstance(e, Prod):
        acc = {(): 1}
        for it in e.items:
            p = poly_of(it)
            nxt = {}
            for m1, c1 in acc.items():
                _add_into(nxt, c1, {tuple(sorted(m1 + m2)): c2 for m2, c2 in p.items()})
            acc = nxt
    else:
        raise TypeError(f"not a ground expression: {e!r}")
    object.__setattr__(e, "_poly", acc)  # not a field; the dataclass is frozen
    return acc


def _add_into(acc, a, q):
    """acc += a*q in place, zero terms dropped; the one polynomial update."""
    for m, c in q.items():
        nc = acc.get(m, 0) + a * c
        if nc == 0:
            acc.pop(m, None)
        else:
            acc[m] = nc


def axpy(p, a, q):
    """A new polynomial equal to p + a*q, zero terms dropped."""
    acc = dict(p)
    _add_into(acc, a, q)
    return acc


def _poly_neg(p):
    return {m: -c for m, c in p.items()}


def _poly_key(p):
    """The terms of p in plain monomial order, the leading term last: as
    monomials are distinct tuples of ints, the sort compares no coefficient."""
    return ("poly",) + tuple(sorted(p.items()))


def gexpr_key(e):
    """Canonical key of a ground expression (its polynomial)."""
    return _poly_key(poly_of(e))


# ---------------------------------------------------------------------------
# Tree canonicalization

TRUE_KEY = ("true",)
FALSE_KEY = ("false",)


def _sorted_keys(keys):
    return tuple(sorted(keys, key=repr))


def _normal(op, p):
    """(op, p) for p op 0 with op one of <=, == and !=: p is negated for >
    and >=, plus 1 for < and >, since over the integers p < 0 is p + 1 <= 0.
    This is the one place that knows strict relations."""
    if op in (">", ">="):
        op, p = MIRROR[op], _poly_neg(p)
    if op == "<":
        op, p = "<=", axpy(p, 1, {(): 1})
    return op, p


def rel_form(atom):
    """Normal form of a relational atom: _normal of its op and left - right.
    The form is computed once per atom and kept on it; callers share it and
    must not change it."""
    form = getattr(atom, "_form", None)
    if form is None:
        form = _normal(atom.op, axpy(poly_of(atom.left), -1, poly_of(atom.right)))
        object.__setattr__(atom, "_form", form)  # not a field; the dataclass is frozen
    return form


def _rel_key(atom, reduce):
    op, p = rel_form(atom)
    if reduce is not None:
        p = reduce(p)
    key = _poly_key(p)
    if len(key) == 1 or key[-1][0] == ():  # () sorts first: p is a constant
        return TRUE_KEY if rel_holds(op, p.get((), 0), 0) else FALSE_KEY
    if op != "<=" and key[-1][1] < 0:  # == and != take a positive leading term
        key = ("poly",) + tuple((m, -c) for m, c in key[1:])
    return ("rel", op, key)


def _junction(keys, conj):
    """Key of the conjunction (conj) or disjunction of keys: flattened,
    sorted and deduplicated, with the parts common to every item pulled out,
    (a|b) & (a|c) = a | (b&c) and its dual."""
    tag, unit, zero = ("and", TRUE_KEY, FALSE_KEY) if conj else ("or", FALSE_KEY, TRUE_KEY)
    dual = "or" if conj else "and"
    items = []
    for k in keys:
        if k == unit:
            continue
        if k == zero:
            return zero
        if k[0] == tag:
            items.extend(k[1])
        else:
            items.append(k)
    items = _sorted_keys(set(items))
    if not items:
        return unit
    if len(items) == 1:
        return items[0]

    def parts(k):
        return set(k[1]) if k[0] == dual else {k}

    common = None
    for k in items:
        common = parts(k) if common is None else common & parts(k)
        if not common:
            break
    if common:
        rest = [_junction(parts(k) - common, not conj) for k in items]
        return _junction(_sorted_keys(common) + (_junction(rest, conj),), not conj)
    return (tag, items)


def canonical_key(tree, reduce=None):
    """Hashable canonical key; equal keys imply logically equal constraints.

    `reduce`, when given, maps the polynomial left - right of each relation
    to one with the same value wherever the caller's side conditions hold;
    equal keys then imply constraints equal under those conditions."""
    if isinstance(tree, RelAtom):
        return _rel_key(tree, reduce)
    if isinstance(tree, (AndC, OrC)):
        return _junction([canonical_key(it, reduce) for it in tree.items], isinstance(tree, AndC))
    if isinstance(tree, TableC):
        return (
            "table",
            tree.kind,
            tuple(gexpr_key(it) for it in tree.items),
            tuple(sorted(set(tree.rows))),
        )
    if isinstance(tree, CountC):
        return (
            "count",
            _sorted_keys(gexpr_key(it) for it in tree.items),
            gexpr_key(tree.value),
            tree.op,
            gexpr_key(tree.rhs),
        )
    if isinstance(tree, PackBinC):
        return (
            "packbin",
            tree.bin_key,
            tree.load_vid,
            tree.assigns,
            tree.sizes,
            tree.op,
        )
    raise TypeError(f"not a ground constraint: {tree!r}")


def ac_equal(t1, t2):
    """Sound structural equivalence: True only when both trees canonicalize
    to the same key; TypeError for anything but a ground constraint."""
    return canonical_key(t1) == canonical_key(t2)
