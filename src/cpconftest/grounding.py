"""Instance binding and grounding of models to flat constraint trees.

A parsed model plus concrete parameter values yields a GroundModel: a fixed
set of integer variables (one per array cell), one ground constraint tree per
source label, an optional objective expression, and the channeling
definitions extracted from constraints marked @channeling.

Ground expressions are Const / Var / Sum / Prod over int64 with checked
arithmetic.  Subtraction lowers to Sum(a, Prod(-1, b)); division must fold to
a constant at grounding time.  Equal ground expressions of one ground() call
are one object, through a table dropped when the call returns, so what is
kept on one (transform.poly_of) is computed once per model and lives as long
as it.  Grounding costs what it keeps: iter_bindings enumerates a binder
under an equality guard b.f == e from an index of b's tuple set by field f,
built once per call, and lower_expr lowers an expression once per ground()
call and values of the binder names it mentions; both tables go with their
call.  Ground constraints are relational atoms plus And / Or trees and a
handful of global atoms (allDifferent, allMinDistance, inverse, table, count,
pack) that keep enough structure for negation and propagation.  An empty And
is TRUE, an empty Or is FALSE.

Channeling definitions drive extend_assignment: given values for the base
variables, auxiliary variables are filled in by running the definitions to a
fixpoint in declaration order (first writer wins).  It also returns the
variables still undefined, so callers can fall back to search for them.
"""

import itertools
import time
from dataclasses import dataclass

from .errors import EvaluationError, GroundingError, UsageError
from .ops import FLIP, add64, check64, div64, mul64, rel_holds
from .syntax import (
    AllDifferentCtr,
    AllMinDistanceCtr,
    BinOp,
    BoolNot,
    BoolOp,
    CountCtr,
    FieldRef,
    Forall,
    IfThenElse,
    Implies,
    IndexedRef,
    IntLit,
    InverseCtr,
    NameRef,
    Neg,
    OrAgg,
    PackCtr,
    RangeDom,
    Rel,
    RelChain,
    TableCtr,
    TupleExpr,
    names_in,
    walk_bool,
    walk_exprs,
)

_POLL_EVERY = 256  # bindings (grounding) or atoms (presolve) between two looks at a deadline


def _clock(deadline):
    """A call once per binding or atom: every _POLL_EVERY calls, from the
    first, it raises TimeoutError once time.monotonic() is past `deadline`."""
    calls = itertools.count()

    def tick():
        if deadline is not None and next(calls) % _POLL_EVERY == 0 and time.monotonic() > deadline:
            raise TimeoutError

    return tick


# ---------------------------------------------------------------------------
# Ground expressions


@dataclass(frozen=True)
class Const:
    value: int


@dataclass(frozen=True)
class Var:
    vid: int


@dataclass(frozen=True)
class Sum:
    items: tuple


@dataclass(frozen=True)
class Prod:
    items: tuple


def mk_sum(items):
    """n-ary sum with flattening and constant folding."""
    flat = []
    const = 0
    for it in items:
        if isinstance(it, Sum):
            rest = it.items
        else:
            rest = (it,)
        for r in rest:
            if isinstance(r, Const):
                const = add64(const, r.value)
            else:
                flat.append(r)
    if const != 0 or not flat:
        flat.append(Const(const))
    if len(flat) == 1:
        return flat[0]
    return Sum(tuple(flat))


def mk_prod(items):
    """n-ary product with flattening and constant folding."""
    flat = []
    const = 1
    for it in items:
        if isinstance(it, Prod):
            rest = it.items
        else:
            rest = (it,)
        for r in rest:
            if isinstance(r, Const):
                const = mul64(const, r.value)
            else:
                flat.append(r)
    if const == 0:
        return Const(0)
    if not flat:
        return Const(const)
    if const != 1:
        flat.insert(0, Const(const))
    if len(flat) == 1:
        return flat[0]
    return Prod(tuple(flat))


def mk_diff(a, b):
    return mk_sum((a, mk_prod((Const(-1), b))))


def eval_gexpr(e, assignment):
    """Evaluate a ground expression under a (vid -> int) assignment."""
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        try:
            return assignment[e.vid]
        except KeyError:
            raise EvaluationError(f"variable v{e.vid} is unassigned") from None
    if isinstance(e, Sum):
        acc = 0
        for it in e.items:
            acc = add64(acc, eval_gexpr(it, assignment))
        return acc
    if isinstance(e, Prod):
        acc = 1
        for it in e.items:
            acc = mul64(acc, eval_gexpr(it, assignment))
        return acc
    raise TypeError(f"not a ground expression: {e!r}")


def gexpr_vars(e, out=None):
    """Set of variable ids occurring in a ground expression."""
    if out is None:
        out = set()
    if isinstance(e, Var):
        out.add(e.vid)
    elif isinstance(e, (Sum, Prod)):
        for it in e.items:
            gexpr_vars(it, out)
    return out


# ---------------------------------------------------------------------------
# Ground constraints


@dataclass(frozen=True)
class RelAtom:
    op: str  # == != < <= > >=
    left: object
    right: object


@dataclass(frozen=True)
class AndC:
    items: tuple


@dataclass(frozen=True)
class OrC:
    items: tuple


@dataclass(frozen=True)
class AllDiffC:
    items: tuple  # ground expressions


@dataclass(frozen=True)
class AllMinDistC:
    items: tuple
    gap: int


@dataclass(frozen=True)
class InverseC:
    f_vids: tuple
    g_vids: tuple
    f_idx: tuple  # int index of each position in f
    g_idx: tuple


@dataclass(frozen=True)
class TableC:
    kind: str  # "allowed" | "forbidden"
    items: tuple
    rows: tuple  # tuple of int tuples


@dataclass(frozen=True)
class CountC:
    items: tuple
    value: object  # ground expression
    op: str
    rhs: object


@dataclass(frozen=True)
class PackC:
    loads: tuple  # vids, aligned with bins
    assigns: tuple  # vids, aligned with sizes
    sizes: tuple
    bins: tuple


@dataclass(frozen=True)
class PackBinC:
    bin_key: int
    load_vid: int
    assigns: tuple
    sizes: tuple
    op: str  # "==" or "!="


TRUE_C = AndC(())
FALSE_C = OrC(())


def ctr_vars(tree, out=None):
    """Set of variable ids occurring anywhere in a ground constraint."""
    if out is None:
        out = set()
    if isinstance(tree, RelAtom):
        gexpr_vars(tree.left, out)
        gexpr_vars(tree.right, out)
    elif isinstance(tree, (AndC, OrC)):
        for it in tree.items:
            ctr_vars(it, out)
    elif isinstance(tree, (AllDiffC, AllMinDistC)):
        for it in tree.items:
            gexpr_vars(it, out)
    elif isinstance(tree, InverseC):
        out.update(tree.f_vids)
        out.update(tree.g_vids)
    elif isinstance(tree, TableC):
        for it in tree.items:
            gexpr_vars(it, out)
    elif isinstance(tree, CountC):
        for it in tree.items:
            gexpr_vars(it, out)
        gexpr_vars(tree.value, out)
        gexpr_vars(tree.rhs, out)
    elif isinstance(tree, PackC):
        out.update(tree.loads)
        out.update(tree.assigns)
    elif isinstance(tree, PackBinC):
        out.add(tree.load_vid)
        out.update(tree.assigns)
    else:
        raise TypeError(f"not a ground constraint: {tree!r}")
    return out


def evaluate_ground(tree, assignment):
    """Truth value of a ground constraint under a full assignment."""
    if isinstance(tree, RelAtom):
        return rel_holds(
            tree.op, eval_gexpr(tree.left, assignment), eval_gexpr(tree.right, assignment)
        )
    if isinstance(tree, AndC):
        return all(evaluate_ground(it, assignment) for it in tree.items)
    if isinstance(tree, OrC):
        return any(evaluate_ground(it, assignment) for it in tree.items)
    if isinstance(tree, AllDiffC):
        vals = [eval_gexpr(it, assignment) for it in tree.items]
        return len(set(vals)) == len(vals)
    if isinstance(tree, AllMinDistC):
        vals = [eval_gexpr(it, assignment) for it in tree.items]
        for i in range(len(vals)):
            for j in range(i + 1, len(vals)):
                if abs(vals[i] - vals[j]) < tree.gap:
                    return False
        return True
    if isinstance(tree, InverseC):
        fmap = dict(zip(tree.f_idx, (assignment[v] for v in tree.f_vids)))
        gmap = dict(zip(tree.g_idx, (assignment[v] for v in tree.g_vids)))
        for i, fv in fmap.items():
            if fv not in gmap or gmap[fv] != i:
                return False
        for j, gv in gmap.items():
            if gv not in fmap or fmap[gv] != j:
                return False
        return True
    if isinstance(tree, TableC):
        point = tuple(eval_gexpr(it, assignment) for it in tree.items)
        hit = point in set(tree.rows)
        return hit if tree.kind == "allowed" else not hit
    if isinstance(tree, CountC):
        want = eval_gexpr(tree.value, assignment)
        cnt = sum(1 for it in tree.items if eval_gexpr(it, assignment) == want)
        return rel_holds(tree.op, cnt, eval_gexpr(tree.rhs, assignment))
    if isinstance(tree, PackC):
        for pos, b in enumerate(tree.bins):
            got = sum(
                tree.sizes[i]
                for i in range(len(tree.assigns))
                if assignment[tree.assigns[i]] == b
            )
            if assignment[tree.loads[pos]] != got:
                return False
        return True
    if isinstance(tree, PackBinC):
        got = sum(
            tree.sizes[i]
            for i in range(len(tree.assigns))
            if assignment[tree.assigns[i]] == tree.bin_key
        )
        return rel_holds(tree.op, assignment[tree.load_vid], got)
    raise TypeError(f"not a ground constraint: {tree!r}")


# The globals that have no complement of their own kind: negate() complements
# them through their expansion, and presolve keys that expansion's leaves.
EXPANDED_GLOBALS = (AllDiffC, AllMinDistC, InverseC, PackC)


def expansion(tree):
    """Rewrite one of EXPANDED_GLOBALS as an And of simpler atoms: pairwise
    disequalities for allDifferent, pairwise distance disjunctions for
    allMinDistance, one Or of channeling pairs per cell for inverse, and one
    PackBinC atom per bin for pack.  The solver also posts it for a global
    it has no propagator for.  TypeError for any other tree.
    """
    if isinstance(tree, AllDiffC):
        out = []
        for i in range(len(tree.items)):
            for j in range(i + 1, len(tree.items)):
                out.append(RelAtom("!=", tree.items[i], tree.items[j]))
        return AndC(tuple(out))
    if isinstance(tree, AllMinDistC):
        out = []
        g = Const(tree.gap)
        for i in range(len(tree.items)):
            for j in range(i + 1, len(tree.items)):
                a, b = tree.items[i], tree.items[j]
                out.append(OrC((RelAtom(">=", mk_diff(a, b), g), RelAtom(">=", mk_diff(b, a), g))))
        return AndC(tuple(out))
    if isinstance(tree, InverseC):
        out = []
        for pos, i in enumerate(tree.f_idx):
            f_i = Var(tree.f_vids[pos])
            alts = []
            for qos, j in enumerate(tree.g_idx):
                alts.append(AndC((RelAtom("==", f_i, Const(j)), RelAtom("==", Var(tree.g_vids[qos]), Const(i)))))
            out.append(OrC(tuple(alts)))
        for qos, j in enumerate(tree.g_idx):
            g_j = Var(tree.g_vids[qos])
            alts = []
            for pos, i in enumerate(tree.f_idx):
                alts.append(AndC((RelAtom("==", g_j, Const(i)), RelAtom("==", Var(tree.f_vids[pos]), Const(j)))))
            out.append(OrC(tuple(alts)))
        return AndC(tuple(out))
    if isinstance(tree, PackC):
        out = []
        for pos, b in enumerate(tree.bins):
            out.append(PackBinC(b, tree.loads[pos], tree.assigns, tree.sizes, "=="))
        return AndC(tuple(out))
    raise TypeError(f"no expansion of {tree!r}")


# ---------------------------------------------------------------------------
# Variable space


class VarSpace:
    """Shared numbering of variables by (array name, index key).

    Scalars use the empty key.  A space can be shared between two ground
    models so that same-named cells get the same id.
    """

    def __init__(self):
        self.keys = []  # vid -> (base, key)
        self.index = {}  # (base, key) -> vid

    def intern(self, base, key):
        k = (base, key)
        vid = self.index.get(k)
        if vid is None:
            vid = len(self.keys)
            self.keys.append(k)
            self.index[k] = vid
        return vid

    def lookup(self, base, key):
        return self.index.get((base, key))

    def pretty(self, vid):
        base, key = self.keys[vid]
        if not key:
            return base
        return f"{base}[{','.join(str(v) for v in key)}]"


def parse_var_name(text):
    """Split a printed variable name like "x[2,5]" into (base, key)."""
    text = text.strip()
    if "[" not in text:
        return text, ()
    if not text.endswith("]"):
        raise UsageError(f"bad variable name {text!r}")
    base, _, rest = text.partition("[")
    try:
        key = tuple(int(part) for part in rest[:-1].split(","))
    except ValueError:
        raise UsageError(f"bad variable name {text!r}") from None
    return base, key


# ---------------------------------------------------------------------------
# Instance building


def _peval(e, instance, env):
    """Evaluate a parameter-only expression to an int."""
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
        v = _peval(e.operand, instance, env)
        return check64(-v)
    if isinstance(e, BinOp):
        a = _peval(e.left, instance, env)
        b = _peval(e.right, instance, env)
        if e.op == "+":
            return add64(a, b)
        if e.op == "-":
            return add64(a, -b)
        if e.op == "*":
            return mul64(a, b)
        return div64(a, b)
    raise GroundingError(f"expression must be parameter-only, found {type(e).__name__}")


def _peval_bool(b, instance, env):
    if isinstance(b, RelChain):
        vals = [_peval(e, instance, env) for e in b.operands]
        return all(rel_holds(op, vals[i], vals[i + 1]) for i, op in enumerate(b.rel_ops))
    if isinstance(b, BoolOp):
        if b.op == "and":
            return all(_peval_bool(it, instance, env) for it in b.items)
        return any(_peval_bool(it, instance, env) for it in b.items)
    if isinstance(b, BoolNot):
        return not _peval_bool(b.item, instance, env)
    raise GroundingError(f"not a boolean expression: {type(b).__name__}")


def _tuple_fields(model, type_name):
    for tt in model.tuple_types:
        if tt.name == type_name:
            return tt.fields
    raise GroundingError(f"unknown tuple type {type_name!r}")


def _param_decl(model, name):
    for p in model.params:
        if p.name == name:
            return p
    return None


def _domain_values(model, instance, env, dom):
    """Values a single binder ranges over, in enumeration order."""
    if isinstance(dom, RangeDom):
        lo = _peval(dom.lo, instance, env)
        hi = _peval(dom.hi, instance, env)
        return list(range(lo, hi + 1))
    p = _param_decl(model, dom.name)
    if p is None:
        raise GroundingError(f"unknown set {dom.name!r}")
    if dom.name not in instance:
        raise GroundingError(f"set {dom.name!r} has no value yet")
    vals = instance[dom.name]
    if p.kind == "intset":
        return list(vals)
    fields = _tuple_fields(model, p.tuple_type)
    return [dict(zip(fields, row)) for row in vals]


def _guard_conjuncts(b):
    """Flatten top-level conjunctions and split chains into pairwise relations."""
    if isinstance(b, BoolOp) and b.op == "and":
        out = []
        for it in b.items:
            out.extend(_guard_conjuncts(it))
        return out
    if isinstance(b, RelChain) and len(b.operands) > 2:
        return [
            RelChain((b.operands[i], b.operands[i + 1]), (op,))
            for i, op in enumerate(b.rel_ops)
        ]
    return [b]


def _join_field(model, dom, conj, name):
    """(f, e) when binder `name` ranges over a tuple set whose rows have field
    f and a guard conjunct reads name.f == e, either way round, with e free of
    name; else None."""
    if isinstance(dom, RangeDom) or not (isinstance(conj, RelChain) and conj.rel_ops == ("==",)):
        return None
    p = _param_decl(model, dom.name)
    fields = next((tt.fields for tt in model.tuple_types if p and tt.name == p.tuple_type), ())
    for side, e in (conj.operands, conj.operands[::-1]):
        if isinstance(side, FieldRef) and side.base == name and name not in names_in(walk_exprs(e)):
            return (side.fieldname, e) if side.fieldname in fields else None
    return None


def iter_bindings(model, instance, binders, env0=None, guard=None):
    """Yield env dicts for all combinations of the binder groups, in order.

    A guard is split into conjuncts, each checked as soon as the binders it
    mentions are bound, so failing combinations are cut before the deeper
    binders are enumerated.  When the first conjunct at a tuple-set binder
    b reads b.f == e, the binder is a join: its set is indexed once per call
    by field f (value -> rows, in set order), and only the rows under e's
    value are enumerated.  The index and its row dicts are shared by every
    binding of the call, so they are read-only, and go when the call ends.
    """
    pairs = [(nm, g.domain) for g in binders for nm in g.names]
    checks = [[] for _ in range(len(pairs) + 1)]
    if guard is not None:
        for conj in _guard_conjuncts(guard):
            names = names_in(walk_bool(conj))
            depth = max((i + 1 for i, (nm, _) in enumerate(pairs) if nm in names), default=0)
            checks[depth].append(conj)
    joins = {k: _join_field(model, dom, checks[k + 1][0], nm)
             for k, (nm, dom) in enumerate(pairs) if checks[k + 1]}
    indexes = {}  # depth -> {field value: rows}, built at the depth's first visit

    def rec(k, env):
        if k == len(pairs):
            yield env
            return
        nm, dom = pairs[k]
        join = joins.get(k)
        if join is None:
            vals, tests = _domain_values(model, instance, env, dom), checks[k + 1]
        else:
            if k not in indexes:
                index = indexes[k] = {}
                for row in _domain_values(model, instance, env, dom):
                    index.setdefault(row[join[0]], []).append(row)
            index = indexes[k]
            vals = index.get(_peval(join[1], instance, env), ()) if index else ()
            tests = checks[k + 1][1:]
        for v in vals:
            child = dict(env)
            child[nm] = v
            if all(_peval_bool(c, instance, child) for c in tests):
                yield from rec(k + 1, child)

    env0 = dict(env0 or {})
    if all(_peval_bool(c, instance, env0) for c in checks[0]):
        yield from rec(0, env0)


def build_instance(model, data=None, overrides=None):
    """Bind parameter values, computing comprehension-defined tuple sets.

    data comes from a data file, overrides from command-line --param entries
    (ints only, taking precedence).  Every `...` parameter must receive a
    value; computed parameters must not.
    """
    merged = dict(data or {})
    for k, v in (overrides or {}).items():
        merged[k] = v
    known = {p.name for p in model.params}
    for k in merged:
        if k not in known:
            raise GroundingError(f"data entry {k!r} does not match any parameter")
    instance = {}
    for p in model.params:
        if p.kind == "tupleset" and p.comp is not None:
            if p.name in merged:
                raise GroundingError(f"parameter {p.name!r} is computed, not data")
            fields = _tuple_fields(model, p.tuple_type)
            rows = []
            seen = set()
            for env in iter_bindings(model, instance, p.comp.binders, guard=p.comp.guard):
                row = tuple(_peval(e, instance, env) for e in p.comp.head.items)
                if row not in seen:
                    seen.add(row)
                    rows.append(row)
            instance[p.name] = tuple(rows)
            continue
        if p.name not in merged:
            raise GroundingError(f"parameter {p.name!r} has no value")
        v = merged[p.name]
        if p.kind == "int":
            if not isinstance(v, int):
                raise GroundingError(f"parameter {p.name!r} expects an integer")
            instance[p.name] = check64(v)
        elif p.kind == "intset":
            if not isinstance(v, list) or any(not isinstance(x, int) for x in v):
                raise GroundingError(f"parameter {p.name!r} expects a set of integers")
            seen = set()
            vals = []
            for x in v:
                check64(x)
                if x not in seen:
                    seen.add(x)
                    vals.append(x)
            instance[p.name] = tuple(vals)
        else:
            fields = _tuple_fields(model, p.tuple_type)
            if not isinstance(v, list) or any(not isinstance(x, tuple) for x in v):
                raise GroundingError(f"parameter {p.name!r} expects a set of tuples")
            seen = set()
            rows = []
            for row in v:
                if len(row) != len(fields):
                    raise GroundingError(
                        f"tuple of arity {len(row)} in {p.name!r}, "
                        f"expected {len(fields)} fields"
                    )
                for x in row:
                    check64(x)
                if row not in seen:
                    seen.add(row)
                    rows.append(row)
            instance[p.name] = tuple(rows)
    return instance


# ---------------------------------------------------------------------------
# Grounding


@dataclass(frozen=True)
class ChannelDef:
    """One firing rule for an auxiliary variable: guard => var == rhs."""

    guard: object  # ground constraint or None
    vid: int
    rhs: object  # ground expression
    label: str


@dataclass(frozen=True)
class GroundCtr:
    label: str
    tree: object


class GroundModel:
    def __init__(self, space, vids, domains, constraints, channel_defs, objective):
        self.space = space
        self.vids = tuple(vids)
        self.domains = dict(domains)  # vid -> (lo, hi)
        self.constraints = tuple(constraints)
        self.channel_defs = tuple(channel_defs)
        self.objective = objective

    def constraint(self, label):
        for c in self.constraints:
            if c.label == label:
                return c
        raise KeyError(label)

    def in_domains(self, assignment):
        for vid in self.vids:
            if vid not in assignment:
                raise EvaluationError(f"variable {self.space.pretty(vid)} is unassigned")
            lo, hi = self.domains[vid]
            if not lo <= assignment[vid] <= hi:
                return False
        return True

    def evaluate(self, assignment):
        """True when every constraint holds (domains are not checked here)."""
        return all(evaluate_ground(c.tree, assignment) for c in self.constraints)

    def evaluate_with_failures(self, assignment):
        """Labels of the constraints violated by the assignment."""
        return [
            c.label for c in self.constraints if not evaluate_ground(c.tree, assignment)
        ]

    def extend_assignment(self, base_assignment):
        """Extend base-variable values to the auxiliaries via channelings.

        Runs the definitions to a fixpoint in declaration order; the first
        rule to define a variable wins.  Returns (assignment, missing_vids)
        where missing_vids lists the variables no definition covered.
        """
        a = dict(base_assignment)
        changed = True
        while changed:
            changed = False
            for cd in self.channel_defs:
                if cd.vid in a:
                    continue
                if cd.guard is not None:
                    if not ctr_vars(cd.guard) <= a.keys():
                        continue
                    if not evaluate_ground(cd.guard, a):
                        continue
                if not gexpr_vars(cd.rhs) <= a.keys():
                    continue
                a[cd.vid] = eval_gexpr(cd.rhs, a)
                changed = True
        missing = [v for v in self.vids if v not in a]
        return a, missing


class _Ctx:
    def __init__(self, model, instance, space, require_existing, deadline):
        self.model = model
        self.instance = instance
        self.space = space
        self.require_existing = require_existing
        self.dvars = {d.name: d for d in model.dvars}
        self.label = None
        self.channeling = False
        self.channel_defs = []
        self.nodes = {}  # ground expression -> the one object equal to it
        self.lowered = {}  # id(AST node) -> (names it mentions, {their values: lowering})
        self.tick = _clock(deadline)

    def share(self, g):
        """The one object of this grounding equal to g, built of shared parts."""
        s = self.nodes.get(g)
        if s is None:
            if isinstance(g, (Sum, Prod)):
                g = type(g)(tuple(map(self.share, g.items)))
            s = self.nodes[g] = g
        return s


def _var_keys(ctx, decl):
    """Index keys of a declared variable, in enumeration order."""
    if decl.index is None:
        return [()]
    values = _domain_values(ctx.model, ctx.instance, {}, decl.index)
    return [tuple(v.values()) if isinstance(v, dict) else (v,) for v in values]


def _intern_var(ctx, base, key):
    vid = ctx.space.lookup(base, key)
    if vid is None:
        if ctx.require_existing:
            name = base if not key else f"{base}[{','.join(map(str, key))}]"
            raise UsageError(
                f"reference model variable {name} has no counterpart in the "
                "program under test"
            )
        vid = ctx.space.intern(base, key)
    return vid


def lower_expr(e, ctx, env):
    """Lower an expression to a shared ground expression, folding constants,
    once per ground() call and values of the names e mentions (a row: its items)."""
    memo = ctx.lowered.get(id(e))
    if memo is None:
        memo = ctx.lowered[id(e)] = (tuple(names_in(walk_exprs(e))), {})
    names, table = memo
    key = tuple(tuple(v.items()) if isinstance(v, dict) else v for v in map(env.get, names))
    g = table.get(key)
    if g is None:
        g = table[key] = ctx.share(_lower(e, ctx, env))
    return g


def _lower(e, ctx, env):
    if isinstance(e, IntLit):
        return Const(check64(e.value))
    if isinstance(e, NameRef):
        if e.name in env:
            v = env[e.name]
            if not isinstance(v, int):
                raise GroundingError(f"binder {e.name!r} is not an integer", ctx.label)
            return Const(v)
        if e.name in ctx.dvars:
            if ctx.dvars[e.name].index is not None:
                raise GroundingError(f"array {e.name!r} used without an index", ctx.label)
            return Var(_intern_var(ctx, e.name, ()))
        return Const(_peval(e, ctx.instance, env))
    if isinstance(e, FieldRef):
        return Const(_peval(e, ctx.instance, env))
    if isinstance(e, IndexedRef):
        if e.name not in ctx.dvars:
            raise GroundingError(f"unknown array {e.name!r}", ctx.label)
        if isinstance(e.index, TupleExpr):
            key = tuple(_peval(it, ctx.instance, env) for it in e.index.items)
        elif isinstance(e.index, NameRef) and isinstance(env.get(e.index.name), dict):
            # a tuple binder names a whole row; its field values are the key
            key = tuple(env[e.index.name].values())
        else:
            key = (_peval(e.index, ctx.instance, env),)
        vid = ctx.space.lookup(e.name, key)
        if vid is None:
            name = f"{e.name}[{','.join(map(str, key))}]"
            raise GroundingError(f"index out of range: {name}", ctx.label)
        return Var(vid)
    if isinstance(e, Neg):
        return mk_prod((Const(-1), _lower(e.operand, ctx, env)))
    if isinstance(e, BinOp):
        a = _lower(e.left, ctx, env)
        b = _lower(e.right, ctx, env)
        if e.op == "+":
            return mk_sum((a, b))
        if e.op == "-":
            return mk_diff(a, b)
        if e.op == "*":
            return mk_prod((a, b))
        if isinstance(a, Const) and isinstance(b, Const):
            return Const(div64(a.value, b.value))
        raise GroundingError("division must be parameter-only", ctx.label)
    raise GroundingError(f"cannot lower {type(e).__name__}", ctx.label)


def _flip_atom(atom, ctx):
    if isinstance(atom, RelAtom):
        return RelAtom(FLIP[atom.op], atom.left, atom.right)
    if isinstance(atom, CountC):
        return CountC(atom.items, atom.value, FLIP[atom.op], atom.rhs)
    raise GroundingError("only relations can appear around =>", ctx.label)


def _maybe_channel_def(ctx, guard, atom):
    """Record var == rhs (under guard) when the atom defines a variable."""
    if not (ctx.channeling and isinstance(atom, RelAtom) and atom.op == "=="):
        return
    left, right = atom.left, atom.right
    if not isinstance(left, Var):
        left, right = right, left
    if not isinstance(left, Var):
        return
    if left.vid in gexpr_vars(right):
        return
    ctx.channel_defs.append(ChannelDef(guard, left.vid, right, ctx.label))


def lower_ctr(ctr, ctx, env):
    """Lower a constraint to its ground tree under the given binder env."""
    if isinstance(ctr, Rel):
        a = lower_expr(ctr.left, ctx, env)
        b = lower_expr(ctr.right, ctx, env)
        if isinstance(a, Const) and isinstance(b, Const):
            return TRUE_C if rel_holds(ctr.op, a.value, b.value) else FALSE_C
        atom = RelAtom(ctr.op, a, b)
        _maybe_channel_def(ctx, None, atom)
        return atom
    if isinstance(ctr, CountCtr):
        items = tuple(_lower_collection(ctr.coll, ctx, env))
        value = lower_expr(ctr.value, ctx, env)
        rhs = lower_expr(ctr.rhs, ctx, env)
        return CountC(items, value, ctr.op, rhs)
    if isinstance(ctr, Implies):
        # the sides are not asserted on their own, keep them out of the
        # channel tables and record the guarded definition instead
        was = ctx.channeling
        ctx.channeling = False
        left = lower_ctr(ctr.left, ctx, env)
        right = lower_ctr(ctr.right, ctx, env)
        ctx.channeling = was
        if isinstance(right, RelAtom) and left is not FALSE_C:
            _maybe_channel_def(ctx, left if left is not TRUE_C else None, right)
        if left is TRUE_C:
            return right
        if left is FALSE_C:
            return TRUE_C
        return OrC((_flip_atom(left, ctx), right))
    if isinstance(ctr, Forall):
        out = []
        for benv in iter_bindings(ctx.model, ctx.instance, ctr.binders, env, ctr.guard):
            ctx.tick()
            out.append(lower_ctr(ctr.body, ctx, benv))
        return AndC(tuple(out))
    if isinstance(ctr, OrAgg):
        out = []
        was = ctx.channeling
        ctx.channeling = False  # a disjunct is not asserted by itself
        for benv in iter_bindings(ctx.model, ctx.instance, ctr.binders, env, ctr.guard):
            ctx.tick()
            out.append(lower_ctr(ctr.body, ctx, benv))
        ctx.channeling = was
        return OrC(tuple(out))
    if isinstance(ctr, IfThenElse):
        branch = ctr.then_ctr if _peval_bool(ctr.cond, ctx.instance, env) else ctr.else_ctr
        return lower_ctr(branch, ctx, env)
    if isinstance(ctr, AllDifferentCtr):
        return AllDiffC(tuple(_lower_collection(ctr.coll, ctx, env)))
    if isinstance(ctr, AllMinDistanceCtr):
        gap = _peval(ctr.gap, ctx.instance, env)
        return AllMinDistC(tuple(_lower_collection(ctr.coll, ctx, env)), gap)
    if isinstance(ctr, InverseCtr):
        f_idx, f_vids = _int_array(ctx, ctr.f)
        g_idx, g_vids = _int_array(ctx, ctr.g)
        return InverseC(tuple(f_vids), tuple(g_vids), tuple(f_idx), tuple(g_idx))
    if isinstance(ctr, TableCtr):
        items = tuple(lower_expr(e, ctx, env) for e in ctr.exprs.items)
        rows = ctx.instance[ctr.table]
        for row in rows:
            if len(row) != len(items):
                raise GroundingError(
                    f"table {ctr.table!r} rows have arity {len(row)}, "
                    f"constraint uses {len(items)}",
                    ctx.label,
                )
        return TableC(ctr.kind, items, tuple(rows))
    if isinstance(ctr, PackCtr):
        bins, loads = _int_array(ctx, ctr.load)
        item_keys, assigns = _int_array(ctx, ctr.assign)
        weight_rows = ctx.instance[ctr.weights]
        wmap = {}
        for row in weight_rows:
            if len(row) != 2:
                raise GroundingError(
                    f"weight set {ctr.weights!r} must hold <item, size> pairs", ctx.label
                )
            wmap.setdefault(row[0], row[1])
        sizes = []
        for k in item_keys:
            if k not in wmap:
                raise GroundingError(f"no weight for item {k} in {ctr.weights!r}", ctx.label)
            sizes.append(wmap[k])
        return PackC(tuple(loads), tuple(assigns), tuple(sizes), tuple(bins))
    raise GroundingError(f"cannot ground {type(ctr).__name__}", ctx.label)


def _lower_collection(coll, ctx, env):
    out = []
    for benv in iter_bindings(ctx.model, ctx.instance, coll.binders, env, coll.guard):
        out.append(lower_expr(coll.elem, ctx, benv))
    return out


def _int_array(ctx, name):
    """Keys and vids of a one-dimensional, int-indexed dvar array."""
    d = ctx.dvars.get(name)
    if d is None or d.index is None:
        raise GroundingError(f"{name!r} is not a dvar array", ctx.label)
    keys = _var_keys(ctx, d)
    idx = []
    vids = []
    for key in keys:
        if len(key) != 1:
            raise GroundingError(f"array {name!r} must be indexed by integers", ctx.label)
        vid = ctx.space.lookup(name, key)
        if vid is None:
            raise GroundingError(f"array {name!r} cell missing", ctx.label)
        idx.append(key[0])
        vids.append(vid)
    return idx, vids


def ground(model, instance, space=None, require_existing=False, deadline=None):
    """Ground a model against an instance into a GroundModel.

    With require_existing=True every variable must already be present in the
    shared space (used for the reference model after the program under test
    has claimed the numbering).  Raises TimeoutError past `deadline`.
    """
    if space is None:
        space = VarSpace()
    ctx = _Ctx(model, instance, space, require_existing, deadline)
    vids = []
    domains = {}
    for d in model.dvars:
        lo = _peval(d.lo, instance, {})
        hi = _peval(d.hi, instance, {})
        if lo > hi:
            raise GroundingError(f"empty domain {lo}..{hi} for {d.name!r}")
        for key in _var_keys(ctx, d):
            vid = _intern_var(ctx, d.name, key)
            vids.append(vid)
            domains[vid] = (lo, hi)
    constraints = []
    for lc in model.constraints:
        ctx.label = lc.label
        ctx.channeling = lc.channeling
        tree = lower_ctr(lc.ctr, ctx, {})
        constraints.append(GroundCtr(lc.label, tree))
    ctx.label = None
    ctx.channeling = False
    objective = None
    if model.objective is not None:
        objective = lower_expr(model.objective.expr, ctx, {})
    return GroundModel(space, vids, domains, constraints, ctx.channel_defs, objective)
