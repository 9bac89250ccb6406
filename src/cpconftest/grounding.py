"""Instance binding and grounding of models to flat constraint trees.

A parsed model plus concrete parameter values yields a GroundModel: a fixed
set of integer variables (one per array cell), one ground constraint tree per
source label, an optional objective expression, and the channeling
definitions extracted from constraints marked @channeling.

Ground expressions are Const / Var / Sum / Prod over exact integers; a
literal or a data value outside 64 bits is rejected as input.  Subtraction
lowers to Sum(a, Prod(-1, b)); division must fold to a constant at grounding
time.  Equal ground expressions of one ground() call are one object,
through a table dropped when the call returns, so what is kept on one
(transform.poly_of) is computed once per model and lives as long as it.
Grounding costs what it keeps.  iter_bindings compiles each guard conjunct
once per call into a closure, and serves a binder by its access path: the
rows of a tuple set under equalities b.f == e from an index by those
fields, or the values of a range under b op e cut to those it allows.
lower_expr lowers an expression once per ground() call and values of the
binder names it mentions.  Each table goes with its call.  Ground
constraints are relational atoms plus And / Or trees and a handful of
global atoms (table, count, one bin of a pack) that keep enough structure
for propagation and a complement of their own.  The other globals
ground to their decompositions in the Global Constraint Catalog:
allDifferent to a disequality per pair of items, allMinDistance to a
distance disjunction per pair, inverse to a channeling disjunction per array
cell and pack to one bin atom per bin; the solver recognises the first and
the last when they are posted.  An empty And is TRUE, an empty Or is FALSE.

_lower lowers the nodes that can name a decision variable (a scalar dvar,
an array cell, unary minus, + - * /); _compile reads every other node, a
literal, binder, parameter or field.  An error raised while a constraint is
grounded names it: ground() puts the constraint's label in front.

Channeling definitions drive extend_assignment: given values for the base
variables, auxiliary variables are filled in by running the definitions to a
fixpoint in declaration order (first writer wins).  It also returns the
variables still undefined, so callers can fall back to search for them.
"""

import itertools
import operator
import time
from dataclasses import dataclass
from math import inf

from .errors import EvaluationError, GroundingError, UsageError
from .ops import FLIP, MIRROR, RELATIONS, check64, div_trunc, rel_holds
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
                const += r.value
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
                const *= r.value
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
            acc += eval_gexpr(it, assignment)
        return acc
    if isinstance(e, Prod):
        acc = 1
        for it in e.items:
            acc *= eval_gexpr(it, assignment)
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
    elif isinstance(tree, TableC):
        for it in tree.items:
            gexpr_vars(it, out)
    elif isinstance(tree, CountC):
        for it in tree.items:
            gexpr_vars(it, out)
        gexpr_vars(tree.value, out)
        gexpr_vars(tree.rhs, out)
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
    if isinstance(tree, TableC):
        point = tuple(eval_gexpr(it, assignment) for it in tree.items)
        hit = point in set(tree.rows)
        return hit if tree.kind == "allowed" else not hit
    if isinstance(tree, CountC):
        want = eval_gexpr(tree.value, assignment)
        cnt = sum(1 for it in tree.items if eval_gexpr(it, assignment) == want)
        return rel_holds(tree.op, cnt, eval_gexpr(tree.rhs, assignment))
    if isinstance(tree, PackBinC):
        got = sum(
            tree.sizes[i]
            for i in range(len(tree.assigns))
            if assignment[tree.assigns[i]] == tree.bin_key
        )
        return rel_holds(tree.op, assignment[tree.load_vid], got)
    raise TypeError(f"not a ground constraint: {tree!r}")


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


_ARITH = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": div_trunc}


def _fail(text):  # a closure that raises when called, not when compiled
    def raise_(env):
        raise GroundingError(text)
    return raise_


def _compile(e, instance):
    """A closure env -> int for a parameter-only expression (names: env first)."""
    if isinstance(e, IntLit):
        return lambda env, v=e.value: check64(v)
    if isinstance(e, NameRef):
        def ref(env, name=e.name):
            v = env[name] if name in env else instance.get(name, ref)
            if isinstance(v, int):
                return v
            raise GroundingError(f"binder {name!r} is not an integer" if name in env else
                                 f"{name!r} is not a parameter or binder" if v is ref else
                                 f"set parameter {name!r} used as an integer")
        return ref
    if isinstance(e, FieldRef):
        def field(env, base=e.base, fieldname=e.fieldname):
            row = env.get(base)
            if isinstance(row, dict) and fieldname in row:
                return row[fieldname]
            raise GroundingError(f"tuple binder {base!r} has no field {fieldname!r}"
                                 if isinstance(row, dict) else f"{base!r} is not a tuple binder")
        return field
    if isinstance(e, Neg):
        f = _compile(e.operand, instance)
        return lambda env: -f(env)
    if isinstance(e, BinOp):
        op, a, b = _ARITH[e.op], _compile(e.left, instance), _compile(e.right, instance)
        return lambda env: op(a(env), b(env))
    return _fail(f"expression must be parameter-only, found {type(e).__name__}")


def _compile_bool(b, instance):
    """A closure env -> bool; a chain evaluates all its operands, then compares."""
    if isinstance(b, RelChain):
        fs, ops = [_compile(e, instance) for e in b.operands], [RELATIONS[op] for op in b.rel_ops]
        if len(fs) == 2:  # most guards; about a fifth of the Golomb models' grounding
            (x, y), (op,) = fs, ops
            return lambda env: op(x(env), y(env))

        def chain(env):
            vals = [f(env) for f in fs]
            return all(op(u, v) for op, u, v in zip(ops, vals, vals[1:]))
        return chain
    if isinstance(b, BoolOp):  # loops, one frame a level, so a guard nested MAX_NESTING deep grounds
        fs, stop = [], b.op == "or"  # stop: an item value that decides the whole
        for it in b.items:
            fs.append(_compile_bool(it, instance))

        def decide(env):
            for f in fs:
                if f(env) == stop:
                    return stop
            return not stop
        return decide
    if isinstance(b, BoolNot):
        f = _compile_bool(b.item, instance)
        return lambda env: not f(env)
    return _fail(f"not a boolean expression: {type(b).__name__}")


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


class Row(dict):
    """A tuple binder's value: never written to, so hashed by its items."""
    def __hash__(self):
        return hash(tuple(self.items()))


def _domain_values(model, instance, env, dom):
    """Values a single binder ranges over, in enumeration order."""
    if isinstance(dom, RangeDom):
        return range(_compile(dom.lo, instance)(env), _compile(dom.hi, instance)(env) + 1)
    p = _param_decl(model, dom.name)
    if p is None:
        raise GroundingError(f"unknown set {dom.name!r}")
    if dom.name not in instance:
        raise GroundingError(f"set {dom.name!r} has no value yet")
    vals = instance[dom.name]
    if p.kind == "intset":
        return list(vals)
    fields = _tuple_fields(model, p.tuple_type)
    return [Row(zip(fields, row)) for row in vals]


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


# b op c keeps the values of b in c + lo .. c + hi
_RANGE_CUT = {"<": (-inf, -1), "<=": (-inf, 0), "==": (0, 0), ">=": (0, inf), ">": (1, inf)}


def _range_cut(conj, name):
    """(lo, hi, e) when conj reads name op e, either way round, with op in
    _RANGE_CUT as (lo, hi) and e free of name; else None."""
    if isinstance(conj, RelChain) and conj.rel_ops[0] in _RANGE_CUT:
        (a, b), op = conj.operands, conj.rel_ops[0]
        for side, e, o in ((a, b, op), (b, a, MIRROR[op])):
            if side == NameRef(name) and name not in names_in(walk_exprs(e)):
                return _RANGE_CUT[o] + (e,)
    return None


def _access_path(model, instance, nm, dom, conjs):
    """A closure env -> (values of binder nm, n): each value satisfies the
    first n of conjs, the conjuncts placed at nm's depth, in order."""
    joins = list(itertools.takewhile(bool, (_join_field(model, dom, c, nm) for c in conjs)))
    if joins:  # rows by the tuple of their join fields, and by each prefix of it
        fields, keys, index = [f for f, _ in joins], [_compile(e, instance) for _, e in joins], {}

        def joined(env):
            if not index:
                for row in _domain_values(model, instance, env, dom):
                    for n in range(len(fields) + 1):
                        index.setdefault(tuple(row[f] for f in fields[:n]), []).append(row)
            at = ()
            for key in keys:  # evaluated only if some row matches the keys before it
                if at not in index:
                    return (), 0
                at += (key(env),)
            return index.get(at, ()), len(keys)
        return joined
    if not isinstance(dom, RangeDom):
        return lambda env: (_domain_values(model, instance, env, dom), 0)
    lo, hi = _compile(dom.lo, instance), _compile(dom.hi, instance)
    cuts = [(a, b, _compile(e, instance))
            for a, b, e in itertools.takewhile(bool, (_range_cut(c, nm) for c in conjs))]

    def narrowed(env):
        vals = range(lo(env), hi(env) + 1)
        for n, (a, b, bound) in enumerate(cuts):
            try:
                c = bound(env)
            except (GroundingError, EvaluationError):
                return vals, n  # left to filter, which raises the same error
            vals = range(max(vals.start, c + a), min(vals.stop, c + b + 1))  # inf never wins
        return vals, len(cuts)
    return narrowed


def iter_bindings(model, instance, binders, env0=None, guard=None):
    """Yield env dicts for all combinations of the binder groups, in order.

    A guard is split into conjuncts, each compiled once per call and checked
    as soon as the binders it mentions are bound.  The access path of a
    binder b serves the leading conjuncts at its depth: under b.f == e ...
    (see _join_field), b's tuple set is indexed once per call by those
    fields, and only the rows under the e's values are enumerated (row dicts
    are shared, so read-only); under b op e ... (see _range_cut), b's range
    is cut by each e that evaluates, and one that raises is left to filter,
    which raises the same error at the same point.  The rest filter.
    """
    pairs = [(nm, g.domain) for g in binders for nm in g.names]
    checks = [[] for _ in range(len(pairs) + 1)]
    if guard is not None:
        for conj in _guard_conjuncts(guard):
            names = names_in(walk_exprs(conj))
            depth = max((i + 1 for i, (nm, _) in enumerate(pairs) if nm in names), default=0)
            checks[depth].append(conj)
    paths = [_access_path(model, instance, nm, dom, checks[k + 1]) for k, (nm, dom) in enumerate(pairs)]
    tests = [[_compile_bool(c, instance) for c in cs] for cs in checks]

    def rec(k, env):
        if k == len(pairs):
            yield env
            return
        vals, served = paths[k](env)
        nm, left = pairs[k][0], tests[k + 1][served:]
        for v in vals:
            child = dict(env)
            child[nm] = v
            for test in left:
                if not test(child):
                    break
            else:
                yield from rec(k + 1, child)

    env0 = dict(env0 or {})
    if all(test(env0) for test in tests[0]):
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
            head = [_compile(e, instance) for e in p.comp.head.items]
            bindings = iter_bindings(model, instance, p.comp.binders, guard=p.comp.guard)
            instance[p.name] = tuple(dict.fromkeys(tuple(item(env) for item in head) for env in bindings))
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
            instance[p.name] = tuple(dict.fromkeys(map(check64, v)))
        else:
            fields = _tuple_fields(model, p.tuple_type)
            if not isinstance(v, list) or any(not isinstance(x, tuple) for x in v):
                raise GroundingError(f"parameter {p.name!r} expects a set of tuples")
            for row in v:
                if len(row) != len(fields):
                    raise GroundingError(
                        f"tuple of arity {len(row)} in {p.name!r}, "
                        f"expected {len(fields)} fields"
                    )
                for x in row:
                    check64(x)
            instance[p.name] = tuple(dict.fromkeys(v))
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
    once per ground() call and values of the names e mentions."""
    memo = ctx.lowered.get(id(e))
    if memo is None:
        memo = ctx.lowered[id(e)] = (tuple(names_in(walk_exprs(e))), {})
    names, table = memo
    key = tuple(map(env.get, names))
    g = table.get(key)
    if g is None:
        g = table[key] = ctx.share(_lower(e, ctx, env))
    return g


def _lower(e, ctx, env):
    """The nodes that can name a decision variable; _compile reads the rest."""
    if isinstance(e, NameRef) and e.name not in env and e.name in ctx.dvars:
        if ctx.dvars[e.name].index is not None:
            raise GroundingError(f"array {e.name!r} used without an index")
        return Var(_intern_var(ctx, e.name, ()))
    if isinstance(e, IndexedRef):
        if e.name not in ctx.dvars:
            raise GroundingError(f"unknown array {e.name!r}")
        if isinstance(e.index, TupleExpr):
            key = tuple(_compile(it, ctx.instance)(env) for it in e.index.items)
        elif isinstance(e.index, NameRef) and isinstance(env.get(e.index.name), dict):
            # a tuple binder names a whole row; its field values are the key
            key = tuple(env[e.index.name].values())
        else:
            key = (_compile(e.index, ctx.instance)(env),)
        vid = ctx.space.lookup(e.name, key)
        if vid is None:
            name = f"{e.name}[{','.join(map(str, key))}]"
            raise GroundingError(f"index out of range: {name}")
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
            return Const(div_trunc(a.value, b.value))
        raise GroundingError("division must be parameter-only")
    return Const(_compile(e, ctx.instance)(env))


def _flip_atom(atom):
    if isinstance(atom, RelAtom):
        return RelAtom(FLIP[atom.op], atom.left, atom.right)
    if isinstance(atom, CountC):
        return CountC(atom.items, atom.value, FLIP[atom.op], atom.rhs)
    raise GroundingError("only relations can appear around =>")


def _maybe_channel_def(ctx, guard, atom, label):
    """Record var == rhs (under guard) for constraint `label` when the
    relational atom defines a variable."""
    if atom.op != "==":
        return
    left, right = atom.left, atom.right
    if not isinstance(left, Var):
        left, right = right, left
    if not isinstance(left, Var):
        return
    if left.vid in gexpr_vars(right):
        return
    ctx.channel_defs.append(ChannelDef(guard, left.vid, right, label))


def lower_ctr(ctr, ctx, env, channeling=None):
    """Lower a constraint to its ground tree under the given binder env.
    Under `channeling`, the label of a constraint marked @channeling, an
    asserted `var == rhs` is recorded as a channel definition of that
    label, guarded when it is an implication's right side."""
    if isinstance(ctr, Rel):
        a = lower_expr(ctr.left, ctx, env)
        b = lower_expr(ctr.right, ctx, env)
        if isinstance(a, Const) and isinstance(b, Const):
            return TRUE_C if rel_holds(ctr.op, a.value, b.value) else FALSE_C
        atom = RelAtom(ctr.op, a, b)
        if channeling:
            _maybe_channel_def(ctx, None, atom, channeling)
        return atom
    if isinstance(ctr, CountCtr):
        items = tuple(_lower_collection(ctr.coll, ctx, env))
        value = lower_expr(ctr.value, ctx, env)
        rhs = lower_expr(ctr.rhs, ctx, env)
        return CountC(items, value, ctr.op, rhs)
    if isinstance(ctr, Implies):
        # the sides are not asserted on their own: record the guarded
        # definition instead
        left = lower_ctr(ctr.left, ctx, env)
        right = lower_ctr(ctr.right, ctx, env)
        if channeling and isinstance(right, RelAtom) and left is not FALSE_C:
            _maybe_channel_def(ctx, left if left is not TRUE_C else None, right, channeling)
        if left is TRUE_C:
            return right
        if left is FALSE_C:
            return TRUE_C
        return OrC((_flip_atom(left), right))
    if isinstance(ctr, (Forall, OrAgg)):
        forall = isinstance(ctr, Forall)  # a disjunct is not asserted by itself
        out = []
        for benv in iter_bindings(ctx.model, ctx.instance, ctr.binders, env, ctr.guard):
            ctx.tick()
            out.append(lower_ctr(ctr.body, ctx, benv, channeling if forall else None))
        return (AndC if forall else OrC)(tuple(out))
    if isinstance(ctr, IfThenElse):
        branch = ctr.then_ctr if _compile_bool(ctr.cond, ctx.instance)(env) else ctr.else_ctr
        return lower_ctr(branch, ctx, env, channeling)
    if isinstance(ctr, AllDifferentCtr):
        items = _lower_collection(ctr.coll, ctx, env)
        return AndC(tuple(RelAtom("!=", a, b) for a, b in _pairs(ctx, items)))
    if isinstance(ctr, AllMinDistanceCtr):
        # |a - b| >= gap for every pair i < j: a - b >= gap or b - a >= gap
        gap = _compile(ctr.gap, ctx.instance)(env)
        items = _lower_collection(ctr.coll, ctx, env)
        if gap <= 0 or len(items) < 2:
            return TRUE_C
        g = ctx.share(Const(gap))
        return AndC(tuple(OrC((RelAtom(">=", ctx.share(mk_diff(a, b)), g),
                               RelAtom(">=", ctx.share(mk_diff(b, a)), g)))
                          for a, b in _pairs(ctx, items)))
    if isinstance(ctr, InverseCtr):
        f, g = _int_array(ctx, ctr.f), _int_array(ctx, ctr.g)
        return AndC(tuple(_inverse_cells(ctx, f, g) + _inverse_cells(ctx, g, f)))
    if isinstance(ctr, TableCtr):
        items = tuple(lower_expr(e, ctx, env) for e in ctr.exprs.items)
        rows = ctx.instance[ctr.table]
        for row in rows:
            if len(row) != len(items):
                raise GroundingError(f"table {ctr.table!r} rows have arity {len(row)}, "
                                     f"constraint uses {len(items)}")
        return TableC(ctr.kind, items, tuple(rows))
    if isinstance(ctr, PackCtr):
        bins, loads = _int_array(ctx, ctr.load)
        item_keys, assigns = _int_array(ctx, ctr.assign)
        weight_rows = ctx.instance[ctr.weights]
        wmap = {}
        for row in weight_rows:
            if len(row) != 2:
                raise GroundingError(f"weight set {ctr.weights!r} must hold <item, size> pairs")
            wmap.setdefault(row[0], row[1])
        sizes = []
        for k in item_keys:
            if k not in wmap:
                raise GroundingError(f"no weight for item {k} in {ctr.weights!r}")
            sizes.append(wmap[k])
        assigns, sizes = tuple(assigns), tuple(sizes)
        return AndC(tuple(PackBinC(b, load, assigns, sizes, "==") for b, load in zip(bins, loads)))
    raise GroundingError(f"cannot ground {type(ctr).__name__}")


def _lower_collection(coll, ctx, env):
    out = []
    for benv in iter_bindings(ctx.model, ctx.instance, coll.binders, env, coll.guard):
        out.append(lower_expr(coll.elem, ctx, benv))
    return out


def _pairs(ctx, items):
    """Every pair (a, b) of items at positions i < j, in order, with one
    look at the deadline per pair."""
    for i, a in enumerate(items):
        for b in items[i + 1:]:
            ctx.tick()
            yield a, b


def _inverse_cells(ctx, f, g):
    """One Or per cell i of f, over the indices j of g: f[i] == j and g[j] == i."""
    out = []
    for i, f_vid in zip(*f):
        ctx.tick()
        f_i, at_i = ctx.share(Var(f_vid)), ctx.share(Const(i))
        out.append(OrC(tuple(
            AndC((RelAtom("==", f_i, ctx.share(Const(j))), RelAtom("==", ctx.share(Var(g_vid)), at_i)))
            for j, g_vid in zip(*g)
        )))
    return out


def _int_array(ctx, name):
    """Keys and vids of a one-dimensional, int-indexed dvar array."""
    d = ctx.dvars.get(name)
    if d is None or d.index is None:
        raise GroundingError(f"{name!r} is not a dvar array")
    keys = _var_keys(ctx, d)
    idx = []
    vids = []
    for key in keys:
        if len(key) != 1:
            raise GroundingError(f"array {name!r} must be indexed by integers")
        vid = ctx.space.lookup(name, key)
        if vid is None:
            raise GroundingError(f"array {name!r} cell missing")
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
        lo, hi = _compile(d.lo, instance)({}), _compile(d.hi, instance)({})
        if lo > hi:
            raise GroundingError(f"empty domain {lo}..{hi} for {d.name!r}")
        for key in _var_keys(ctx, d):
            vid = _intern_var(ctx, d.name, key)
            vids.append(vid)
            domains[vid] = (lo, hi)
    constraints = []
    for lc in model.constraints:
        try:
            tree = lower_ctr(lc.ctr, ctx, {}, lc.label if lc.channeling else None)
        except GroundingError as exc:  # named by the constraint it came from
            raise GroundingError(str(exc), lc.label) from exc
        constraints.append(GroundCtr(lc.label, tree))
    objective = None
    if model.objective is not None:
        objective = lower_expr(model.objective.expr, ctx, {})
    return GroundModel(space, vids, domains, constraints, ctx.channel_defs, objective)
