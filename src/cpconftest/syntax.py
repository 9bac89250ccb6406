"""Abstract syntax for the modeling language.

Every node carries the source span it was parsed from; spans are excluded
from structural equality so that parse(pretty_print(m)) == m holds.
"""

from dataclasses import dataclass, field
from typing import Optional, Union


@dataclass(frozen=True)
class Span:
    start: int = 0
    end: int = 0
    line: int = 0
    col: int = 0


def _span_field():
    return field(default=Span(), compare=False, repr=False)


# ---------------------------------------------------------------------------
# Arithmetic expressions


@dataclass(frozen=True)
class IntLit:
    value: int
    span: Span = _span_field()


@dataclass(frozen=True)
class NameRef:
    """A bare identifier: parameter, binder, or scalar decision variable."""

    name: str
    span: Span = _span_field()


@dataclass(frozen=True)
class FieldRef:
    """Field access on a tuple binder, e.g. ind.i"""

    base: str
    fieldname: str
    span: Span = _span_field()


@dataclass(frozen=True)
class TupleExpr:
    """A tuple literal <e1, e2, ...>, used as an array index or table row."""

    items: tuple
    span: Span = _span_field()


@dataclass(frozen=True)
class IndexedRef:
    """Array access: name[expr] or name[<e1,e2>]."""

    name: str
    index: Union["Expr", TupleExpr]
    span: Span = _span_field()


@dataclass(frozen=True)
class BinOp:
    op: str  # + - * /
    left: "Expr"
    right: "Expr"
    span: Span = _span_field()


@dataclass(frozen=True)
class Neg:
    operand: "Expr"
    span: Span = _span_field()


Expr = Union[IntLit, NameRef, FieldRef, IndexedRef, BinOp, Neg]


# ---------------------------------------------------------------------------
# Boolean expressions (binder guards and if conditions; never over dvars)


@dataclass(frozen=True)
class RelChain:
    """a < b <= c ... : a conjunction of pairwise comparisons."""

    operands: tuple
    rel_ops: tuple
    span: Span = _span_field()


@dataclass(frozen=True)
class BoolOp:
    op: str  # "and" | "or"
    items: tuple
    span: Span = _span_field()


@dataclass(frozen=True)
class BoolNot:
    item: "BoolExpr"
    span: Span = _span_field()


BoolExpr = Union[RelChain, BoolOp, BoolNot]


# ---------------------------------------------------------------------------
# Binders and collections


@dataclass(frozen=True)
class RangeDom:
    lo: Expr
    hi: Expr
    span: Span = _span_field()


@dataclass(frozen=True)
class SetDom:
    """A named int set or tuple set used as a binder domain."""

    name: str
    span: Span = _span_field()


@dataclass(frozen=True)
class BinderGroup:
    names: tuple
    domain: Union[RangeDom, SetDom]
    span: Span = _span_field()


@dataclass(frozen=True)
class Collection:
    """all(binders : guard) expr"""

    binders: tuple
    guard: Optional[BoolExpr]
    elem: Expr
    span: Span = _span_field()


# ---------------------------------------------------------------------------
# Constraints


@dataclass(frozen=True)
class Rel:
    op: str
    left: Expr
    right: Expr
    span: Span = _span_field()


@dataclass(frozen=True)
class CountCtr:
    """count(all(...) e, value) op rhs"""

    coll: Collection
    value: Expr
    op: str
    rhs: Expr
    span: Span = _span_field()


@dataclass(frozen=True)
class Implies:
    left: Union[Rel, CountCtr]
    right: Union[Rel, CountCtr]
    span: Span = _span_field()


@dataclass(frozen=True)
class Forall:
    binders: tuple
    guard: Optional[BoolExpr]
    body: "Constraint"
    span: Span = _span_field()


@dataclass(frozen=True)
class OrAgg:
    """or(binders : guard) body -- a disjunction over an index set."""

    binders: tuple
    guard: Optional[BoolExpr]
    body: "Constraint"
    span: Span = _span_field()


@dataclass(frozen=True)
class IfThenElse:
    cond: BoolExpr
    then_ctr: "Constraint"
    else_ctr: "Constraint"
    span: Span = _span_field()


@dataclass(frozen=True)
class AllDifferentCtr:
    coll: Collection
    span: Span = _span_field()


@dataclass(frozen=True)
class AllMinDistanceCtr:
    coll: Collection
    gap: Expr
    span: Span = _span_field()


@dataclass(frozen=True)
class InverseCtr:
    f: str
    g: str
    span: Span = _span_field()


@dataclass(frozen=True)
class TableCtr:
    kind: str  # "allowed" | "forbidden"
    exprs: TupleExpr
    table: str
    span: Span = _span_field()


@dataclass(frozen=True)
class PackCtr:
    load: str
    assign: str
    weights: str
    span: Span = _span_field()


Constraint = Union[
    Rel,
    CountCtr,
    Implies,
    Forall,
    OrAgg,
    IfThenElse,
    AllDifferentCtr,
    AllMinDistanceCtr,
    InverseCtr,
    TableCtr,
    PackCtr,
]


# ---------------------------------------------------------------------------
# Declarations


@dataclass(frozen=True)
class TupleTypeDecl:
    name: str
    fields: tuple
    span: Span = _span_field()


@dataclass(frozen=True)
class SetComprehension:
    head: TupleExpr
    binders: tuple
    guard: Optional[BoolExpr]
    span: Span = _span_field()


@dataclass(frozen=True)
class ParamDecl:
    """A parameter declaration.

    kind is "int", "intset" or "tupleset"; tuple_type names the row type of
    a tuple set.  comp is the defining comprehension for derived tuple sets;
    when comp is None the value comes from instance data.
    """

    name: str
    kind: str
    tuple_type: Optional[str] = None
    comp: Optional[SetComprehension] = None
    span: Span = _span_field()


@dataclass(frozen=True)
class DvarDecl:
    name: str
    index: Optional[Union[RangeDom, SetDom]]
    lo: Expr = None
    hi: Expr = None
    span: Span = _span_field()


@dataclass(frozen=True)
class Objective:
    expr: Expr
    span: Span = _span_field()


@dataclass(frozen=True)
class LabeledConstraint:
    label: str
    ctr: Constraint
    channeling: bool = False
    span: Span = _span_field()


@dataclass(frozen=True)
class ModelAst:
    params: tuple
    tuple_types: tuple
    dvars: tuple
    objective: Optional[Objective]
    constraints: tuple


# ---------------------------------------------------------------------------
# Walks


def walk_exprs(node):
    """Yield every arithmetic sub-expression of an expression node."""
    yield node
    if isinstance(node, BinOp):
        yield from walk_exprs(node.left)
        yield from walk_exprs(node.right)
    elif isinstance(node, Neg):
        yield from walk_exprs(node.operand)
    elif isinstance(node, IndexedRef):
        if isinstance(node.index, TupleExpr):
            for it in node.index.items:
                yield from walk_exprs(it)
        else:
            yield from walk_exprs(node.index)
    elif isinstance(node, TupleExpr):
        for it in node.items:
            yield from walk_exprs(it)


def walk_bool(node):
    """Yield every arithmetic sub-expression of a boolean expression node."""
    if isinstance(node, RelChain):
        for e in node.operands:
            yield from walk_exprs(e)
    elif isinstance(node, BoolOp):
        for it in node.items:
            yield from walk_bool(it)
    elif isinstance(node, BoolNot):
        yield from walk_bool(node.item)


def names_in(exprs):
    """Names the expressions read: bare identifiers and tuple binders."""
    return {e.name if isinstance(e, NameRef) else e.base for e in exprs
            if isinstance(e, (NameRef, FieldRef))}
