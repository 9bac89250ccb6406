"""Parser and pretty printer for .cpm model files.

The grammar is a small declarative constraint language:

    model      := decl* "subject" "to" "{" labeledCtr* "}"
    decl       := "int" ID "=" "..." ";"
                | "{" "int" "}" ID "=" "..." ";"
                | "tuple" ID "{" ("int" ID ";")+ "}"
                | "{" ID "}" ID "=" ("..." | comprehension) ";"
                | "dvar" "int" ID ("[" (expr ".." expr | ID) "]")?
                      ("in" expr ".." expr)? ";"
                | "minimize" expr ";"
    labeledCtr := ID ":" ctr ";" ("@channeling")?

Constraints cover relations, rel => rel implications, forall/or aggregation,
parameter-only if/else, count, allDifferent, allMinDistance, inverse,
allowedAssignments/forbiddenAssignments and pack.  A relation between
decision-variable expressions takes a single comparison operator.  "..."
marks data supplied per instance, never inline.  Comments run from // to end
of line.  The lexer is one regular expression.

Expressions follow one precedence table, loosest first (_GRAMMAR):

    ||                  n-ary               conditions -> condition
    &&                  n-ary               conditions -> condition
    !                   prefix              condition -> condition
    == != < <= > >=     chain: a < b <= c   arithmetic -> condition
    + -                 left-associative    arithmetic -> arithmetic
    * /                 left-associative    arithmetic -> arithmetic
    -                   prefix              arithmetic -> arithmetic
    atoms: integer, name, name.field, name[expr], name[<expr, ...>], (expr)

A condition (a binder guard or an if condition) enters the table at its
top; every other expression enters at + -, so it holds no comparison, and
the > that closes <i, j> ends the tuple.  Parentheses hold a condition or
arithmetic where a condition may start, and arithmetic elsewhere.  Brackets
and prefix operators nest at most MAX_NESTING deep.
"""

import re

from .errors import ParseError
from .ops import MIRROR
from .syntax import (
    AllDifferentCtr,
    AllMinDistanceCtr,
    BinderGroup,
    BinOp,
    BoolNot,
    BoolOp,
    Collection,
    CountCtr,
    DvarDecl,
    FieldRef,
    Forall,
    IfThenElse,
    Implies,
    IndexedRef,
    IntLit,
    InverseCtr,
    LabeledConstraint,
    ModelAst,
    NameRef,
    Neg,
    Objective,
    OrAgg,
    PackCtr,
    ParamDecl,
    RangeDom,
    Rel,
    RelChain,
    SetComprehension,
    SetDom,
    Span,
    TableCtr,
    TupleExpr,
    TupleTypeDecl,
    operands,
    walk_exprs,
)

RESERVED = {
    "int",
    "dvar",
    "tuple",
    "in",
    "minimize",
    "subject",
    "to",
    "forall",
    "or",
    "if",
    "else",
    "all",
    "count",
    "allDifferent",
    "allMinDistance",
    "inverse",
    "allowedAssignments",
    "forbiddenAssignments",
    "pack",
}

REL_TOKENS = ("==", "!=", "<", "<=", ">", ">=")
MAX_NESTING = 256  # brackets and prefix operators one expression may nest


# The expression grammar of the module docstring: one row of operators per
# precedence level, loosest first.
_GRAMMAR = (("||",), ("&&",), ("!",), REL_TOKENS, ("+", "-"), ("*", "/"), ("-",))
_OR, _AND, _NOT, _REL, _ADD, _MUL, _NEG, _ATOM = range(len(_GRAMMAR) + 1)
_PREFIX = {_GRAMMAR[lvl][0]: lvl for lvl in (_NOT, _NEG)}
_INFIX = {op: lvl for lvl, ops in enumerate(_GRAMMAR) if lvl not in _PREFIX.values() for op in ops}
_NODE_LEVEL = {BoolNot: _NOT, RelChain: _REL, Neg: _NEG}
_KIND = ("bool",) * _REL + ("int",) * (_ATOM - _REL)  # what the operands of each row are


def _level(e):
    """The row of e's operator; atoms bind tightest."""
    if isinstance(e, BinOp):
        return _INFIX[e.op]
    if isinstance(e, BoolOp):
        return _OR if e.op == "or" else _AND
    return _NODE_LEVEL.get(type(e), _ATOM)


def _nested(tok, depth):
    """The depth inside the bracket or prefix operator `tok`."""
    if depth == MAX_NESTING:
        raise ParseError(f"expression nested more than {MAX_NESTING} deep", tok.span)
    return depth + 1


# One alternative per token kind, operators longest first.  \w is what
# str.isalnum() accepts, plus "_"; a name must start with a letter or "_".
_TOKEN = re.compile(
    r"""(?P<newline>\n)
      | (?P<blank>[ \t\r]+)
      | (?P<comment>//[^\n]*)
      | (?P<op>\.\.\.|==|!=|<=|>=|=>|&&|\|\||\.\.|[{}()\[\]<>,;:.|@=+\-*/!])
      | (?P<int>\d+)
      | (?P<ident>[^\W\d]\w*)
      | (?P<other>.)""",
    re.VERBOSE,
)


class Token:
    __slots__ = ("kind", "text", "span")

    def __init__(self, kind, text, span):
        self.kind = kind  # "int" | "ident" | "op" | "eof"
        self.text = text
        self.span = span

    def __repr__(self):
        return f"Token({self.kind}, {self.text!r})"


def tokenize(src):
    toks = []
    line, line_start = 1, 0
    for m in _TOKEN.finditer(src):
        kind, text, i = m.lastgroup, m.group(), m.start()
        if kind == "newline":
            line, line_start = line + 1, i + 1
        elif kind == "other" or kind == "ident" and not (text[0].isalpha() or text[0] == "_"):
            # a numeral that is not a decimal digit (such as ²) starts no name
            span = Span(i, i + 1, line, i - line_start + 1)
            raise ParseError(f"unexpected character {text[0]!r}", span)
        elif kind not in ("blank", "comment"):
            toks.append(Token(kind, text, Span(i, m.end(), line, i - line_start + 1)))
    n = len(src)
    toks.append(Token("eof", "", Span(n, n, line, n - line_start + 1)))
    return toks


class _Parser:
    def __init__(self, toks):
        self.toks = toks
        self.i = 0

    # -- token plumbing ----------------------------------------------------

    def peek(self, k=0):
        j = min(self.i + k, len(self.toks) - 1)
        return self.toks[j]

    def at(self, text):
        return self.peek().text == text and self.peek().kind in ("op", "ident")

    def advance(self):
        t = self.toks[self.i]
        if t.kind != "eof":
            self.i += 1
        return t

    def expect(self, text, context=None):
        t = self.peek()
        if t.text == text:
            return self.advance()
        where = t.span if t.kind != "eof" or context is None else context
        raise ParseError(
            f"found {t.text!r}" if t.kind != "eof" else "unexpected end of input",
            where,
            expected=(text,),
        )

    def expect_ident(self, what="identifier"):
        t = self.peek()
        if t.kind != "ident":
            raise ParseError(f"expected {what}, found {t.text!r}", t.span)
        return self.advance()

    # -- model -------------------------------------------------------------

    def parse_model(self):
        params = []
        tuple_types = []
        dvars = []
        objective = None
        while not self.at("subject"):
            t = self.peek()
            if t.kind == "eof":
                raise ParseError("model has no 'subject to' block", t.span)
            if self.at("int"):
                params.append(self._external_param(self.advance().span, "int"))
            elif self.at("tuple"):
                tuple_types.append(self._tuple_type())
            elif self.at("{"):
                params.append(self._set_param())
            elif self.at("dvar"):
                dvars.append(self._dvar())
            elif self.at("minimize"):
                if objective is not None:
                    raise ParseError("more than one objective", t.span)
                objective = self._objective()
            else:
                raise ParseError(
                    f"unexpected {t.text!r} in declarations",
                    t.span,
                    expected=("int", "tuple", "{", "dvar", "minimize", "subject"),
                )
        self.expect("subject")
        self.expect("to")
        open_brace = self.expect("{").span
        ctrs = []
        while not self.at("}"):
            if self.peek().kind == "eof":
                raise ParseError("unterminated 'subject to' block", open_brace)
            ctrs.append(self._labeled())
        self.expect("}")
        t = self.peek()
        if t.kind != "eof":
            raise ParseError(f"trailing input {t.text!r} after model", t.span)
        model = ModelAst(
            params=tuple(params),
            tuple_types=tuple(tuple_types),
            dvars=tuple(dvars),
            objective=objective,
            constraints=tuple(ctrs),
        )
        validate_model(model)
        return model

    def _external_param(self, start, kind):
        """The tail `name = ... ;` of a parameter whose value is data."""
        name = self.expect_ident("parameter name").text
        self.expect("=")
        self.expect("...")
        self.expect(";")
        return ParamDecl(name, kind, span=start)

    def _tuple_type(self):
        start = self.expect("tuple").span
        name = self.expect_ident("tuple type name").text
        self.expect("{")
        fields = []
        while not self.at("}"):
            self.expect("int")
            tok = self.expect_ident("field name")
            if tok.text in fields:
                raise ParseError(f"duplicate field {tok.text!r} in tuple {name!r}", tok.span)
            fields.append(tok.text)
            self.expect(";")
        self.expect("}")
        if not fields:
            raise ParseError("tuple type needs at least one field", start)
        return TupleTypeDecl(name, tuple(fields), span=start)

    def _set_param(self):
        start = self.expect("{").span
        if self.at("int"):
            self.advance()
            self.expect("}")
            return self._external_param(start, "intset")
        tname = self.expect_ident("tuple type name").text
        self.expect("}")
        name = self.expect_ident("parameter name").text
        self.expect("=")
        if self.at("..."):
            self.advance()
            comp = None
        else:
            comp = self._comprehension()
        self.expect(";")
        return ParamDecl(name, "tupleset", tuple_type=tname, comp=comp, span=start)

    def _comprehension(self):
        start = self.expect("{").span
        head = self._tuple_literal()
        self.expect("|")
        binders, guard = self._binding()
        self.expect("}", context=start)
        return SetComprehension(head, binders, guard, span=start)

    def _dvar(self):
        start = self.expect("dvar").span
        self.expect("int")
        name = self.expect_ident("variable name").text
        index = None
        if self.at("["):
            self.advance()
            index = self._binder_domain()
            self.expect("]")
        lo = hi = None
        if self.at("in"):
            self.advance()
            lo = self._expr()
            self.expect("..")
            hi = self._expr()
        self.expect(";")
        return DvarDecl(name, index, lo, hi, span=start)

    def _objective(self):
        start = self.expect("minimize").span
        e = self._expr()
        self.expect(";")
        return Objective(e, span=start)

    def _labeled(self):
        label_tok = self.expect_ident("constraint label")
        self.expect(":")
        ctr = self._ctr()
        self.expect(";")
        channeling = False
        if self.at("@"):
            self.advance()
            ann = self.expect_ident("annotation").text
            if ann != "channeling":
                raise ParseError(f"unknown annotation @{ann}", label_tok.span)
            channeling = True
        return LabeledConstraint(label_tok.text, ctr, channeling, span=label_tok.span)

    # -- constraints ---------------------------------------------------------

    def _ctr(self):
        t = self.peek()
        if self.at("forall") or self.at("or"):
            kind = self.advance().text
            open_paren = self.expect("(").span
            binders, guard = self._binding()
            self.expect(")", context=open_paren)
            body = self._ctr()
            node = Forall if kind == "forall" else OrAgg
            return node(binders, guard, body, span=t.span)
        if self.at("if"):
            self.advance()
            open_paren = self.expect("(").span
            cond = self._expr(_OR, "bool")
            self.expect(")", context=open_paren)
            then_ctr = self._ctr()
            self.expect("else")
            else_ctr = self._ctr()
            return IfThenElse(cond, then_ctr, else_ctr, span=t.span)
        if self.at("allDifferent"):
            self.advance()
            self.expect("(")
            coll = self._collection()
            self.expect(")")
            return AllDifferentCtr(coll, span=t.span)
        if self.at("allMinDistance"):
            self.advance()
            self.expect("(")
            coll = self._collection()
            self.expect(",")
            gap = self._expr()
            self.expect(")")
            return AllMinDistanceCtr(coll, gap, span=t.span)
        if self.at("inverse"):
            self.advance()
            self.expect("(")
            f = self.expect_ident("array name").text
            self.expect(",")
            g = self.expect_ident("array name").text
            self.expect(")")
            return InverseCtr(f, g, span=t.span)
        if self.at("allowedAssignments") or self.at("forbiddenAssignments"):
            kind = "allowed" if self.advance().text == "allowedAssignments" else "forbidden"
            self.expect("(")
            exprs = self._tuple_literal()
            self.expect(",")
            table = self.expect_ident("tuple set name").text
            self.expect(")")
            return TableCtr(kind, exprs, table, span=t.span)
        if self.at("pack"):
            self.advance()
            self.expect("(")
            load = self.expect_ident("load array").text
            self.expect(",")
            assign = self.expect_ident("assignment array").text
            self.expect(",")
            weights = self.expect_ident("weight set").text
            self.expect(")")
            return PackCtr(load, assign, weights, span=t.span)
        return self._rel_or_implication()

    def _rel_or_implication(self):
        left = self._relation()
        if self.at("=>"):
            self.advance()
            right = self._relation()
            return Implies(left, right, span=left.span)
        return left

    def _relation(self):
        t = self.peek()
        if self.at("count"):
            coll, value = self._count_head()
            op = self._rel_op()
            rhs = self._expr()
            return CountCtr(coll, value, op, rhs, span=t.span)
        left = self._expr()
        op = self._rel_op()
        if self.at("count"):
            coll, value = self._count_head()
            return CountCtr(coll, value, MIRROR[op], left, span=t.span)
        right = self._expr()
        return Rel(op, left, right, span=t.span)

    def _count_head(self):
        self.expect("count")
        self.expect("(")
        coll = self._collection()
        self.expect(",")
        value = self._expr()
        self.expect(")")
        return coll, value

    def _rel_op(self):
        t = self.peek()
        if t.text in REL_TOKENS:
            return self.advance().text
        raise ParseError(
            f"expected comparison operator, found {t.text!r}",
            t.span,
            expected=REL_TOKENS,
        )

    def _collection(self):
        start = self.expect("all").span
        open_paren = self.expect("(").span
        binders, guard = self._binding()
        self.expect(")", context=open_paren)
        elem = self._expr()
        return Collection(binders, guard, elem, span=start)

    def _binding(self):
        """binder groups [":" guard], as (groups, guard or None)."""
        groups = [self._binder_group()]
        while self.at(","):
            self.advance()
            groups.append(self._binder_group())
        guard = None
        if self.at(":"):
            self.advance()
            guard = self._expr(_OR, "bool")
        return tuple(groups), guard

    def _binder_group(self):
        first = self.expect_ident("binder name")
        names = [first.text]
        # ", name" joins this group only when "," or "in" follows the name
        while self.at(",") and self.peek(1).kind == "ident" and self.peek(2).text in (",", "in"):
            self.advance()
            names.append(self.advance().text)
        self.expect("in")
        return BinderGroup(tuple(names), self._binder_domain(), span=first.span)

    def _binder_domain(self):
        lo = self._expr()
        if self.at(".."):
            self.advance()
            return RangeDom(lo, self._expr())
        if isinstance(lo, NameRef):
            return SetDom(lo.name, span=lo.span)
        raise ParseError("expected a range or a set name", self.peek().span)

    # -- expressions -----------------------------------------------------------

    def _expr(self, level=_ADD, kind="int", depth=0):
        """One expression of the rows from `level` down, each token read once:
        a condition ("bool") from _OR, arithmetic ("int") from _ADD, or
        either (None) inside parentheses that may hold a condition.  `depth`
        counts the brackets and prefix operators it sits in.  Infix operands
        wait in `rows`, one (row, ops, items) per open row, tightest last, so
        only brackets and prefix operators recurse: two frames a level."""
        rows, operand = [], (level, kind)
        while True:
            e = self._operand(*operand, depth)
            at = _INFIX.get(self.peek().text, -1)
            while rows and rows[-1][0] > at:  # rows tighter than the next operator end at e
                row, ops, items = rows.pop()
                items.append(_check_kind(e, _KIND[row]))
                if row < _REL:
                    e = BoolOp("or" if row == _OR else "and", tuple(items), span=items[0].span)
                elif row == _REL:
                    e = RelChain(tuple(items), tuple(ops), span=items[0].span)
                else:  # + - * / fold to the left
                    e = items[0]
                    for op, right in zip(ops, items[1:]):
                        e = BinOp(op, e, right, span=e.span)
            if at < level:
                return _check_kind(e, kind)
            if not rows or rows[-1][0] < at:
                rows.append((at, [], []))
            rows[-1][1].append(self.advance().text)
            rows[-1][2].append(_check_kind(e, _KIND[at]))
            operand = (at + 1, _KIND[at])

    def _operand(self, level, kind, depth):
        """A prefix operator of a row from `level` down with its operand, a
        parenthesized expression, or an atom."""
        t = self.peek()
        at = _PREFIX.get(t.text, -1)
        if at >= level:
            self.advance()
            e = self._expr(at, _KIND[at], _nested(t, depth))
            if at == _NOT:
                return BoolNot(e, span=t.span)
            # a literal takes the sign
            return IntLit(-e.value, span=t.span) if isinstance(e, IntLit) else Neg(e, span=t.span)
        if t.text == "(":
            self.advance()
            inner = (_ADD, "int") if kind == "int" else (_OR, None)
            e = self._expr(*inner, _nested(t, depth))
            self.expect(")", context=t.span)
            return e
        if t.kind == "int":
            self.advance()
            return IntLit(int(t.text), span=t.span)
        if t.kind == "ident":
            self.advance()
            if self.at("["):
                depth = _nested(self.advance(), depth)
                idx = self._tuple_literal(depth) if self.at("<") else self._expr(depth=depth)
                self.expect("]")
                return IndexedRef(t.text, idx, span=t.span)
            if self.at(".") and self.peek(1).kind == "ident":
                self.advance()
                fld = self.advance()
                return FieldRef(t.text, fld.text, span=t.span)
            return NameRef(t.text, span=t.span)
        raise ParseError(
            f"expected expression, found {t.text!r}" if t.kind != "eof" else
            "expected expression, found end of input",
            t.span,
        )

    def _tuple_literal(self, depth=0):
        start = self.expect("<")
        depth = _nested(start, depth)
        items = [self._expr(depth=depth)]
        while self.at(","):
            self.advance()
            items.append(self._expr(depth=depth))
        self.expect(">", context=start.span)
        return TupleExpr(tuple(items), span=start.span)


def _check_kind(e, kind):
    """e, if it is a condition ("bool") or arithmetic ("int") as `kind` asks
    (None takes either); else a ParseError at e."""
    if kind == "bool" and _level(e) > _REL:
        raise ParseError("expected comparison in boolean context", e.span, expected=REL_TOKENS)
    if kind == "int" and _level(e) <= _REL:
        raise ParseError("expected arithmetic expression, found boolean", e.span)
    return e


def parse_model(src: str) -> ModelAst:
    """Parse model source text into a validated ModelAst."""
    return _Parser(tokenize(src)).parse_model()


def parse_model_file(path) -> ModelAst:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_model(fh.read())


# ---------------------------------------------------------------------------
# Static validation


class _Validator:
    def __init__(self, model):
        self.model = model
        self.params = {}
        self.tuple_types = {}
        self.dvars = {}

    def run(self):
        m = self.model
        for tt in m.tuple_types:
            self._declare(self.tuple_types, tt.name, tt.span)
            self.tuple_types[tt.name] = tt
        for p in m.params:
            self._declare(self.params, p.name, p.span)
            if p.kind == "tupleset":
                if p.tuple_type not in self.tuple_types:
                    raise ParseError(f"unknown tuple type {p.tuple_type!r}", p.span)
                if p.comp is not None:
                    tt = self.tuple_types[p.tuple_type]
                    if len(p.comp.head.items) != len(tt.fields):
                        raise ParseError(
                            f"comprehension arity {len(p.comp.head.items)} does not "
                            f"match tuple type {p.tuple_type!r}",
                            p.comp.span,
                        )
                    scope = self._binder_scope(p.comp.binders, p.comp.guard, {})
                    for e in p.comp.head.items:
                        self._check_expr(e, scope, allow_dvar=False)
        for d in m.dvars:
            if d.name in self.params or d.name in self.dvars:
                raise ParseError(f"duplicate declaration of {d.name!r}", d.span)
            if d.name in RESERVED:
                raise ParseError(f"{d.name!r} is a reserved word", d.span)
            self.dvars[d.name] = d
            if isinstance(d.index, SetDom):
                self._check_setdom(d.index)
            elif isinstance(d.index, RangeDom):
                self._check_expr(d.index.lo, {}, allow_dvar=False)
                self._check_expr(d.index.hi, {}, allow_dvar=False)
            if d.lo is None:
                raise ParseError(
                    f"decision variable {d.name!r} needs a finite domain "
                    "('in lo..hi')",
                    d.span,
                )
            self._check_expr(d.lo, {}, allow_dvar=False)
            self._check_expr(d.hi, {}, allow_dvar=False)
        labels = set()
        for lc in m.constraints:
            if lc.label in labels:
                raise ParseError(f"duplicate constraint label {lc.label!r}", lc.span)
            labels.add(lc.label)
            self._check_ctr(lc.ctr, {})
        if m.objective is not None:
            self._check_expr(m.objective.expr, {}, allow_dvar=True)

    def _declare(self, table, name, span):
        if name in table or name in self.params or name in self.tuple_types:
            raise ParseError(f"duplicate declaration of {name!r}", span)
        if name in RESERVED:
            raise ParseError(f"{name!r} is a reserved word", span)
        table[name] = True

    def _binder_scope(self, binders, guard, outer):
        """The scope inside a binding: `outer` plus its binders, checked
        group by group, with the guard checked in it."""
        scope = dict(outer)
        for g in binders:
            if isinstance(g.domain, RangeDom):
                self._check_expr(g.domain.lo, scope, allow_dvar=False)
                self._check_expr(g.domain.hi, scope, allow_dvar=False)
                kind = "int"
            else:
                kind = self._check_setdom(g.domain)
            for nm in g.names:
                if nm in RESERVED:
                    raise ParseError(f"{nm!r} is a reserved word", g.span)
                scope[nm] = kind
        if guard is not None:
            self._check_expr(guard, scope, allow_dvar=False)
        return scope

    def _check_setdom(self, dom):
        p = self._lookup_param(dom.name, dom.span)
        if p.kind == "int":
            raise ParseError(f"{dom.name!r} is an int, not a set", dom.span)
        return p.tuple_type if p.kind == "tupleset" else "int"

    def _lookup_param(self, name, span):
        for p in self.model.params:
            if p.name == name:
                return p
        raise ParseError(f"unknown set {name!r}", span)

    def _check_expr(self, expr, scope, allow_dvar):
        for e in walk_exprs(expr):
            self._check_leaf(e, scope, allow_dvar)

    def _check_leaf(self, e, scope, allow_dvar):
        if isinstance(e, NameRef):
            if e.name in scope:
                return
            if e.name in self.dvars:
                if not allow_dvar:
                    raise ParseError(
                        f"decision variable {e.name!r} not allowed here", e.span
                    )
                if self.dvars[e.name].index is not None:
                    raise ParseError(
                        f"array {e.name!r} needs an index", e.span
                    )
                return
            for p in self.model.params:
                if p.name == e.name:
                    return
            raise ParseError(f"unknown identifier {e.name!r}", e.span)
        if isinstance(e, IndexedRef):
            if e.name not in self.dvars:
                raise ParseError(f"unknown array {e.name!r}", e.span)
            if not allow_dvar:
                raise ParseError(
                    f"decision variable {e.name!r} not allowed here", e.span
                )
            if self.dvars[e.name].index is None:
                raise ParseError(f"{e.name!r} is scalar, not an array", e.span)
        if isinstance(e, FieldRef):
            kind = scope.get(e.base)
            if kind is None:
                raise ParseError(f"unknown tuple binder {e.base!r}", e.span)
            if kind == "int":
                raise ParseError(f"binder {e.base!r} is not a tuple", e.span)
            if e.fieldname not in self.tuple_types[kind].fields:
                raise ParseError(
                    f"tuple type {kind!r} has no field {e.fieldname!r}", e.span
                )

    def _check_ctr(self, ctr, scope):
        if isinstance(ctr, Rel):
            self._check_expr(ctr.left, scope, allow_dvar=True)
            self._check_expr(ctr.right, scope, allow_dvar=True)
        elif isinstance(ctr, CountCtr):
            self._check_collection(ctr.coll, scope)
            self._check_expr(ctr.value, scope, allow_dvar=True)
            self._check_expr(ctr.rhs, scope, allow_dvar=True)
        elif isinstance(ctr, Implies):
            self._check_ctr(ctr.left, scope)
            self._check_ctr(ctr.right, scope)
        elif isinstance(ctr, (Forall, OrAgg)):
            inner = self._binder_scope(ctr.binders, ctr.guard, scope)
            self._check_ctr(ctr.body, inner)
        elif isinstance(ctr, IfThenElse):
            self._check_expr(ctr.cond, scope, allow_dvar=False)
            self._check_ctr(ctr.then_ctr, scope)
            self._check_ctr(ctr.else_ctr, scope)
        elif isinstance(ctr, AllDifferentCtr):
            self._check_collection(ctr.coll, scope)
        elif isinstance(ctr, AllMinDistanceCtr):
            self._check_collection(ctr.coll, scope)
            self._check_expr(ctr.gap, scope, allow_dvar=False)
        elif isinstance(ctr, InverseCtr):
            for nm in (ctr.f, ctr.g):
                if nm not in self.dvars or self.dvars[nm].index is None:
                    raise ParseError(f"inverse needs a dvar array, got {nm!r}", ctr.span)
        elif isinstance(ctr, TableCtr):
            for e in ctr.exprs.items:
                self._check_expr(e, scope, allow_dvar=True)
            p = self._lookup_param(ctr.table, ctr.span)
            if p.kind != "tupleset":
                raise ParseError(f"{ctr.table!r} is not a tuple set", ctr.span)
        elif isinstance(ctr, PackCtr):
            for nm in (ctr.load, ctr.assign):
                if nm not in self.dvars or self.dvars[nm].index is None:
                    raise ParseError(f"pack needs a dvar array, got {nm!r}", ctr.span)
            p = self._lookup_param(ctr.weights, ctr.span)
            if p.kind != "tupleset":
                raise ParseError(f"{ctr.weights!r} is not a tuple set", ctr.span)
        else:
            raise ParseError(f"unsupported constraint node {type(ctr).__name__}", None)

    def _check_collection(self, coll, scope):
        inner = self._binder_scope(coll.binders, coll.guard, scope)
        self._check_expr(coll.elem, inner, allow_dvar=True)


def validate_model(model: ModelAst):
    _Validator(model).run()


# ---------------------------------------------------------------------------
# Pretty printer

def _fmt(e, level=_OR):
    """e as source text, in parentheses where it binds looser than `level`.
    Each operand is printed at the row the parser reads it from, so only
    precedence puts parentheses, as in a && b || !c < d && (e || f)."""
    at = _level(e)
    if isinstance(e, IntLit):
        s = str(e.value)
    elif isinstance(e, NameRef):
        s = e.name
    elif isinstance(e, FieldRef):
        s = f"{e.base}.{e.fieldname}"
    elif isinstance(e, IndexedRef):
        s = f"{e.name}[{_fmt(e.index)}]"
    elif isinstance(e, TupleExpr):
        s = "<" + ", ".join([_fmt(it) for it in e.items]) + ">"
    elif at == _ATOM:
        raise TypeError(f"not an expression: {e!r}")
    elif at in _PREFIX.values():
        s = _GRAMMAR[at][0] + _fmt(operands(e)[0], at)
    else:
        items, inner = operands(e), at + 1
        ops = e.rel_ops if at == _REL else (e.op,) if at > _REL else _GRAMMAR[at] * (len(items) - 1)
        parts = [_fmt(items[0], at if at > _REL else inner)]
        for op, item in zip(ops, items[1:]):
            parts += (op, _fmt(item, inner))
        s = " ".join(parts)
    return f"({s})" if at < level else s


def _fmt_binding(binders, guard):
    s = ", ".join(", ".join(g.names) + " in " + _fmt_binder_dom(g.domain) for g in binders)
    return s if guard is None else f"{s} : {_fmt(guard)}"


def _fmt_binder_dom(dom):
    if isinstance(dom, RangeDom):
        return f"{_fmt(dom.lo)}..{_fmt(dom.hi)}"
    return dom.name


def _fmt_collection(c):
    return f"all({_fmt_binding(c.binders, c.guard)}) {_fmt(c.elem)}"


def _fmt_ctr(c):
    if isinstance(c, Rel):
        return f"{_fmt(c.left)} {c.op} {_fmt(c.right)}"
    if isinstance(c, CountCtr):
        return (
            f"count({_fmt_collection(c.coll)}, {_fmt(c.value)}) "
            f"{c.op} {_fmt(c.rhs)}"
        )
    if isinstance(c, Implies):
        return f"{_fmt_ctr(c.left)} => {_fmt_ctr(c.right)}"
    if isinstance(c, (Forall, OrAgg)):
        kw = "forall" if isinstance(c, Forall) else "or"
        return f"{kw} ({_fmt_binding(c.binders, c.guard)}) {_fmt_ctr(c.body)}"
    if isinstance(c, IfThenElse):
        return (
            f"if ({_fmt(c.cond)}) {_fmt_ctr(c.then_ctr)} "
            f"else {_fmt_ctr(c.else_ctr)}"
        )
    if isinstance(c, AllDifferentCtr):
        return f"allDifferent({_fmt_collection(c.coll)})"
    if isinstance(c, AllMinDistanceCtr):
        return f"allMinDistance({_fmt_collection(c.coll)}, {_fmt(c.gap)})"
    if isinstance(c, InverseCtr):
        return f"inverse({c.f}, {c.g})"
    if isinstance(c, TableCtr):
        name = "allowedAssignments" if c.kind == "allowed" else "forbiddenAssignments"
        return f"{name}({_fmt(c.exprs)}, {c.table})"
    if isinstance(c, PackCtr):
        return f"pack({c.load}, {c.assign}, {c.weights})"
    raise TypeError(f"not a constraint: {c!r}")


def pretty_print(model: ModelAst) -> str:
    """Render a model back to parseable source text."""
    out = []
    for p in model.params:
        if p.kind == "int":
            out.append(f"int {p.name} = ...;")
        elif p.kind == "intset":
            out.append(f"{{int}} {p.name} = ...;")
        else:
            rhs = "..."
            if p.comp is not None:
                binding = _fmt_binding(p.comp.binders, p.comp.guard)
                rhs = f"{{{_fmt(p.comp.head)} | {binding}}}"
            out.append(f"{{{p.tuple_type}}} {p.name} = {rhs};")
    for tt in model.tuple_types:
        fields = " ".join(f"int {f};" for f in tt.fields)
        out.append(f"tuple {tt.name} {{ {fields} }}")
    for d in model.dvars:
        idx = ""
        if d.index is not None:
            idx = f"[{_fmt_binder_dom(d.index)}]"
        dom = f" in {_fmt(d.lo)}..{_fmt(d.hi)}"
        out.append(f"dvar int {d.name}{idx}{dom};")
    if model.objective is not None:
        out.append(f"minimize {_fmt(model.objective.expr)};")
    out.append("subject to {")
    for lc in model.constraints:
        ann = "  @channeling" if lc.channeling else ""
        out.append(f"  {lc.label}: {_fmt_ctr(lc.ctr)};{ann}")
    out.append("}")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Instance data files


def parse_data(src: str) -> dict:
    """Parse a data file of `name = value` entries.

    Values are integers, int sets `{1, 2}` or tuple sets `{<1,2>, <3,4>}`.
    Entries may be separated by newlines or semicolons.
    """
    p = _Parser(tokenize(src))
    out = {}
    while p.peek().kind != "eof":
        name_tok = p.expect_ident("data entry name")
        if name_tok.text in out:
            raise ParseError(f"duplicate data entry {name_tok.text!r}", name_tok.span)
        p.expect("=")
        out[name_tok.text] = _parse_data_value(p)
        if p.at(";"):
            p.advance()
    return out


def _parse_data_value(p):
    t = p.peek()
    if t.kind == "int" or p.at("-"):
        return _parse_data_int(p)
    if p.at("{"):
        open_brace = p.advance().span
        if p.at("}"):
            p.advance()
            return []
        items = []
        is_tuple = p.at("<")
        while True:
            if is_tuple:
                start = p.expect("<").span
                row = [_parse_data_int(p)]
                while p.at(","):
                    p.advance()
                    row.append(_parse_data_int(p))
                p.expect(">", context=start)
                items.append(tuple(row))
            else:
                items.append(_parse_data_int(p))
            if p.at(","):
                p.advance()
                continue
            p.expect("}", context=open_brace)
            return items
    raise ParseError(f"expected a value, found {t.text!r}", t.span)


def _parse_data_int(p):
    sign = 1
    if p.at("-"):
        p.advance()
        sign = -1
    t = p.peek()
    if t.kind != "int":
        raise ParseError(f"expected integer, found {t.text!r}", t.span)
    p.advance()
    return sign * int(t.text)


def parse_data_file(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_data(fh.read())
