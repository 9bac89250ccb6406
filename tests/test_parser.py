import dataclasses

import pytest

from cpconftest import build_instance, ground, parse_data, parse_model, parse_model_file, pretty_print
from cpconftest.corpus import corpus_path
from cpconftest.errors import ParseError
from cpconftest.parser import MAX_NESTING, REL_TOKENS, _Parser, tokenize
from cpconftest.syntax import Forall, Implies, Rel, RelChain

CORPUS_MODELS = sorted(str(p) for p in corpus_path().rglob("*.cpm"))


@pytest.mark.parametrize("path", CORPUS_MODELS, ids=lambda p: p.rsplit("/", 2)[-2] + "/" + p.rsplit("/", 1)[-1])
def test_corpus_round_trips(path):
    m = parse_model_file(path)
    again = parse_model(pretty_print(m))
    assert again == m


def test_basic_shapes():
    m = parse_model(
        """
        int n = ...;
        dvar int x[1..n] in 0..9;
        minimize x[n];
        subject to {
          a: forall (i in 1..n-1) x[i] < x[i+1];
          b: x[1] == 0;
        }
        """
    )
    assert [p.name for p in m.params] == ["n"]
    assert [d.name for d in m.dvars] == ["x"]
    assert [c.label for c in m.constraints] == ["a", "b"]
    assert m.objective is not None
    assert isinstance(m.constraints[0].ctr, Forall)
    assert isinstance(m.constraints[1].ctr, Rel)


def test_channeling_flag():
    m = parse_model(
        """
        dvar int x in 0..1;
        dvar int y in 0..1;
        subject to {
          c: y == x;  @channeling
          d: x <= 1;
        }
        """
    )
    assert m.constraints[0].channeling
    assert not m.constraints[1].channeling


def test_implication_binds_loosest():
    m = parse_model(
        """
        dvar int x in 0..5;
        dvar int y in 0..5;
        subject to { c: x == 1 => y != 2; }
        """
    )
    c = m.constraints[0].ctr
    assert isinstance(c, Implies)
    assert isinstance(c.left, Rel) and c.left.op == "=="
    assert isinstance(c.right, Rel) and c.right.op == "!="


def test_chained_guard_comparisons():
    m = parse_model(
        """
        int n = ...;
        dvar int x[1..n] in 0..9;
        subject to {
          c: forall (i, j in 1..n : 1 < i < j) x[i] != x[j];
        }
        """
    )
    g = m.constraints[0].ctr.guard
    assert isinstance(g, RelChain)
    assert g.rel_ops == ("<", "<")


def test_relations_do_not_chain_in_constraints():
    with pytest.raises(ParseError):
        parse_model(
            """
            dvar int x in 0..5;
            subject to { c: 1 < x < 4; }
            """
        )


def test_tuple_set_comprehension():
    m = parse_model(
        """
        int n = ...;
        tuple pairT { int i; int j; }
        {pairT} pairs = {<i, j> | i, j in 1..n : i < j};
        dvar int d[pairs] in 0..9;
        subject to { c: forall (p in pairs) d[p] >= 0; }
        """
    )
    p = next(p for p in m.params if p.name == "pairs")
    assert p.kind == "tupleset" and p.comp is not None


def test_comprehension_arity_checked():
    with pytest.raises(ParseError, match="arity"):
        parse_model(
            """
            tuple pairT { int i; int j; }
            {pairT} pairs = {<i> | i in 1..3};
            dvar int x in 0..1;
            subject to { c: x >= 0; }
            """
        )


def test_dvar_needs_domain():
    with pytest.raises(ParseError, match="finite domain"):
        parse_model(
            """
            dvar int x;
            subject to { c: x >= 0; }
            """
        )


def test_duplicate_tuple_field_rejected():
    # a tuple's fields name its components, so a repeated name would make
    # field access ambiguous and drop a component of the rows it binds
    with pytest.raises(ParseError, match="duplicate field 'i'"):
        parse_model("tuple T { int i; int i; }\ndvar int x in 0..1;\nsubject to { c: x >= 0; }")


def test_duplicate_label_rejected():
    with pytest.raises(ParseError, match="duplicate"):
        parse_model(
            """
            dvar int x in 0..1;
            subject to { c: x >= 0;  c: x <= 1; }
            """
        )


def test_error_carries_position():
    with pytest.raises(ParseError, match=r"\d+:\d+"):
        parse_model("int n = @;")


def test_unknown_set_in_binder():
    with pytest.raises(ParseError, match="unknown set"):
        parse_model(
            """
            dvar int x in 0..1;
            subject to { c: forall (i in nope) x >= 0; }
            """
        )


def test_count_on_either_side():
    m = parse_model(
        """
        int n = ...;
        dvar int x[1..n] in 1..3;
        subject to {
          a: count(all (i in 1..n) x[i], 1) <= 2;
          b: 2 >= count(all (i in 1..n) x[i], 1);
        }
        """
    )
    a, b = (c.ctr for c in m.constraints)
    # the mirrored form normalizes to count-on-the-left
    assert type(a) is type(b)


def test_data_file_values():
    d = parse_data(
        """
        // comment
        n = 4;
        pairs = {<1, 2>, <3, 4>};
        """
    )
    assert d == {"n": 4, "pairs": [(1, 2), (3, 4)]}


def test_data_duplicate_key():
    with pytest.raises(ParseError, match="duplicate"):
        parse_data("n = 1; n = 2;")


DECLS = "int n = ...;\ndvar int x[1..n] in 0..9;\ndvar int y in 0..9;\n"


def body(ctr, decls=""):
    """A model of DECLS, then `decls`, then one constraint `ctr` at column 3
    of a line of its own (line 5 when `decls` is empty)."""
    return DECLS + decls + "subject to {\n  " + ctr + "\n}\n"


# (parse function, source, the error's exact text): one input per message
INPUT_ERRORS = [
    # the parser
    (parse_model, DECLS, "4:1: model has no 'subject to' block"),
    (parse_model, DECLS + "minimize y;\nminimize y;\nsubject to { c: y >= 0; }\n", "5:1: more than one objective"),
    (parse_model, DECLS + "float z;\nsubject to { c: y >= 0; }\n",
     "4:1: unexpected 'float' in declarations (expected dvar or int or minimize or subject or tuple or {)"),
    (parse_model, DECLS + "subject to {\n  c: y >= 0;\n", "4:12: unterminated 'subject to' block"),
    (parse_model, body("c: y >= 0;") + "}\n", "7:1: trailing input '}' after model"),
    (parse_model, "tuple T { }\n" + body("c: y >= 0;"), "1:1: tuple type needs at least one field"),
    (parse_model, body("c: y >= 0;  @symmetry"), "5:3: unknown annotation @symmetry"),
    (parse_model, body("c: y + 1;"),
     "5:11: expected comparison operator, found ';' (expected != or < or <= or == or > or >=)"),
    (parse_model, body("c: forall (i in n + 1) x[i] >= 0;"), "5:24: expected a range or a set name"),
    (parse_model, body("1: y >= 0;"), "5:3: expected constraint label, found '1'"),
    # the validator
    (parse_model, "{T} s = ...;\n" + body("c: y >= 0;"), "1:1: unknown tuple type 'T'"),
    (parse_model, "int n = ...;\nint n = ...;\n" + body("c: y >= 0;"), "2:1: duplicate declaration of 'n'"),
    (parse_model, "int all = ...;\n" + body("c: y >= 0;"), "1:1: 'all' is a reserved word"),
    (parse_model, DECLS + "dvar int y in 0..1;\nsubject to { c: y >= 0; }\n", "4:1: duplicate declaration of 'y'"),
    (parse_model, DECLS + "dvar int forall in 0..1;\nsubject to { c: y >= 0; }\n", "4:1: 'forall' is a reserved word"),
    (parse_model, body("c: forall (if in 1..n) x[if] >= 0;"), "5:14: 'if' is a reserved word"),
    (parse_model, body("c: forall (i in n) x[i] >= 0;"), "5:19: 'n' is an int, not a set"),
    (parse_model, body("c: forall (i in 1..n : i < y) x[i] >= 0;"), "5:30: decision variable 'y' not allowed here"),
    (parse_model, body("c: forall (i in 1..n : x[i] < 2) x[i] >= 0;"), "5:26: decision variable 'x' not allowed here"),
    (parse_model, body("c: x >= 0;"), "5:6: array 'x' needs an index"),
    (parse_model, body("c: q >= 0;"), "5:6: unknown identifier 'q'"),
    (parse_model, body("c: q[1] >= 0;"), "5:6: unknown array 'q'"),
    (parse_model, body("c: y[1] >= 0;"), "5:6: 'y' is scalar, not an array"),
    (parse_model, body("c: forall (i in 1..n) x[q.a] >= 0;"), "5:27: unknown tuple binder 'q'"),
    (parse_model, body("c: forall (i in 1..n) x[i.a] >= 0;"), "5:27: binder 'i' is not a tuple"),
    (parse_model, body("c: forall (p in s) x[p.z] >= 0;", "tuple P { int a; }\n{P} s = ...;\n"),
     "7:24: tuple type 'P' has no field 'z'"),
    (parse_model, body("c: inverse(x, y);"), "5:6: inverse needs a dvar array, got 'y'"),
    (parse_model, body("c: allowedAssignments(<y>, u);", "{int} u = ...;\n"), "6:6: 'u' is not a tuple set"),
    (parse_model, body("c: pack(x, y, w);", "tuple W { int i; int s; }\n{W} w = ...;\n"),
     "7:6: pack needs a dvar array, got 'y'"),
    (parse_model, body("c: pack(x, x, u);", "{int} u = ...;\n"), "6:6: 'u' is not a tuple set"),
    # data files
    (parse_data, "n = x;\n", "1:5: expected a value, found 'x'"),
    (parse_data, "s = {<1, a>};\n", "1:10: expected integer, found 'a'"),
]


@pytest.mark.parametrize("parse, src, text", INPUT_ERRORS, ids=[t for _, _, t in INPUT_ERRORS])
def test_each_input_error_names_its_place(parse, src, text):
    with pytest.raises(ParseError) as e:
        parse(src)
    assert str(e.value) == text
    assert text.startswith(f"{e.value.span.line}:{e.value.span.col}: ")


# every operator, and integers and names, some of them not ASCII
LEXEMES = (
    [("op", t) for t in ("...", "==", "!=", "<=", ">=", "=>", "&&", "||", "..")]
    + [("op", t) for t in "{}()[]<>,;:.|@=+-*/!"]
    + [("int", t) for t in ("0", "7", "042", "٣")]
    + [("ident", t) for t in ("x", "_a1", "int", "subject", "é", "xé٣", "x²")]
)
# a separator is never empty, so no two lexemes fuse; a comment ends its line
SEPARATORS = (" ", "\t", "  \t", "\n", "\r\n", " // note\n", "\t//x<=y\r\n", "\n\n  ")


def test_tokens_match_their_source(rng):
    for _ in range(300):
        picked = [rng.choice(LEXEMES) for _ in range(rng.randint(0, 25))]
        parts = [rng.choice(SEPARATORS) if rng.random() < 0.5 else ""]
        for _kind, text in picked:
            parts += [text, rng.choice(SEPARATORS)]
        src = "".join(parts)
        toks = tokenize(src)
        assert [(t.kind, t.text) for t in toks] == picked + [("eof", "")]
        for t in toks:
            s = t.span
            assert src[s.start:s.end] == t.text
            assert s.line == src.count("\n", 0, s.start) + 1
            assert s.col == s.start - src.rfind("\n", 0, s.start)


@pytest.mark.parametrize("ch", ["#", "&", "\f", "²"], ids=["hash", "amp", "formfeed", "superscript"])
def test_stray_character_raises_at_its_position(ch):
    src = f"int n = ...;\r\n  dvar int x in 0..{ch};\nsubject to {{ c: x >= 0; }}\n"
    for read in (tokenize, parse_model):
        with pytest.raises(ParseError) as e:
            read(src)
        assert str(e.value) == f"2:20: unexpected character {ch!r}"
        assert (e.value.span.start, e.value.span.line, e.value.span.col) == (src.index(ch), 2, 20)


# ---------------------------------------------------------------------------
# Expressions: one precedence table, each token read once


def guarded(guard):
    """A model whose one guard, over binders i, j and k, is on line 4."""
    return (
        "int n = ...;\ndvar int x[1..n] in 0..9;\nsubject to {\n"
        f"  c: forall (i, j, k in 1..n : {guard}) x[i] >= 0;\n}}\n"
    )


def error_of(src):
    with pytest.raises(ParseError) as e:
        parse_model(src)
    return e.value


def position(src, at):
    """line:col of offset `at`, as a ParseError writes it."""
    return f"{src.count(chr(10), 0, at) + 1}:{at - src.rfind(chr(10), 0, at)}"


@pytest.mark.parametrize("guard", ["(i < 2 &&)", "!(i <)", "i < 2 && (i > 1 || i +)"])
def test_guard_error_is_reported_at_the_missing_operand(guard):
    src = guarded(guard)
    at = src.index(guard) + len(guard) - 1  # the ) where an operand is missing
    e = error_of(src)
    assert str(e) == f"{position(src, at)}: expected expression, found ')'"
    assert (e.span.start, e.span.line) == (at, 4)


@pytest.mark.parametrize("guard, offset, message", [
    ("i && j < 2", 0, "expected comparison in boolean context"),
    ("j < 2 || !k", 10, "expected comparison in boolean context"),
    ("(i + j)", 1, "expected comparison in boolean context"),
    ("(i < 2) + 1 < 3", 1, "expected arithmetic expression, found boolean"),
    ("k < 1 || (j < 2) < 3", 10, "expected arithmetic expression, found boolean"),
])
def test_kind_error_is_reported_at_the_operand_at_fault(guard, offset, message):
    src = guarded(guard)
    at = src.index(guard) + offset
    e = error_of(src)
    assert str(e).startswith(f"{position(src, at)}: {message}")
    assert e.span.start == at


@pytest.mark.parametrize("depth", [40, 160])
def test_each_token_is_read_once(depth, monkeypatch):
    src = guarded("(" * depth + "i" + ")" * depth + " + 1 < 2 && " + "(" * depth + "j < k" + ")" * depth)
    calls = []
    advance = _Parser.advance
    monkeypatch.setattr(_Parser, "advance", lambda self: calls.append(1) or advance(self))
    parse_model(src)
    assert len(calls) == len(tokenize(src)) - 1


def random_arith(rng, depth):
    r = rng.random()
    if depth == 0 or r < 0.35:
        return rng.choice(("i", "j", "k", "0", "2", "n"))
    if r < 0.5:
        return "-" + random_arith(rng, depth - 1)
    if r < 0.65:
        return "(" + random_arith(rng, depth - 1) + ")"
    return random_arith(rng, depth - 1) + rng.choice((" + ", " - ", " * ", " / ")) + random_arith(rng, depth - 1)


def random_condition(rng, depth):
    r = rng.random()
    if depth == 0 or r < 0.3:
        parts = [random_arith(rng, 2)]
        for _ in range(rng.choice((1, 1, 2))):
            parts += [rng.choice(REL_TOKENS), random_arith(rng, 2)]
        return " ".join(parts)
    if r < 0.45:
        return "!" + random_condition(rng, depth - 1)
    if r < 0.6:
        return "(" + random_condition(rng, depth - 1) + ")"
    return random_condition(rng, depth - 1) + rng.choice((" && ", " || ")) + random_condition(rng, depth - 1)


def test_printed_guards_parse_back(rng):
    for _ in range(2000):
        m = parse_model(guarded(random_condition(rng, 4)))
        text = pretty_print(m)
        again = parse_model(text)
        assert again == m, text
        assert pretty_print(again) == text


def test_printer_parenthesizes_or_inside_and_once():
    m = parse_model(guarded("i < j && (j != k || i != k)"))
    assert "i < j && (j != k || i != k)" in pretty_print(m)


def related(side):
    """A model whose one relation, x[1] + side >= 0, is on line 4."""
    return f"int n = ...;\ndvar int x[1..n] in 0..9; dvar int y in 0..9;\nsubject to {{\n  c: x[1] + {side} >= 0;\n}}\n"


# each shape: the model around a nested text, the text at depth d, its opener
NESTED = {
    "parentheses in a guard": (guarded, lambda d: "(" * d + "i < 2" + ")" * d, "("),
    "! in a guard": (guarded, lambda d: "!" * d + "i < 2", "!"),
    "unary minus in a guard": (guarded, lambda d: "-" * d + "i < 2", "-"),
    "|| and && in a guard": (guarded, lambda d: "(i < 1 || i < 2 && " * d + "i < 3" + ")" * d, "("),
    "parentheses in a relation": (related, lambda d: "(" * d + "y" + ")" * d, "("),
    "unary minus in a relation": (related, lambda d: "-" * d + "y", "-"),
    "unary minus on a literal": (related, lambda d: "- " * d + "1", "-"),
    "brackets in a relation": (related, lambda d: "x[" * d + "1" + "]" * d, "["),
    "brackets after operators in a relation": (related, lambda d: "x[1 + 1 * " * d + "1" + "]" * d, "["),
}


@pytest.mark.parametrize("shape", sorted(NESTED))
def test_nesting_past_the_bound_is_an_input_error(shape):
    wrap, nest, opener = NESTED[shape]
    src = wrap(nest(1000))
    at = src.index(nest(1000)) - 1
    for _ in range(MAX_NESTING + 1):  # the opener that goes one level too deep
        at = src.index(opener, at + 1)
    e = error_of(src)
    assert str(e) == f"{position(src, at)}: expression nested more than {MAX_NESTING} deep"
    assert e.span.start == at


@pytest.mark.parametrize("shape", sorted(s for s in NESTED if "brackets" not in s))
def test_nesting_at_the_bound_validates_grounds_and_prints(shape):
    wrap, nest, _ = NESTED[shape]
    m = parse_model(wrap(nest(MAX_NESTING)))
    ground(m, build_instance(m, None, {"n": 3}))
    assert same_tree(parse_model(pretty_print(m)), m)


def same_tree(a, b):
    """a == b on ASTs, by a loop: == recurses several frames a level."""
    stack = [(a, b)]
    while stack:
        a, b = stack.pop()
        if type(a) is not type(b):
            return False
        if isinstance(a, tuple):
            if len(a) != len(b):
                return False
            stack.extend(zip(a, b))
        elif dataclasses.is_dataclass(a):
            stack.extend((getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a) if f.compare)
        elif a != b:
            return False
    return True
