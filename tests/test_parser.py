import pytest

from cpconftest import parse_data, parse_model, parse_model_file, pretty_print
from cpconftest.corpus import corpus_path
from cpconftest.errors import ParseError
from cpconftest.parser import tokenize
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
