from __future__ import annotations

from hypothesis import given, settings, strategies as st

from helpers import region_text
from jayfix.minilang import (
    Span,
    ast_equal_normalized,
    enumerate_statement_locations,
    parse,
    pretty_print,
    splice,
    splice_region,
    typecheck,
)


def test_single_return_location():
    ast = parse("fn main() -> int { return 1; }")
    assert enumerate_statement_locations(ast) == [Span(1, 1)]


def test_if_else_counts_nested_statements_individually():
    src = (
        "fn f(x: int) -> int {\n"
        "    if (x > 0) {\n"
        "        let a: int = 1;\n"
        "        return a;\n"
        "    } else {\n"
        "        let b: int = 2;\n"
        "        let c: int = 3;\n"
        "        return b + c;\n"
        "    }\n"
        "}\n"
    )
    spans = enumerate_statement_locations(parse(src))
    # the if itself plus 2 + 3 inner statements
    assert len(spans) == 6
    assert spans[0] == Span(2, 9)
    assert spans[1:] == [Span(3, 3), Span(4, 4), Span(6, 6), Span(7, 7), Span(8, 8)]


def test_empty_body_has_no_locations():
    assert enumerate_statement_locations(parse("fn f() -> int {}")) == []


def test_locations_are_in_source_order(corpus_entries):
    for entry in corpus_entries:
        spans = enumerate_statement_locations(entry.ast)
        starts = [s.start_line for s in spans]
        assert starts == sorted(starts), entry.name
        assert all(s.end_line <= entry.program.line_count for s in spans)


def test_corpus_programs_are_canonical(corpus_entries):
    for entry in corpus_entries:
        assert pretty_print(entry.ast) == entry.program.text, entry.name


def test_roundtrip_over_corpus(corpus_entries):
    for entry in corpus_entries:
        printed = pretty_print(entry.ast)
        reparsed = parse(printed)
        assert ast_equal_normalized(reparsed, entry.ast), entry.name
        assert typecheck(reparsed) == []


def test_redundant_parens_normalize_away():
    a = parse("fn f(a: int, b: int) -> int { let x: int = (a - b); return x; }")
    b = parse("fn f(a: int, b: int) -> int { let x: int = a - b; return x; }")
    assert ast_equal_normalized(a, b)


def test_operator_change_is_not_equal():
    a = parse("fn f(a: int, b: int) -> int { return a - b; }")
    b = parse("fn f(a: int, b: int) -> int { return a + b; }")
    assert not ast_equal_normalized(a, b)


def test_whitespace_reformat_is_equal():
    a = parse("fn f(a: int) -> int {\n    return a;\n}\n")
    b = parse("fn f(a: int)->int{return a;}")
    assert ast_equal_normalized(a, b)


def test_splice_soundness_on_every_location(corpus_entries):
    # replacing a span's lines with themselves is the identity, and the
    # reparsed program's spans never leave the file
    for entry in corpus_entries:
        for span in enumerate_statement_locations(entry.ast):
            lines = entry.program.lines[span.start_line - 1 : span.end_line]
            assert splice(entry.program.text, span, lines) == entry.program.text
            replaced = splice(entry.program.text, span, ["    // hole"] )
            reparsed_spans = enumerate_statement_locations(parse(entry.program.text))
            assert all(s.end_line <= entry.program.line_count for s in reparsed_spans)
            assert replaced.count("\n") == entry.program.text.count("\n") - (span.end_line - span.start_line)


def test_splice_region_inverts_deletion():
    text = "fn f() -> int {\n    let a: int = 1;\n    return a;\n}\n"
    result = splice_region(text, Span(2, 2), [])
    assert result.mutant_region == Span(2, 2)
    assert result.base_region == Span(2, 3)
    assert splice(result.mutant_text, result.mutant_region, list(result.base_region_lines)) == text


def test_region_text_matches_lines():
    text = "fn f() -> int {\n    return 1;\n}\n"
    assert region_text(text, Span(2, 2)) == "    return 1;"


# --- randomized round-trip -------------------------------------------------

_names = st.sampled_from(["a", "b", "c", "xs"])


def _exprs(depth: int):
    leaf = st.one_of(
        st.integers(min_value=0, max_value=99).map(str),
        _names,
        st.booleans().map(lambda v: "true" if v else "false"),
    )
    if depth == 0:
        return leaf
    sub = _exprs(depth - 1)
    return st.one_of(
        leaf,
        st.tuples(sub, st.sampled_from(["+", "-", "*", "/", "%"]), sub).map(
            lambda t: f"({t[0]} {t[1]} {t[2]})"
        ),
        sub.map(lambda e: f"(-{e})"),
    )


@settings(max_examples=60, deadline=None)
@given(expr=_exprs(3))
def test_random_expression_roundtrip(expr):
    src = f"fn f(a: int, b: int, c: int, xs: int) -> int {{ return {expr}; }}"
    ast = parse(src)
    printed = pretty_print(ast)
    assert ast_equal_normalized(parse(printed), ast)
