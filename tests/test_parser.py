from __future__ import annotations

import pytest

from jayfix.minilang import (
    MiniLangError,
    analyze,
    ast_equal_normalized,
    parse,
    pretty_print,
    try_parse,
    walk_statements,
)


def count_statements(ast) -> int:
    return sum(1 for fn in ast.functions for _ in walk_statements(fn.body))


def test_minimal_program():
    ast = parse("fn main() -> int { return 1; }")
    assert len(ast.functions) == 1
    assert count_statements(ast) == 1


def test_missing_expression_is_parse_error():
    with pytest.raises(MiniLangError) as err:
        parse("fn main() -> int { return ; }")
    assert err.value.diagnostic.kind == "ParseError"
    assert err.value.diagnostic.span.start_line == 1


def test_try_parse_reports_first_error_only():
    ast, diag = try_parse("fn f( -> int { return 1; }")
    assert ast is None
    assert diag is not None and diag.kind == "ParseError"


def test_corpus_statement_counts_match_manifest(corpus_entries, manifest):
    golden = {item["name"]: item["statements"] for item in manifest}
    for entry in corpus_entries:
        assert count_statements(entry.ast) == golden[entry.name], entry.name


def test_lex_error_has_span():
    with pytest.raises(MiniLangError) as err:
        parse("fn f() -> int {\n  return @;\n}")
    assert err.value.diagnostic.kind == "LexError"
    assert err.value.diagnostic.span.start_line == 2


@pytest.mark.parametrize("number, bad", [("²", "²"), ("١٢", "١"), ("1²", "²")])
def test_a_non_ascii_digit_is_a_lex_error(number, bad):
    # `int` reads any Unicode digit; a number token is ASCII digits only
    ast, diagnostics = analyze(f"fn f() -> int {{ return {number}; }}")
    assert ast is None
    assert [d.kind for d in diagnostics] == ["LexError"]
    assert diagnostics[0].message == f"unexpected character {bad!r}"


def test_comments_are_skipped():
    ast = parse("// leading comment\nfn f() -> int { return 1; } // trailing\n")
    assert len(ast.functions) == 1


def test_else_if_chain_parses_and_roundtrips():
    src = (
        "fn sign(x: int) -> int {\n"
        "    if (x > 0) {\n"
        "        return 1;\n"
        "    } else if (x < 0) {\n"
        "        return -1;\n"
        "    } else {\n"
        "        return 0;\n"
        "    }\n"
        "}\n"
    )
    ast = parse(src)
    assert pretty_print(ast) == src
    assert ast_equal_normalized(parse(pretty_print(ast)), ast)


def test_precedence_and_associativity():
    a = parse("fn f(a: int, b: int, c: int) -> int { return a - b - c; }")
    b = parse("fn f(a: int, b: int, c: int) -> int { return (a - b) - c; }")
    c = parse("fn f(a: int, b: int, c: int) -> int { return a - (b - c); }")
    assert ast_equal_normalized(a, b)
    assert not ast_equal_normalized(a, c)


def test_deep_nesting_is_a_parse_error_not_a_crash():
    text = "fn f() -> int { return " + "(" * 6000 + "1" + ")" * 6000 + "; }"
    ast, diag = try_parse(text)
    assert ast is not None or diag.kind == "ParseError"
