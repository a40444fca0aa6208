from __future__ import annotations

import dataclasses

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
from jayfix.minilang import ast as ast_module
from jayfix.minilang.parser import MAX_EXPR_DEPTH


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


def chain(terms: int, op: str = "+") -> str:
    return "fn f(a: int) -> int {\n    return " + f" {op} ".join(["a"] * terms) + ";\n}\n"


@pytest.mark.parametrize("op", ["+", "*", "%"])
def test_a_chain_at_the_depth_bound_compiles_and_one_operator_more_does_not(op):
    # the return's expression is one level; each operator of the chain one more
    ast, diagnostics = analyze(chain(MAX_EXPR_DEPTH, op))
    assert ast is not None and diagnostics == []
    assert pretty_print(ast).count(op) == MAX_EXPR_DEPTH - 1
    ast, diagnostics = analyze(chain(MAX_EXPR_DEPTH + 1, op))
    assert ast is None
    assert [(d.kind, d.message) for d in diagnostics] == [
        ("ParseError", "expression nesting too deep, got ';'")
    ]


def test_a_chain_of_5000_terms_is_a_diagnostic_not_a_crash():
    ast, diagnostics = analyze(chain(5000))
    assert ast is None
    assert [(d.kind, d.message) for d in diagnostics] == [
        ("ParseError", "expression nesting too deep, got '+'")
    ]


@pytest.mark.parametrize(
    "expr",
    [
        "xs" + "[0]" * 5000,
        # 100 parenthesized chains of 50 operators, each the left operand of
        # the next: no chain is long, but together they nest 5000 deep
        "(" * 100 + "a" + " + a" * 50 + (")" + " + a" * 50) * 100,
    ],
    ids=["indexing", "nested-chains"],
)
def test_other_left_deep_chains_are_bounded_too(expr):
    ast, diagnostics = analyze(f"fn f(a: int, xs: int[]) -> int {{ return {expr}; }}")
    assert ast is None and [d.kind for d in diagnostics] == ["ParseError"]
    assert diagnostics[0].message.startswith("expression nesting too deep, got ")


def test_no_instance_of_an_ast_class_has_a_dict(corpus_entries):
    seen = {}

    def visit(value):
        if isinstance(value, tuple):
            for item in value:
                visit(item)
        elif dataclasses.is_dataclass(value):
            seen.setdefault(type(value), value)
            for f in dataclasses.fields(value):
                visit(getattr(value, f.name))

    for entry in corpus_entries:
        visit(entry.ast)
        visit(entry.program)
    visit(parse("fn f() -> int[] { return [1]; }"))
    visit(tuple(analyze("fn f() -> int { return true; }")[1]))
    defined = {c for c in vars(ast_module).values() if isinstance(c, type) and dataclasses.is_dataclass(c)}
    assert defined == set(seen)
    for cls, instance in seen.items():
        assert not hasattr(instance, "__dict__"), cls.__name__
