"""Differential tests of Jay's front end against `frontend_oracle`, the
per-character scanners and the one-method-per-level parser it replaced.

Inputs come two ways: corpus programs with random insertions, deletions
and copied slices, and short strings over an alphabet of lexemes and
awkward characters (non-ASCII letters, digits and numerals, every blank
and control character the lexer treats specially, long blank runs,
camelCase). Tokens are compared as `(type, value, line)`, errors by
their diagnostic, `analyze` by the AST with its spans and by its
diagnostics, and `_atoms` by its list of atoms.
"""

from __future__ import annotations

import sys
from pathlib import Path

import frontend_oracle as oracle
from hypothesis import given, settings, strategies as st

from jayfix.minilang import MiniLangError, analyze
from jayfix.minilang.lexer import tokenize
from jayfix.representation import _atoms

CORPUS_TEXTS = [
    path.read_text(encoding="utf-8")
    for path in sorted((Path(__file__).resolve().parent.parent / "corpus").glob("*.jay"))
]

PIECES = [
    # lexemes
    "fn", "let", "if", "else", "while", "return", "true", "false", "int", "bool",
    "->", "==", "!=", "<=", ">=", "&&", "||", "+", "-", "*", "/", "%", "<", ">",
    "=", "!", "(", ")", "{", "}", "[", "]", ",", ";", ":",
    "a", "xs", "_", "_tmp", "x1", "camelCase", "HTTPServer", "snake_case", "fnord",
    "0", "7", "42", "007",
    # blanks, newlines and comments
    " ", "  ", " " * 16, " " * 17, " " * 40, "\t", "\r", "\n", "\r\n", "//", "// note\n",
    # characters no token starts with
    "é", "Ω", "²", "½", "٣", "١٢", "\f", "\v", "\x00", "@", "#", "$", "?", "~", "'",
    '"', ".", "&", "|", "\u00a0", "\u2028", "\x85",
]

short_texts = st.lists(st.sampled_from(PIECES), max_size=30).map("".join)


@st.composite
def edited_programs(draw):
    """A corpus program after a few random insertions, deletions and
    copied slices."""
    text = draw(st.sampled_from(CORPUS_TEXTS))
    for _ in range(draw(st.integers(0, 4))):
        i = draw(st.integers(0, len(text)))
        j = draw(st.integers(i, min(len(text), i + 12)))
        edit = draw(st.sampled_from(["insert", "delete", "copy"]))
        if edit == "insert":
            text = text[:i] + draw(short_texts) + text[i:]
        elif edit == "delete":
            text = text[:i] + text[j:]
        else:
            k = draw(st.integers(0, len(text)))
            text = text[:k] + text[i:j] + text[k:]
    return text


# Expressions with no redundant parentheses, so that precedence and
# associativity decide the tree, with unary operators, calls and indexing.
_leaves = st.sampled_from(["a", "b", "xs", "0", "17", "true", "false", "f(a)", "xs[0]"])
_operators = st.sampled_from(["||", "&&", "==", "!=", "<", "<=", ">", ">=", "+", "-", "*", "/", "%"])
_expressions = st.recursive(
    _leaves,
    lambda sub: st.one_of(
        st.tuples(sub, st.lists(st.tuples(_operators, sub), min_size=1, max_size=5)).map(
            lambda t: t[0] + "".join(f" {op} {e}" for op, e in t[1])
        ),
        st.tuples(st.sampled_from(["-", "!", "- -", "!!"]), sub).map("".join),
        sub.map(lambda e: f"({e})"),
        sub.map(lambda e: f"xs[{e}]"),
        st.lists(sub, max_size=3).map(lambda es: f"g({', '.join(es)})"),
        st.lists(sub, max_size=3).map(lambda es: f"[{', '.join(es)}]"),
    ),
    max_leaves=12,
)

# Nesting around a leaf on both sides of MAX_EXPR_DEPTH: the two parsers
# agree there, because no operator chain lengthens the nesting.
_deep = st.tuples(
    st.integers(0, 260), st.sampled_from(["(", "-", "!", "(-"]), st.sampled_from(["a", "1", "true"])
).map(lambda t: t[1] * t[0] + t[2] + ")" * (t[0] * t[1].count("(")))


def lexed(tokenize, text):
    try:
        return [(tok.type, tok.value, tok.line) for tok in tokenize(text)]
    except MiniLangError as err:
        return err.diagnostic


def analyzed(analyze, text):
    # The oracle takes ten frames per nesting level and Hypothesis leaves
    # a test only 2000, so deep nesting would stop at the host's limit
    # rather than at MAX_EXPR_DEPTH.
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 20_000))
    try:
        ast, diagnostics = analyze(text)
    finally:
        sys.setrecursionlimit(limit)
    return repr(ast), diagnostics  # repr shows the spans; equality ignores them


def program(expr: str) -> str:
    return (
        "fn g(a: int) -> int { return a; }\n"
        f"fn f(a: int, b: int, xs: int[]) -> int {{\n    return {expr};\n}}\n"
    )


@settings(max_examples=400)
@given(text=st.one_of(edited_programs(), short_texts))
def test_tokens_match_the_character_loop(text):
    assert lexed(tokenize, text) == lexed(oracle.tokenize, text)


@settings(max_examples=400)
@given(text=st.one_of(edited_programs(), short_texts))
def test_atoms_match_the_character_loop(text):
    assert _atoms(text) == oracle.atoms(text)


@settings(max_examples=200)
@given(text=edited_programs())
def test_analyze_matches_the_chain_parser_on_edited_programs(text):
    assert analyzed(analyze, text) == analyzed(oracle.analyze, text)


@settings(max_examples=300)
@given(expr=st.one_of(_expressions, _deep))
def test_analyze_matches_the_chain_parser_on_expressions(expr):
    assert analyzed(analyze, program(expr)) == analyzed(oracle.analyze, program(expr))


def test_analyze_matches_the_chain_parser_on_every_corpus_program():
    for text in CORPUS_TEXTS:
        assert analyzed(analyze, text) == analyzed(oracle.analyze, text)
