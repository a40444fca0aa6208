"""Tokenizer for the Jay mini-language.

One compiled pattern splits the source into lexemes, left to right:
a blank run (space, tab, carriage return), a newline, a `//` comment,
an ASCII number, a word, an operator (longest first), or any other
single character. Blanks and comments are dropped; a word is a keyword
or an identifier; the catch-all character is a LexError.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .ast import Diagnostic, MiniLangError, Span

KEYWORDS = frozenset(
    ["fn", "let", "if", "else", "while", "return", "true", "false", "int", "bool"]
)

# Number tokens are ASCII digits only: `int` would read other Unicode
# digits, and no other digit is a token.
DIGITS = frozenset("0123456789")

# Longest-match first.
OPERATORS = [
    "->", "==", "!=", "<=", ">=", "&&", "||",
    "+", "-", "*", "/", "%", "<", ">", "=", "!",
    "(", ")", "{", "}", "[", "]", ",", ";", ":",
]

# Blanks and comments match the empty group. `\w` is exactly
# `str.isalnum()` plus `_`, so a word runs as far as an identifier does;
# one that starts with a non-ASCII digit or numeral (`²`, `½`, `٣`) is
# rejected at its first character.
_LEXEME_RE = re.compile(
    r"[ \t\r]+|//[^\n]*|(\n|[0-9]+|\w+|"
    + "|".join(re.escape(op) for op in OPERATORS)
    + r"|.)"
)

_FIXED_KINDS = {**{op: "op" for op in OPERATORS}, **{kw: "kw" for kw in KEYWORDS}}


class Token(NamedTuple):
    type: str  # "ident" | "number" | "kw" | "op" | "eof"
    value: str
    line: int


def tokenize(text: str) -> list[Token]:
    """Lex the source, raising MiniLangError(LexError) on the first bad char.

    `//` comments run to end of line and are dropped.
    """
    tokens: list[Token] = []
    line = 1
    for lexeme in filter(None, _LEXEME_RE.findall(text)):
        kind = _FIXED_KINDS.get(lexeme)
        if kind is not None:
            tokens.append(Token(kind, lexeme, line))
            continue
        first = lexeme[0]
        if first == "\n":
            line += 1
        elif first in DIGITS:
            tokens.append(Token("number", lexeme, line))
        elif first.isalpha() or first == "_":
            tokens.append(Token("ident", lexeme, line))
        else:
            raise MiniLangError(
                Diagnostic("LexError", Span(line, line), f"unexpected character {first!r}")
            )
    tokens.append(Token("eof", "", line))
    return tokens
