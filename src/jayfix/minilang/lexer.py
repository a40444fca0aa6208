"""Tokenizer for the Jay mini-language."""

from __future__ import annotations

from dataclasses import dataclass

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


@dataclass(frozen=True)
class Token:
    type: str  # "ident" | "number" | "kw" | "op" | "eof"
    value: str
    line: int
    col: int


def tokenize(text: str) -> list[Token]:
    """Lex the source, raising MiniLangError(LexError) on the first bad char.

    `//` comments run to end of line and are dropped.
    """
    tokens: list[Token] = []
    i = 0
    line = 1
    col = 1
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if c.isalpha() or c == "_":
            start = i
            start_col = col
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
                col += 1
            word = text[start:i]
            kind = "kw" if word in KEYWORDS else "ident"
            tokens.append(Token(kind, word, line, start_col))
            continue
        if c in DIGITS:
            start = i
            start_col = col
            while i < n and text[i] in DIGITS:
                i += 1
                col += 1
            tokens.append(Token("number", text[start:i], line, start_col))
            continue
        matched = None
        for op in OPERATORS:
            if text.startswith(op, i):
                matched = op
                break
        if matched is None:
            raise MiniLangError(
                Diagnostic("LexError", Span(line, line), f"unexpected character {c!r}")
            )
        tokens.append(Token("op", matched, line, col))
        i += len(matched)
        col += len(matched)
    tokens.append(Token("eof", "", line, col))
    return tokens
