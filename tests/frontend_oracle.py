"""The Jay front end as it was before one regular expression scanned the
source and one precedence table parsed binary operators, kept as the
oracle of the differential tests in `test_frontend_differential.py`.

`tokenize` walks the text one character at a time and tries every
operator with `str.startswith`; `atoms` is the same walk on the
encoding side; the parser descends one method per precedence level.
This parser bounds only the nesting of sub-expressions and unary
operators, not the length of an operator chain.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Union

from jayfix.minilang.ast import (
    ArrayLit,
    Assign,
    AssignIndex,
    Ast,
    Binary,
    Block,
    BoolLit,
    Call,
    Diagnostic,
    Expr,
    FunctionDecl,
    If,
    Index,
    IntLit,
    Let,
    MiniLangError,
    Param,
    Return,
    SourceProgram,
    Span,
    Stmt,
    Unary,
    Var,
    While,
    INT,
    BOOL,
    INT_ARRAY,
)
from jayfix.minilang.typecheck import typecheck
from jayfix.representation import MAX_SPACE_RUN, split_identifier

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


MAX_EXPR_DEPTH = 200


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.type != "eof":
            self.pos += 1
        return tok

    def at(self, type_: str, value: str | None = None) -> bool:
        tok = self.peek()
        return tok.type == type_ and (value is None or tok.value == value)

    def fail(self, message: str, tok: Token | None = None) -> MiniLangError:
        tok = tok or self.peek()
        shown = tok.value if tok.type != "eof" else "end of input"
        return MiniLangError(
            Diagnostic("ParseError", Span(tok.line, tok.line), f"{message}, got {shown!r}")
        )

    def expect(self, type_: str, value: str | None = None) -> Token:
        if not self.at(type_, value):
            want = value if value is not None else type_
            raise self.fail(f"expected {want!r}")
        return self.advance()

    # --- declarations ---

    def parse_program(self) -> Ast:
        functions: list[FunctionDecl] = []
        while not self.at("eof"):
            functions.append(self.parse_function())
        return Ast(tuple(functions))

    def parse_function(self) -> FunctionDecl:
        start = self.expect("kw", "fn")
        name = self.expect("ident").value
        self.expect("op", "(")
        params: list[Param] = []
        if not self.at("op", ")"):
            while True:
                pname = self.expect("ident").value
                self.expect("op", ":")
                params.append(Param(pname, self.parse_type()))
                if self.at("op", ","):
                    self.advance()
                    continue
                break
        self.expect("op", ")")
        self.expect("op", "->")
        return_type = self.parse_type()
        body = self.parse_block()
        span = Span(start.line, body.span.end_line)
        return FunctionDecl(name, tuple(params), return_type, body, span)

    def parse_type(self) -> str:
        tok = self.peek()
        if self.at("kw", "int"):
            self.advance()
            if self.at("op", "["):
                self.advance()
                self.expect("op", "]")
                return INT_ARRAY
            return INT
        if self.at("kw", "bool"):
            self.advance()
            return BOOL
        raise self.fail("expected a type ('int', 'int[]' or 'bool')", tok)

    def parse_block(self) -> Block:
        start = self.expect("op", "{")
        statements: list[Stmt] = []
        while not self.at("op", "}"):
            if self.at("eof"):
                raise self.fail("unterminated block")
            statements.append(self.parse_statement())
        end = self.expect("op", "}")
        return Block(tuple(statements), Span(start.line, end.line))

    # --- statements ---

    def parse_statement(self) -> Stmt:
        if self.at("kw", "let"):
            return self.parse_let()
        if self.at("kw", "if"):
            return self.parse_if()
        if self.at("kw", "while"):
            return self.parse_while()
        if self.at("kw", "return"):
            return self.parse_return()
        if self.at("ident"):
            return self.parse_assignment()
        raise self.fail("expected a statement")

    def parse_let(self) -> Let:
        start = self.expect("kw", "let")
        name = self.expect("ident").value
        self.expect("op", ":")
        type_ = self.parse_type()
        self.expect("op", "=")
        value = self.parse_expression()
        end = self.expect("op", ";")
        return Let(name, type_, value, Span(start.line, end.line))

    def parse_assignment(self) -> Union[Assign, AssignIndex]:
        name_tok = self.expect("ident")
        if self.at("op", "["):
            self.advance()
            index = self.parse_expression()
            self.expect("op", "]")
            self.expect("op", "=")
            value = self.parse_expression()
            end = self.expect("op", ";")
            return AssignIndex(name_tok.value, index, value, Span(name_tok.line, end.line))
        self.expect("op", "=")
        value = self.parse_expression()
        end = self.expect("op", ";")
        return Assign(name_tok.value, value, Span(name_tok.line, end.line))

    def parse_if(self) -> If:
        start = self.expect("kw", "if")
        self.expect("op", "(")
        cond = self.parse_expression()
        self.expect("op", ")")
        then_block = self.parse_block()
        else_branch: Union[Block, If, None] = None
        end_line = then_block.span.end_line
        if self.at("kw", "else"):
            self.advance()
            if self.at("kw", "if"):
                else_branch = self.parse_if()
            else:
                else_branch = self.parse_block()
            end_line = else_branch.span.end_line
        return If(cond, then_block, else_branch, Span(start.line, end_line))

    def parse_while(self) -> While:
        start = self.expect("kw", "while")
        self.expect("op", "(")
        cond = self.parse_expression()
        self.expect("op", ")")
        body = self.parse_block()
        return While(cond, body, Span(start.line, body.span.end_line))

    def parse_return(self) -> Return:
        start = self.expect("kw", "return")
        value = self.parse_expression()
        end = self.expect("op", ";")
        return Return(value, Span(start.line, end.line))

    # --- expressions ---

    def parse_expression(self) -> Expr:
        self.depth += 1
        if self.depth > MAX_EXPR_DEPTH:
            raise self.fail("expression nesting too deep")
        try:
            return self.parse_or()
        finally:
            self.depth -= 1

    def _binary_chain(self, sub, ops: tuple[str, ...]) -> Expr:
        left = sub()
        while self.peek().type == "op" and self.peek().value in ops:
            op = self.advance().value
            right = sub()
            left = Binary(op, left, right, Span(left.span.start_line, right.span.end_line))
        return left

    def parse_or(self) -> Expr:
        return self._binary_chain(self.parse_and, ("||",))

    def parse_and(self) -> Expr:
        return self._binary_chain(self.parse_equality, ("&&",))

    def parse_equality(self) -> Expr:
        return self._binary_chain(self.parse_relational, ("==", "!="))

    def parse_relational(self) -> Expr:
        return self._binary_chain(self.parse_additive, ("<", "<=", ">", ">="))

    def parse_additive(self) -> Expr:
        return self._binary_chain(self.parse_multiplicative, ("+", "-"))

    def parse_multiplicative(self) -> Expr:
        return self._binary_chain(self.parse_unary, ("*", "/", "%"))

    def parse_unary(self) -> Expr:
        tok = self.peek()
        if tok.type == "op" and tok.value in ("-", "!"):
            self.depth += 1
            if self.depth > MAX_EXPR_DEPTH:
                raise self.fail("expression nesting too deep")
            try:
                self.advance()
                operand = self.parse_unary()
            finally:
                self.depth -= 1
            return Unary(tok.value, operand, Span(tok.line, operand.span.end_line))
        return self.parse_postfix()

    def parse_postfix(self) -> Expr:
        expr = self.parse_primary()
        while self.at("op", "["):
            self.advance()
            index = self.parse_expression()
            end = self.expect("op", "]")
            expr = Index(expr, index, Span(expr.span.start_line, end.line))
        return expr

    def parse_primary(self) -> Expr:
        tok = self.peek()
        if tok.type == "number":
            self.advance()
            return IntLit(int(tok.value), Span(tok.line, tok.line))
        if self.at("kw", "true") or self.at("kw", "false"):
            self.advance()
            return BoolLit(tok.value == "true", Span(tok.line, tok.line))
        if tok.type == "ident":
            self.advance()
            if self.at("op", "("):
                self.advance()
                args: list[Expr] = []
                if not self.at("op", ")"):
                    while True:
                        args.append(self.parse_expression())
                        if self.at("op", ","):
                            self.advance()
                            continue
                        break
                end = self.expect("op", ")")
                return Call(tok.value, tuple(args), Span(tok.line, end.line))
            return Var(tok.value, Span(tok.line, tok.line))
        if self.at("op", "("):
            self.advance()
            expr = self.parse_expression()
            self.expect("op", ")")
            return expr
        if self.at("op", "["):
            start = self.advance()
            items: list[Expr] = []
            if not self.at("op", "]"):
                while True:
                    items.append(self.parse_expression())
                    if self.at("op", ","):
                        self.advance()
                        continue
                    break
            end = self.expect("op", "]")
            return ArrayLit(tuple(items), Span(start.line, end.line))
        raise self.fail("expected an expression")


def parse(source: SourceProgram | str) -> Ast:
    """Parse a program, raising MiniLangError with the first diagnostic."""
    text = source.text if isinstance(source, SourceProgram) else source
    try:
        return _Parser(tokenize(text)).parse_program()
    except RecursionError:
        raise MiniLangError(
            Diagnostic("ParseError", Span(1, 1), "expression nesting too deep")
        ) from None


def try_parse(source: SourceProgram | str) -> tuple[Ast | None, Diagnostic | None]:
    """Non-raising variant: (ast, None) on success, (None, diagnostic) on failure."""
    try:
        return parse(source), None
    except MiniLangError as err:
        return None, err.diagnostic


def analyze(source: SourceProgram | str) -> tuple[Ast | None, list[Diagnostic]]:
    ast, parse_diag = try_parse(source)
    if ast is None:
        return None, [parse_diag]
    return ast, typecheck(ast)


# --- the encoding side's scan ---------------------------------------------

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def atoms(text: str) -> list[str]:
    """Scan text into token surface strings (lossless: ''.join == text)."""
    out: list[str] = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            out.append("\n")
            i += 1
            continue
        if c == " ":
            j = i
            while j < n and text[j] == " ":
                j += 1
            run = j - i
            while run > MAX_SPACE_RUN:
                out.append(" " * MAX_SPACE_RUN)
                run -= MAX_SPACE_RUN
            out.append(" " * run)
            i = j
            continue
        m = _IDENT_RE.match(text, i)
        if m:
            out.extend(split_identifier(m.group()))
            i = m.end()
            continue
        if c.isdigit():
            out.append(c)
            i += 1
            continue
        matched = None
        for op in OPERATORS:
            if text.startswith(op, i):
                matched = op
                break
        if matched:
            out.append(matched)
            i += len(matched)
        else:
            out.append(c)  # falls back to bytes at encode time
            i += 1
    return out
