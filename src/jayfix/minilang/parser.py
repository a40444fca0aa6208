"""Recursive-descent parser for the Jay mini-language.

Grammar (statements are the mutation/repair granularity):

    program   := fn_decl* EOF
    fn_decl   := "fn" IDENT "(" [param ("," param)*] ")" "->" type block
    param     := IDENT ":" type
    type      := "int" ["[" "]"] | "bool"
    block     := "{" stmt* "}"
    stmt      := "let" IDENT ":" type "=" expr ";"
               | IDENT ["[" expr "]"] "=" expr ";"
               | "if" "(" expr ")" block ["else" (if_stmt | block)]
               | "while" "(" expr ")" block
               | "return" expr ";"

Binary operators are parsed by precedence climbing over one table,
`PRECEDENCE`: || < && < ==/!= < relational < additive < multiplicative,
each level left-associative. Unary operators bind tighter, and postfix
indexing tighter still. Parentheses group but leave no trace in the
AST. An expression may nest at most MAX_EXPR_DEPTH levels, counting
sub-expressions, unary operators, and each operator or index that a
chain adds to the left.

The parser stops at the first error and reports a single diagnostic.
"""

from __future__ import annotations

from typing import Union

from .ast import (
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
from .lexer import Token, tokenize


MAX_EXPR_DEPTH = 200

# Binding power of each binary operator, loosest first.
PRECEDENCE = {
    "||": 1,
    "&&": 2,
    "==": 3, "!=": 3,
    "<": 4, "<=": 4, ">": 4, ">=": 4,
    "+": 5, "-": 5,
    "*": 6, "/": 6, "%": 6,
}


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0
        self.height = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.type != "eof":
            self.pos += 1
        return tok

    def at(self, text: str) -> bool:
        """Is the next token the operator or keyword `text`? No other
        token has the text of one."""
        return self.tokens[self.pos].value == text

    def fail(self, message: str, tok: Token | None = None) -> MiniLangError:
        tok = tok or self.peek()
        shown = tok.value if tok.type != "eof" else "end of input"
        return MiniLangError(
            Diagnostic("ParseError", Span(tok.line, tok.line), f"{message}, got {shown!r}")
        )

    def expect(self, text: str) -> Token:
        if not self.at(text):
            raise self.fail(f"expected {text!r}")
        return self.advance()

    def expect_ident(self) -> Token:
        if self.peek().type != "ident":
            raise self.fail("expected 'ident'")
        return self.advance()

    # --- declarations ---

    def parse_program(self) -> Ast:
        functions: list[FunctionDecl] = []
        while self.peek().type != "eof":
            functions.append(self.parse_function())
        return Ast(tuple(functions))

    def parse_function(self) -> FunctionDecl:
        start = self.expect("fn")
        name = self.expect_ident().value
        self.expect("(")
        params: list[Param] = []
        if not self.at(")"):
            while True:
                pname = self.expect_ident().value
                self.expect(":")
                params.append(Param(pname, self.parse_type()))
                if self.at(","):
                    self.advance()
                    continue
                break
        self.expect(")")
        self.expect("->")
        return_type = self.parse_type()
        body = self.parse_block()
        span = Span(start.line, body.span.end_line)
        return FunctionDecl(name, tuple(params), return_type, body, span)

    def parse_type(self) -> str:
        tok = self.peek()
        if self.at("int"):
            self.advance()
            if self.at("["):
                self.advance()
                self.expect("]")
                return INT_ARRAY
            return INT
        if self.at("bool"):
            self.advance()
            return BOOL
        raise self.fail("expected a type ('int', 'int[]' or 'bool')", tok)

    def parse_block(self) -> Block:
        start = self.expect("{")
        statements: list[Stmt] = []
        while not self.at("}"):
            if self.peek().type == "eof":
                raise self.fail("unterminated block")
            statements.append(self.parse_statement())
        end = self.expect("}")
        return Block(tuple(statements), Span(start.line, end.line))

    # --- statements ---

    def parse_statement(self) -> Stmt:
        if self.at("let"):
            return self.parse_let()
        if self.at("if"):
            return self.parse_if()
        if self.at("while"):
            return self.parse_while()
        if self.at("return"):
            return self.parse_return()
        if self.peek().type == "ident":
            return self.parse_assignment()
        raise self.fail("expected a statement")

    def parse_let(self) -> Let:
        start = self.expect("let")
        name = self.expect_ident().value
        self.expect(":")
        type_ = self.parse_type()
        self.expect("=")
        value = self.parse_expression()
        end = self.expect(";")
        return Let(name, type_, value, Span(start.line, end.line))

    def parse_assignment(self) -> Union[Assign, AssignIndex]:
        name_tok = self.expect_ident()
        if self.at("["):
            self.advance()
            index = self.parse_expression()
            self.expect("]")
            self.expect("=")
            value = self.parse_expression()
            end = self.expect(";")
            return AssignIndex(name_tok.value, index, value, Span(name_tok.line, end.line))
        self.expect("=")
        value = self.parse_expression()
        end = self.expect(";")
        return Assign(name_tok.value, value, Span(name_tok.line, end.line))

    def parse_if(self) -> If:
        start = self.expect("if")
        self.expect("(")
        cond = self.parse_expression()
        self.expect(")")
        then_block = self.parse_block()
        else_branch: Union[Block, If, None] = None
        end_line = then_block.span.end_line
        if self.at("else"):
            self.advance()
            if self.at("if"):
                else_branch = self.parse_if()
            else:
                else_branch = self.parse_block()
            end_line = else_branch.span.end_line
        return If(cond, then_block, else_branch, Span(start.line, end_line))

    def parse_while(self) -> While:
        start = self.expect("while")
        self.expect("(")
        cond = self.parse_expression()
        self.expect(")")
        body = self.parse_block()
        return While(cond, body, Span(start.line, body.span.end_line))

    def parse_return(self) -> Return:
        start = self.expect("return")
        value = self.parse_expression()
        end = self.expect(";")
        return Return(value, Span(start.line, end.line))

    # --- expressions ---
    #
    # `depth` counts the sub-expressions and unary operators that enclose
    # the token being parsed; `height` is how far the expression parsed
    # last reaches below its own level, in the same units. Operators and
    # indexing that a loop chains to the left count through `height`, so
    # no part of an expression lies more than MAX_EXPR_DEPTH levels deep.

    def nest(self) -> None:
        self.depth += 1
        if self.depth > MAX_EXPR_DEPTH:
            raise self.fail("expression nesting too deep")

    def reach(self, height: int) -> None:
        self.height = height
        if self.depth + height > MAX_EXPR_DEPTH:
            raise self.fail("expression nesting too deep")

    def parse_expression(self) -> Expr:
        self.nest()
        expr = self.parse_binary(1)
        self.depth -= 1
        self.height += 1
        return expr

    def parse_binary(self, min_precedence: int) -> Expr:
        """Precedence climbing: the operators that bind at least as tightly
        as `min_precedence`, each level left-associative."""
        left = self.parse_unary()
        while (precedence := PRECEDENCE.get(op := self.peek().value, 0)) >= min_precedence:
            height = self.height
            self.advance()
            right = self.parse_binary(precedence + 1)
            self.reach(max(height, self.height) + 1)
            left = Binary(op, left, right, Span(left.span.start_line, right.span.end_line))
        return left

    def parse_unary(self) -> Expr:
        tok = self.peek()
        if tok.value == "-" or tok.value == "!":
            self.nest()
            self.advance()
            operand = self.parse_unary()
            self.depth -= 1
            self.height += 1
            return Unary(tok.value, operand, Span(tok.line, operand.span.end_line))
        return self.parse_postfix()

    def parse_postfix(self) -> Expr:
        expr = self.parse_primary()
        while self.at("["):
            height = self.height
            self.advance()
            index = self.parse_expression()
            end = self.expect("]")
            self.reach(max(height + 1, self.height))
            expr = Index(expr, index, Span(expr.span.start_line, end.line))
        return expr

    def parse_expressions(self, close: str) -> tuple[Expr, ...]:
        """Comma-separated expressions up to `close`, which is left unread."""
        items: list[Expr] = []
        height = 0
        if not self.at(close):
            while True:
                items.append(self.parse_expression())
                height = max(height, self.height)
                if not self.at(","):
                    break
                self.advance()
        self.height = height
        return tuple(items)

    def parse_primary(self) -> Expr:
        tok = self.peek()
        self.height = 0
        if tok.type == "number":
            self.advance()
            return IntLit(int(tok.value), Span(tok.line, tok.line))
        if tok.value == "true" or tok.value == "false":
            self.advance()
            return BoolLit(tok.value == "true", Span(tok.line, tok.line))
        if tok.type == "ident":
            self.advance()
            if self.at("("):
                self.advance()
                args = self.parse_expressions(")")
                end = self.expect(")")
                return Call(tok.value, args, Span(tok.line, end.line))
            return Var(tok.value, Span(tok.line, tok.line))
        if self.at("("):
            self.advance()
            expr = self.parse_expression()
            self.expect(")")
            return expr
        if self.at("["):
            self.advance()
            items = self.parse_expressions("]")
            end = self.expect("]")
            return ArrayLit(items, Span(tok.line, end.line))
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
