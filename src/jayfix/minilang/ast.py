"""AST node definitions for the Jay mini-language.

All nodes are frozen dataclasses with slots, so that no node carries a
per-instance dict. Location spans are excluded from equality and
hashing, so ``a == b`` is structural equality up to formatting, which
is exactly what normalized AST comparison needs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

INT = "int"
BOOL = "bool"
INT_ARRAY = "int[]"

TYPES = (INT, BOOL, INT_ARRAY)


@dataclass(frozen=True, slots=True)
class Span:
    """Inclusive 1-based line range."""

    start_line: int
    end_line: int

    def __post_init__(self) -> None:
        if self.start_line < 1 or self.end_line < self.start_line:
            raise ValueError(f"invalid span {self.start_line}..{self.end_line}")

    def __str__(self) -> str:
        return f"{self.start_line}:{self.end_line}"


@dataclass(frozen=True, slots=True)
class SourceProgram:
    """Named UTF-8 source text with a 1-based line index."""

    name: str
    text: str

    @property
    def lines(self) -> list[str]:
        return self.text.split("\n")

    def line(self, number: int) -> str:
        return self.lines[number - 1]

    @property
    def line_count(self) -> int:
        return len(self.lines)


@dataclass(frozen=True, slots=True)
class Diagnostic:
    kind: str  # LexError | ParseError | TypeError
    span: Span
    message: str

    def __str__(self) -> str:
        return f"{self.kind} at line {self.span}: {self.message}"


class MiniLangError(Exception):
    """Raised by parse when the source cannot be turned into an Ast."""

    def __init__(self, diagnostic: Diagnostic):
        super().__init__(str(diagnostic))
        self.diagnostic = diagnostic


# --- expressions ---------------------------------------------------------


@dataclass(frozen=True, slots=True)
class IntLit:
    value: int
    span: Span = field(compare=False)


@dataclass(frozen=True, slots=True)
class BoolLit:
    value: bool
    span: Span = field(compare=False)


@dataclass(frozen=True, slots=True)
class Var:
    name: str
    span: Span = field(compare=False)


@dataclass(frozen=True, slots=True)
class ArrayLit:
    items: tuple["Expr", ...]
    span: Span = field(compare=False)


@dataclass(frozen=True, slots=True)
class Unary:
    op: str  # "-" | "!"
    operand: "Expr"
    span: Span = field(compare=False)


@dataclass(frozen=True, slots=True)
class Binary:
    op: str
    left: "Expr"
    right: "Expr"
    span: Span = field(compare=False)


@dataclass(frozen=True, slots=True)
class Call:
    func: str
    args: tuple["Expr", ...]
    span: Span = field(compare=False)


@dataclass(frozen=True, slots=True)
class Index:
    base: "Expr"
    index: "Expr"
    span: Span = field(compare=False)


Expr = Union[IntLit, BoolLit, Var, ArrayLit, Unary, Binary, Call, Index]


# --- statements ----------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Let:
    name: str
    type: str
    value: Expr
    span: Span = field(compare=False)


@dataclass(frozen=True, slots=True)
class Assign:
    name: str
    value: Expr
    span: Span = field(compare=False)


@dataclass(frozen=True, slots=True)
class AssignIndex:
    name: str
    index: Expr
    value: Expr
    span: Span = field(compare=False)


@dataclass(frozen=True, slots=True)
class Block:
    statements: tuple["Stmt", ...]
    span: Span = field(compare=False)


@dataclass(frozen=True, slots=True)
class If:
    cond: Expr
    then_block: Block
    else_branch: Optional[Union[Block, "If"]]
    span: Span = field(compare=False)


@dataclass(frozen=True, slots=True)
class While:
    cond: Expr
    body: Block
    span: Span = field(compare=False)


@dataclass(frozen=True, slots=True)
class Return:
    value: Expr
    span: Span = field(compare=False)


Stmt = Union[Let, Assign, AssignIndex, If, While, Return]


@dataclass(frozen=True, slots=True)
class Param:
    name: str
    type: str


@dataclass(frozen=True, slots=True)
class FunctionDecl:
    name: str
    params: tuple[Param, ...]
    return_type: str
    body: Block
    span: Span = field(compare=False)


@dataclass(frozen=True, slots=True)
class Ast:
    functions: tuple[FunctionDecl, ...]

    def function(self, name: str) -> Optional[FunctionDecl]:
        for fn in self.functions:
            if fn.name == name:
                return fn
        return None


def ast_equal_normalized(a: Ast, b: Ast) -> bool:
    """Structural equality ignoring spans and formatting.

    Redundant parentheses never reach the AST, so this is equality up to
    whitespace, line breaks, and grouping noise.
    """
    return a == b


def walk_statements(block: Block):
    """Yield every statement in the block, pre-order, recursing into
    nested blocks (if/else bodies and while bodies)."""
    for stmt in block.statements:
        yield stmt
        if isinstance(stmt, If):
            yield from walk_statements(stmt.then_block)
            branch = stmt.else_branch
            while isinstance(branch, If):
                yield branch
                yield from walk_statements(branch.then_block)
                branch = branch.else_branch
            if isinstance(branch, Block):
                yield from walk_statements(branch)
        elif isinstance(stmt, While):
            yield from walk_statements(stmt.body)


def walk_expressions(node) -> list:
    """All expression nodes reachable from a statement or expression,
    pre-order."""
    out: list = []

    def visit_expr(e) -> None:
        out.append(e)
        if isinstance(e, ArrayLit):
            for item in e.items:
                visit_expr(item)
        elif isinstance(e, Unary):
            visit_expr(e.operand)
        elif isinstance(e, Binary):
            visit_expr(e.left)
            visit_expr(e.right)
        elif isinstance(e, Call):
            for arg in e.args:
                visit_expr(arg)
        elif isinstance(e, Index):
            visit_expr(e.base)
            visit_expr(e.index)

    def visit_stmt(s) -> None:
        if isinstance(s, Let):
            visit_expr(s.value)
        elif isinstance(s, Assign):
            visit_expr(s.value)
        elif isinstance(s, AssignIndex):
            visit_expr(s.index)
            visit_expr(s.value)
        elif isinstance(s, If):
            visit_expr(s.cond)
        elif isinstance(s, While):
            visit_expr(s.cond)
        elif isinstance(s, Return):
            visit_expr(s.value)

    if isinstance(node, (Let, Assign, AssignIndex, If, While, Return)):
        visit_stmt(node)
    else:
        visit_expr(node)
    return out
