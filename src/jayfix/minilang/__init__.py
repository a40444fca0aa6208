"""The Jay mini-language: parsing, type checking, interpretation,
pretty-printing, statement locations, splicing and fault-region
derivation, and normalized AST equality.

All operations are pure functions of their inputs and safe to call
concurrently.
"""

from __future__ import annotations

import sys

from .ast import (
    Ast,
    Diagnostic,
    MiniLangError,
    SourceProgram,
    Span,
    ast_equal_normalized,
    walk_expressions,
    walk_statements,
    BOOL,
    INT,
    INT_ARRAY,
)
from .interp import (
    CaseOutcome,
    DEFAULT_FUEL,
    ExecResult,
    ExecStatus,
    TestCase,
    TestReport,
    TestSuite,
    interpret,
    run_tests,
    values_equal,
)
from .locations import (
    SpliceResult,
    derive_fault_region,
    enumerate_statement_locations,
    line_indent,
    splice,
    splice_region,
)
from .parser import parse, try_parse
from .pretty import format_expression, format_statement, pretty_print
from .typecheck import BUILTINS, typecheck

# Deep-but-bounded nesting must not crash the host process before the
# language-level limits kick in: the parser caps expression depth, and
# this limit gives the recursive walks over the AST (parser, typechecker,
# printer) the headroom they need. The interpreter caps call depth and
# sizes the limit for each run from the program (`interp.stack_room`).
sys.setrecursionlimit(max(sys.getrecursionlimit(), 5_000))


def analyze(source: SourceProgram | str) -> tuple[Ast | None, list[Diagnostic]]:
    """Parse + typecheck. Returns (ast, []) when the program "compiles",
    otherwise (None or ast, diagnostics)."""
    ast, parse_diag = try_parse(source)
    if ast is None:
        assert parse_diag is not None
        return None, [parse_diag]
    return ast, typecheck(ast)


__all__ = [
    "Ast",
    "BOOL",
    "BUILTINS",
    "CaseOutcome",
    "DEFAULT_FUEL",
    "Diagnostic",
    "ExecResult",
    "ExecStatus",
    "INT",
    "INT_ARRAY",
    "MiniLangError",
    "SourceProgram",
    "Span",
    "SpliceResult",
    "TestCase",
    "TestReport",
    "TestSuite",
    "analyze",
    "ast_equal_normalized",
    "derive_fault_region",
    "enumerate_statement_locations",
    "format_expression",
    "format_statement",
    "interpret",
    "line_indent",
    "parse",
    "pretty_print",
    "run_tests",
    "splice",
    "splice_region",
    "try_parse",
    "typecheck",
    "values_equal",
    "walk_expressions",
    "walk_statements",
]
