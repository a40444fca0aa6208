"""Statement-location enumeration, line-span splicing, and its inverse:
the fault region that separates a buggy program from its fix.

Spans are inclusive 1-based line ranges. Splicing replaces a span's
lines with replacement lines; an empty replacement extends the edited
region by the following line on both sides of the edit so that regions
stay non-empty and the edit remains invertible (replacing the mutant
region with the original region's lines restores the base text).
"""

from __future__ import annotations

from dataclasses import dataclass

from .ast import Ast, Span, walk_statements


def enumerate_statement_locations(ast: Ast) -> list[Span]:
    """Spans of every statement inside any function body, source order,
    each span once.

    Nested statements are enumerated individually; an if/while statement
    contributes its own (multi-line) span plus one span per inner
    statement. A one-line compound statement shares its span with the
    statements inside it, and the span is listed once, for the first.
    """
    spans = (stmt.span for fn in ast.functions for stmt in walk_statements(fn.body))
    return list(dict.fromkeys(spans))


@dataclass(frozen=True)
class SpliceResult:
    mutant_text: str
    base_region: Span
    base_region_lines: tuple[str, ...]
    mutant_region: Span
    mutant_region_lines: tuple[str, ...]


def splice(text: str, span: Span, replacement_lines: list[str]) -> str:
    """Replace `span`'s lines with `replacement_lines`."""
    lines = text.split("\n")
    if span.end_line > len(lines):
        raise ValueError(f"span {span} outside file of {len(lines)} lines")
    new_lines = lines[: span.start_line - 1] + list(replacement_lines) + lines[span.end_line :]
    return "\n".join(new_lines)


def splice_region(text: str, span: Span, replacement_lines: list[str]) -> SpliceResult:
    """Apply an edit and report the paired base/mutant regions.

    For a non-empty replacement the base region is `span` itself and the
    mutant region covers the replacement lines. For an empty replacement
    (pure deletion) both regions absorb the line following `span`, which
    always exists because statements live inside brace-delimited blocks.
    """
    lines = text.split("\n")
    if span.end_line > len(lines):
        raise ValueError(f"span {span} outside file of {len(lines)} lines")
    replacement = list(replacement_lines)
    base_region = span
    if not replacement:
        if span.end_line >= len(lines):
            raise ValueError(f"cannot delete span {span}: no following line to anchor the edit")
        base_region = Span(span.start_line, span.end_line + 1)
        replacement = [lines[span.end_line]]  # the line after the deleted span
    base_region_lines = tuple(lines[base_region.start_line - 1 : base_region.end_line])
    mutant_text = splice(text, base_region, replacement)
    mutant_region = Span(base_region.start_line, base_region.start_line + len(replacement) - 1)
    return SpliceResult(
        mutant_text=mutant_text,
        base_region=base_region,
        base_region_lines=base_region_lines,
        mutant_region=mutant_region,
        mutant_region_lines=tuple(replacement),
    )


def derive_fault_region(buggy_text: str, fixed_text: str) -> tuple[Span, list[str]]:
    """Contiguous differing line block between a buggy program and its
    fix: the span to replace in the buggy text plus the replacement
    lines. Pure insertions/deletions absorb an unchanged neighbor line
    so the span and the replacement are both non-empty."""
    if buggy_text == fixed_text:
        raise ValueError("programs are identical; no fault region")
    buggy = buggy_text.split("\n")
    fixed = fixed_text.split("\n")
    top = 0
    while top < len(buggy) and top < len(fixed) and buggy[top] == fixed[top]:
        top += 1
    bottom = 0
    while (
        bottom < len(buggy) - top
        and bottom < len(fixed) - top
        and buggy[len(buggy) - 1 - bottom] == fixed[len(fixed) - 1 - bottom]
    ):
        bottom += 1
    buggy_block = buggy[top : len(buggy) - bottom]
    replacement = fixed[top : len(fixed) - bottom]
    if buggy_block and replacement:
        return Span(top + 1, len(buggy) - bottom), replacement
    if not buggy_block:
        # insertion: anchor the span on the unchanged neighbor line
        if top < len(buggy):
            return Span(top + 1, top + 1), replacement + [buggy[top]]
        return Span(top, top), [buggy[top - 1]] + replacement
    # deletion: absorb the following line, or the preceding one at EOF
    end = len(buggy) - bottom
    if end < len(buggy):
        return Span(top + 1, end + 1), [buggy[end]]
    return Span(top, end), [buggy[top - 1]]


def line_indent(text: str, line_number: int) -> str:
    line = text.split("\n")[line_number - 1]
    return line[: len(line) - len(line.lstrip(" "))]
