"""Rule-based corruption engine for initialization data.

Eight corruption rules mutate correct programs at enumerated statement
locations: swapping call arguments, replacing binary operators within
their class, negating conditions, substituting in-scope variables,
perturbing integer literals, deleting statements, duplicating
statements, and retargeting calls to same-arity callees. Mutants must
reparse but are deliberately not required to typecheck; critics only
govern back-translation data, not initialization data.

Every mutant yields one fix-direction sample (buggy region in, correct
region out) and one break-direction sample (the reverse); a bug whose
pair cannot both be encoded within the length budgets is dropped whole,
keeping the two directions in one-to-one correspondence.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .corpus import (
    CorpusEntry,
    DIRECTION_BREAK,
    DIRECTION_FIX,
    ORIGIN_MECHANICAL,
    TrainingSample,
    sample_from_edit,
)
from .minilang import (
    Ast,
    SourceProgram,
    Span,
    enumerate_statement_locations,
    format_statement,
    line_indent,
    parse,
    splice_region,
    walk_expressions,
    walk_statements,
)
from .minilang.ast import (
    Binary,
    BoolLit,
    Call,
    FunctionDecl,
    If,
    IntLit,
    Let,
    Unary,
    Var,
    While,
)
from .minilang.typecheck import BUILTINS
from .representation import RepresentationConfig, Vocabulary
from .util import derive_rng


@dataclass(frozen=True)
class RuleContext:
    program: SourceProgram
    ast: Ast
    function: FunctionDecl
    stmt: object
    span: Span
    indent: str


@dataclass(frozen=True)
class CorruptionRule:
    id: str
    description: str
    apply: Callable[[RuleContext, np.random.Generator], Optional[tuple[Span, list[str]]]]
    # apply returns (edit region within the statement, replacement lines),
    # or None when the rule does not apply at this location.


@dataclass(frozen=True)
class MechanicalBug:
    base_name: str
    rule_id: str
    anchor_span: Span          # the statement location the rule targeted
    base_region: Span          # base lines replaced by the edit
    base_region_lines: tuple[str, ...]
    mutant: SourceProgram
    mutant_region: Span        # lines of the mutant holding the replacement
    mutant_region_lines: tuple[str, ...]


def _render(stmt, indent: str) -> list[str]:
    depth = len(indent) // 4
    return format_statement(stmt, depth)


def _statement_edit(ctx: RuleContext, new_stmt) -> tuple[Span, list[str]]:
    """The edit that rewrites the targeted statement as `new_stmt`. A
    multi-line if/while changes only its header line, so the bug region
    stays small; any other statement is rewritten whole. An if that
    continues an else-if chain keeps its `} else if` shape either way."""
    rendered = _render(new_stmt, ctx.indent)
    original = ctx.program.line(ctx.span.start_line)
    if isinstance(ctx.stmt, If) and original.lstrip(" ").startswith("} else if"):
        rendered[0] = ctx.indent + "} else " + rendered[0].lstrip(" ")
    if isinstance(ctx.stmt, (If, While)) and ctx.span.end_line > ctx.span.start_line:
        return Span(ctx.span.start_line, ctx.span.start_line), rendered[:1]
    return ctx.span, rendered


def _calls_in_statement(stmt) -> list[Call]:
    return [e for e in walk_expressions(stmt) if isinstance(e, Call)]


def _replace_expr(node, target, replacement):
    """Structural copy of `node` with the first occurrence of `target`
    (by identity) swapped for `replacement`."""
    if node is target:
        return replacement
    if isinstance(node, (IntLit, BoolLit, Var)):
        return node
    if dataclasses.is_dataclass(node):
        changes = {}
        for f in dataclasses.fields(node):
            value = getattr(node, f.name)
            if isinstance(value, tuple):
                new_items = tuple(
                    _replace_expr(item, target, replacement)
                    if dataclasses.is_dataclass(item)
                    else item
                    for item in value
                )
                if any(a is not b for a, b in zip(new_items, value)):
                    changes[f.name] = new_items
            elif dataclasses.is_dataclass(value) and not isinstance(value, Span):
                new_value = _replace_expr(value, target, replacement)
                if new_value is not value:
                    changes[f.name] = new_value
        return dataclasses.replace(node, **changes) if changes else node
    return node


# --- the eight rules -------------------------------------------------------


def _swap_call_args(ctx: RuleContext, rng: np.random.Generator):
    candidates = [c for c in _calls_in_statement(ctx.stmt) if len(c.args) >= 2]
    rng.shuffle(candidates)
    for call in candidates:
        if call.args[0] == call.args[1]:
            continue  # swapping identical arguments is a no-op
        swapped = dataclasses.replace(
            call, args=(call.args[1], call.args[0]) + call.args[2:]
        )
        return _statement_edit(ctx, _replace_expr(ctx.stmt, call, swapped))
    return None


_OPERATOR_CLASSES = [
    ["+", "-", "*", "/", "%"],
    ["<", "<=", ">", ">=", "==", "!="],
]


def _replace_binary_operator(ctx: RuleContext, rng: np.random.Generator):
    arith, comparison = _OPERATOR_CLASSES
    nodes = [
        e
        for e in walk_expressions(ctx.stmt)
        if isinstance(e, Binary) and (e.op in arith or e.op in comparison)
    ]
    if not nodes:
        return None
    node = nodes[int(rng.integers(len(nodes)))]
    pool = arith if node.op in arith else comparison
    alternatives = [op for op in pool if op != node.op]
    new_op = alternatives[int(rng.integers(len(alternatives)))]
    return _statement_edit(ctx, _replace_expr(ctx.stmt, node, dataclasses.replace(node, op=new_op)))


def _negate_condition(ctx: RuleContext, rng: np.random.Generator):
    if not isinstance(ctx.stmt, (If, While)):
        return None
    negated = Unary("!", ctx.stmt.cond, ctx.stmt.cond.span)
    return _statement_edit(ctx, dataclasses.replace(ctx.stmt, cond=negated))


def _in_scope_names(ctx: RuleContext) -> list[str]:
    names = [p.name for p in ctx.function.params]
    for stmt in walk_statements(ctx.function.body):
        if isinstance(stmt, Let):
            names.append(stmt.name)
    return list(dict.fromkeys(names))


def _replace_variable(ctx: RuleContext, rng: np.random.Generator):
    names = _in_scope_names(ctx)
    if len(names) < 2:
        return None
    variables = [e for e in walk_expressions(ctx.stmt) if isinstance(e, Var)]
    rng.shuffle(variables)
    for var in variables:
        others = [n for n in names if n != var.name]
        if not others:
            continue
        replacement = others[int(rng.integers(len(others)))]
        return _statement_edit(ctx, _replace_expr(ctx.stmt, var, Var(replacement, var.span)))
    return None


def _perturb_integer_literal(ctx: RuleContext, rng: np.random.Generator):
    literals = [e for e in walk_expressions(ctx.stmt) if isinstance(e, IntLit)]
    if not literals:
        return None
    node = literals[int(rng.integers(len(literals)))]
    choices = [node.value + 1, node.value - 1]
    if node.value != 0:
        choices.append(-node.value)
    new_value = choices[int(rng.integers(len(choices)))]
    if new_value >= 0:
        replacement = dataclasses.replace(node, value=new_value)
    else:
        replacement = Unary("-", IntLit(-new_value, node.span), node.span)
    return _statement_edit(ctx, _replace_expr(ctx.stmt, node, replacement))


def _delete_statement(ctx: RuleContext, rng: np.random.Generator):
    return ctx.span, []


def _duplicate_statement(ctx: RuleContext, rng: np.random.Generator):
    lines = ctx.program.lines[ctx.span.start_line - 1 : ctx.span.end_line]
    return ctx.span, lines + lines


def _replace_call(ctx: RuleContext, rng: np.random.Generator):
    signatures: dict[str, int] = {name: len(sig[0]) for name, sig in BUILTINS.items()}
    for fn in ctx.ast.functions:
        signatures[fn.name] = len(fn.params)
    calls = _calls_in_statement(ctx.stmt)
    rng.shuffle(calls)
    for call in calls:
        others = sorted(
            name
            for name, arity in signatures.items()
            if arity == len(call.args) and name != call.func
        )
        if not others:
            continue
        replacement = others[int(rng.integers(len(others)))]
        retargeted = dataclasses.replace(call, func=replacement)
        return _statement_edit(ctx, _replace_expr(ctx.stmt, call, retargeted))
    return None


DEFAULT_RULES: list[CorruptionRule] = [
    CorruptionRule("swap-call-args", "swap the first two arguments of a call", _swap_call_args),
    CorruptionRule("replace-binary-operator", "replace an operator within its class", _replace_binary_operator),
    CorruptionRule("negate-condition", "wrap an if/while condition in a negation", _negate_condition),
    CorruptionRule("replace-variable", "substitute another in-scope variable", _replace_variable),
    CorruptionRule("perturb-int-literal", "nudge or negate an integer literal", _perturb_integer_literal),
    CorruptionRule("delete-statement", "remove the statement", _delete_statement),
    CorruptionRule("duplicate-statement", "repeat the statement", _duplicate_statement),
    CorruptionRule("replace-call", "retarget a call to a same-arity callee", _replace_call),
]


def _find_statement(ast: Ast, span: Span):
    for fn in ast.functions:
        for stmt in walk_statements(fn.body):
            if stmt.span == span:
                return fn, stmt
    return None, None


def apply_rule(
    ast: Ast,
    program: SourceProgram,
    span: Span,
    rule: CorruptionRule,
    seed: int,
) -> Optional[MechanicalBug]:
    """One deterministic corruption at one statement location, or None
    when the rule's applicability predicate fails there."""
    function, stmt = _find_statement(ast, span)
    if stmt is None:
        raise ValueError(f"span {span} is not a statement location of {program.name}")
    ctx = RuleContext(
        program=program,
        ast=ast,
        function=function,
        stmt=stmt,
        span=span,
        indent=line_indent(program.text, span.start_line),
    )
    rng = derive_rng("mech", seed, program.name, [span.start_line, span.end_line], rule.id)
    edit = rule.apply(ctx, rng)
    if edit is None:
        return None
    region, new_lines = edit
    original_lines = program.lines[region.start_line - 1 : region.end_line]
    if new_lines == original_lines:
        return None  # identity edits are not bugs
    result = splice_region(program.text, region, new_lines)
    if result.mutant_text == program.text:
        return None
    mutant = SourceProgram(f"{program.name}#{rule.id}@{span}", result.mutant_text)
    try:
        parse(mutant)
    except Exception:
        return None  # corruption rules must keep the program parseable
    return MechanicalBug(
        base_name=program.name,
        rule_id=rule.id,
        anchor_span=span,
        base_region=result.base_region,
        base_region_lines=result.base_region_lines,
        mutant=mutant,
        mutant_region=result.mutant_region,
        mutant_region_lines=result.mutant_region_lines,
    )


@dataclass
class MechanicalReport:
    bugs: int = 0
    samples: int = 0
    rejected_length: int = 0
    dead_rules: tuple[str, ...] = ()


def samples_for_bug(
    bug: MechanicalBug,
    base: SourceProgram,
    rep_cfg: RepresentationConfig,
    vocab: Vocabulary,
) -> Optional[tuple[TrainingSample, TrainingSample]]:
    """(fix, break) sample pair for one bug, or None when either side
    does not fit the representation budgets."""
    fix_sample = sample_from_edit(
        DIRECTION_FIX, bug.mutant, bug.mutant_region, bug.base_region_lines,
        bug.base_name, ORIGIN_MECHANICAL, 0, rep_cfg, vocab,
    )
    break_sample = sample_from_edit(
        DIRECTION_BREAK, base, bug.base_region, bug.mutant_region_lines,
        bug.base_name, ORIGIN_MECHANICAL, 0, rep_cfg, vocab,
    )
    if fix_sample is None or break_sample is None:
        return None
    return fix_sample, break_sample


def generate_mechanical_dataset(
    entries: list[CorpusEntry],
    rules: list[CorruptionRule],
    rep_cfg: RepresentationConfig,
    vocab: Vocabulary,
    per_location_cap: int = 4,
    seed: int = 0,
) -> tuple[list[TrainingSample], list[MechanicalBug], MechanicalReport]:
    """Exhaustive (program x location x rule) corruption with a seeded
    per-location cap. Deterministic for a fixed seed; fix/break sample
    counts are equal by construction."""
    report = MechanicalReport()
    samples: list[TrainingSample] = []
    bugs: list[MechanicalBug] = []
    produced_by_rule: dict[str, int] = {rule.id: 0 for rule in rules}
    for entry in sorted(entries, key=lambda e: e.name):
        locations = enumerate_statement_locations(entry.ast)
        for span in locations:
            found: list[MechanicalBug] = []
            for rule in rules:
                bug = apply_rule(entry.ast, entry.program, span, rule, seed)
                if bug is not None:
                    found.append(bug)
            if per_location_cap and len(found) > per_location_cap:
                rng = derive_rng("mech-cap", seed, entry.name, [span.start_line, span.end_line])
                keep = sorted(rng.choice(len(found), size=per_location_cap, replace=False).tolist())
                found = [found[i] for i in keep]
            for bug in found:
                pair = samples_for_bug(bug, entry.program, rep_cfg, vocab)
                if pair is None:
                    report.rejected_length += 1
                    continue
                produced_by_rule[bug.rule_id] += 1
                bugs.append(bug)
                samples.extend(pair)
    report.bugs = len(bugs)
    report.samples = len(samples)
    report.dead_rules = tuple(
        rule_id for rule_id, count in sorted(produced_by_rule.items()) if count == 0
    )
    return samples, bugs, report
