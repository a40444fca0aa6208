from __future__ import annotations

from helpers import rule_by_id
from jayfix.corpus import DIRECTION_BREAK, DIRECTION_FIX
from jayfix.mechanical import (
    DEFAULT_RULES,
    apply_rule,
    generate_mechanical_dataset,
)
from jayfix.minilang import (
    Span,
    analyze,
    enumerate_statement_locations,
    parse,
    splice,
    typecheck,
)
from jayfix.minilang import SourceProgram
from jayfix.representation import build_input

THREE_ARG_CALL = """\
fn pack(a: int, b: int, c: int) -> int {
    return a * 100 + b * 10 + c;
}

fn main() -> int {
    let r: int = pack(1, 2, 3);
    return r;
}
"""


def _prepared(src: str):
    program = SourceProgram("t", src)
    ast = parse(src)
    assert typecheck(ast) == []
    return program, ast


def test_swap_call_args_swaps_first_two():
    program, ast = _prepared(THREE_ARG_CALL)
    span = Span(6, 6)  # the let with the call
    bug = apply_rule(ast, program, span, rule_by_id("swap-call-args"), seed=1)
    assert bug is not None
    assert "pack(2, 1, 3)" in bug.mutant.text


def test_swap_call_args_not_applicable_on_single_arg():
    program, ast = _prepared(
        "fn id(x: int) -> int {\n    return x;\n}\n\nfn main() -> int {\n    let r: int = id(5);\n    return r;\n}\n"
    )
    bug = apply_rule(ast, program, Span(6, 6), rule_by_id("swap-call-args"), seed=1)
    assert bug is None


def test_negate_condition_wraps_with_bang():
    src = (
        "fn f(a: int, b: int) -> int {\n"
        "    if (a < b) {\n"
        "        return a;\n"
        "    }\n"
        "    return b;\n"
        "}\n"
    )
    program, ast = _prepared(src)
    bug = apply_rule(ast, program, Span(2, 4), rule_by_id("negate-condition"), seed=0)
    assert bug is not None
    assert "if (!(a < b)) {" in bug.mutant.text
    # only the header line changed
    assert bug.base_region == Span(2, 2)


def test_delete_statement_extends_to_following_line():
    src = "fn f() -> int {\n    let a: int = 1;\n    return a;\n}\n"
    program, ast = _prepared(src)
    bug = apply_rule(ast, program, Span(2, 2), rule_by_id("delete-statement"), seed=0)
    assert bug is not None
    assert bug.base_region == Span(2, 3)
    assert bug.mutant_region == Span(2, 2)
    assert "let a" not in bug.mutant.text
    # restoring the base region recreates the original text
    assert splice(bug.mutant.text, bug.mutant_region, list(bug.base_region_lines)) == src


def test_duplicate_statement():
    src = "fn f() -> int {\n    let a: int = 1;\n    return a;\n}\n"
    program, ast = _prepared(src)
    bug = apply_rule(ast, program, Span(2, 2), rule_by_id("duplicate-statement"), seed=0)
    assert bug is not None
    assert bug.mutant.text.count("let a: int = 1;") == 2


def test_mutants_reparse_but_need_not_typecheck(correct):
    entry = next(e for e in correct if e.name == "binary_search")
    spans = enumerate_statement_locations(entry.ast)
    saw_type_broken = False
    for span in spans:
        for rule in DEFAULT_RULES:
            bug = apply_rule(entry.ast, entry.program, span, rule, seed=3)
            if bug is None:
                continue
            ast, diags = analyze(bug.mutant)
            assert ast is not None or diags, "must at least parse"
            parse(bug.mutant.text)  # reparse invariant
            if ast is not None and typecheck(ast):
                saw_type_broken = True
    assert saw_type_broken  # deletion of a let usually breaks name resolution


def test_apply_rule_is_deterministic(correct):
    entry = next(e for e in correct if e.name == "fibonacci")
    span = next(
        s
        for s in enumerate_statement_locations(entry.ast)
        if "a + b" in entry.program.line(s.start_line)
    )
    rule = rule_by_id("replace-binary-operator")
    first = apply_rule(entry.ast, entry.program, span, rule, seed=9)
    second = apply_rule(entry.ast, entry.program, span, rule, seed=9)
    assert first is not None and second is not None
    assert first.mutant.text == second.mutant.text
    other_seed = apply_rule(entry.ast, entry.program, span, rule, seed=10)
    assert other_seed is not None


def test_every_mutant_differs_from_base(correct, rep_cfg, vocab):
    _, bugs, _ = generate_mechanical_dataset(correct[:5], DEFAULT_RULES, rep_cfg, vocab, per_location_cap=0, seed=5)
    by_name = {e.name: e.program.text for e in correct}
    for bug in bugs:
        assert bug.mutant.text != by_name[bug.base_name]


def test_dataset_counts_and_pairing(correct, rep_cfg, vocab):
    samples, bugs, report = generate_mechanical_dataset(
        correct, DEFAULT_RULES, rep_cfg, vocab, per_location_cap=0, seed=2
    )
    locations = sum(len(enumerate_statement_locations(e.ast)) for e in correct)
    assert report.bugs <= locations * len(DEFAULT_RULES)
    assert report.samples == 2 * report.bugs
    fix = [s for s in samples if s.direction == DIRECTION_FIX]
    brk = [s for s in samples if s.direction == DIRECTION_BREAK]
    assert len(fix) == len(brk) == report.bugs
    assert report.dead_rules == ()  # every rule fires somewhere on the seeds


def test_per_location_cap_bounds_output(correct, rep_cfg, vocab):
    samples, bugs, _ = generate_mechanical_dataset(
        correct, DEFAULT_RULES, rep_cfg, vocab, per_location_cap=1, seed=2
    )
    locations = sum(len(enumerate_statement_locations(e.ast)) for e in correct)
    assert len(samples) <= 2 * locations


def test_empty_rules_give_empty_dataset(correct, rep_cfg, vocab):
    samples, bugs, report = generate_mechanical_dataset(correct, [], rep_cfg, vocab, seed=0)
    assert samples == [] and bugs == [] and report.bugs == 0


def test_dataset_is_deterministic(correct, rep_cfg, vocab):
    first, _, _ = generate_mechanical_dataset(correct[:6], DEFAULT_RULES, rep_cfg, vocab, per_location_cap=3, seed=7)
    second, _, _ = generate_mechanical_dataset(correct[:6], DEFAULT_RULES, rep_cfg, vocab, per_location_cap=3, seed=7)
    assert [s.to_json() for s in first] == [s.to_json() for s in second]


def test_fix_sample_encodes_buggy_input_and_correct_target(correct, rep_cfg, vocab):
    entry = next(e for e in correct if e.name == "gcd")
    samples, bugs, _ = generate_mechanical_dataset([entry], [rule_by_id("replace-binary-operator")], rep_cfg, vocab, per_location_cap=0, seed=1)
    assert bugs
    fix = next(s for s in samples if s.direction == DIRECTION_FIX)
    brk = next(s for s in samples if s.direction == DIRECTION_BREAK)
    bug = bugs[0]
    # fix: input contains the corrupted region, target is the original text
    assert vocab.decode(list(fix.target_tokens)) == "\n".join(bug.base_region_lines)
    assert vocab.decode(list(brk.target_tokens)) == "\n".join(bug.mutant_region_lines)


def _assert_inverts(sample, built_from, other_side, rep_cfg, vocab):
    """The sample's input marks its span of the program it was built from,
    and splicing its decoded target there gives the other side's text."""
    assert sample.input_tokens == tuple(build_input(built_from, sample.span, rep_cfg, vocab))
    target = vocab.decode(list(sample.target_tokens)).split("\n")
    assert splice(built_from.text, sample.span, target) == other_side.text


def test_every_sample_inverts_its_edit(correct, rep_cfg, vocab):
    samples, bugs, _ = generate_mechanical_dataset(correct, DEFAULT_RULES, rep_cfg, vocab, per_location_cap=0, seed=0)
    assert bugs and len(samples) == 2 * len(bugs)
    base = {e.name: e.program for e in correct}
    for bug, fix, brk in zip(bugs, samples[::2], samples[1::2]):
        assert (fix.direction, brk.direction) == (DIRECTION_FIX, DIRECTION_BREAK)
        _assert_inverts(fix, bug.mutant, base[bug.base_name], rep_cfg, vocab)
        _assert_inverts(brk, base[bug.base_name], bug.mutant, rep_cfg, vocab)
    # deleting and duplicating statements resize the region, so a sample
    # that records the other side's span cannot pass
    assert any(bug.base_region != bug.mutant_region for bug in bugs)


ONE_LINE_WHILE = """\
fn add(a: int, b: int) -> int {
    return a + b;
}

fn sub(a: int, b: int) -> int {
    return a - b;
}

fn main() -> int {
    let n: int = 3;
    let s: int = 0;
    while (add(n, s) < 10) { n = n + 1; }
    return n;
}
"""

EXPRESSION_RULES = (
    "swap-call-args",
    "replace-binary-operator",
    "negate-condition",
    "replace-variable",
    "perturb-int-literal",
    "replace-call",
)


def test_expression_rules_on_a_one_line_while_rewrite_it_whole():
    program, ast = _prepared(ONE_LINE_WHILE)
    span = Span(12, 12)
    assert span in enumerate_statement_locations(ast)
    for rule_id in EXPRESSION_RULES:
        for seed in range(3):
            bug = apply_rule(ast, program, span, rule_by_id(rule_id), seed=seed)
            assert bug is not None, (rule_id, seed)  # None: the mutant did not parse
            parse(bug.mutant)
            assert bug.base_region == span


ONE_LINE_ELSE_IF = """\
fn f(a: int, b: int) -> int {
    if (a < b) {
        return a;
    } else if (a > b) { return b; }
    return 0;
}
"""


def test_one_line_compound_statement_is_listed_once():
    # the nested `if` and the `return` inside it share line 4
    _, ast = _prepared(ONE_LINE_ELSE_IF)
    assert enumerate_statement_locations(ast) == [Span(2, 4), Span(3, 3), Span(4, 4), Span(5, 5)]
    _, ast = _prepared(ONE_LINE_WHILE)
    locations = enumerate_statement_locations(ast)
    assert locations.count(Span(12, 12)) == 1 and len(locations) == len(set(locations))


def test_expression_rules_on_a_one_line_else_if_keep_its_else():
    program, ast = _prepared(ONE_LINE_ELSE_IF)
    span = Span(4, 4)
    for rule_id in ("replace-binary-operator", "negate-condition", "replace-variable"):
        bug = apply_rule(ast, program, span, rule_by_id(rule_id), seed=0)
        assert bug is not None, rule_id  # None: the mutant did not parse
        parse(bug.mutant)
        assert bug.base_region == span
        assert bug.mutant_region_lines[0].startswith("    } else if (")
        assert bug.mutant.text.split("\n")[:3] == program.text.split("\n")[:3]
