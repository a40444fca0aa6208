from __future__ import annotations

import pytest

from jayfix.critics import (
    FAILING,
    CriticKind,
    FAMILY_COMPILER,
    FAMILY_NONE,
    FAMILY_TESTS,
    POLARITY_BUGGY,
    POLARITY_CORRECT,
    Rung,
    filter_candidates,
    judge,
    rung,
)
from jayfix.evaluate import CandidatePatch, RepairTask, assess
from jayfix.mechanical import DEFAULT_RULES, apply_rule, generate_mechanical_dataset
from jayfix.minilang import (
    SourceProgram,
    Span,
    TestCase,
    TestSuite,
    enumerate_statement_locations,
    parse,
    splice,
)
from jayfix.representation import RepresentationConfig


@pytest.fixture()
def gcd(correct):
    return next(e for e in correct if e.name == "gcd")


def corrupted_gcd(gcd) -> SourceProgram:
    return SourceProgram("gcd_bad", splice(gcd.program.text, Span(4, 4), ["        b = a + b;"]))


def broken_gcd(gcd) -> SourceProgram:
    return SourceProgram("gcd_broken", splice(gcd.program.text, Span(4, 4), ["        b = a % ;"]))


def test_none_accepts_everything(gcd):
    verdict = judge(CriticKind(FAMILY_NONE, POLARITY_BUGGY), broken_gcd(gcd), gcd.suite)
    assert verdict.accept and verdict.rung is None  # judged without climbing the ladder


def test_compiler_rejects_syntax_errors(gcd):
    verdict = judge(CriticKind(FAMILY_COMPILER, POLARITY_BUGGY), broken_gcd(gcd), gcd.suite)
    assert not verdict.accept
    assert verdict.rung is Rung.COMPILE_ERROR


def test_a_non_ascii_digit_is_a_compile_failure():
    program = SourceProgram("digit", "fn f() -> int { return ²; }")
    for family in (FAMILY_COMPILER, FAMILY_TESTS):
        verdict = judge(CriticKind(family, POLARITY_CORRECT), program, ())
        assert not verdict.accept and verdict.rung is Rung.COMPILE_ERROR


def test_compiler_accepts_any_compiling_program_in_both_polarities(gcd):
    bad = corrupted_gcd(gcd)
    for polarity in (POLARITY_CORRECT, POLARITY_BUGGY):
        verdict = judge(CriticKind(FAMILY_COMPILER, polarity), bad, gcd.suite)
        assert verdict.accept and verdict.rung is Rung.COMPILES


def test_tests_correct_accepts_seed_program(gcd):
    verdict = judge(CriticKind(FAMILY_TESTS, POLARITY_CORRECT), gcd.program, gcd.suite)
    assert verdict.accept and verdict.rung is Rung.PASSES


def test_tests_buggy_accepts_iff_some_case_fails(gcd):
    bad = corrupted_gcd(gcd)
    verdict = judge(CriticKind(FAMILY_TESTS, POLARITY_BUGGY), bad, gcd.suite)
    assert verdict.rung in FAILING or verdict.rung is Rung.PASSES  # the suite ran
    assert verdict.accept == (verdict.rung in FAILING)
    assert verdict.accept  # the oracle says this corruption really breaks gcd


def test_polarity_exclusivity_under_tests(gcd):
    for candidate in (gcd.program, corrupted_gcd(gcd)):
        as_correct = judge(CriticKind(FAMILY_TESTS, POLARITY_CORRECT), candidate, gcd.suite)
        as_buggy = judge(CriticKind(FAMILY_TESTS, POLARITY_BUGGY), candidate, gcd.suite)
        assert not (as_correct.accept and as_buggy.accept)


def _mutant_batch(entry, n=16):
    """Mixed-quality candidates: mechanical mutants plus hand-broken ones."""
    batch = []
    spans = enumerate_statement_locations(entry.ast)
    for i, span in enumerate(spans):
        for rule in DEFAULT_RULES:
            bug = apply_rule(entry.ast, entry.program, span, rule, seed=i)
            if bug is not None:
                batch.append((bug.mutant, None))
            if len(batch) >= n - 2:
                break
        if len(batch) >= n - 2:
            break
    batch.append((SourceProgram("x", "fn f( -> {"), None))
    batch.append((entry.program, None))
    return batch


def test_filter_none_is_identity(gcd):
    batch = _mutant_batch(gcd)
    kept, counts = filter_candidates(CriticKind(FAMILY_NONE, POLARITY_BUGGY), batch, gcd.suite)
    assert [p.text for p, _, _ in kept] == [p.text for p, _ in batch]
    assert counts.kept == counts.generated == len(batch)


def test_filter_counts_match_compile_oracle(gcd):
    from helpers import compiles

    batch = _mutant_batch(gcd)
    expected = sum(1 for program, _ in batch if compiles(program))
    kept, counts = filter_candidates(CriticKind(FAMILY_COMPILER, POLARITY_BUGGY), batch, gcd.suite)
    assert counts.kept == expected == len(kept)
    assert counts.rejected_compile == len(batch) - expected


def test_restrictiveness_chain_elementwise(correct):
    for entry in correct[:4]:
        batch = _mutant_batch(entry)
        for polarity in (POLARITY_CORRECT, POLARITY_BUGGY):
            kept_by_family = {}
            for family in (FAMILY_NONE, FAMILY_COMPILER, FAMILY_TESTS):
                kept, _ = filter_candidates(CriticKind(family, polarity), batch, entry.suite)
                kept_by_family[family] = {id(p) for p, _, _ in kept}
            assert kept_by_family[FAMILY_TESTS] <= kept_by_family[FAMILY_COMPILER]
            assert kept_by_family[FAMILY_COMPILER] <= kept_by_family[FAMILY_NONE]


def test_filter_preserves_order(gcd):
    batch = _mutant_batch(gcd)
    kept, _ = filter_candidates(CriticKind(FAMILY_COMPILER, POLARITY_BUGGY), batch, gcd.suite)
    texts = [p.text for p, _ in batch]
    kept_texts = [p.text for p, _, _ in kept]
    positions = [texts.index(t) for t in kept_texts]
    assert positions == sorted(positions)


def test_filter_parallel_matches_serial(gcd):
    batch = _mutant_batch(gcd)
    kind = CriticKind(FAMILY_TESTS, POLARITY_BUGGY)
    serial, counts_a = filter_candidates(kind, batch, gcd.suite, jobs=1)
    threaded, counts_b = filter_candidates(kind, batch, gcd.suite, jobs=4)
    assert [p.text for p, _, _ in serial] == [p.text for p, _, _ in threaded]
    assert counts_a == counts_b


def test_judgment_is_pure(gcd):
    bad = corrupted_gcd(gcd)
    kind = CriticKind(FAMILY_TESTS, POLARITY_BUGGY)
    assert judge(kind, bad, gcd.suite) == judge(kind, bad, gcd.suite)


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        CriticKind("fancy", POLARITY_BUGGY)
    with pytest.raises(ValueError):
        CriticKind(FAMILY_NONE, "sideways")


# --- the verdict ladder ------------------------------------------------------

_ONE = "fn f(n: int) -> int {\n    return 1;\n}\n"


def _suite(*expects):
    return TestSuite(tuple(TestCase(f"t{i}", "f", (i,), e) for i, e in enumerate(expects)))


@pytest.mark.parametrize(
    "text, suite, reference, expected",
    [
        ("fn f(n: int) -> int { return ; }", _suite(1), None, Rung.COMPILE_ERROR),
        ("fn f(n: int) -> int { return true; }", _suite(1), None, Rung.COMPILE_ERROR),  # a type error
        (_ONE, None, None, Rung.COMPILES),
        (_ONE, None, _ONE, Rung.COMPILES),  # no suite, so never correct
        (_ONE, _suite(2), None, Rung.WRONG_VALUE),
        ("fn f(n: int) -> int { return 1 / n; }", _suite(1), None, Rung.RUNTIME_ERROR),
        ("fn f(n: int) -> int {\n    while (n >= 0) { }\n    return 1;\n}\n", _suite(1), None, Rung.FUEL_EXHAUSTED),
        (_ONE, _suite(1, 1), None, Rung.PASSES),
        (_ONE, _suite(1, 1), "fn f(n: int) -> int { return 2; }", Rung.PASSES),
        (_ONE, _suite(1, 1), "fn f(n: int) -> int { return 1; }", Rung.CORRECT),
        (_ONE, _suite(1, 2), _ONE, Rung.WRONG_VALUE),  # a failing program is never correct
        # the first failing case decides: t1 divides by zero before t2 is wrong
        ("fn f(n: int) -> int { return 2 / (n - 1); }", _suite(-2, 1, 5), None, Rung.RUNTIME_ERROR),
    ],
)
def test_rung_of_a_fixed_program(text, suite, reference, expected):
    reference_ast = parse(reference) if reference is not None else None
    assert rung(SourceProgram("p", text), suite, fuel=1_000, reference_ast=reference_ast) is expected


@pytest.fixture(scope="module")
def every_mutant(correct, vocab):
    """Every mechanical mutant of every correct program (no per-location
    cap, no length budget), with the suite of its base program."""
    unbounded = RepresentationConfig(max_input_len=1 << 20, max_target_len=1 << 20)
    _, bugs, _ = generate_mechanical_dataset(correct, DEFAULT_RULES, unbounded, vocab, per_location_cap=0)
    assert len(bugs) > 500
    return bugs


def test_critics_agree_with_assessment_on_every_mutant(correct, every_mutant):
    by_name = {entry.name: entry for entry in correct}
    for bug in every_mutant:
        entry = by_name[bug.base_name]
        task = RepairTask(entry.name, bug.mutant, bug.anchor_span, suite=entry.suite, reference_ast=entry.ast)
        [assessment] = assess([CandidatePatch(1, 0.0, "", bug.mutant)], task)
        verdicts = {
            (family, polarity): judge(CriticKind(family, polarity), bug.mutant, entry.suite).accept
            for family in (FAMILY_COMPILER, FAMILY_TESTS)
            for polarity in (POLARITY_CORRECT, POLARITY_BUGGY)
        }
        context = bug.mutant.name
        assert verdicts[FAMILY_COMPILER, POLARITY_CORRECT] == assessment.compiles, context
        assert verdicts[FAMILY_COMPILER, POLARITY_BUGGY] == assessment.compiles, context
        assert verdicts[FAMILY_TESTS, POLARITY_CORRECT] == assessment.plausible, context
        assert verdicts[FAMILY_TESTS, POLARITY_BUGGY] == (assessment.compiles and not assessment.plausible), context
