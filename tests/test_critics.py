from __future__ import annotations

import pytest

from jayfix.critics import (
    CriticKind,
    EVIDENCE_COMPILE_FAIL,
    EVIDENCE_COMPILE_OK,
    EVIDENCE_NOT_CHECKED,
    EVIDENCE_TESTS,
    FAMILY_COMPILER,
    FAMILY_NONE,
    FAMILY_TESTS,
    POLARITY_BUGGY,
    POLARITY_CORRECT,
    filter_candidates,
    judge,
)
from jayfix.mechanical import DEFAULT_RULES, apply_rule
from jayfix.minilang import SourceProgram, Span, enumerate_statement_locations, splice


@pytest.fixture()
def gcd(correct):
    return next(e for e in correct if e.name == "gcd")


def corrupted_gcd(gcd) -> SourceProgram:
    return SourceProgram("gcd_bad", splice(gcd.program.text, Span(4, 4), ["        b = a + b;"]))


def broken_gcd(gcd) -> SourceProgram:
    return SourceProgram("gcd_broken", splice(gcd.program.text, Span(4, 4), ["        b = a % ;"]))


def test_none_accepts_everything(gcd):
    verdict = judge(CriticKind(FAMILY_NONE, POLARITY_BUGGY), broken_gcd(gcd), gcd.suite)
    assert verdict.accept and verdict.evidence == EVIDENCE_NOT_CHECKED


def test_compiler_rejects_syntax_errors(gcd):
    verdict = judge(CriticKind(FAMILY_COMPILER, POLARITY_BUGGY), broken_gcd(gcd), gcd.suite)
    assert not verdict.accept
    assert verdict.evidence == EVIDENCE_COMPILE_FAIL
    assert verdict.diagnostic is not None


def test_a_non_ascii_digit_is_a_compile_failure():
    program = SourceProgram("digit", "fn f() -> int { return ²; }")
    for family in (FAMILY_COMPILER, FAMILY_TESTS):
        verdict = judge(CriticKind(family, POLARITY_CORRECT), program, ())
        assert not verdict.accept and verdict.evidence == EVIDENCE_COMPILE_FAIL
        assert verdict.diagnostic.kind == "LexError"


def test_compiler_accepts_any_compiling_program_in_both_polarities(gcd):
    bad = corrupted_gcd(gcd)
    for polarity in (POLARITY_CORRECT, POLARITY_BUGGY):
        verdict = judge(CriticKind(FAMILY_COMPILER, polarity), bad, gcd.suite)
        assert verdict.accept and verdict.evidence == EVIDENCE_COMPILE_OK


def test_tests_correct_accepts_seed_program(gcd):
    verdict = judge(CriticKind(FAMILY_TESTS, POLARITY_CORRECT), gcd.program, gcd.suite)
    assert verdict.accept and verdict.evidence == EVIDENCE_TESTS
    assert verdict.report is not None and verdict.report.all_pass


def test_tests_buggy_accepts_iff_some_case_fails(gcd):
    bad = corrupted_gcd(gcd)
    verdict = judge(CriticKind(FAMILY_TESTS, POLARITY_BUGGY), bad, gcd.suite)
    assert verdict.report is not None
    assert verdict.accept == verdict.report.any_failure
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
