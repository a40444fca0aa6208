"""Predicate critics that accept or reject generated programs.

Three families in two polarities:

  none     - accepts everything, no checking.
  compiler - accepts programs that parse and typecheck (both polarities;
             non-compiling candidates carry no usable signal either way).
  tests    - correct-code polarity accepts programs that compile and
             pass the whole suite; buggy-code polarity accepts programs
             that compile but fail at least one case.

Verdicts carry their evidence, and the families form a restrictiveness
chain: on any candidate batch, kept(tests) is a subset of
kept(compiler) is a subset of kept(none).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, TypeVar

from .minilang import (
    DEFAULT_FUEL,
    Diagnostic,
    SourceProgram,
    TestReport,
    TestSuite,
    analyze,
    run_tests,
)
from .util import parallel_map

FAMILY_NONE = "none"
FAMILY_COMPILER = "compiler"
FAMILY_TESTS = "tests"
FAMILIES = (FAMILY_NONE, FAMILY_COMPILER, FAMILY_TESTS)

POLARITY_CORRECT = "correct"
POLARITY_BUGGY = "buggy"
POLARITIES = (POLARITY_CORRECT, POLARITY_BUGGY)

EVIDENCE_NOT_CHECKED = "not_checked"
EVIDENCE_COMPILE_OK = "compile_ok"
EVIDENCE_COMPILE_FAIL = "compile_fail"
EVIDENCE_TESTS = "tests_report"

T = TypeVar("T")


@dataclass(frozen=True)
class CriticKind:
    family: str
    polarity: str

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"unknown critic family {self.family!r}")
        if self.polarity not in POLARITIES:
            raise ValueError(f"unknown critic polarity {self.polarity!r}")


@dataclass(frozen=True)
class CriticVerdict:
    accept: bool
    evidence: str
    diagnostic: Optional[Diagnostic] = None
    report: Optional[TestReport] = None


def judge(
    kind: CriticKind,
    candidate: SourceProgram,
    suite: TestSuite,
    fuel: int = DEFAULT_FUEL,
) -> CriticVerdict:
    """Pure verdict for one candidate, judged against the suite of its
    base program."""
    if kind.family == FAMILY_NONE:
        return CriticVerdict(accept=True, evidence=EVIDENCE_NOT_CHECKED)
    ast, diagnostics = analyze(candidate)
    if ast is None or diagnostics:
        return CriticVerdict(
            accept=False, evidence=EVIDENCE_COMPILE_FAIL, diagnostic=diagnostics[0]
        )
    if kind.family == FAMILY_COMPILER:
        return CriticVerdict(accept=True, evidence=EVIDENCE_COMPILE_OK)
    report = run_tests(ast, suite, fuel=fuel)
    if kind.polarity == POLARITY_CORRECT:
        accept = report.all_pass
    else:
        accept = report.any_failure
    return CriticVerdict(accept=accept, evidence=EVIDENCE_TESTS, report=report)


@dataclass(frozen=True)
class FilterCounts:
    generated: int
    kept: int
    rejected_compile: int
    rejected_tests: int


def filter_candidates(
    kind: CriticKind,
    candidates: Sequence[tuple[SourceProgram, T]],
    suite: TestSuite,
    fuel: int = DEFAULT_FUEL,
    jobs: int = 1,
) -> tuple[list[tuple[SourceProgram, T, CriticVerdict]], FilterCounts]:
    """Order-preserving filter; returns kept candidates with their
    verdicts plus counts by rejection evidence."""
    verdicts = parallel_map(
        lambda pair: judge(kind, pair[0], suite, fuel), list(candidates), jobs=jobs
    )
    kept: list[tuple[SourceProgram, T, CriticVerdict]] = []
    rejected_compile = 0
    rejected_tests = 0
    for (program, meta), verdict in zip(candidates, verdicts):
        if verdict.accept:
            kept.append((program, meta, verdict))
        elif verdict.evidence == EVIDENCE_COMPILE_FAIL:
            rejected_compile += 1
        else:
            rejected_tests += 1
    counts = FilterCounts(
        generated=len(candidates),
        kept=len(kept),
        rejected_compile=rejected_compile,
        rejected_tests=rejected_tests,
    )
    return kept, counts
