"""The one verdict ladder, and the predicate critics that read it.

`rung` climbs a program up compile -> tests -> reference and returns
the rung it stops on: `compile_error`; `compiles` when there is no
suite; the first failing case's `wrong_value`, `runtime_error` or
`fuel_exhausted`; `passes`; or `correct` when a reference is given and
the normalized ASTs are equal. The critics and `evaluate.assess` both
read it. Three critic families in two polarities:

  none     - accepts everything, no checking.
  compiler - accepts programs that parse and typecheck (both polarities;
             non-compiling candidates carry no usable signal either way).
  tests    - correct-code polarity accepts programs that compile and
             pass the whole suite; buggy-code polarity accepts programs
             that compile but fail at least one case.

The families form a restrictiveness chain: on any candidate batch,
kept(tests) is a subset of kept(compiler) is a subset of kept(none).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence, TypeVar

from .minilang import DEFAULT_FUEL, Ast, SourceProgram, TestSuite, analyze, ast_equal_normalized, run_tests

FAMILY_NONE = "none"
FAMILY_COMPILER = "compiler"
FAMILY_TESTS = "tests"
FAMILIES = (FAMILY_NONE, FAMILY_COMPILER, FAMILY_TESTS)

POLARITY_CORRECT = "correct"
POLARITY_BUGGY = "buggy"
POLARITIES = (POLARITY_CORRECT, POLARITY_BUGGY)

T = TypeVar("T")


class Rung(Enum):
    COMPILE_ERROR = "compile_error"
    COMPILES = "compiles"  # no suite to run
    WRONG_VALUE = "wrong_value"
    RUNTIME_ERROR = "runtime_error"
    FUEL_EXHAUSTED = "fuel_exhausted"
    PASSES = "passes"
    CORRECT = "correct"  # passes, and normalized-AST-equal to the reference


FAILING = frozenset({Rung.WRONG_VALUE, Rung.RUNTIME_ERROR, Rung.FUEL_EXHAUSTED})
PASSING = frozenset({Rung.PASSES, Rung.CORRECT})


def rung(
    program: SourceProgram,
    suite: Optional[TestSuite] = None,
    fuel: int = DEFAULT_FUEL,
    reference_ast: Optional[Ast] = None,
) -> Rung:
    """The rung `program` reaches: one `analyze`, at most one `run_tests`,
    and an AST comparison only for a passing program with a reference."""
    ast, diagnostics = analyze(program)
    if ast is None or diagnostics:
        return Rung.COMPILE_ERROR
    if suite is None:
        return Rung.COMPILES
    report = run_tests(ast, suite, fuel=fuel)
    if report.any_failure:
        return Rung(report.outcomes[-1][1].value)  # the run stops at the first failing case
    if reference_ast is not None and ast_equal_normalized(ast, reference_ast):
        return Rung.CORRECT
    return Rung.PASSES


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
    rung: Optional[Rung]  # None when the `none` critic judged without checking


def judge(
    kind: CriticKind,
    candidate: SourceProgram,
    suite: TestSuite,
    fuel: int = DEFAULT_FUEL,
) -> CriticVerdict:
    """Pure verdict for one candidate, judged against the suite of its
    base program."""
    if kind.family == FAMILY_NONE:
        return CriticVerdict(accept=True, rung=None)
    reached = rung(candidate, suite if kind.family == FAMILY_TESTS else None, fuel)
    if kind.family == FAMILY_COMPILER:
        accept = reached is not Rung.COMPILE_ERROR
    elif kind.polarity == POLARITY_CORRECT:
        accept = reached in PASSING
    else:
        accept = reached in FAILING
    return CriticVerdict(accept=accept, rung=reached)


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
) -> tuple[list[tuple[SourceProgram, T, CriticVerdict]], FilterCounts]:
    """Order-preserving filter; returns kept candidates with their
    verdicts plus counts by rejection rung: `compile_error`, or any other
    (a failing case under the correct-code critic, passing under the
    buggy-code one)."""
    verdicts = [judge(kind, program, suite, fuel) for program, _meta in candidates]
    kept = [(program, meta, verdict) for (program, meta), verdict in zip(candidates, verdicts) if verdict.accept]
    rejected_compile = sum(verdict.rung is Rung.COMPILE_ERROR for verdict in verdicts)
    generated = len(candidates)
    return kept, FilterCounts(generated, len(kept), rejected_compile, generated - len(kept) - rejected_compile)
