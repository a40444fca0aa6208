"""Repair inference and the evaluation harness.

A repair task is a buggy program, its fault span, and what judges a
patch: a test suite and a reference fix, either of which may be absent.
The buggy corpus, the bugs the back-translation loop accepts, and a
`jayfix repair` request are all repair tasks.

Tasks come with perfect fault localization: the true buggy span is
given to the fixer, which beam-decodes K replacement regions; each is
spliced into the program and assessed on three nested levels, read off
the rung it reaches on the one verdict ladder (`critics.rung`, which the
critics read too):

  compiles  - parses and typechecks (any rung but `compile_error`),
  plausible - compiles and passes the whole human-written suite
              (`passes` or `correct`),
  correct   - plausible and normalized-AST-equal to the reference fix
              (`correct`).

A task without a suite has no plausible patch, and one without a
reference no correct patch. Normalized AST equality is a stricter
stand-in for manual semantic judgment; plausible-but-not-equal
candidates are surfaced separately for optional human review. Reports
state their compilability denominator explicitly (all generated
candidates over all tasks).
"""

from __future__ import annotations

import csv
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Optional, Sequence

from .corpus import CorpusEntry, buggy_entries
from .critics import PASSING, Rung, rung
from .minilang import (
    Ast,
    DEFAULT_FUEL,
    SourceProgram,
    Span,
    derive_fault_region,
    splice_region,
    TestSuite,
)
from .model import BeamScorer, Seq2SeqModel, beam_search
from .representation import RegionTooLong, RepresentationConfig, Vocabulary, build_input
from .util import write_json


@dataclass(frozen=True)
class RepairTask:
    name: str  # the corpus program the bug comes from, or the repaired file's stem
    buggy: SourceProgram
    fault_span: Span
    suite: Optional[TestSuite] = None
    reference: Optional[SourceProgram] = None
    reference_ast: Optional[Ast] = field(default=None, compare=False)


def tasks_from_corpus(entries: Sequence[CorpusEntry]) -> list["RepairTask"]:
    """Repair tasks for every buggy entry that records a reference fix."""
    tasks = []
    for entry in buggy_entries(entries):
        if entry.reference_fix is None:
            continue
        span, _replacement = derive_fault_region(entry.program.text, entry.reference_fix.text)
        tasks.append(
            RepairTask(
                name=entry.name,
                buggy=entry.program,
                fault_span=span,
                suite=entry.suite,
                reference=entry.reference_fix,
                reference_ast=entry.reference_ast,
            )
        )
    return tasks


@dataclass(frozen=True)
class CandidatePatch:
    rank: int
    log_prob: float
    region_text: str
    program: SourceProgram


@dataclass(frozen=True)
class PatchAssessment:
    rank: int
    compiles: bool
    plausible: bool
    correct: bool

    def __post_init__(self) -> None:
        if self.correct and not self.plausible:
            raise ValueError("correct implies plausible")
        if self.plausible and not self.compiles:
            raise ValueError("plausible implies compiles")


def propose_regions(
    model: Seq2SeqModel,
    requests: Sequence[tuple[SourceProgram, Span]],
    k: int,
    rep_cfg: RepresentationConfig,
    vocab: Vocabulary,
) -> list[list[tuple[str, float]] | RegionTooLong]:
    """Beam-decode k replacement texts for each (program, marked region)
    request, every request in one search. A request whose input does not
    fit the length budget gets its RegionTooLong instead."""
    inputs: list[list[int] | RegionTooLong] = []
    for program, region in requests:
        try:
            inputs.append(build_input(program, region, rep_cfg, vocab))
        except RegionTooLong as err:
            inputs.append(err)
    sources = [tokens for tokens in inputs if not isinstance(tokens, RegionTooLong)]
    beams = iter(beam_search(BeamScorer(model, sources), k=k, max_len=model.config.max_tgt_len) if sources else ())
    return [
        tokens if isinstance(tokens, RegionTooLong)
        else [(vocab.decode(list(c.content_tokens)), c.log_prob) for c in next(beams)]
        for tokens in inputs
    ]


def repair(
    fixer: Seq2SeqModel,
    tasks: Sequence[RepairTask],
    k: int,
    rep_cfg: RepresentationConfig,
    vocab: Vocabulary,
) -> list[list[CandidatePatch] | RegionTooLong]:
    """For each task, up to K candidate programs: the buggy program with
    its fault span replaced by each beam-decoded region, in beam order;
    or the task's RegionTooLong when its input does not fit the length
    budget. Every task decodes in one search."""
    if k < 1:
        raise ValueError("k must be >= 1")
    proposals = propose_regions(fixer, [(task.buggy, task.fault_span) for task in tasks], k, rep_cfg, vocab)
    out: list[list[CandidatePatch] | RegionTooLong] = []
    for task, proposed in zip(tasks, proposals):
        if not isinstance(proposed, RegionTooLong):
            proposed = [
                CandidatePatch(
                    rank=rank,
                    log_prob=log_prob,
                    region_text=text,
                    program=SourceProgram(
                        f"{task.name}@rank{rank}",
                        splice_region(task.buggy.text, task.fault_span, text.split("\n")).mutant_text,
                    ),
                )
                for rank, (text, log_prob) in enumerate(proposed, start=1)
            ]
        out.append(proposed)
    return out


def assess(
    candidates: Sequence[CandidatePatch],
    task: RepairTask,
    fuel: int = DEFAULT_FUEL,
) -> list[PatchAssessment]:
    """Nested compiles/plausible/correct verdicts per candidate; never
    plausible without a suite, never correct without a reference."""
    reached = [(c.rank, rung(c.program, task.suite, fuel, task.reference_ast)) for c in candidates]
    return [PatchAssessment(rank, r is not Rung.COMPILE_ERROR, r in PASSING, r is Rung.CORRECT) for rank, r in reached]


@dataclass
class TaskResult:
    task: str
    assessments: list[PatchAssessment]
    first_correct_rank: Optional[int]
    first_plausible_rank: Optional[int]


@dataclass
class EvalReport:
    k: int
    task_results: list[TaskResult]
    # plausible-but-not-correct candidates: {"task", "rank", "program"}
    review_queue: list[dict] = field(default_factory=list)

    @property
    def correct_total(self) -> int:
        return sum(1 for t in self.task_results if t.first_correct_rank is not None)

    @property
    def plausible_total(self) -> int:
        return sum(1 for t in self.task_results if t.first_plausible_rank is not None)

    @property
    def candidates_generated(self) -> int:
        return sum(len(t.assessments) for t in self.task_results)

    @property
    def candidates_compiling(self) -> int:
        return sum(1 for t in self.task_results for a in t.assessments if a.compiles)

    @property
    def curve(self) -> list[int]:
        """curve[r-1] = tasks whose first correct rank <= r"""
        ranks = [t.first_correct_rank for t in self.task_results if t.first_correct_rank is not None]
        return [sum(1 for first in ranks if first <= rank) for rank in range(1, self.k + 1)]

    @property
    def compilability_percent(self) -> float:
        if self.candidates_generated == 0:
            return 0.0
        return 100.0 * self.candidates_compiling / self.candidates_generated

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "totals": {
                "tasks": len(self.task_results),
                "correct": self.correct_total,
                "plausible": self.plausible_total,
            },
            "compilability": {
                "compiling_candidates": self.candidates_compiling,
                "generated_candidates": self.candidates_generated,
                "percent": self.compilability_percent,
            },
            "curve": self.curve,
            "tasks": [asdict(t) for t in self.task_results],
            "review_queue": [{"task": item["task"], "rank": item["rank"]} for item in self.review_queue],
        }

    def write_json(self, path: str | Path) -> None:
        write_json(path, self.to_json())

    def write_csv(self, path: str | Path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["rank", "cumulative_correct"])
            for rank, value in enumerate(self.curve, start=1):
                writer.writerow([rank, value])


def evaluate(
    fixer: Seq2SeqModel,
    tasks: Sequence[RepairTask],
    k: int,
    rep_cfg: RepresentationConfig,
    vocab: Vocabulary,
    fuel: int = DEFAULT_FUEL,
) -> EvalReport:
    """Run repair (one search over every task) + assessment; a task whose
    input does not fit the length budget has no candidates. The report
    derives the totals, the cumulative-correct-by-rank curve and patch
    compilability from the task results; each plausible-but-not-correct
    candidate joins the review queue with its program text."""
    if not tasks:
        raise ValueError("no tasks to evaluate")
    task_results: list[TaskResult] = []
    review: list[dict] = []
    for task, patches in zip(tasks, repair(fixer, tasks, k, rep_cfg, vocab)):
        candidates = [] if isinstance(patches, RegionTooLong) else patches
        assessments = assess(candidates, task, fuel=fuel)
        for candidate, assessment in zip(candidates, assessments):
            if assessment.plausible and not assessment.correct:
                review.append({"task": task.name, "rank": assessment.rank, "program": candidate.program.text})
        task_results.append(
            TaskResult(
                task=task.name,
                assessments=assessments,
                first_correct_rank=next((a.rank for a in assessments if a.correct), None),
                first_plausible_rank=next((a.rank for a in assessments if a.plausible), None),
            )
        )
    report = EvalReport(k=k, task_results=task_results, review_queue=review)
    curve = report.curve
    assert report.correct_total <= report.plausible_total <= len(task_results)
    assert all(b >= a for a, b in zip(curve, curve[1:]))
    assert (curve[-1] if curve else 0) == report.correct_total
    return report
