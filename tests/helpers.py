"""Test-only helpers with no caller in `src/`: a brute-force beam-search
oracle, a compile check, a region's text, a corruption-rule lookup, and
repair tasks built from mechanical bugs."""

from __future__ import annotations

from typing import Sequence

from jayfix.corpus import CorpusEntry
from jayfix.evaluate import RepairTask
from jayfix.mechanical import DEFAULT_RULES, CorruptionRule, MechanicalBug
from jayfix.minilang import SourceProgram, Span, analyze
from jayfix.model import BeamCandidate
from jayfix.model.beam import Scorer
from jayfix.representation import BOS, EOS, PAD


def exhaustive_top_k(
    scorer: Scorer,
    k: int,
    max_len: int,
    forbidden: tuple[int, ...] = (PAD, BOS),
) -> list[BeamCandidate]:
    """Brute-force oracle: enumerate every complete sequence up to
    max_len (EOS-terminated, or EOS-free at exactly max_len) and rank
    them all. Only viable for toy vocabularies."""
    complete: list[tuple[tuple[int, ...], float]] = []

    def expand(prefix: tuple[int, ...], score: float) -> None:
        if len(prefix) == max_len:
            complete.append((prefix, score))
            return
        row = scorer.step_logprobs([list(prefix)])[0]
        for token_id in range(scorer.vocab_size):
            if token_id in forbidden:
                continue
            extended = prefix + (token_id,)
            extended_score = score + float(row[token_id])
            if token_id == EOS:
                complete.append((extended, extended_score))
            else:
                expand(extended, extended_score)

    expand((), 0.0)
    # the order beam_search promises: log-probability, ties by token order
    complete.sort(key=lambda entry: (-entry[1], entry[0]))
    return [
        BeamCandidate(tokens=tokens, log_prob=log_prob, rank=i + 1)
        for i, (tokens, log_prob) in enumerate(complete[:k])
    ]


def compiles(source: SourceProgram | str) -> bool:
    ast, diagnostics = analyze(source)
    return ast is not None and not diagnostics


def region_text(text: str, span: Span) -> str:
    lines = text.split("\n")
    if span.end_line > len(lines):
        raise ValueError(f"span {span} outside file of {len(lines)} lines")
    return "\n".join(lines[span.start_line - 1 : span.end_line])


def rule_by_id(rule_id: str) -> CorruptionRule:
    for rule in DEFAULT_RULES:
        if rule.id == rule_id:
            return rule
    raise KeyError(rule_id)


def tasks_from_mechanical_bugs(
    bugs: Sequence[MechanicalBug], entries: Sequence[CorpusEntry]
) -> list[RepairTask]:
    """Held-out evaluation tasks built from mechanical corruptions of
    correct seeds; the base program is the reference fix."""
    by_name = {entry.name: entry for entry in entries}
    tasks = []
    for bug in bugs:
        base = by_name[bug.base_name]
        tasks.append(
            RepairTask(
                name=f"{bug.base_name}#{bug.rule_id}@{bug.anchor_span}",
                buggy=bug.mutant,
                fault_span=bug.mutant_region,
                suite=base.suite,
                reference=base.program,
                reference_ast=base.ast,
            )
        )
    return tasks
