from __future__ import annotations

from dataclasses import replace

import pytest
from helpers import tasks_from_mechanical_bugs

from jayfix.evaluate import (
    CandidatePatch,
    PatchAssessment,
    assess,
    evaluate,
    tasks_from_corpus,
)
from jayfix.minilang import SourceProgram, Span, derive_fault_region, splice
from jayfix.model import ModelConfig, Seq2SeqModel


@pytest.fixture(scope="module")
def tasks(request):
    from jayfix.corpus import load_corpus

    entries, _ = load_corpus(request.config.rootpath / "corpus")
    return tasks_from_corpus(entries)


# --- fault region derivation -----------------------------------------------------


def test_fault_region_single_line_replacement():
    buggy = "a\nb\nX\nd\n"
    fixed = "a\nb\nc\nd\n"
    span, replacement = derive_fault_region(buggy, fixed)
    assert span == Span(3, 3)
    assert replacement == ["c"]
    assert splice(buggy, span, replacement) == fixed


def test_fault_region_multi_line_replacement():
    buggy = "a\nX\nY\nd\n"
    fixed = "a\nb\nd\n"
    span, replacement = derive_fault_region(buggy, fixed)
    assert splice(buggy, span, replacement) == fixed


def test_fault_region_insertion():
    buggy = "a\nd\n"
    fixed = "a\nb\nc\nd\n"
    span, replacement = derive_fault_region(buggy, fixed)
    assert span.start_line <= span.end_line
    assert splice(buggy, span, replacement) == fixed


def test_fault_region_deletion():
    buggy = "a\nb\nc\nd\n"
    fixed = "a\nd\n"
    span, replacement = derive_fault_region(buggy, fixed)
    assert replacement  # never empty
    assert splice(buggy, span, replacement) == fixed


def test_fault_region_identical_programs_rejected():
    with pytest.raises(ValueError):
        derive_fault_region("a\nb\n", "a\nb\n")


def test_corpus_tasks_are_well_formed(tasks, buggy):
    assert len(tasks) == len(buggy) == 10
    for task in tasks:
        lines = task.buggy.lines
        assert task.fault_span.end_line <= len(lines)
        # splicing the reference region back yields the reference program
        _, replacement = derive_fault_region(task.buggy.text, task.reference.text)
        assert splice(task.buggy.text, task.fault_span, replacement) == task.reference.text


# --- assessment --------------------------------------------------------------------


def _candidate(rank: int, program: SourceProgram) -> CandidatePatch:
    return CandidatePatch(rank=rank, log_prob=-float(rank), region_text="", program=program)


def test_reference_fix_verbatim_is_correct(tasks):
    task = next(t for t in tasks if t.name == "gcd_buggy")
    fixed = SourceProgram("fixed", task.reference.text)
    [result] = assess([_candidate(1, fixed)], task)
    assert result.compiles and result.plausible and result.correct


def test_plausible_but_ast_different_is_not_correct(tasks):
    task = next(t for t in tasks if t.name == "gcd_buggy")
    # a - a / b * b == a % b under truncating division, so tests pass,
    # but the AST differs from the reference fix
    variant = splice(task.buggy.text, task.fault_span, ["        b = a - a / b * b;"])
    [result] = assess([_candidate(1, SourceProgram("v", variant))], task)
    assert result.compiles and result.plausible and not result.correct


def test_non_compiling_candidate_is_all_false(tasks):
    task = tasks[0]
    broken = SourceProgram("broken", "fn f( {")
    [result] = assess([_candidate(1, broken)], task)
    assert not result.compiles and not result.plausible and not result.correct


def test_unchanged_buggy_program_is_never_correct(tasks):
    for task in tasks:
        [result] = assess([_candidate(1, task.buggy)], task)
        assert not result.plausible and not result.correct


def test_task_without_suite_is_never_plausible(tasks):
    task = replace(next(t for t in tasks if t.name == "gcd_buggy"), suite=None)
    [result] = assess([_candidate(1, SourceProgram("fixed", task.reference.text))], task)
    assert result.compiles and not result.plausible and not result.correct


def test_task_without_reference_is_never_correct(tasks):
    task = replace(next(t for t in tasks if t.name == "gcd_buggy"), reference=None, reference_ast=None)
    fixed = next(t for t in tasks if t.name == "gcd_buggy").reference
    [result] = assess([_candidate(1, SourceProgram("fixed", fixed.text))], task)
    assert result.compiles and result.plausible and not result.correct


def test_assessment_chain_is_enforced():
    with pytest.raises(ValueError):
        PatchAssessment(rank=1, compiles=False, plausible=True, correct=False)
    with pytest.raises(ValueError):
        PatchAssessment(rank=1, compiles=True, plausible=False, correct=True)


# --- evaluation with a scripted fixer ------------------------------------------------


class ScriptedFixer:
    """Stands in for a trained model: always proposes the scripted
    region texts, in order."""

    def __init__(self, proposals: list[str], vocab):
        self.proposals = proposals
        self.vocab = vocab
        self.config = ModelConfig(vocab_size=vocab.size, d_model=8, d_ff=8, n_heads=1)


def _scripted_repair(monkeypatch, proposals_by_task):
    import jayfix.evaluate as evaluate_module

    def fake_repair(fixer, tasks, k, rep_cfg, vocab):
        from jayfix.minilang import splice_region

        out = []
        for task in tasks:
            patches = []
            for rank, text in enumerate(proposals_by_task[task.name][:k], start=1):
                result = splice_region(task.buggy.text, task.fault_span, text.split("\n"))
                patches.append(
                    CandidatePatch(
                        rank=rank,
                        log_prob=-float(rank),
                        region_text=text,
                        program=SourceProgram(f"{task.name}@{rank}", result.mutant_text),
                    )
                )
            out.append(patches)
        return out

    monkeypatch.setattr(evaluate_module, "repair", fake_repair)
    return evaluate_module


def test_ideal_fixer_has_flat_curve(tasks, monkeypatch, vocab, rep_cfg):
    proposals = {}
    for task in tasks:
        _, replacement = derive_fault_region(task.buggy.text, task.reference.text)
        proposals[task.name] = ["\n".join(replacement)]
    module = _scripted_repair(monkeypatch, proposals)
    report = module.evaluate(None, tasks, k=3, rep_cfg=rep_cfg, vocab=vocab)
    n = len(tasks)
    assert report.correct_total == report.plausible_total == n
    assert report.curve == [n, n, n]
    assert report.compilability_percent == 100.0


def test_rank_two_fix_shifts_the_curve(tasks, monkeypatch, vocab, rep_cfg):
    proposals = {}
    for task in tasks:
        _, replacement = derive_fault_region(task.buggy.text, task.reference.text)
        proposals[task.name] = ["fn broken(", "\n".join(replacement)]
    module = _scripted_repair(monkeypatch, proposals)
    report = module.evaluate(None, tasks, k=2, rep_cfg=rep_cfg, vocab=vocab)
    n = len(tasks)
    assert report.curve == [0, n]
    assert report.correct_total == n
    assert report.candidates_generated == 2 * n
    assert report.candidates_compiling == n
    assert report.compilability_percent == 50.0


def test_plausible_but_not_correct_patch_joins_the_review_queue(tasks, monkeypatch, vocab, rep_cfg):
    task = next(t for t in tasks if t.name == "gcd_buggy")
    variant = "        b = a - a / b * b;"  # passes the tests, differs from the reference
    module = _scripted_repair(monkeypatch, {task.name: ["fn broken(", variant]})
    report = module.evaluate(None, [task], k=2, rep_cfg=rep_cfg, vocab=vocab)
    assert (report.plausible_total, report.correct_total) == (1, 0)
    [item] = report.review_queue
    assert item == {"task": task.name, "rank": 2, "program": splice(task.buggy.text, task.fault_span, [variant])}
    assert report.to_json()["review_queue"] == [{"task": task.name, "rank": 2}]


def test_random_weights_fixer_smoke(tasks, vocab, rep_cfg):
    fixer = Seq2SeqModel(
        ModelConfig(
            d_model=16, d_ff=32, n_heads=2, n_encoder_layers=1, n_decoder_layers=1,
            dropout=0.0, vocab_size=vocab.size,
            max_src_len=rep_cfg.max_input_len, max_tgt_len=rep_cfg.max_target_len, seed=0,
        )
    )
    report = evaluate(fixer, tasks, k=2, rep_cfg=rep_cfg, vocab=vocab)
    assert len(report.task_results) == len(tasks)
    assert report.correct_total <= report.plausible_total <= len(tasks)
    assert all(b >= a for a, b in zip(report.curve, report.curve[1:]))
    assert report.curve[-1] == report.correct_total
    assert 0 <= report.candidates_compiling <= report.candidates_generated


def test_report_serialization_roundtrip(tasks, monkeypatch, vocab, rep_cfg, tmp_path):
    proposals = {task.name: ["x = 1;"] for task in tasks}
    module = _scripted_repair(monkeypatch, proposals)
    report = module.evaluate(None, tasks, k=1, rep_cfg=rep_cfg, vocab=vocab)
    report.write_json(tmp_path / "report.json")
    report.write_csv(tmp_path / "report.csv")
    import json

    payload = json.loads((tmp_path / "report.json").read_text())
    assert payload["totals"]["tasks"] == len(tasks)
    assert payload["compilability"]["generated_candidates"] == len(tasks)
    lines = (tmp_path / "report.csv").read_text().strip().split("\n")
    assert lines[0] == "rank,cumulative_correct"
    assert len(lines) == 2


def test_mechanical_bug_tasks(correct, vocab, rep_cfg):
    from jayfix.mechanical import DEFAULT_RULES, generate_mechanical_dataset

    _, bugs, _ = generate_mechanical_dataset(correct[:3], DEFAULT_RULES, rep_cfg, vocab, per_location_cap=1, seed=77)
    tasks = tasks_from_mechanical_bugs(bugs, correct)
    assert len(tasks) == len(bugs)
    for task, bug in zip(tasks, bugs):
        # replacing the fault span with the recorded base region restores the base
        restored = splice(task.buggy.text, task.fault_span, list(bug.base_region_lines))
        assert restored == task.reference.text
