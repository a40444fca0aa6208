"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line. The heavyweight fixtures (three full pipelines, the critic-family
comparison) are module-scoped and shared across criteria.

Run with `pytest tests/test_acceptance.py -v -s` to watch the lines; the
whole module takes roughly twenty minutes on two cores.
"""

from __future__ import annotations

import glob
import json
import shutil
import time
from pathlib import Path

import numpy as np
import pytest
from gradcheck import grad_check
from helpers import ToyScorer, exhaustive_top_k, tasks_from_mechanical_bugs

from jayfix.backtranslate import LoopConfig, run_loop
from jayfix.cli import EXIT_OK, main as cli_main
from jayfix.corpus import SampleStore, correct_entries, load_corpus, split_holdout
from jayfix.critics import CriticKind, judge
from jayfix.evaluate import PatchAssessment, evaluate, repair
from jayfix.mechanical import DEFAULT_RULES, generate_mechanical_dataset
from jayfix.minilang import SourceProgram, analyze, run_tests
from jayfix.model import (
    BeamScorer,
    ModelConfig,
    Seq2SeqModel,
    TrainConfig,
    beam_search,
    load_checkpoint,
    save_checkpoint,
    train,
)
from jayfix.representation import EOS, RegionTooLong, RepresentationConfig, Vocabulary
from jayfix.util import derive_seed

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
SEEDS = (101, 202, 303)
ACC_REP = RepresentationConfig(context_lines=3, max_input_len=160, max_target_len=48)
ACC_TRAIN = dict(batch_size=16, learning_rate=1e-3, weight_decay=0.01, max_epochs=12, patience=3)
EVAL_K = 10
MIN_TASKS = 50


def announce(number: int, name: str, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"CRITERION {number:02d} [{status}] {name}: {detail}", flush=True)
    assert passed, f"criterion {number} failed: {detail}"


@pytest.fixture(scope="module")
def world():
    entries, rejected = load_corpus(CORPUS)
    assert not rejected
    vocab = Vocabulary.from_corpus([e.program.text for e in entries])
    return entries, vocab


def tiny_config(vocab: Vocabulary, seed: int) -> ModelConfig:
    return ModelConfig.tiny(
        vocab_size=vocab.size,
        max_src_len=ACC_REP.max_input_len,
        max_tgt_len=ACC_REP.max_target_len,
        seed=seed,
    )


def held_out_tasks(correct, train_bugs, vocab, seed: int):
    """>=50 mechanical bugs from rules seeded disjointly from training,
    excluding training mutants and equivalent mutants."""
    _, candidates, _ = generate_mechanical_dataset(
        correct, DEFAULT_RULES, ACC_REP, vocab, per_location_cap=1,
        seed=derive_seed("acc-eval", seed),
    )
    train_mutants = {bug.mutant.text for bug in train_bugs}
    kept = []
    for bug in candidates:
        if bug.mutant.text in train_mutants:
            continue
        ast, diagnostics = analyze(bug.mutant)
        base = next(e for e in correct if e.name == bug.base_name)
        if ast is not None and not diagnostics and run_tests(ast, base.suite).all_pass:
            continue  # equivalent mutant, not a bug
        kept.append(bug)
    bugs = kept[: max(MIN_TASKS, 60)]
    return tasks_from_mechanical_bugs(bugs, correct)


@pytest.fixture(scope="module")
def pipelines(world, tmp_path_factory):
    """Criteria 3/4/9 share these three full pipeline runs:
    mechanical init -> baseline eval -> N=2 back-translation -> post eval."""
    entries, vocab = world
    correct = correct_entries(entries)
    root = tmp_path_factory.mktemp("pipelines")
    runs = []
    for seed in SEEDS:
        started = time.time()
        work = root / f"seed{seed}"
        work.mkdir()
        samples, train_bugs, _ = generate_mechanical_dataset(
            correct, DEFAULT_RULES, ACC_REP, vocab,
            per_location_cap=2, seed=derive_seed("acc-train", seed),
        )
        store = SampleStore(work / "store.jsonl", vocab_sha=vocab.sha())
        store.append(samples)
        train_cfg = TrainConfig(**ACC_TRAIN, seed=derive_seed("train", seed))
        fixer = Seq2SeqModel(tiny_config(vocab, derive_seed("fixer", seed)))
        breaker = Seq2SeqModel(tiny_config(vocab, derive_seed("breaker", seed)))
        for model, direction in ((fixer, "fix"), (breaker, "break")):
            tr, va = split_holdout(
                store.samples_for(direction), 0.02, derive_seed("holdout", seed, direction)
            )
            train(model, tr, va, train_cfg)
        tasks = held_out_tasks(correct, train_bugs, vocab, seed)
        assert len(tasks) >= MIN_TASKS
        baseline_report = evaluate(fixer, tasks, k=EVAL_K, rep_cfg=ACC_REP, vocab=vocab)
        baseline_report.write_json(work / "report_baseline.json")
        save_checkpoint(fixer, work / "fixer_baseline.ckpt")

        loop_cfg = LoopConfig(
            iterations=2, k_correct=10, k_buggy=1, critic_family="compiler",
            seed=derive_seed("loop", seed), max_locations_per_program=8,
        )
        run_loop(fixer, breaker, entries, store, loop_cfg, ACC_REP, train_cfg, vocab)
        post_report = evaluate(fixer, tasks, k=EVAL_K, rep_cfg=ACC_REP, vocab=vocab)
        post_report.write_json(work / "report_post.json")
        save_checkpoint(breaker, work / "breaker_post.ckpt")
        runs.append(
            {
                "seed": seed,
                "work": work,
                "tasks": tasks,
                "baseline": baseline_report,
                "post": post_report,
                "baseline_ckpt": work / "fixer_baseline.ckpt",
                "breaker_ckpt": work / "breaker_post.ckpt",
                "elapsed": time.time() - started,
            }
        )
    return runs


# --- criterion 1 -------------------------------------------------------------


def test_criterion_01_oracle_soundness(world):
    started = time.time()
    entries, rejected = load_corpus(CORPUS)
    elapsed = time.time() - started
    correct = [e for e in entries if e.status == "correct"]
    buggy = [e for e in entries if e.status == "buggy"]
    ok = not rejected and len(correct) == 20 and len(buggy) == 10 and elapsed < 60
    for entry in correct:
        ok = ok and run_tests(entry.ast, entry.suite).all_pass
    for entry in buggy:
        report = run_tests(entry.ast, entry.suite)
        ok = ok and report.any_failure and not analyze(entry.program)[1]
    announce(
        1, "oracle soundness",
        ok,
        f"20 correct all-pass, 10 buggy all-failing, verified in {elapsed:.1f}s",
    )


# --- criterion 2 -------------------------------------------------------------


@pytest.fixture(scope="module")
def critic_family_runs(world, tmp_path_factory):
    """One BT iteration per critic family from identical checkpoints."""
    entries, vocab = world
    correct = correct_entries(entries)
    root = tmp_path_factory.mktemp("chain")
    seed = 11
    samples, _, _ = generate_mechanical_dataset(
        correct, DEFAULT_RULES, ACC_REP, vocab, per_location_cap=2,
        seed=derive_seed("c2", seed),
    )
    base_store = SampleStore(root / "base.jsonl", vocab_sha=vocab.sha())
    base_store.append(samples)
    train_cfg = TrainConfig(
        batch_size=16, learning_rate=1e-3, weight_decay=0.01, max_epochs=8, patience=3,
        seed=derive_seed("c2t", seed),
    )
    fixer = Seq2SeqModel(tiny_config(vocab, derive_seed("c2f", seed)))
    breaker = Seq2SeqModel(tiny_config(vocab, derive_seed("c2b", seed)))
    for model, direction in ((fixer, "fix"), (breaker, "break")):
        tr, va = split_holdout(
            base_store.samples_for(direction), 0.02, derive_seed("c2h", seed, direction)
        )
        train(model, tr, va, train_cfg)
    save_checkpoint(fixer, root / "fixer.ckpt")
    save_checkpoint(breaker, root / "breaker.ckpt")

    results = {}
    for family in ("none", "compiler", "tests"):
        f = load_checkpoint(root / "fixer.ckpt")
        b = load_checkpoint(root / "breaker.ckpt")
        store_path = root / f"store_{family}.jsonl"
        shutil.copyfile(root / "base.jsonl", store_path)
        store = SampleStore(store_path, vocab_sha=vocab.sha())
        cfg = LoopConfig(
            iterations=1, k_correct=10, k_buggy=1, critic_family=family,
            seed=derive_seed("c2loop", seed), max_locations_per_program=8,
        )
        logs = run_loop(f, b, entries, store, cfg, ACC_REP, train_cfg, vocab)
        results[family] = {"count": len(store), "batches": logs[0].batches}
    return entries, results


def test_criterion_02_critic_restrictiveness_chain(critic_family_runs):
    entries, results = critic_family_runs
    suites = {e.name: e.suite for e in entries}
    counts = {family: results[family]["count"] for family in results}
    ordered = counts["tests"] <= counts["compiler"] <= counts["none"]

    violations = 0
    judged = 0
    for family in results:
        for batch in results[family]["batches"]:
            polarity = "correct" if batch.phase == "fix_candidates" else "buggy"
            suite = suites[batch.base_name]
            for record in batch.candidates:
                judged += 1
                program = SourceProgram("candidate", record.text)
                accept_none = judge(CriticKind("none", polarity), program, suite).accept
                accept_compiler = judge(CriticKind("compiler", polarity), program, suite).accept
                accept_tests = judge(CriticKind("tests", polarity), program, suite).accept
                if (accept_tests and not accept_compiler) or (accept_compiler and not accept_none):
                    violations += 1
    announce(
        2, "critic restrictiveness chain",
        ordered and violations == 0,
        f"store counts tests={counts['tests']} <= compiler={counts['compiler']} <= "
        f"none={counts['none']}; {judged} candidates re-judged, {violations} inclusion violations",
    )


# --- criteria 3 and 4 ----------------------------------------------------------


def test_criterion_03_backtranslation_improves_repair(pipelines):
    base_sum = sum(run["baseline"].plausible_total for run in pipelines)
    post_sum = sum(run["post"].plausible_total for run in pipelines)
    budget_ok = all(run["elapsed"] <= 3600 for run in pipelines)
    tasks_ok = all(len(run["tasks"]) >= MIN_TASKS for run in pipelines)
    per_seed = ", ".join(
        f"seed {run['seed']}: {run['baseline'].plausible_total}->{run['post'].plausible_total}"
        for run in pipelines
    )
    announce(
        3, "back-translation improves repair (plausible@10, 3-seed aggregate)",
        post_sum >= base_sum and budget_ok and tasks_ok,
        f"{per_seed}; aggregate {base_sum}->{post_sum}; "
        f"max pipeline {max(r['elapsed'] for r in pipelines):.0f}s <= 3600s",
    )


def test_criterion_04_compilability_metric(pipelines, world):
    entries, vocab = world
    # exact recount on one run: regenerate candidates and re-typecheck
    run = pipelines[0]
    fixer = load_checkpoint(run["baseline_ckpt"])
    recount_compiling = 0
    recount_generated = 0
    for candidates in repair(fixer, run["tasks"], EVAL_K, ACC_REP, vocab):
        candidates = [] if isinstance(candidates, RegionTooLong) else candidates  # as `evaluate` counts it
        recount_generated += len(candidates)
        for candidate in candidates:
            ast, diagnostics = analyze(candidate.program)
            if ast is not None and not diagnostics:
                recount_compiling += 1
    report = run["baseline"]
    exact = (
            recount_generated == report.candidates_generated
            and recount_compiling == report.candidates_compiling
    )
    base_rate = sum(r["baseline"].candidates_compiling for r in pipelines) / max(
        1, sum(r["baseline"].candidates_generated for r in pipelines)
    )
    post_rate = sum(r["post"].candidates_compiling for r in pipelines) / max(
        1, sum(r["post"].candidates_generated for r in pipelines)
    )
    announce(
        4, "compilability metric (exact recount + directional improvement)",
        exact and post_rate >= base_rate,
        f"recount {recount_compiling}/{recount_generated} matches report "
        f"{report.candidates_compiling}/{report.candidates_generated}; "
        f"aggregate compilability {100 * base_rate:.2f}% -> {100 * post_rate:.2f}%",
    )


# --- criterion 5 ----------------------------------------------------------------


def test_criterion_05_beam_correctness():
    forbid = tuple(i for i in range(8) if i not in (EOS, 6, 7))
    max_len = 4
    space = sum(2**n for n in range(max_len)) + 2**max_len
    exact = True
    for seed in range(5):
        scorer = ToyScorer([seed])  # 3 symbols: EOS plus two content tokens
        [ours] = beam_search(scorer, k=space, max_len=max_len, forbidden=forbid)
        oracle = exhaustive_top_k(scorer, k=space, max_len=max_len, forbidden=forbid)
        exact = exact and [c.tokens for c in ours] == [c.tokens for c in oracle]
        exact = exact and all(
            abs(a.log_prob - b.log_prob) < 1e-12 for a, b in zip(ours, oracle)
        )
    greedy_ok = True
    for seed in range(100):
        scorer = ToyScorer([seed + 2000])
        [[best]] = beam_search(scorer, k=1, max_len=5, forbidden=forbid)
        tokens = []
        while len(tokens) < 5:
            row = scorer.step_logprobs([[tokens]])[0].copy()
            row[list(forbid)] = -np.inf
            tokens.append(int(np.argmax(row)))
            if tokens[-1] == EOS:
                break
        greedy_ok = greedy_ok and best.tokens == tuple(tokens)
    announce(
        5, "beam correctness",
        exact and greedy_ok,
        f"full-width beam equals exhaustive top-{space} on 5 toy models; "
        f"K=1 equals greedy on 100 random inputs",
    )


# --- criterion 6 ----------------------------------------------------------------


@pytest.mark.usefixtures("float64")
def test_criterion_06_gradient_check():
    started = time.time()
    results = [grad_check(seed=seed) for seed in (0, 7)]
    elapsed = time.time() - started
    ok = all(r.max_rel_error < 1e-3 for r in results) and elapsed < 10
    announce(
        6, "gradient check",
        ok,
        f"max rel errors {results[0].max_rel_error:.2e}, {results[1].max_rel_error:.2e} "
        f"(<1e-3) in {elapsed:.1f}s (<10s); kink exclusions "
        f"{results[0].n_skipped_kink}+{results[1].n_skipped_kink} of {results[0].n_checked + results[1].n_checked}",
    )


# --- criterion 7 ----------------------------------------------------------------


def test_criterion_07_memorization(world):
    entries, vocab = world
    correct = correct_entries(entries)
    samples, _, _ = generate_mechanical_dataset(
        correct, DEFAULT_RULES, ACC_REP, vocab, per_location_cap=1, seed=999
    )
    fifty = [s for s in samples if s.direction == "fix"][:50]
    assert len(fifty) == 50
    model = Seq2SeqModel(tiny_config(vocab, seed=1))
    cfg = TrainConfig(
        batch_size=16, learning_rate=1e-3, weight_decay=0.01,
        max_epochs=150, patience=150, seed=3,
    )
    result = train(model, fifty, fifty, cfg)
    below = [h.epoch for h in result.history if h.train_loss < 0.05]
    reached = below[0] if below else None
    scorer = BeamScorer(model, [list(sample.input_tokens) for sample in fifty])
    reproduced = sum(
        best.content_tokens == sample.target_tokens
        for sample, [best] in zip(fifty, beam_search(scorer, k=1, max_len=model.config.max_tgt_len))
    )
    announce(
        7, "memorization",
        reached is not None and reached <= 500 and reproduced >= 45,
        f"train loss <0.05 at epoch {reached} (<=500); greedy reproduces {reproduced}/50 (>=45)",
    )


# --- criterion 8 ----------------------------------------------------------------


def test_criterion_08_end_to_end_determinism(tmp_path):
    config = {
        "seed": 5,
        "corpus_dir": str(CORPUS),
        "jobs": 1,
        "eval_k": 2,
        "per_location_cap": 1,
        "model_preset": "tiny",
        "model": {"d_model": 16, "d_ff": 32, "n_heads": 2},
        "train": {"batch_size": 16, "learning_rate": 0.001, "weight_decay": 0.01,
                  "max_epochs": 1, "patience": 1},
        "loop": {"iterations": 1, "k_correct": 2, "k_buggy": 1,
                 "critic_family": "compiler", "max_locations_per_program": 2},
        "representation": {"context_lines": 2, "max_input_len": 128, "max_target_len": 32},
    }
    artifacts = []
    for tag in ("one", "two"):
        work = tmp_path / tag
        config["work_dir"] = str(work / "work")
        config_path = work / "config.json"
        work.mkdir()
        config_path.write_text(json.dumps(config))
        for command in (["gen-mechanical"], ["init-train"], ["backtranslate"]):
            assert cli_main([*command, "--config", str(config_path)]) == EXIT_OK
        fixer = glob.glob(str(work / "work" / "runs" / "*" / "iter1" / "fixer.ckpt"))[0]
        assert cli_main([
            "evaluate", "--config", str(config_path), "--model", fixer,
            "--out", str(work / "eval"),
        ]) == EXIT_OK
        store = SampleStore(work / "work" / "store.jsonl")
        artifacts.append(
            {
                "report": (work / "eval" / "report.json").read_bytes(),
                "counts": store.counts(),
            }
        )
    identical_reports = artifacts[0]["report"] == artifacts[1]["report"]
    identical_counts = artifacts[0]["counts"] == artifacts[1]["counts"]
    announce(
        8, "end-to-end determinism",
        identical_reports and identical_counts,
        f"report.json byte-identical: {identical_reports}; "
        f"store counts identical: {identical_counts} ({artifacts[0]['counts']['total']} samples)",
    )


# --- criterion 9 ----------------------------------------------------------------


def test_criterion_09_gen_bugs_certification(pipelines, world, tmp_path):
    entries, vocab = world
    run = pipelines[0]
    work = tmp_path / "work"
    work.mkdir()
    vocab.save(work / "vocab.json")
    (work / "init").mkdir()
    shutil.copyfile(run["breaker_ckpt"], work / "init" / "breaker.ckpt")
    config = {
        "seed": 5,
        "corpus_dir": str(CORPUS),
        "work_dir": str(work),
        "jobs": 1,
        "model_preset": "tiny",
        "loop": {"iterations": 1, "k_correct": 10, "k_buggy": 1, "critic_family": "tests"},
        "representation": {"context_lines": 3, "max_input_len": 160, "max_target_len": 48},
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))

    tests_dir = tmp_path / "bugs_tests"
    assert cli_main([
        "gen-bugs", "--config", str(config_path), "--critic", "tests", "--out", str(tests_dir),
    ]) == EXIT_OK
    manifest = json.loads((tests_dir / "bugs_manifest.json").read_text())
    suites = {e.name: e.suite for e in entries}
    reverified = 0
    emitted = manifest["bugs"]
    for stem in emitted:
        program = SourceProgram(stem, (tests_dir / f"{stem}.jay").read_text())
        meta = json.loads((tests_dir / f"{stem}.meta.json").read_text())
        ast, diagnostics = analyze(program)
        if ast is None or diagnostics:
            continue
        if run_tests(ast, suites[meta["base"]]).any_failure:
            reverified += 1
    certified = reverified == len(emitted)

    none_dir = tmp_path / "bugs_none"
    assert cli_main([
        "gen-bugs", "--config", str(config_path), "--critic", "none", "--out", str(none_dir),
    ]) == EXIT_OK
    none_manifest = json.loads((none_dir / "bugs_manifest.json").read_text())
    counting = (
        none_manifest["locations_skipped"] == 0
        and none_manifest["generated"]
        == none_manifest["locations_enumerated"] * none_manifest["k_buggy"]
    )
    announce(
        9, "gen-bugs certification",
        certified and counting and len(emitted) > 0,
        f"tests critic: {reverified}/{len(emitted)} emitted bugs re-verify (compile + failing test); "
        f"none critic: generated {none_manifest['generated']} == "
        f"{none_manifest['locations_enumerated']} locations x K={none_manifest['k_buggy']}",
    )


# --- criterion 10 ----------------------------------------------------------------


def test_criterion_10_assessment_chain(pipelines):
    reports = []
    for run in pipelines:
        for name in ("report_baseline.json", "report_post.json"):
            reports.append(json.loads((run["work"] / name).read_text()))
    checked = 0
    ok = True
    for report in reports:
        for task in report["tasks"]:
            for assessment in task["assessments"]:
                checked += 1
                if assessment["correct"] and not assessment["plausible"]:
                    ok = False
                if assessment["plausible"] and not assessment["compiles"]:
                    ok = False
        curve = report["curve"]
        ok = ok and all(b >= a for a, b in zip(curve, curve[1:]))
        ok = ok and curve[-1] == report["totals"]["correct"]
    # the type itself rejects violations
    construction_guard = False
    try:
        PatchAssessment(rank=1, compiles=False, plausible=True, correct=True)
    except ValueError:
        construction_guard = True
    announce(
        10, "assessment chain",
        ok and construction_guard and checked > 0,
        f"{checked} assessments across {len(reports)} reports satisfy "
        f"correct=>plausible=>compiles; curves non-decreasing with c(K)=total correct",
    )
