from __future__ import annotations

from dataclasses import asdict

import numpy as np
import pytest

from helpers import region_text
from jayfix import backtranslate
from jayfix.backtranslate import (
    LoopConfig,
    bt_iteration,
    generate_candidates,
    run_loop,
)
from jayfix.corpus import SampleStore, load_corpus
from jayfix.critics import FAMILY_NONE, POLARITY_BUGGY, POLARITY_CORRECT, CriticKind
from jayfix.evaluate import CandidatePatch, assess, propose_regions, tasks_from_corpus
from jayfix.minilang import DEFAULT_FUEL, enumerate_statement_locations, splice, splice_region
from jayfix.model import ModelConfig, Seq2SeqModel, TrainConfig, load_checkpoint
from jayfix.representation import RegionTooLong, RepresentationConfig, Vocabulary, build_input


@pytest.fixture(scope="module")
def world(request):
    entries, _ = load_corpus(request.config.rootpath / "corpus")
    vocab = Vocabulary.from_corpus([e.program.text for e in entries])
    rep_cfg = RepresentationConfig(context_lines=2, max_input_len=128, max_target_len=32)
    return entries, vocab, rep_cfg


def make_model(vocab, rep_cfg, seed):
    return Seq2SeqModel(
        ModelConfig(
            d_model=16, d_ff=32, n_heads=2, n_encoder_layers=1, n_decoder_layers=1,
            dropout=0.0, vocab_size=vocab.size,
            max_src_len=rep_cfg.max_input_len, max_tgt_len=rep_cfg.max_target_len, seed=seed,
        )
    )


TRAIN_CFG = TrainConfig(batch_size=8, learning_rate=1e-3, weight_decay=0.01, max_epochs=1, patience=1, seed=0)


def small_world(entries, n_correct=2, n_buggy=2):
    correct = [e for e in entries if e.status == "correct"][:n_correct]
    buggy = [e for e in entries if e.status == "buggy"][:n_buggy]
    return correct + buggy


def test_loop_config_defaults():
    cfg = LoopConfig()
    assert cfg.k_correct == 10
    assert cfg.k_buggy == 1
    assert cfg.iterations >= 1


def test_corpus_tasks_cover_buggy_corpus(world):
    entries, _, _ = world
    tasks = tasks_from_corpus(entries)
    assert len(tasks) == 10
    for task in tasks:
        assert task.fault_span.end_line <= task.buggy.line_count


def test_single_iteration_none_critic_counts(world, tmp_path):
    entries, vocab, rep_cfg = world
    subset = small_world(entries, n_correct=1, n_buggy=1)
    correct = [e for e in subset if e.status == "correct"][0]
    locations = enumerate_statement_locations(correct.ast)
    store = SampleStore(tmp_path / "store.jsonl")
    fixer = make_model(vocab, rep_cfg, seed=1)
    breaker = make_model(vocab, rep_cfg, seed=2)
    cfg = LoopConfig(iterations=1, k_correct=2, k_buggy=1, critic_family="none", seed=3)
    log, new_tasks = bt_iteration(
        fixer, breaker, subset, tasks_from_corpus(subset), store, cfg, rep_cfg, TRAIN_CFG, vocab, iteration=1
    )
    # with K_buggy=1 and no critic, phase 5 yields exactly one candidate per location
    assert log.bug_candidates == len(locations)
    assert log.bug_kept == len(locations)
    assert log.fix_samples_appended <= len(locations)
    assert log.store_total_after == len(store)
    assert len(new_tasks) <= len(locations)


def test_store_grows_monotonically_across_iterations(world, tmp_path):
    entries, vocab, rep_cfg = world
    subset = small_world(entries)
    store = SampleStore(tmp_path / "store.jsonl")
    fixer = make_model(vocab, rep_cfg, seed=4)
    breaker = make_model(vocab, rep_cfg, seed=5)
    cfg = LoopConfig(iterations=2, k_correct=2, k_buggy=1, critic_family="none", seed=6)
    sizes = [len(store)]
    logs = run_loop(fixer, breaker, subset, store, cfg, rep_cfg, TRAIN_CFG, vocab)
    for log in logs:
        sizes.append(log.store_total_after)
    assert sizes == sorted(sizes)
    assert len(logs) == 2


def test_n1_loop_equals_single_iteration(world, tmp_path):
    entries, vocab, rep_cfg = world
    subset = small_world(entries, n_correct=1, n_buggy=1)
    cfg = LoopConfig(iterations=1, k_correct=2, k_buggy=1, critic_family="compiler", seed=7)

    fixer_a = make_model(vocab, rep_cfg, seed=8)
    breaker_a = make_model(vocab, rep_cfg, seed=9)
    store_a = SampleStore(tmp_path / "a.jsonl")
    logs = run_loop(fixer_a, breaker_a, subset, store_a, cfg, rep_cfg, TRAIN_CFG, vocab)

    from jayfix.util import derive_seed

    fixer_b = make_model(vocab, rep_cfg, seed=8)
    breaker_b = make_model(vocab, rep_cfg, seed=9)
    store_b = SampleStore(tmp_path / "b.jsonl")
    single_cfg = TrainConfig(
        batch_size=TRAIN_CFG.batch_size, learning_rate=TRAIN_CFG.learning_rate,
        weight_decay=TRAIN_CFG.weight_decay, max_epochs=TRAIN_CFG.max_epochs,
        patience=TRAIN_CFG.patience, seed=derive_seed("bt-train", TRAIN_CFG.seed, 1),
    )
    log_b, _ = bt_iteration(
        fixer_b, breaker_b, subset, tasks_from_corpus(subset), store_b, cfg, rep_cfg, single_cfg, vocab, iteration=1
    )
    assert len(logs) == 1
    log_a = logs[0]
    assert log_a.fix_candidates == log_b.fix_candidates
    assert log_a.bug_candidates == log_b.bug_candidates
    assert log_a.store_total_after == log_b.store_total_after
    assert [s.to_json() for s in store_a.samples] == [s.to_json() for s in store_b.samples]
    for name in fixer_a.params:
        assert np.array_equal(fixer_a.params[name].data, fixer_b.params[name].data)


def test_loop_is_deterministic(world, tmp_path):
    entries, vocab, rep_cfg = world
    subset = small_world(entries, n_correct=1, n_buggy=1)
    cfg = LoopConfig(iterations=1, k_correct=2, k_buggy=1, critic_family="compiler", seed=10)
    results = []
    for tag in ("x", "y"):
        fixer = make_model(vocab, rep_cfg, seed=11)
        breaker = make_model(vocab, rep_cfg, seed=12)
        store = SampleStore(tmp_path / f"{tag}.jsonl")
        logs = run_loop(fixer, breaker, subset, store, cfg, rep_cfg, TRAIN_CFG, vocab)
        payload = [
            {k: v for k, v in asdict(log).items() if k != "wall_clock_sec"} for log in logs
        ]
        results.append((payload, [s.to_json() for s in store.samples]))
    assert results[0] == results[1]


def test_identity_fixes_are_discarded(world, tmp_path):
    entries, vocab, rep_cfg = world
    subset = small_world(entries, n_correct=1, n_buggy=1)
    tasks = tasks_from_corpus(subset)
    store = SampleStore(tmp_path / "store.jsonl")
    fixer = make_model(vocab, rep_cfg, seed=13)
    breaker = make_model(vocab, rep_cfg, seed=14)
    cfg = LoopConfig(iterations=1, k_correct=4, k_buggy=1, critic_family="none", seed=15)
    log, _ = bt_iteration(fixer, breaker, subset, tasks, store, cfg, rep_cfg, TRAIN_CFG, vocab, iteration=1)
    # candidates counted after the identity discard can never exceed tasks x K
    assert log.fix_candidates <= len(tasks) * cfg.k_correct
    for batch in log.batches:
        if batch.phase != "fix_candidates":
            continue
        task = next(t for t in tasks if t.name == batch.base_name)
        for record in batch.candidates:
            assert record.text != task.buggy.text


def test_checkpoints_and_logs_persisted(world, tmp_path):
    entries, vocab, rep_cfg = world
    subset = small_world(entries, n_correct=1, n_buggy=1)
    store = SampleStore(tmp_path / "store.jsonl")
    fixer = make_model(vocab, rep_cfg, seed=16)
    breaker = make_model(vocab, rep_cfg, seed=17)
    cfg = LoopConfig(iterations=1, k_correct=2, k_buggy=1, critic_family="none", seed=18)
    run_dir = tmp_path / "run"
    run_loop(fixer, breaker, subset, store, cfg, rep_cfg, TRAIN_CFG, vocab, run_dir=run_dir)
    assert (run_dir / "iter1" / "fixer.ckpt").exists()
    assert (run_dir / "iter1" / "breaker.ckpt").exists()
    assert (run_dir / "iter1" / "log.json").exists()
    reloaded = load_checkpoint(run_dir / "iter1" / "fixer.ckpt")
    for name in fixer.params:
        assert np.array_equal(reloaded.params[name].data, fixer.params[name].data)


def test_breaker_first_order(world, tmp_path):
    entries, vocab, rep_cfg = world
    subset = small_world(entries, n_correct=1, n_buggy=1)
    store = SampleStore(tmp_path / "store.jsonl")
    fixer = make_model(vocab, rep_cfg, seed=20)
    breaker = make_model(vocab, rep_cfg, seed=21)
    cfg = LoopConfig(
        iterations=1, k_correct=2, k_buggy=1, critic_family="none",
        seed=22, order="breaker-first",
    )
    log, new_tasks = bt_iteration(
        fixer, breaker, subset, tasks_from_corpus(subset), store, cfg, rep_cfg, TRAIN_CFG, vocab, iteration=1
    )
    assert log.order == "breaker-first"
    # the fixer half saw this iteration's accepted bugs as extra tasks
    assert log.fix_candidates >= log.bug_kept  # one task per accepted bug, K_correct=2 each minus identities
    assert log.store_total_after == len(store)


def test_unknown_order_rejected():
    import pytest as _pytest

    with _pytest.raises(ValueError):
        LoopConfig(order="diagonal")


# --- generate_candidates: the one propose -> splice -> judge path ----------------


def _gcd(entries):
    return next(e for e in entries if e.name == "gcd")


def _stub_beam(monkeypatch, proposals):
    """Replace beam decoding by fixed proposals per span, so the identity
    proposal (the span's own lines) is certain to occur."""

    def propose(model, requests, k, rep_cfg, vocab):
        return [
            [(text, -float(i)) for i, text in enumerate(proposals(region_text(program.text, span)))][:k]
            for program, span in requests
        ]

    monkeypatch.setattr(backtranslate, "propose_regions", propose)


def test_generate_candidates_span_then_beam_order(world):
    entries, vocab, rep_cfg = world
    entry = _gcd(entries)
    spans = list(reversed(enumerate_statement_locations(entry.ast)))
    model = make_model(vocab, rep_cfg, seed=30)
    critic = CriticKind(FAMILY_NONE, POLARITY_BUGGY)
    [generation] = generate_candidates(
        model, [(entry.name, entry.program, spans, entry.suite)], 3, critic, DEFAULT_FUEL, rep_cfg, vocab
    )
    expected = [
        (span, splice_region(entry.program.text, span, text.split("\n")).mutant_text)
        for span, proposed in zip(
            spans, propose_regions(model, [(entry.program, span) for span in spans], 3, rep_cfg, vocab)
        )
        for text, _ in proposed
    ]
    assert [(c.anchor, c.program.text) for c in generation.candidates] == expected
    assert len(expected) == 3 * len(spans)
    assert generation.skipped == 0


def test_generate_candidates_skips_too_long_spans(world):
    entries, vocab, _ = world
    entry = _gcd(entries)
    spans = enumerate_statement_locations(entry.ast)
    lengths = {span: len(vocab.encode(region_text(entry.program.text, span))) for span in spans}
    budget = max(n for span, n in lengths.items() if span.start_line == span.end_line) + 2
    rep_cfg = RepresentationConfig(context_lines=2, max_input_len=budget, max_target_len=32)
    too_long = [span for span in spans if lengths[span] + 2 > budget]
    assert too_long and len(too_long) < len(spans)
    model = make_model(vocab, rep_cfg, seed=31)
    critic = CriticKind(FAMILY_NONE, POLARITY_BUGGY)
    [generation] = generate_candidates(
        model, [(entry.name, entry.program, spans, entry.suite)], 2, critic, DEFAULT_FUEL, rep_cfg, vocab
    )
    assert generation.skipped == len(too_long)
    anchors = [c.anchor for c in generation.candidates]
    assert not set(anchors) & set(too_long)
    assert anchors == [span for span in spans if span not in too_long for _ in range(2)]
    assert generation.counts.generated == 2 * (len(spans) - len(too_long))


@pytest.mark.parametrize("polarity", [POLARITY_CORRECT, POLARITY_BUGGY])
def test_generate_candidates_identity_rule_follows_polarity(world, monkeypatch, polarity):
    entries, vocab, rep_cfg = world
    entry = _gcd(entries)
    spans = enumerate_statement_locations(entry.ast)
    _stub_beam(monkeypatch, lambda region: [region, region + " +"])
    critic = CriticKind(FAMILY_NONE, polarity)
    [generation] = generate_candidates(
        None, [(entry.name, entry.program, spans, entry.suite)], 2, critic, DEFAULT_FUEL, rep_cfg, vocab
    )
    identities = [c for c in generation.candidates if c.program.text == entry.program.text]
    if polarity == POLARITY_CORRECT:
        # a no-op fix is dropped before the critic sees it
        assert identities == []
        assert len(generation.candidates) == len(spans)
    else:
        # gen-bugs' generated == locations x K identity relies on keeping them
        assert len(identities) == len(spans)
        assert len(generation.candidates) == len(spans) * 2
    assert generation.counts.generated == len(generation.candidates)
    assert generation.counts.kept == len(generation.kept) == len(generation.candidates)


def test_kept_agrees_with_batch_log_and_filter_counts(world, tmp_path, monkeypatch):
    entries, vocab, rep_cfg = world
    subset = small_world(entries, n_correct=2, n_buggy=2)
    _stub_beam(monkeypatch, lambda region: [region, region + " +", region.replace("+", "-")])
    generations = []

    def spy(*args, **kwargs):
        result = generate_candidates(*args, **kwargs)
        generations.extend(result)
        return result

    monkeypatch.setattr(backtranslate, "generate_candidates", spy)
    monkeypatch.setattr(backtranslate, "_finetune", lambda *args: 0.0)  # bookkeeping only
    cfg = LoopConfig(iterations=1, k_correct=3, k_buggy=3, critic_family="compiler", seed=32)
    log, _ = bt_iteration(
        make_model(vocab, rep_cfg, seed=33), make_model(vocab, rep_cfg, seed=34), subset,
        tasks_from_corpus(subset), SampleStore(tmp_path / "store.jsonl"), cfg, rep_cfg, TRAIN_CFG, vocab,
        iteration=1,
    )
    assert len(generations) == len(log.batches)
    for generation, batch in zip(generations, log.batches):
        kept_ids = {id(candidate) for candidate, _ in generation.kept}
        flags = [record.accepted for record in batch.candidates]
        assert flags == [id(c) in kept_ids for c in generation.candidates]
        assert [record.text for record in batch.candidates] == [c.program.text for c in generation.candidates]
        assert sum(flags) == generation.counts.kept == len(generation.kept)
        assert len(flags) == generation.counts.generated
        assert generation.counts.generated == (
            generation.counts.kept + generation.counts.rejected_compile + generation.counts.rejected_tests
        )
    for phase, kept, candidates in (
        ("fix_candidates", log.fix_kept, log.fix_candidates),
        ("bug_candidates", log.bug_kept, log.bug_candidates),
    ):
        counts = [g.counts for g, b in zip(generations, log.batches) if b.phase == phase]
        assert kept == sum(c.kept for c in counts)
        assert candidates == sum(c.generated for c in counts)
        # the stub makes both verdicts occur in both halves
        assert 0 < kept < candidates


def test_single_kept_candidate_skips_the_finetune(world, tmp_path, monkeypatch):
    # one kept bug on an empty store is one fix sample: the hold-out would
    # leave no training set, so the fixer's fine-tune is skipped
    entries, vocab, rep_cfg = world
    subset = small_world(entries, n_correct=1, n_buggy=0)
    kept = []

    def proposals(region):  # the first one-line region is proposed unchanged
        if kept or "\n" in region:
            return [region + " +"]
        kept.append(region)
        return [region]

    _stub_beam(monkeypatch, proposals)
    cfg = LoopConfig(
        iterations=1, k_correct=1, k_buggy=1, critic_family="compiler", include_mechanical=False, seed=35
    )
    store = SampleStore(tmp_path / "store.jsonl")
    log, new_tasks = bt_iteration(
        make_model(vocab, rep_cfg, seed=36), make_model(vocab, rep_cfg, seed=37), subset,
        tasks_from_corpus(subset), store, cfg, rep_cfg, TRAIN_CFG, vocab, iteration=1,
    )
    assert (log.fix_kept, log.bug_kept, log.fix_samples_appended) == (0, 1, 1)
    assert len(store.samples_for("fix", include_mechanical=False)) == 1
    assert len(new_tasks) == 1
    assert (log.fixer_finetuned, log.fixer_val_loss) == (False, None)
    assert (log.breaker_finetuned, log.breaker_val_loss) == (False, None)


def test_kept_duplicates_of_store_samples_skip_the_finetune(world, tmp_path, monkeypatch):
    # the same iteration twice on one store: the second keeps the same
    # candidates, which give samples the store already holds, so neither
    # model is trained again on an unchanged store
    entries, vocab, rep_cfg = world
    subset = small_world(entries, n_correct=1, n_buggy=1)
    _stub_beam(monkeypatch, lambda region: [region + " +"])
    finetuned = []
    monkeypatch.setattr(backtranslate, "_finetune", lambda model, direction, *args: finetuned.append(direction) or 0.0)
    cfg = LoopConfig(
        iterations=1, k_correct=1, k_buggy=1, critic_family=FAMILY_NONE, max_locations_per_program=3, seed=44
    )
    store = SampleStore(tmp_path / "store.jsonl")
    fixer, breaker = make_model(vocab, rep_cfg, seed=45), make_model(vocab, rep_cfg, seed=46)
    first, second = (
        bt_iteration(fixer, breaker, subset, tasks_from_corpus(subset), store, cfg, rep_cfg, TRAIN_CFG, vocab,
                     iteration=1)[0]
        for _ in range(2)
    )
    assert first.break_samples_appended > 0 and first.fix_samples_appended > 0
    assert (first.breaker_finetuned, first.fixer_finetuned) == (True, True)
    assert (second.fix_kept, second.bug_kept) == (first.fix_kept, first.bug_kept)
    assert (second.break_samples_appended, second.fix_samples_appended) == (0, 0)
    assert (second.breaker_finetuned, second.breaker_val_loss) == (False, None)
    assert (second.fixer_finetuned, second.fixer_val_loss) == (False, None)
    assert finetuned == ["break", "fix"]


def test_every_backtranslated_sample_inverts_its_edit(world, tmp_path, monkeypatch):
    # kept fixes become break samples and kept bugs fix samples; either
    # way, splicing the sample's target at its span into the candidate
    # gives back the program the proposal was spliced into
    entries, vocab, _ = world
    rep_cfg = RepresentationConfig(context_lines=2, max_input_len=512, max_target_len=128)
    subset = small_world(entries, n_correct=2, n_buggy=2)
    _stub_beam(monkeypatch, lambda region: [region + " +", region.replace("+", "-"), region + "\n" + region])
    generated, batches = [], []
    log_batch = backtranslate._log_batch

    def generate(model, prompts, *args):
        result = generate_candidates(model, prompts, *args)
        generated.extend((program, g) for (_, program, _, _), g in zip(prompts, result))
        return result

    def logged(log, phase, base_name, generation, *args):
        samples = log_batch(log, phase, base_name, generation, *args)
        program = next(p for p, g in generated if g is generation)
        batches.append((program, generation, samples))
        return samples

    monkeypatch.setattr(backtranslate, "generate_candidates", generate)
    monkeypatch.setattr(backtranslate, "_log_batch", logged)
    monkeypatch.setattr(backtranslate, "_finetune", lambda *args: 0.0)  # bookkeeping only
    cfg = LoopConfig(
        iterations=1, k_correct=3, k_buggy=3, critic_family=FAMILY_NONE, max_locations_per_program=3, seed=38
    )
    log, _ = bt_iteration(
        make_model(vocab, rep_cfg, seed=39), make_model(vocab, rep_cfg, seed=40), subset,
        tasks_from_corpus(subset), SampleStore(tmp_path / "store.jsonl"), cfg, rep_cfg, TRAIN_CFG, vocab,
        iteration=1,
    )
    assert log.rejected_length == 0
    directions = set()
    for program, generation, samples in batches:
        assert len(samples) == len(generation.kept)
        for (candidate, _verdict), sample in zip(generation.kept, samples):
            assert sample.input_tokens == tuple(build_input(candidate.program, sample.span, rep_cfg, vocab))
            target = vocab.decode(list(sample.target_tokens)).split("\n")
            assert splice(candidate.program.text, sample.span, target) == program.text
            directions.add(sample.direction)
    assert directions == {"fix", "break"}
    # the two-line proposals resize the region, so a sample that records
    # the base span instead of the candidate's cannot pass
    assert any(c.splice.base_region != c.splice.mutant_region for _, g, _ in batches for c, _ in g.kept)


def test_breaker_half_tasks_are_judged_by_their_base_program(world, tmp_path, monkeypatch):
    # an accepted bug becomes a repair task with its base program's suite,
    # and that program as the reference: restoring it is a correct patch
    entries, vocab, rep_cfg = world
    subset = small_world(entries, n_correct=2, n_buggy=1)
    _stub_beam(monkeypatch, lambda region: [region + " +", region.replace("+", "-")])
    monkeypatch.setattr(backtranslate, "_finetune", lambda *args: 0.0)  # bookkeeping only
    cfg = LoopConfig(
        iterations=1, k_correct=1, k_buggy=2, critic_family="compiler", max_locations_per_program=3, seed=41
    )
    log, new_tasks = bt_iteration(
        make_model(vocab, rep_cfg, seed=42), make_model(vocab, rep_cfg, seed=43), subset,
        tasks_from_corpus(subset), SampleStore(tmp_path / "store.jsonl"), cfg, rep_cfg, TRAIN_CFG, vocab,
        iteration=1,
    )
    assert new_tasks and len(new_tasks) <= log.bug_kept
    by_name = {entry.name: entry for entry in subset if entry.status == "correct"}
    for task in new_tasks:
        base = by_name[task.name]
        assert task.suite == base.suite
        assert task.reference == base.program and task.reference_ast is base.ast
        [verdict] = assess([CandidatePatch(1, 0.0, "", task.reference)], task)
        assert verdict.correct


def test_breaker_first_proposes_for_each_repair_task_once_per_iteration(world, tmp_path, monkeypatch):
    # iteration 2's breaker half finds iteration 1's bugs again; they are
    # repair tasks already and must not be prompted for a second time
    entries, vocab, rep_cfg = world
    subset = small_world(entries, n_correct=1, n_buggy=1)
    _stub_beam(monkeypatch, lambda region: [region.replace("+", "-") + " +"])
    monkeypatch.setattr(backtranslate, "_finetune", lambda *args: 0.0)  # bookkeeping only
    prompts: dict[int, list] = {}
    iteration = bt_iteration

    def each_iteration(*args, **kwargs):
        prompts[kwargs["iteration"]] = []
        return iteration(*args, **kwargs)

    def generate(model, batch, k, critic, *args):
        if critic.polarity == POLARITY_CORRECT:
            prompts[max(prompts)].extend(
                (base_name, program.text, tuple(spans)) for base_name, program, spans, _ in batch
            )
        return generate_candidates(model, batch, k, critic, *args)

    monkeypatch.setattr(backtranslate, "bt_iteration", each_iteration)
    monkeypatch.setattr(backtranslate, "generate_candidates", generate)
    cfg = LoopConfig(iterations=2, k_correct=1, k_buggy=1, critic_family=FAMILY_NONE, order="breaker-first", seed=44)
    logs = run_loop(
        make_model(vocab, rep_cfg, seed=45), make_model(vocab, rep_cfg, seed=46), subset,
        SampleStore(tmp_path / "store.jsonl"), cfg, rep_cfg, TRAIN_CFG, vocab,
    )
    assert sorted(prompts) == [1, 2]
    for number, prompted in prompts.items():
        assert len(set(prompted)) == len(prompted), number
    # iteration 2 prompts for iteration 1's tasks, and its own bugs are no new tasks
    assert prompts[2] == prompts[1]
    assert [log.fix_candidates for log in logs] == [len(p) for p in prompts.values()]


def test_breaker_prompt_with_no_span_in_budget_logs_no_batch(world, tmp_path, monkeypatch):
    # every region of one correct program is over the input budget: that
    # program logs no batch, and each of its spans counts as too long
    entries, vocab, _ = world
    rep_cfg = RepresentationConfig(context_lines=2, max_input_len=512, max_target_len=128)
    subset = small_world(entries, n_correct=2, n_buggy=0)
    too_long, fits = [e for e in subset if e.status == "correct"]

    def propose(model, requests, k, rep_cfg, vocab):
        return [
            RegionTooLong(f"region {span} does not fit") if program.name == too_long.name
            else [("    return 0;", 0.0)]
            for program, span in requests
        ]

    monkeypatch.setattr(backtranslate, "propose_regions", propose)
    monkeypatch.setattr(backtranslate, "_finetune", lambda *args: 0.0)  # bookkeeping only
    cfg = LoopConfig(iterations=1, k_correct=1, k_buggy=1, critic_family=FAMILY_NONE, seed=47)
    log, new_tasks = bt_iteration(
        make_model(vocab, rep_cfg, seed=48), make_model(vocab, rep_cfg, seed=49), subset,
        [], SampleStore(tmp_path / "store.jsonl"), cfg, rep_cfg, TRAIN_CFG, vocab, iteration=1,
    )
    assert [(batch.phase, batch.base_name) for batch in log.batches] == [("bug_candidates", fits.name)]
    assert log.rejected_length == len(enumerate_statement_locations(too_long.ast))
    assert log.bug_candidates == log.bug_kept == len(enumerate_statement_locations(fits.ast))
    assert {task.name for task in new_tasks} == {fits.name}
