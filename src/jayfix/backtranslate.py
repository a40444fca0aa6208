"""The back-translation loop: alternating generate -> filter ->
accumulate -> fine-tune rounds that improve the breaker and fixer.

One iteration runs two half-rounds, one step (`_half`) in two
directions. The fixer half: the fixer proposes K_correct patches per
repair task (`evaluate.RepairTask`: the buggy corpus plus bugs accepted
in earlier rounds), proposals identical to their input are discarded,
the correct-code critic filters the rest with the task's suite,
survivors become break-direction samples (fixed code in, buggy code out)
in the store, and the breaker is fine-tuned on every break sample in the
store. The breaker half mirrors it: K_buggy corruptions per statement
location of each correct seed, the buggy-code critic, fix-direction
samples, and a fixer fine-tune. Each accepted corruption not yet a task
becomes one, with its base program's suite, and that program as the
reference fix.

The default order runs the fixer half first; `order="breaker-first"`
swaps the halves, in which case bugs accepted by the breaker half feed
the fixer half of the same iteration. Fine-tuning always warm-starts
from the current weights and uses the whole store for its direction,
so later iterations see strictly more data. A half that adds no sample
to the store skips its fine-tune and is logged.

Both halves, and `jayfix gen-bugs`, generate through one path:
`generate_candidates` proposes for all of its prompts in one beam
search, then splices and judges each program's candidates.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Optional

from .corpus import (
    CorpusEntry,
    DIRECTION_BREAK,
    DIRECTION_FIX,
    HOLDOUT_FRACTION,
    ORIGIN_BACKTRANSLATION,
    SampleStore,
    TrainingSample,
    correct_entries,
    sample_from_edit,
    split_holdout,
)
from .critics import (
    CriticKind,
    CriticVerdict,
    FAMILIES,
    FilterCounts,
    POLARITY_BUGGY,
    POLARITY_CORRECT,
    filter_candidates,
)
from .evaluate import RepairTask, propose_regions, tasks_from_corpus
from .minilang import (
    DEFAULT_FUEL,
    SourceProgram,
    Span,
    SpliceResult,
    TestSuite,
    enumerate_statement_locations,
    splice_region,
)
from .model import Seq2SeqModel, TrainConfig, save_checkpoint, train
from .representation import RegionTooLong, RepresentationConfig, Vocabulary
from .util import content_hash, derive_rng, derive_seed, write_json


ORDER_FIXER_FIRST = "fixer-first"
ORDER_BREAKER_FIRST = "breaker-first"


@dataclass(frozen=True)
class LoopConfig:
    iterations: int = 2
    k_correct: int = 10
    k_buggy: int = 1
    critic_family: str = "compiler"
    fuel: int = DEFAULT_FUEL
    seed: int = 0
    include_mechanical: bool = True
    max_locations_per_program: Optional[int] = None
    order: str = ORDER_FIXER_FIRST

    def __post_init__(self) -> None:
        if self.iterations < 1 or self.k_correct < 1 or self.k_buggy < 1:
            raise ValueError("iterations, k_correct and k_buggy must be >= 1")
        if self.order not in (ORDER_FIXER_FIRST, ORDER_BREAKER_FIRST):
            raise ValueError(f"unknown order {self.order!r}")
        if self.critic_family not in FAMILIES:
            raise ValueError(f"unknown critic {self.critic_family!r}; pick one of {', '.join(FAMILIES)}")


@dataclass
class CandidateRecord:
    text: str
    accepted: bool
    sha: str


@dataclass
class BatchLog:
    phase: str  # "fix_candidates" | "bug_candidates"
    base_name: str
    candidates: list[CandidateRecord] = field(default_factory=list)


@dataclass
class IterationLog:
    iteration: int
    critic_family: str
    order: str = ORDER_FIXER_FIRST
    fix_candidates: int = 0
    fix_kept: int = 0
    break_samples_appended: int = 0
    bug_candidates: int = 0
    bug_kept: int = 0
    fix_samples_appended: int = 0
    rejected_length: int = 0
    breaker_val_loss: Optional[float] = None
    fixer_val_loss: Optional[float] = None
    breaker_finetuned: bool = False
    fixer_finetuned: bool = False
    store_total_after: int = 0
    wall_clock_sec: float = 0.0
    batches: list[BatchLog] = field(default_factory=list)


@dataclass(frozen=True)
class Candidate:
    """A proposal spliced into its program at the span it was decoded for."""

    program: SourceProgram
    anchor: Span
    splice: SpliceResult


@dataclass(frozen=True)
class Generation:
    """One program's proposals, in span-then-beam order, and the critic's
    judgement of them."""

    candidates: list[Candidate]
    kept: list[tuple[Candidate, CriticVerdict]]
    counts: FilterCounts
    skipped: int  # spans whose input did not fit the length budget


# a program to propose for: (base name, program, spans, suite of its base program)
Prompt = tuple[str, SourceProgram, list[Span], Optional[TestSuite]]


def generate_candidates(
    model: Seq2SeqModel,
    prompts: list[Prompt],
    k: int,
    critic: CriticKind,
    fuel: int,
    rep_cfg: RepresentationConfig,
    vocab: Vocabulary,
) -> list[Generation]:
    """Propose k replacements per span of every prompt, all in one beam
    search, splice each into its program and judge each prompt's batch
    against its suite; one generation per prompt. Under the correct-code
    critic a proposal that leaves the program unchanged is dropped before
    judging: a no-op fix is not a fix."""
    fixing = critic.polarity == POLARITY_CORRECT
    proposals = iter(propose_regions(
        model, [(program, span) for _, program, spans, _ in prompts for span in spans], k, rep_cfg, vocab
    ))
    generations = []
    for base_name, program, spans, suite in prompts:
        name = f"{base_name}+fix" if fixing else f"{base_name}+bug"
        candidates: list[Candidate] = []
        skipped = 0
        for span in spans:
            proposed = next(proposals)
            if isinstance(proposed, RegionTooLong):
                skipped += 1
                continue
            for text, _score in proposed:
                result = splice_region(program.text, span, text.split("\n"))
                if fixing and result.mutant_text == program.text:
                    continue
                candidates.append(Candidate(SourceProgram(name, result.mutant_text), span, result))
        kept, counts = filter_candidates(critic, [(c.program, c) for c in candidates], suite, fuel)
        generations.append(Generation(candidates, [(c, verdict) for _, c, verdict in kept], counts, skipped))
    return generations


def _finetune(
    model: Seq2SeqModel,
    direction: str,
    store: SampleStore,
    cfg: LoopConfig,
    train_cfg: TrainConfig,
    iteration: int,
) -> Optional[float]:
    """Fine-tune on the store's samples for `direction` and return the
    best validation loss, or None without training when fewer than two
    samples leave nothing to train on after the hold-out."""
    samples = store.samples_for(direction, cfg.include_mechanical)
    if len(samples) < 2:
        return None
    split_seed = derive_seed(f"bt-{direction}-holdout", cfg.seed, iteration)
    train_set, val_set = split_holdout(samples, HOLDOUT_FRACTION, split_seed)
    result = train(model, train_set, val_set, train_cfg)
    return result.best_val_loss


def _log_batch(
    log: IterationLog,
    phase: str,
    base_name: str,
    generation: Generation,
    iteration: int,
    rep_cfg: RepresentationConfig,
    vocab: Vocabulary,
) -> list[TrainingSample]:
    """Record one program's candidates in the iteration log and turn the
    kept ones into samples for the other model: kept fixes become break
    samples, kept bugs fix samples."""
    accepted = {id(candidate) for candidate, _ in generation.kept}
    log.batches.append(BatchLog(phase, base_name, [
        CandidateRecord(c.program.text, id(c) in accepted, content_hash(c.program.text))
        for c in generation.candidates
    ]))
    log.rejected_length += generation.skipped
    if phase == "fix_candidates":
        log.fix_candidates += len(generation.candidates)
        log.fix_kept += len(generation.kept)
        direction = DIRECTION_BREAK
    else:
        log.bug_candidates += len(generation.candidates)
        log.bug_kept += len(generation.kept)
        direction = DIRECTION_FIX
    samples = [
        sample_from_edit(
            direction, c.program, c.splice.mutant_region, c.splice.base_region_lines,
            base_name, ORIGIN_BACKTRANSLATION, iteration, rep_cfg, vocab,
        )
        for c, _verdict in generation.kept
    ]
    log.rejected_length += samples.count(None)
    return [sample for sample in samples if sample is not None]


def _half(
    model: Seq2SeqModel,
    other: Seq2SeqModel,
    prompts: list[Prompt],
    polarity: str,
    store: SampleStore,
    cfg: LoopConfig,
    rep_cfg: RepresentationConfig,
    train_cfg: TrainConfig,
    vocab: Vocabulary,
    iteration: int,
    log: IterationLog,
) -> tuple[list[Generation], int, Optional[float]]:
    """One half-round: `model` proposes for every prompt in one
    `generate_candidates` call, the critic of `polarity` judges, the kept
    candidates go to the store as samples for `other`, and `other` is
    fine-tuned when the store gained a sample. The fixer half has the
    correct-code polarity, the breaker half the buggy-code one. A prompt
    none of whose spans fit the length budget logs no batch; its spans
    count in `rejected_length`. Returns each prompt's generation, the
    number of samples new to the store, and `other`'s validation loss,
    None when it was not fine-tuned."""
    fixing = polarity == POLARITY_CORRECT
    critic = CriticKind(cfg.critic_family, polarity)
    phase, direction = ("fix_candidates", DIRECTION_BREAK) if fixing else ("bug_candidates", DIRECTION_FIX)
    k = cfg.k_correct if fixing else cfg.k_buggy
    generations = generate_candidates(model, prompts, k, critic, cfg.fuel, rep_cfg, vocab)
    batch: list[TrainingSample] = []
    for (name, _program, spans, _suite), generation in zip(prompts, generations):
        if generation.skipped == len(spans):  # nothing was proposed: no batch to log
            log.rejected_length += generation.skipped
        else:
            batch += _log_batch(log, phase, name, generation, iteration, rep_cfg, vocab)
    appended = store.append(batch)
    val_loss = _finetune(other, direction, store, cfg, train_cfg, iteration) if appended else None
    return generations, appended, val_loss


def _breaker_locations(entry: CorpusEntry, cfg: LoopConfig, iteration: int) -> list[Span]:
    """The statement locations the breaker corrupts in one correct program:
    all of them, or a seeded sample of `max_locations_per_program` in
    source order."""
    locations = enumerate_statement_locations(entry.ast)
    if cfg.max_locations_per_program and len(locations) > cfg.max_locations_per_program:
        rng = derive_rng("bt-locations", cfg.seed, iteration, entry.name)
        keep = sorted(rng.choice(len(locations), size=cfg.max_locations_per_program, replace=False).tolist())
        locations = [locations[i] for i in keep]
    return locations


def _tasks_from_bugs(
    entries: list[CorpusEntry],
    generations: list[Generation],
    tasks: list[RepairTask],
    iteration: int,
) -> list[RepairTask]:
    """A repair task per bug kept from each entry, judged by the entry's
    suite with the entry as the reference fix. Each (name, text, region)
    comes once, first occurrence first, and none that `tasks` holds."""
    seen = {(t.name, t.buggy.text, t.fault_span) for t in tasks}
    new_tasks: list[RepairTask] = []
    for entry, generation in zip(entries, generations):
        for candidate, _verdict in generation.kept:
            key = (entry.name, candidate.program.text, candidate.splice.mutant_region)
            if key in seen:
                continue
            seen.add(key)
            new_tasks.append(RepairTask(
                name=entry.name, buggy=SourceProgram(f"{entry.name}@bt{iteration}", candidate.program.text),
                fault_span=candidate.splice.mutant_region, suite=entry.suite,
                reference=entry.program, reference_ast=entry.ast,
            ))
    return new_tasks


def bt_iteration(
    fixer: Seq2SeqModel,
    breaker: Seq2SeqModel,
    entries: list[CorpusEntry],
    tasks: list[RepairTask],
    store: SampleStore,
    cfg: LoopConfig,
    rep_cfg: RepresentationConfig,
    train_cfg: TrainConfig,
    vocab: Vocabulary,
    iteration: int,
) -> tuple[IterationLog, list[RepairTask]]:
    """One full back-translation round. Models are fine-tuned in place;
    returns the log and the repair tasks made from bugs accepted this
    round that `tasks` does not hold yet."""
    started = time.time()
    log = IterationLog(iteration=iteration, critic_family=cfg.critic_family, order=cfg.order)
    context = (store, cfg, rep_cfg, train_cfg, vocab, iteration, log)

    def fixer_half(repair_tasks: list[RepairTask]) -> None:
        prompts = [(t.name, t.buggy, [t.fault_span], t.suite) for t in repair_tasks]
        _, log.break_samples_appended, log.breaker_val_loss = _half(
            fixer, breaker, prompts, POLARITY_CORRECT, *context
        )
        log.breaker_finetuned = log.breaker_val_loss is not None

    def breaker_half() -> list[RepairTask]:
        correct = sorted(correct_entries(entries), key=lambda e: e.name)
        prompts = [(e.name, e.program, _breaker_locations(e, cfg, iteration), e.suite) for e in correct]
        generations, log.fix_samples_appended, log.fixer_val_loss = _half(
            breaker, fixer, prompts, POLARITY_BUGGY, *context
        )
        log.fixer_finetuned = log.fixer_val_loss is not None
        return _tasks_from_bugs(correct, generations, tasks, iteration)

    if cfg.order == ORDER_FIXER_FIRST:
        fixer_half(tasks)
        new_tasks = breaker_half()
    else:
        new_tasks = breaker_half()
        fixer_half(tasks + new_tasks)  # bugs accepted moments ago are legitimate repair prompts already
    log.store_total_after = len(store)
    log.wall_clock_sec = time.time() - started
    return log, new_tasks


def run_loop(
    fixer: Seq2SeqModel,
    breaker: Seq2SeqModel,
    entries: list[CorpusEntry],
    store: SampleStore,
    cfg: LoopConfig,
    rep_cfg: RepresentationConfig,
    train_cfg: TrainConfig,
    vocab: Vocabulary,
    run_dir: Optional[Path] = None,
) -> list[IterationLog]:
    """N alternating iterations; per-iteration checkpoints and logs are
    persisted under run_dir/iter<k>/ when a run directory is given."""
    logs: list[IterationLog] = []
    tasks = tasks_from_corpus(entries)
    for iteration in range(1, cfg.iterations + 1):
        before = len(store)
        iter_train_cfg = replace(train_cfg, seed=derive_seed("bt-train", train_cfg.seed, iteration))
        try:
            log, new_tasks = bt_iteration(
                fixer, breaker, entries, tasks, store, cfg, rep_cfg, train_cfg=iter_train_cfg,
                vocab=vocab, iteration=iteration,
            )
        except Exception as err:
            # keep the type, which the CLI maps to an exit code, and name the
            # iteration in a note (BaseException.add_note needs Python 3.11)
            err.__notes__ = [*getattr(err, "__notes__", ()), f"in back-translation iteration {iteration}"]
            raise
        assert len(store) >= before, "store must never shrink"
        tasks.extend(new_tasks)
        logs.append(log)
        if run_dir is not None:
            iter_dir = Path(run_dir) / f"iter{iteration}"
            iter_dir.mkdir(parents=True, exist_ok=True)
            save_checkpoint(fixer, iter_dir / "fixer.ckpt")
            save_checkpoint(breaker, iter_dir / "breaker.ckpt")
            write_json(iter_dir / "log.json", asdict(log))
    return logs
