"""Command-line entry point.

Subcommands: gen-mechanical, init-train, backtranslate, repair,
evaluate, gen-bugs. A JSON config file provides settings; flags
override it. Exit codes: 0 success, 1 usage error, 2 data error,
3 training divergence.
"""

from __future__ import annotations

import argparse
import difflib
import sys
from dataclasses import asdict, replace
from pathlib import Path

from .backtranslate import generate_candidates, run_loop
from .config import DataError, RunConfig
from .corpus import (
    CorpusError,
    DIRECTION_BREAK,
    DIRECTION_FIX,
    HOLDOUT_FRACTION,
    SampleStore,
    correct_entries,
    load_corpus,
    load_suite,
    split_holdout,
)
from .critics import FAMILIES, FAMILY_COMPILER, FAMILY_NONE, FAMILY_TESTS, POLARITY_BUGGY, CriticKind, Rung, rung
from .evaluate import RepairTask, evaluate, repair, tasks_from_corpus
from .mechanical import DEFAULT_RULES, generate_mechanical_dataset
from .minilang import (
    MiniLangError,
    SourceProgram,
    Span,
    analyze,
    enumerate_statement_locations,
)
from .model import (
    Seq2SeqModel,
    TrainingDiverged,
    load_checkpoint,
    save_checkpoint,
    train,
)
from .representation import RegionTooLong, Vocabulary
from .util import content_hash, derive_seed, read_text, write_json

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_DIVERGED = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _load_config(args) -> RunConfig:
    if args.config:
        cfg = RunConfig.from_file(args.config)
    else:
        cfg = RunConfig()
    cfg.apply_overrides(
        seed=args.seed,
        critic=getattr(args, "critic", None),
        iterations=getattr(args, "iterations", None),
        beam=getattr(args, "beam", None),
    )
    if getattr(args, "k_buggy_beam", None) is not None:
        cfg.loop["k_buggy"] = args.k_buggy_beam
    # resolving the sections checks their values before any output
    cfg.train_config()
    cfg.loop_config()
    cfg.representation_config()
    return cfg


def _echo_config(cfg: RunConfig, directory: Path, vocab_size=None) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    write_json(directory / "config.json", cfg.resolved_json(vocab_size))


def _unified_diff(name: str, base_text: str, mutant_text: str) -> str:
    """The unified diff that turns corpus program `name` into a mutant of it."""
    return "".join(
        difflib.unified_diff(
            base_text.splitlines(keepends=True),
            mutant_text.splitlines(keepends=True),
            fromfile=f"a/{name}.jay",
            tofile=f"b/{name}.jay",
        )
    )


def _load_entries(cfg: RunConfig):
    entries, rejected = load_corpus(cfg.corpus_dir, fuel=cfg.fuel)
    for record in rejected:
        print(f"rejected corpus entry {record.name}: {record.reason}", file=sys.stderr)
    if not entries:
        raise DataError(f"no usable corpus entries in {cfg.corpus_dir}")
    return entries


def _work_paths(cfg: RunConfig) -> dict[str, Path]:
    work = Path(cfg.work_dir)
    return {
        "work": work,
        "vocab": work / "vocab.json",
        "store": work / "store.jsonl",
        "init": work / "init",
        "runs": work / "runs",
    }


def _load_vocab(cfg: RunConfig, paths) -> Vocabulary:
    if not paths["vocab"].exists():
        raise DataError(f"missing vocabulary {paths['vocab']}; run gen-mechanical first")
    vocab = Vocabulary.load(paths["vocab"])
    cfg.model_config(vocab.size)  # a config for another vocabulary fails before any output
    return vocab


def _load_model(path: Path, vocab: Vocabulary) -> Seq2SeqModel:
    if not Path(path).exists():
        raise DataError(f"missing checkpoint {path}")
    model = load_checkpoint(path)
    if model.config.vocab_size != vocab.size:
        raise DataError(
            f"checkpoint vocabulary size {model.config.vocab_size} does not match vocab.json ({vocab.size})"
        )
    return model


# --- subcommands -----------------------------------------------------------


def cmd_gen_mechanical(args) -> int:
    cfg = _load_config(args)
    if args.out:
        cfg.work_dir = args.out
    entries = _load_entries(cfg)
    correct = correct_entries(entries)
    if not correct:
        raise DataError("corpus has no correct entries to corrupt")
    rule_ids = args.rules.split(",") if args.rules is not None else None
    rules = DEFAULT_RULES if rule_ids is None else [
        rule for rule in DEFAULT_RULES if rule.id in {r for r in rule_ids if r}
    ]
    if not rules:
        raise DataError("no matching corruption rules")
    vocab = Vocabulary.from_corpus([e.program.text for e in entries])
    cfg.model_config(vocab.size)  # a config for another vocabulary fails before any output
    paths = _work_paths(cfg)
    paths["work"].mkdir(parents=True, exist_ok=True)
    vocab.save(paths["vocab"])
    rep_cfg = cfg.representation_config()
    samples, bugs, report = generate_mechanical_dataset(
        correct, rules, rep_cfg, vocab,
        per_location_cap=cfg.per_location_cap, seed=cfg.seed,
    )
    store = SampleStore(paths["store"], vocab_sha=vocab.sha())
    added = store.append(samples)
    mutants_dir = paths["work"] / "mutants"
    mutants_dir.mkdir(exist_ok=True)
    by_base = {e.name: e.program.text for e in correct}
    for index, bug in enumerate(bugs):
        diff = _unified_diff(bug.base_name, by_base[bug.base_name], bug.mutant.text)
        (mutants_dir / f"{index:05d}_{bug.base_name}_{bug.rule_id}.diff").write_text(
            diff, encoding="utf-8"
        )
    write_json(paths["work"] / "mechanical_report.json", asdict(report))
    _echo_config(cfg, paths["work"], vocab_size=vocab.size)
    counts = store.counts()
    print(
        f"mechanical: {report.bugs} bugs, {report.samples} samples generated, "
        f"{added} new in store (fix={counts.get('fix/mechanical', 0)}, "
        f"break={counts.get('break/mechanical', 0)})"
    )
    if report.dead_rules:
        print(f"warning: rules with zero mutants: {', '.join(report.dead_rules)}", file=sys.stderr)
    return EXIT_OK


def cmd_init_train(args) -> int:
    cfg = _load_config(args)
    if args.out:
        cfg.work_dir = args.out
    paths = _work_paths(cfg)
    vocab = _load_vocab(cfg, paths)
    if not paths["store"].exists():
        raise DataError(f"missing sample store {paths['store']}; run gen-mechanical first")
    store = SampleStore(paths["store"], vocab_sha=vocab.sha())
    rep_cfg = cfg.representation_config()
    train_cfg = cfg.train_config()
    paths["init"].mkdir(parents=True, exist_ok=True)
    curves = {}
    for role, direction in (("fixer", DIRECTION_FIX), ("breaker", DIRECTION_BREAK)):
        samples = store.samples_for(direction)
        if not samples:
            raise DataError(f"store has no {direction}-direction samples")
        model_cfg = cfg.model_config(vocab.size)
        if role == "breaker":
            model_cfg = replace(model_cfg, seed=derive_seed("breaker-init", cfg.seed))
        model = Seq2SeqModel(model_cfg)
        split_seed = derive_seed("init-holdout", cfg.seed, role)
        train_set, val_set = split_holdout(samples, HOLDOUT_FRACTION, split_seed)
        result = train(model, train_set, val_set, train_cfg)
        save_checkpoint(model, paths["init"] / f"{role}.ckpt")
        curves[role] = asdict(result)
        print(
            f"{role}: trained on {len(train_set)}/{len(val_set)} samples, "
            f"best val loss {result.best_val_loss:.4f} at epoch {result.best_epoch}"
        )
    write_json(paths["init"] / "curves.json", curves)
    _echo_config(cfg, paths["init"], vocab_size=vocab.size)
    return EXIT_OK


def cmd_backtranslate(args) -> int:
    cfg = _load_config(args)
    if args.out:
        cfg.work_dir = args.out
    paths = _work_paths(cfg)
    vocab = _load_vocab(cfg, paths)
    entries = _load_entries(cfg)
    store = SampleStore(paths["store"], vocab_sha=vocab.sha())
    fixer = _load_model(paths["init"] / "fixer.ckpt", vocab)
    breaker = _load_model(paths["init"] / "breaker.ckpt", vocab)
    rep_cfg = cfg.representation_config()
    train_cfg = cfg.train_config()
    loop_cfg = cfg.loop_config()
    run_id = content_hash(cfg.resolved_json(vocab.size))[:12]
    run_dir = paths["runs"] / run_id
    run_dir.mkdir(parents=True, exist_ok=True)
    _echo_config(cfg, run_dir, vocab_size=vocab.size)
    logs = run_loop(
        fixer, breaker, entries, store, loop_cfg, rep_cfg, train_cfg, vocab, run_dir=run_dir
    )
    for log in logs:
        print(
            f"iter {log.iteration}: fix-candidates {log.fix_candidates} kept {log.fix_kept} "
            f"(+{log.break_samples_appended} break), bug-candidates {log.bug_candidates} "
            f"kept {log.bug_kept} (+{log.fix_samples_appended} fix), store {log.store_total_after}"
        )
    print(f"run directory: {run_dir}")
    return EXIT_OK


def _parse_span(text: str) -> Span:
    try:
        start, _, end = text.partition(":")
        return Span(int(start), int(end or start))
    except (ValueError, TypeError) as err:
        raise DataError(f"bad span {text!r}; expected START:END") from err


# the printed name of each rung; the failing rungs print "compiles"
_REPAIR_VERDICTS = {Rung.COMPILE_ERROR: "broken", Rung.PASSES: "plausible", Rung.CORRECT: "correct"}


def cmd_repair(args) -> int:
    cfg = _load_config(args)
    paths = _work_paths(cfg)
    vocab = _load_vocab(cfg, paths)
    model_path = Path(args.model) if args.model else paths["init"] / "fixer.ckpt"
    fixer = _load_model(model_path, vocab)
    program_path = Path(args.program)
    if not program_path.exists():
        raise DataError(f"missing program {program_path}")
    program = SourceProgram(program_path.stem, read_text(program_path))
    span = _parse_span(args.span)
    if span.end_line > program.line_count:
        raise DataError(f"span {span} outside file of {program.line_count} lines")
    suite_path = program_path.with_suffix("").with_suffix(".tests.json")
    suite = load_suite(suite_path) if suite_path.exists() else None
    reference = reference_ast = None
    if args.reference:
        reference = SourceProgram("reference", read_text(args.reference))
        reference_ast, diags = analyze(reference)
        if reference_ast is None or diags:
            raise DataError("reference program does not compile")
    task = RepairTask(program.name, program, span, suite=suite, reference=reference, reference_ast=reference_ast)
    [candidates] = repair(fixer, [task], k=cfg.eval_k, rep_cfg=cfg.representation_config(), vocab=vocab)
    if isinstance(candidates, RegionTooLong):
        raise DataError(str(candidates)) from candidates
    out_dir = Path(args.out) if args.out else Path("patches")
    out_dir.mkdir(parents=True, exist_ok=True)
    for candidate in candidates:
        reached = rung(candidate.program, suite, cfg.fuel, reference_ast)
        verdict = _REPAIR_VERDICTS.get(reached, "compiles")
        print(f"#{candidate.rank:>3} logp={candidate.log_prob:8.3f} [{verdict}] {candidate.region_text!r}")
        (out_dir / f"patch_{candidate.rank:03d}.jay").write_text(
            candidate.program.text, encoding="utf-8"
        )
    _echo_config(cfg, out_dir, vocab_size=vocab.size)
    print(f"wrote {len(candidates)} patches to {out_dir}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    cfg = _load_config(args)
    paths = _work_paths(cfg)
    vocab = _load_vocab(cfg, paths)
    model_path = Path(args.model) if args.model else paths["init"] / "fixer.ckpt"
    fixer = _load_model(model_path, vocab)
    entries = _load_entries(cfg)
    tasks = tasks_from_corpus(entries)
    if not tasks:
        raise DataError("no buggy entries with reference fixes to evaluate")
    rep_cfg = cfg.representation_config()
    report = evaluate(fixer, tasks, k=cfg.eval_k, rep_cfg=rep_cfg, vocab=vocab, fuel=cfg.fuel)
    out_dir = Path(args.out) if args.out else paths["work"] / "eval"
    out_dir.mkdir(parents=True, exist_ok=True)
    review_dir = out_dir / "review"
    for item in report.review_queue:
        review_dir.mkdir(exist_ok=True)
        name = f"{item['task']}_rank{item['rank']}.jay".replace("/", "_")
        (review_dir / name).write_text(item["program"], encoding="utf-8")
    report.write_json(out_dir / "report.json")
    report.write_csv(out_dir / "report.csv")
    _echo_config(cfg, out_dir, vocab_size=vocab.size)
    print(
        f"evaluated {len(tasks)} tasks at K={cfg.eval_k}: "
        f"{report.correct_total}/{report.plausible_total} correct/plausible, "
        f"compilability {report.compilability_percent:.2f}% "
        f"({report.candidates_compiling}/{report.candidates_generated})"
    )
    print(f"report: {out_dir / 'report.json'}")
    return EXIT_OK


def cmd_gen_bugs(args) -> int:
    cfg = _load_config(args)
    paths = _work_paths(cfg)
    vocab = _load_vocab(cfg, paths)
    model_path = Path(args.model) if args.model else paths["init"] / "breaker.ckpt"
    breaker = _load_model(model_path, vocab)
    entries = _load_entries(cfg)
    correct = sorted(correct_entries(entries), key=lambda e: e.name)
    if not correct:
        raise DataError("corpus has no correct entries")
    loop_cfg = cfg.loop_config()
    rep_cfg = cfg.representation_config()
    critic = CriticKind(loop_cfg.critic_family, POLARITY_BUGGY)
    out_dir = Path(args.out) if args.out else paths["work"] / "bugs"
    out_dir.mkdir(parents=True, exist_ok=True)
    prompts = [(e.name, e.program, enumerate_statement_locations(e.ast), e.suite) for e in correct]
    locations_total = sum(len(spans) for _, _, spans, _ in prompts)
    generations = generate_candidates(breaker, prompts, loop_cfg.k_buggy, critic, loop_cfg.fuel, rep_cfg, vocab)
    # what the critic checked of every bug it kept
    evidence = {FAMILY_NONE: "not_checked", FAMILY_COMPILER: "compile_ok", FAMILY_TESTS: "tests_report"}[critic.family]
    emitted = []
    for entry, generation in zip(correct, generations):
        for candidate, _verdict in generation.kept:
            stem = f"{len(emitted):05d}_{entry.name}"
            text = candidate.program.text
            region = candidate.splice.mutant_region
            (out_dir / f"{stem}.jay").write_text(text, encoding="utf-8")
            meta = {
                "base": entry.name,
                "anchor_span": [candidate.anchor.start_line, candidate.anchor.end_line],
                "region": [region.start_line, region.end_line],
                "critic_family": critic.family,
                "evidence": evidence,
                "diff": _unified_diff(entry.name, entry.program.text, text),
            }
            write_json(out_dir / f"{stem}.meta.json", meta)
            emitted.append(stem)
    manifest = {
        "critic_family": critic.family,
        "k_buggy": loop_cfg.k_buggy,
        "locations_enumerated": locations_total,
        "locations_skipped": sum(g.skipped for g in generations),
        "generated": sum(g.counts.generated for g in generations),
        "accepted": sum(g.counts.kept for g in generations),
        "rejected_compile": sum(g.counts.rejected_compile for g in generations),
        "rejected_tests": sum(g.counts.rejected_tests for g in generations),
        "bugs": emitted,
    }
    write_json(out_dir / "bugs_manifest.json", manifest)
    _echo_config(cfg, out_dir, vocab_size=vocab.size)
    print(
        f"gen-bugs[{critic.family}]: {locations_total} locations x K={loop_cfg.k_buggy} -> "
        f"{manifest['generated']} generated, {manifest['accepted']} certified bugs in {out_dir}"
    )
    if manifest["accepted"] == 0:
        print("warning: zero bugs passed the critic", file=sys.stderr)
    return EXIT_OK


# --- argument parsing --------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="jayfix", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--seed", type=int, help="global seed override")
        p.add_argument("--out", help="output directory override")

    p = sub.add_parser("gen-mechanical", help="corrupt correct seeds into initialization data")
    common(p)
    p.add_argument("--rules", help="comma-separated corruption rule ids (default: all)")
    p.set_defaults(func=cmd_gen_mechanical)

    p = sub.add_parser("init-train", help="train fixer and breaker from the sample store")
    common(p)
    p.set_defaults(func=cmd_init_train)

    p = sub.add_parser("backtranslate", help="run the back-translation loop")
    common(p)
    p.add_argument("--critic", choices=FAMILIES, help="critic family")
    p.add_argument("--iterations", type=int, help="number of loop iterations")
    p.set_defaults(func=cmd_backtranslate)

    p = sub.add_parser("repair", help="propose ranked patches for one buggy span")
    common(p)
    p.add_argument("program", help="path to a .jay file")
    p.add_argument("--span", required=True, help="fault span START:END (1-based lines)")
    p.add_argument("--model", help="fixer checkpoint (default: init fixer)")
    p.add_argument("--reference", help="reference fix for correctness verdicts")
    p.add_argument("--beam", type=int, help="number of patches (K)")
    p.set_defaults(func=cmd_repair)

    p = sub.add_parser("evaluate", help="score a fixer on the buggy eval corpus")
    common(p)
    p.add_argument("--model", help="fixer checkpoint (default: init fixer)")
    p.add_argument("--beam", type=int, help="candidates per task (K)")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("gen-bugs", help="emit a certified bug corpus with the breaker")
    common(p)
    p.add_argument("--model", help="breaker checkpoint (default: init breaker)")
    p.add_argument("--critic", choices=FAMILIES, help="buggy-code critic family")
    p.add_argument("--beam", type=int, dest="k_buggy_beam", help="candidates per location (K_buggy)")
    p.set_defaults(func=cmd_gen_bugs)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return int(err.code or 0)
    try:
        return args.func(args)
    except TrainingDiverged as err:
        print(f"training diverged: {_describe(err)}", file=sys.stderr)
        return EXIT_DIVERGED
    except (DataError, CorpusError, MiniLangError, FileNotFoundError) as err:
        print(f"data error: {_describe(err)}", file=sys.stderr)
        return EXIT_DATA
    except ValueError as err:
        print(f"error: {_describe(err)}", file=sys.stderr)
        return EXIT_USAGE


def _describe(err: Exception) -> str:
    """The message and any notes, such as the back-translation iteration."""
    return " ".join([str(err), *(f"({note})" for note in getattr(err, "__notes__", ()))])


if __name__ == "__main__":
    sys.exit(main())
