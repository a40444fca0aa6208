"""The three workloads. Each drives jayfix only through its public entry
points: `jayfix.cli.main` for commands, and the library functions that
the commands themselves call for set-up and for output checks.

A workload has a `setup(seed, index)` that returns the state its body needs,
repeated for about `setup_seconds` (at least once), and a
`body(state, index)` that does one fixed amount of work and
returns a `BodyResult`. `attempted`/`failed` count operations; `digest`
must be identical whenever the same body runs again with the same
seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import re
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# jayfix functions are looked up on their modules at call time, so the tracer's wrappers see them
from jayfix import cli, critics, evaluate, mechanical, model
from jayfix.config import RunConfig
from jayfix.corpus import DIRECTION_FIX, SampleStore, correct_entries, load_corpus, split_holdout
from jayfix.minilang import SourceProgram
from jayfix.representation import Vocabulary

# the representation the acceptance tests use
REPRESENTATION = {"context_lines": 3, "max_input_len": 160, "max_target_len": 48}

# a cheap set-up repeats for this long in all, half before the body and half after
# it, so that its median spans the machine's speed shifts as the body's time does
SETUP_SECONDS = 6.0


def sha(data) -> str:
    if not isinstance(data, (bytes, str)):
        data = json.dumps(data, sort_keys=True)
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


@dataclass
class BodyResult:
    op_latencies: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    verdicts: int = 0
    digest: str = ""
    problems: list[str] = field(default_factory=list)
    detail: dict = field(default_factory=dict)

    def fail(self, message: str) -> None:
        self.failed += 1
        self.problems.append(message)


class Context:
    """Where a run reads its inputs and writes its temporary files, and the
    tracer (if any) that its commands report to."""

    def __init__(self, root: Path, work: Path, tracer=None):
        self.corpus = root / "corpus"
        self.work = work
        self.tracer = tracer

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer else contextlib.nullcontext()

    def count(self, name: str, n: int) -> None:
        if self.tracer:
            self.tracer.count(name, n)

    def unrecorded(self):
        return self.tracer.paused() if self.tracer else contextlib.nullcontext()

    def jayfix(self, *argv: str) -> tuple[int, str, str]:
        """One `jayfix` command, in process; returns (exit code, stdout, stderr)."""
        out, err = io.StringIO(), io.StringIO()
        with self.span(f"cli.{argv[0]}"), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
        return code, out.getvalue(), err.getvalue()


def _write_config(path: Path, config: dict) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(config, indent=2, sort_keys=True), encoding="utf-8")
    return path


# --- pipeline ------------------------------------------------------------


class Pipeline:
    """`jayfix gen-mechanical` in set-up, then `init-train`,
    `backtranslate` and `evaluate` on a fresh copy of its work directory.

    gen-mechanical prepares the training data once per seed, so it is
    set-up. That also makes one set-up long enough (~1 s) to measure:
    loading the corpus alone took 0.15 or 0.3 s depending on the moment.
    """

    name = "pipeline"
    setup_seconds = SETUP_SECONDS
    stages = ("init-train", "backtranslate", "evaluate")

    def __init__(self, ctx: Context):
        self.ctx = ctx

    def config(self, seed: int, work_dir: Path) -> dict:
        return {
            "seed": seed,
            "corpus_dir": str(self.ctx.corpus),
            "work_dir": str(work_dir),
            "model_preset": "tiny",
            "per_location_cap": 2,
            "eval_k": 10,
            "train": {"max_epochs": 2, "learning_rate": 1e-3},
            "loop": {"iterations": 1, "critic_family": "none"},
            "representation": REPRESENTATION,
        }

    def setup(self, seed: int, index: int):
        work = self.ctx.work / f"prepared{index}"
        config = _write_config(work.with_suffix(".json"), self.config(seed, work))
        code, _out, err = self.ctx.jayfix("gen-mechanical", "--config", str(config))
        if code != 0:
            raise RuntimeError(f"gen-mechanical exited {code}: {err}")
        data = (work / "vocab.json").read_bytes() + (work / "store.jsonl").read_bytes()
        return {"seed": seed, "work": work, "digest": sha(data)}

    def body(self, state, index: int) -> BodyResult:
        result = BodyResult()
        work = self.ctx.work / f"pipeline{index}"
        shutil.copytree(state["work"], work)
        config = _write_config(work.with_suffix(".json"), self.config(state["seed"], work))
        stage_s = {}
        started = time.perf_counter()
        for stage in self.stages:
            argv = [stage, "--config", str(config)]
            if stage == "evaluate":
                fixers = sorted(work.glob("runs/*/iter1/fixer.ckpt"))
                argv += ["--model", str(fixers[0])] if len(fixers) == 1 else []
            t0 = time.perf_counter()
            code, _out, err = self.ctx.jayfix(*argv)
            stage_s[stage] = time.perf_counter() - t0
            result.attempted += 1
            if code != 0:
                result.fail(f"{stage} exited {code}: {err.strip()[-300:]}")
                break
        result.op_latencies.append(time.perf_counter() - started)
        result.detail["stage_s"] = stage_s
        if result.failed:
            return result
        with self.ctx.unrecorded():
            self._check(work, result)
        return result

    def _check(self, work: Path, result: BodyResult) -> None:
        report_bytes = (work / "eval" / "report.json").read_bytes()
        logs = sorted(work.glob("runs/*/iter1/log.json"))
        if len(logs) != 1:
            result.fail(f"expected one back-translation log, found {len(logs)}")
            return
        report = json.loads(report_bytes)
        log = json.loads(logs[0].read_bytes())
        totals, curve = report["totals"], report["curve"]
        if not totals["correct"] <= totals["plausible"] <= totals["tasks"]:
            result.fail(f"report totals break correct <= plausible <= tasks: {totals}")
        if any(b < a for a, b in zip(curve, curve[1:])) or (curve and curve[-1] != totals["correct"]):
            result.fail("report curve is not monotone or does not end at the correct total")
        # every back-translation candidate got a critic verdict; every evaluated patch an assessment
        result.verdicts = (
            log["fix_candidates"] + log["bug_candidates"]
            + report["compilability"]["generated_candidates"]
        )
        log.pop("wall_clock_sec")  # the only field that is not a function of config and seed
        result.digest = sha([report_bytes.decode("utf-8"), log])
        compiling = report["compilability"]["compiling_candidates"]
        plausible = sum(a["plausible"] for task in report["tasks"] for a in task["assessments"])
        self.ctx.count("evaluate.compiling", compiling)
        self.ctx.count("evaluate.plausible", plausible)
        result.detail.update(
            tasks=totals["tasks"], plausible_tasks=totals["plausible"], correct_tasks=totals["correct"],
            fix_kept=log["fix_kept"], bug_kept=log["bug_kept"],
            candidates=report["compilability"]["generated_candidates"],
            compiling=compiling, plausible=plausible,
        )


# --- repair ------------------------------------------------------------------


_VERDICT_LINE = re.compile(r"^#\s*(\d+) logp=\s*(-?[\d.]+|-?inf) \[(\w+)\] ")


class Repair:
    """One `jayfix repair --beam 100 --reference ...` request per buggy
    corpus task, in a seeded order, against a desk-preset fixer trained
    in set-up.

    The fixer is the same for every workload seed: how many of the K
    beams end early, and so the cost of a request, depends on the
    training seed (seeds 1, 2, 3 gave request medians of 2.4, 0.8 and
    4.8 s), and a spread that wide would hide any change to the request
    path. It is trained with seed 7, the seed of the README's example
    configuration.
    """

    name = "repair"
    setup_seconds = 0.0  # set up once: set-up trains a model
    beam = 100
    train_samples = 384  # 24 AdamW steps at batch 16
    model_seed = 7

    def __init__(self, ctx: Context):
        self.ctx = ctx

    def setup(self, seed: int, index: int):
        work = self.ctx.work / f"repair{index}"
        config = _write_config(work.with_suffix(".json"), {
            "seed": self.model_seed,
            "corpus_dir": str(self.ctx.corpus),
            "work_dir": str(work),
            "model_preset": "desk",
            "representation": REPRESENTATION,
        })
        code, _out, err = self.ctx.jayfix("gen-mechanical", "--config", str(config))
        if code != 0:
            raise RuntimeError(f"gen-mechanical exited {code}: {err}")
        cfg = RunConfig.from_file(config)
        vocab = Vocabulary.load(work / "vocab.json")
        store = SampleStore(work / "store.jsonl", vocab_sha=vocab.sha())
        samples = store.samples_for(DIRECTION_FIX)
        rng = np.random.default_rng(self.model_seed)
        train_set, val_set = split_holdout(samples, 0.02, self.model_seed)
        subset = sorted(rng.permutation(len(train_set))[: self.train_samples])
        fixer = model.Seq2SeqModel(cfg.model_config(vocab.size))
        model.train(fixer, [train_set[i] for i in subset], val_set,
                    model.TrainConfig(max_epochs=1, learning_rate=1e-3, seed=self.model_seed))
        model.save_checkpoint(fixer, work / "init" / "fixer.ckpt")
        entries, _ = load_corpus(self.ctx.corpus)
        tasks = evaluate.tasks_from_corpus(entries)
        tasks = [tasks[i] for i in np.random.default_rng(seed).permutation(len(tasks))]
        manifest = json.loads((self.ctx.corpus / "manifest.json").read_text(encoding="utf-8"))
        references = {item["name"]: item.get("reference_fix") for item in manifest}
        return {
            "config": config,
            "work": work,
            "tasks": tasks,
            "references": references,
            "digest": sha((work / "init" / "fixer.ckpt").read_bytes()),
        }

    def body(self, state, index: int) -> BodyResult:
        result = BodyResult()
        digests = {}
        for task in state["tasks"]:
            out_dir = state["work"] / f"patches{index}" / task.name
            span = task.fault_span
            t0 = time.perf_counter()
            code, out, err = self.ctx.jayfix(
                "repair", str(self.ctx.corpus / f"{task.name}.jay"),
                "--span", f"{span.start_line}:{span.end_line}",
                "--reference", str(self.ctx.corpus / state["references"][task.name]),
                "--beam", str(self.beam), "--config", str(state["config"]), "--out", str(out_dir),
            )
            result.op_latencies.append(time.perf_counter() - t0)
            result.attempted += 1
            if code != 0:
                result.fail(f"repair {task.name} exited {code}: {err.strip()[-300:]}")
                continue
            with self.ctx.unrecorded():
                digests[task.name] = self._check(task, out, out_dir, result)
        result.detail["requests"] = digests
        result.digest = sha(digests)
        return result

    def _check(self, task, out: str, out_dir: Path, result: BodyResult) -> str:
        """The printed verdicts must be the ones `evaluate.assess` gives the
        written patches; returns the request's patches/verdicts digest."""
        lines = [m.groups() for m in map(_VERDICT_LINE.match, out.splitlines()) if m]
        patches = [
            evaluate.CandidatePatch(
                rank=int(rank), log_prob=float(logp), region_text="",
                program=SourceProgram(f"{task.name}@rank{rank}",
                                      (out_dir / f"patch_{int(rank):03d}.jay").read_text(encoding="utf-8")),
            )
            for rank, logp, _ in lines
        ]
        expected = [
            "correct" if a.correct else "plausible" if a.plausible else "compiles" if a.compiles else "broken"
            for a in evaluate.assess(patches, task)
        ]
        printed = [verdict for _, _, verdict in lines]
        if not lines or len(lines) > self.beam or printed != expected:
            result.fail(f"repair {task.name}: {len(lines)} patches, printed verdicts differ from assess")
        result.verdicts += len(lines)
        compiling = sum(v != "broken" for v in printed)
        plausible = sum(v in ("plausible", "correct") for v in printed)
        self.ctx.count("evaluate.compiling", compiling)
        self.ctx.count("evaluate.plausible", plausible)
        result.detail["compiling"] = result.detail.get("compiling", 0) + compiling
        result.detail["plausible"] = result.detail.get("plausible", 0) + plausible
        return sha([[p.program.text, v] for p, v in zip(patches, printed)])


# --- critic --------------------------------------------------------------------


class Critic:
    """Every mechanical mutant of the correct seeds plus the seeds
    themselves, through `critics.filter_candidates` three ways per base
    program, base programs and candidates in a seeded order. No model.

    The mutants are generated with seed 7 whatever the workload seed:
    the per-location cap samples mutants by seed, and the few that run
    out of fuel take almost all the time, so a seeded mutant set moved
    the run time by a quarter between seeds (19.5 to 25.1 s over seeds
    1-5).
    """

    name = "critic"
    setup_seconds = SETUP_SECONDS
    mutant_seed = 7
    kinds = (
        critics.CriticKind(critics.FAMILY_COMPILER, critics.POLARITY_BUGGY),
        critics.CriticKind(critics.FAMILY_TESTS, critics.POLARITY_BUGGY),
        critics.CriticKind(critics.FAMILY_TESTS, critics.POLARITY_CORRECT),
    )

    def __init__(self, ctx: Context):
        self.ctx = ctx

    def setup(self, seed: int, index: int):
        cfg = RunConfig.from_json({"seed": self.mutant_seed, "representation": REPRESENTATION})
        entries, _ = load_corpus(self.ctx.corpus, fuel=cfg.fuel)
        correct = sorted(correct_entries(entries), key=lambda e: e.name)
        vocab = Vocabulary.from_corpus([e.program.text for e in entries])
        _samples, bugs, _report = mechanical.generate_mechanical_dataset(
            correct, mechanical.DEFAULT_RULES, cfg.representation_config(), vocab,
            per_location_cap=cfg.per_location_cap, seed=cfg.seed,
        )
        rng = np.random.default_rng(seed)
        batches = []
        for index in rng.permutation(len(correct)):
            entry = correct[index]
            candidates = [(bug.mutant, "mutant") for bug in bugs if bug.base_name == entry.name]
            candidates.append((entry.program, "seed"))
            batches.append((entry, [candidates[i] for i in rng.permutation(len(candidates))]))
        return {
            "fuel": cfg.fuel,
            "batches": batches,
            "digest": sha([[p.text for p, _ in c] for _, c in batches]),
        }

    def body(self, state, index: int) -> BodyResult:
        result = BodyResult()
        verdicts = []
        fuel = state["fuel"]
        for entry, candidates in state["batches"]:
            t0 = time.perf_counter()
            kept = []
            for kind in self.kinds:
                accepted, counts = critics.filter_candidates(kind, candidates, entry.suite, fuel)
                kept.append({id(program) for program, _, _ in accepted})
                result.attempted += 1
                result.verdicts += counts.generated
            result.op_latencies.append(time.perf_counter() - t0)
            compiler_buggy, tests_buggy, tests_correct = kept
            if not tests_buggy <= compiler_buggy:
                result.fail(f"{entry.name}: kept(tests/buggy) is not a subset of kept(compiler/buggy)")
            if id(entry.program) not in tests_correct:
                result.fail(f"{entry.name}: tests/correct rejected the correct seed")
            verdicts.append([[id(p) in k for k in kept] for p, _ in candidates])
        result.digest = sha(verdicts)
        result.detail["kept"] = [sum(row[i] for rows in verdicts for row in rows) for i in range(3)]
        return result


WORKLOADS = {cls.name: cls for cls in (Pipeline, Repair, Critic)}
