"""Spans around the calls into each jayfix layer, recorded from outside.

`Tracer.install()` wraps public functions at every module attribute that
binds them, so a caller's own lookup (`critics.run_tests`,
`cli.train`, `tape.backward`, ...) goes through the wrapper. Spans stay
in memory: name, start, end and parent, plus counts read off the
wrapped call's arguments and result. `layer_metrics()` turns them into
the per-layer metrics; a wrapped function that no longer exists only
drops the metrics that depend on it. Only calls on the main thread are
recorded; a call from a worker thread counts in the time of the span
that handed it out.

Times are self times: the union of a group's span intervals minus the
intervals of their children in other layers. Children in the same layer
(a training step inside `train`, the interpreter inside `run_tests`)
stay in. Unions, not sums, so a span nested in another of the same
group is counted once.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from contextlib import contextmanager


def _train_counts(args, kwargs, result):
    samples = args[1] if len(args) > 1 else kwargs["train_samples"]
    tokens = sum(len(s.target_tokens) + 1 for s in samples)
    return {"epochs": len(result.history), "tokens": tokens * len(result.history)}


def _run_tests_counts(args, kwargs, result):
    counts = {outcome.value: n for outcome, n in result.counts.items()}
    counts["cases"] = result.total
    return counts


def _interpret_counts(args, kwargs, result):
    return {result.status.value: 1}


def _filter_counts(args, kwargs, result):
    counts = result[1]
    return {
        "verdicts": counts.generated,
        "kept": counts.kept,
        "rejected_compile": counts.rejected_compile,
        "rejected_tests": counts.rejected_tests,
    }


# (span name, module, attribute path, counts from (args, kwargs, result))
TARGETS = (
    ("model.train", "jayfix.model.training", "train", _train_counts),
    ("model.forward", "jayfix.model.transformer", "Seq2SeqModel.loss", None),
    ("model.backward", "jayfix.model.tape", "backward", None),
    ("model.optimizer", "jayfix.model.training", "AdamW.step", None),
    ("model.eval_loss", "jayfix.model.training", "evaluate_loss", None),
    ("model.checkpoint_save", "jayfix.model.checkpoint", "save_checkpoint", None),
    ("model.checkpoint_load", "jayfix.model.checkpoint", "load_checkpoint", None),
    ("beam.search", "jayfix.model.beam", "beam_search", None),
    ("beam.encode", "jayfix.model.transformer", "BeamScorer.__init__", None),
    ("beam.step", "jayfix.model.transformer", "BeamScorer.step_logprobs",
     lambda args, kwargs, result: {"prefixes": len(result)}),
    ("minilang.analyze", "jayfix.minilang", "analyze", None),
    ("minilang.run_tests", "jayfix.minilang.interp", "run_tests", _run_tests_counts),
    ("minilang.interpret", "jayfix.minilang.interp", "interpret", _interpret_counts),
    ("critics.filter", "jayfix.critics", "filter_candidates", _filter_counts),
    ("backtranslate.propose", "jayfix.backtranslate", "propose_regions", None),
    ("evaluate.repair", "jayfix.evaluate", "repair",
     lambda args, kwargs, result: {"candidates": len(result)}),
    ("evaluate.assess", "jayfix.evaluate", "assess", None),
    ("mechanical.generate", "jayfix.mechanical", "generate_mechanical_dataset",
     lambda args, kwargs, result: {"bugs": len(result[1])}),
    ("corpus.store_append", "jayfix.corpus", "SampleStore.append",
     lambda args, kwargs, result: {"samples": result}),
)


class Span:
    __slots__ = ("id", "name", "parent", "start", "end", "counts")

    def __init__(self, span_id, name, parent, start):
        self.id = span_id
        self.name = name
        self.parent = parent
        self.start = start
        self.end = start
        self.counts = None

    def to_json(self) -> dict:
        return {"id": self.id, "name": self.name, "parent": self.parent,
                "start": self.start, "end": self.end, "counts": self.counts}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []  # span names whose target no longer exists
        self._stack: list[Span] = []  # the open spans, innermost last
        self._patches: list[tuple[object, str, object]] = []
        self.recording = True
        self.counters: dict[str, int] = {}  # counts the benchmark reads off the program's outputs

    # --- spans -------------------------------------------------------------

    def _open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, parent, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, e.g. around one CLI command."""
        if not (self._patches and self.recording):
            yield None
            return
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def count(self, name: str, n: int) -> None:
        if self._patches:
            self.counters[name] = self.counters.get(name, 0) + n

    @contextmanager
    def paused(self):
        """Run the benchmark's own output checks without recording them."""
        previous, self.recording = self.recording, False
        try:
            yield
        finally:
            self.recording = previous

    # --- wrapping ------------------------------------------------------------

    def _wrap(self, name, fn, counter):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.recording or threading.current_thread() is not threading.main_thread():
                return fn(*args, **kwargs)
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if counter is not None:
                span.counts = counter(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every target at every jayfix binding of it."""
        if self._patches:
            return
        self.missing = []
        for name, module_name, path, counter in TARGETS:
            try:
                owner = importlib.import_module(module_name)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(name)
                print(f"trace: {module_name}.{path} not found; {name} metrics absent", file=sys.stderr)
                continue
            wrapper = self._wrap(name, original, counter)
            if outer:  # a method: patch the class that defines it
                self._patch(owner, attr, wrapper)
                continue
            for module in list(sys.modules.values()):
                if not getattr(module, "__name__", "").startswith("jayfix"):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)

    def _patch(self, owner, attr, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.to_json(), sort_keys=True) + "\n")

    # --- metrics -------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        return _Analysis(self.spans, set(self.missing), self.counters).metrics()


def _union(intervals) -> list[tuple[float, float]]:
    merged: list[tuple[float, float]] = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            if end > merged[-1][1]:
                merged[-1] = (merged[-1][0], end)
        else:
            merged.append((start, end))
    return merged


def _minus(base, holes) -> list[tuple[float, float]]:
    """Merged intervals `base` with merged intervals `holes` cut out."""
    out = []
    j = 0
    for start, end in base:
        cursor = start
        while j < len(holes) and holes[j][1] <= cursor:
            j += 1
        k = j
        while k < len(holes) and holes[k][0] < end:
            if holes[k][0] > cursor:
                out.append((cursor, holes[k][0]))
            cursor = max(cursor, holes[k][1])
            k += 1
        if cursor < end:
            out.append((cursor, end))
    return out


def _measure(intervals) -> float:
    return sum(end - start for start, end in intervals)


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


class _Analysis:
    def __init__(self, spans: list[Span], missing: set[str], counters: dict[str, int]):
        self.spans = spans
        self.missing = missing
        self.counters = counters
        self.by_name: dict[str, list[Span]] = {}
        self.children: dict[int, list[Span]] = {}
        for span in spans:
            self.by_name.setdefault(span.name, []).append(span)
            if span.parent is not None:
                self.children.setdefault(span.parent, []).append(span)

    def _named(self, names, under=None, outside=None) -> list[Span]:
        spans = [s for name in names for s in self.by_name.get(name, [])]
        if under is not None:
            spans = [s for s in spans if self._has_ancestor(s, under)]
        if outside is not None:
            spans = [s for s in spans if not self._has_ancestor(s, outside)]
        return spans

    def _has_ancestor(self, span: Span, name: str) -> bool:
        parent = span.parent
        while parent is not None:
            ancestor = self.spans[parent]
            if ancestor.name == name:
                return True
            parent = ancestor.parent
        return False

    def self_time(self, *names, outside=None) -> float:
        """Union of the spans minus their nearest descendants in other layers."""
        spans = self._named(names, outside=outside)
        layers = {_layer(name) for name in names}
        holes = []
        pending = [c for s in spans for c in self.children.get(s.id, [])]
        while pending:
            span = pending.pop()
            if _layer(span.name) in layers:
                pending.extend(self.children.get(span.id, []))
            else:
                holes.append((span.start, span.end))
        return _measure(_minus(_union((s.start, s.end) for s in spans), _union(holes)))

    def exclusive_time(self, name: str) -> float:
        """Union of the spans minus all their children, whatever the layer."""
        spans = self._named([name])
        holes = [(c.start, c.end) for s in spans for c in self.children.get(s.id, [])]
        return _measure(_minus(_union((s.start, s.end) for s in spans), _union(holes)))

    def inclusive_time(self, name: str, under=None) -> float:
        return _measure(_union((s.start, s.end) for s in self._named([name], under)))

    def calls(self, name: str) -> int:
        return len(self.by_name.get(name, []))

    def total(self, name: str, key: str) -> int:
        return sum((s.counts or {}).get(key, 0) for s in self.by_name.get(name, []))

    def status_time(self, name: str, key: str) -> float:
        return sum(s.end - s.start for s in self.by_name.get(name, []) if key in (s.counts or {}))

    def metrics(self) -> dict[str, float]:
        t = self
        cases = t.total("minilang.run_tests", "cases")
        run_tests_s = t.self_time("minilang.run_tests", "minilang.interpret")
        interpret_s = sum(s.end - s.start for s in t.by_name.get("minilang.interpret", []))
        verdicts = t.total("critics.filter", "verdicts")
        train_tokens = t.total("model.train", "tokens")
        train_s = t.self_time("model.train")
        candidates = t.total("evaluate.repair", "candidates")
        # metric -> (span names it needs, value)
        table = {
            "model.forward_s": (["model.forward"],
                                lambda: t.self_time("model.forward", outside="model.eval_loss")),
            "model.backward_s": (["model.backward"], lambda: t.self_time("model.backward")),
            "model.optimizer_s": (["model.optimizer"], lambda: t.self_time("model.optimizer")),
            "model.eval_loss_s": (["model.eval_loss"], lambda: t.self_time("model.eval_loss")),
            "model.train_tokens": (["model.train"], lambda: train_tokens),
            "model.train_tokens_per_s": (["model.train"],
                                         lambda: train_tokens / train_s if train_s else 0.0),
            "model.train_epochs": (["model.train"], lambda: t.total("model.train", "epochs")),
            "model.checkpoint_save_s": (["model.checkpoint_save"],
                                        lambda: t.self_time("model.checkpoint_save")),
            "model.checkpoint_load_s": (["model.checkpoint_load"],
                                        lambda: t.self_time("model.checkpoint_load")),
            "beam.calls": (["beam.search"], lambda: t.calls("beam.search")),
            "beam.decoder_steps": (["beam.step"], lambda: t.calls("beam.step")),
            "beam.prefixes_scored": (["beam.step"], lambda: t.total("beam.step", "prefixes")),
            "beam.step_s": (["beam.step"], lambda: t.self_time("beam.step")),
            "beam.encode_s": (["beam.encode"], lambda: t.self_time("beam.encode")),
            "beam.search_s": (["beam.search"], lambda: t.exclusive_time("beam.search")),
            "minilang.run_tests_calls": (["minilang.run_tests"], lambda: t.calls("minilang.run_tests")),
            "minilang.cases": (["minilang.run_tests"], lambda: cases),
            "minilang.cases_per_s": (["minilang.run_tests"],
                                     lambda: cases / run_tests_s if run_tests_s else 0.0),
            "minilang.cases_pass": (["minilang.run_tests"], lambda: t.total("minilang.run_tests", "pass")),
            "minilang.cases_wrong_value": (["minilang.run_tests"],
                                           lambda: t.total("minilang.run_tests", "wrong_value")),
            "minilang.cases_runtime_error": (["minilang.run_tests"],
                                             lambda: t.total("minilang.run_tests", "runtime_error")),
            "minilang.cases_fuel_exhausted": (["minilang.run_tests"],
                                              lambda: t.total("minilang.run_tests", "fuel_exhausted")),
            "minilang.fuel_exhausted_share": (
                ["minilang.interpret"],
                lambda: t.status_time("minilang.interpret", "fuel_exhausted") / interpret_s
                if interpret_s else 0.0),
            "minilang.run_tests_s": (["minilang.run_tests"], lambda: run_tests_s),
            "minilang.analyze_calls": (["minilang.analyze"], lambda: t.calls("minilang.analyze")),
            "minilang.analyze_s": (["minilang.analyze"], lambda: t.self_time("minilang.analyze")),
            "critics.verdicts": (["critics.filter"], lambda: verdicts),
            "critics.kept": (["critics.filter"], lambda: t.total("critics.filter", "kept")),
            "critics.rejected_compile": (["critics.filter"],
                                         lambda: t.total("critics.filter", "rejected_compile")),
            "critics.rejected_tests": (["critics.filter"],
                                       lambda: t.total("critics.filter", "rejected_tests")),
            "critics.kept_ratio": (["critics.filter"],
                                   lambda: t.total("critics.filter", "kept") / verdicts if verdicts else 0.0),
            "critics.filter_s": (["critics.filter"], lambda: t.self_time("critics.filter")),
            "backtranslate.propose_s": (["backtranslate.propose"], lambda: t.inclusive_time(
                "backtranslate.propose", under="cli.backtranslate")),
            "backtranslate.critic_s": (["critics.filter"], lambda: t.inclusive_time(
                "critics.filter", under="cli.backtranslate")),
            "backtranslate.finetune_s": (["model.train"], lambda: t.inclusive_time(
                "model.train", under="cli.backtranslate")),
            "evaluate.repair_s": (["evaluate.repair"], lambda: t.inclusive_time("evaluate.repair")),
            "evaluate.assess_s": (["evaluate.assess"], lambda: t.inclusive_time("evaluate.assess")),
            "evaluate.candidates": (["evaluate.repair"], lambda: candidates),
            "evaluate.compile_ratio": (["evaluate.repair"], lambda: self.counters.get(
                "evaluate.compiling", 0) / candidates if candidates else 0.0),
            "evaluate.plausible": ([], lambda: self.counters.get("evaluate.plausible", 0)),
            "corpus.store_append_s": (["corpus.store_append"],
                                      lambda: t.self_time("corpus.store_append")),
            "corpus.store_samples": (["corpus.store_append"],
                                     lambda: t.total("corpus.store_append", "samples")),
            "mechanical.generate_s": (["mechanical.generate"],
                                      lambda: t.self_time("mechanical.generate")),
            "mechanical.bugs": (["mechanical.generate"], lambda: t.total("mechanical.generate", "bugs")),
        }
        out = {}
        for metric, (needs, value) in table.items():
            if not self.missing.intersection(needs):
                out[metric] = float(value())
        for stage in CLI_STAGES:
            out[f"cli.{stage.replace('-', '_')}_s"] = float(t.inclusive_time(f"cli.{stage}"))
        return out


CLI_STAGES = ("gen-mechanical", "init-train", "backtranslate", "evaluate", "repair")
