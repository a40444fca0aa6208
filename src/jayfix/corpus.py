"""On-disk datasets: seed programs, train/validation splitting, and the
persistent sample store.

A corpus directory holds `<name>.jay` programs, sibling
`<name>.tests.json` suites, and a `manifest.json` array of
`{"name", "status": "correct"|"buggy", "reference_fix": optional path}`
entries. Loading re-runs the oracles and rejects entries that violate
their declared status, mirroring reproduction filtering: rejected
entries are reported, not fatal.

The sample store is an append-only, deduplicated JSONL file with a
version header and length-prefixed records, so a torn final write is
detected and ignored on load.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional, Sequence

import numpy as np

from .minilang import (
    Ast,
    SourceProgram,
    Span,
    TestCase,
    TestSuite,
    analyze,
    run_tests,
    DEFAULT_FUEL,
)
from .representation import (
    RegionTooLong,
    RepresentationConfig,
    Vocabulary,
    build_input,
    encode_target,
)
from .util import DataError, content_hash, read_text, round_half_up

STATUS_CORRECT = "correct"
STATUS_BUGGY = "buggy"

DIRECTION_FIX = "fix"  # input: buggy region, target: correct region
DIRECTION_BREAK = "break"  # input: correct region, target: buggy region

ORIGIN_MECHANICAL = "mechanical"
ORIGIN_BACKTRANSLATION = "backtranslation"


class CorpusError(Exception):
    pass


@dataclass(frozen=True)
class CorpusEntry:
    program: SourceProgram
    suite: TestSuite
    status: str
    ast: Ast = field(compare=False)
    reference_fix: Optional[SourceProgram] = None
    reference_ast: Optional[Ast] = field(default=None, compare=False)

    @property
    def name(self) -> str:
        return self.program.name


@dataclass(frozen=True)
class RejectedEntry:
    name: str
    reason: str


def load_suite(path: Path) -> TestSuite:
    """The suite in `path`; anything but a nonempty array of well-formed
    cases with distinct ids is a CorpusError that names the file."""
    try:
        raw = json.loads(read_text(path))
        if not isinstance(raw, list) or not raw:
            raise CorpusError(f"{path.name}: suite must be a nonempty array")
        cases = []
        for item in raw:
            args = tuple(list(a) if isinstance(a, list) else a for a in item["args"])
            expect = item["expect"]
            expect = list(expect) if isinstance(expect, list) else expect
            cases.append(TestCase(str(item["id"]), str(item["entry"]), args, expect))
        return TestSuite(tuple(cases))
    except (KeyError, TypeError, ValueError) as err:  # JSONDecodeError is a ValueError
        raise CorpusError(f"{path.name}: malformed suite: {type(err).__name__}: {err}") from err


def load_corpus(
    directory: str | Path, fuel: int = DEFAULT_FUEL
) -> tuple[list[CorpusEntry], list[RejectedEntry]]:
    """Load every manifest entry, verifying its status invariant.

    Correct entries must typecheck and pass all tests; buggy entries must
    typecheck and fail at least one. A buggy entry's reference fix, when
    present, must pass all tests. Violations become rejection records.
    """
    directory = Path(directory)
    manifest_path = directory / "manifest.json"
    if not manifest_path.exists():
        if directory.is_dir() and not list(directory.glob("*.jay")):
            return [], []  # genuinely empty directory
        raise CorpusError(f"no manifest.json in {directory}")
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    if not isinstance(manifest, list):
        raise CorpusError("manifest.json must be an array")

    entries: list[CorpusEntry] = []
    rejected: list[RejectedEntry] = []
    seen: set[str] = set()
    for item in manifest:
        name = item.get("name", "<unnamed>")
        try:
            if name in seen:
                raise CorpusError("duplicate name in manifest")
            seen.add(name)
            status = item["status"]
            if status not in (STATUS_CORRECT, STATUS_BUGGY):
                raise CorpusError(f"unknown status {status!r}")
            source_path = directory / f"{name}.jay"
            if not source_path.exists():
                raise CorpusError("missing .jay file")
            suite_path = directory / f"{name}.tests.json"
            if not suite_path.exists():
                raise CorpusError("missing .tests.json suite")
            program = SourceProgram(name, read_text(source_path))
            suite = load_suite(suite_path)
            ast, diagnostics = analyze(program)
            if ast is None or diagnostics:
                raise CorpusError(f"does not compile: {diagnostics[0]}")
            for case in suite.cases:
                if ast.function(case.entry) is None:
                    raise CorpusError(f"suite entry '{case.entry}' not in program")
            report = run_tests(ast, suite, fuel=fuel)
            if status == STATUS_CORRECT and not report.all_pass:
                raise CorpusError("marked correct but has failing tests")
            if status == STATUS_BUGGY and report.all_pass:
                raise CorpusError("marked buggy but passes all tests")
            reference: Optional[SourceProgram] = None
            ref_ast: Optional[Ast] = None
            if item.get("reference_fix"):
                ref_path = directory / item["reference_fix"]
                if not ref_path.exists():
                    raise CorpusError("missing reference fix file")
                reference = SourceProgram(name + ".fix", read_text(ref_path))
                ref_ast, ref_diags = analyze(reference)
                if ref_ast is None or ref_diags:
                    raise CorpusError("reference fix does not compile")
                if not run_tests(ref_ast, suite, fuel=fuel).all_pass:
                    raise CorpusError("reference fix fails tests")
            entries.append(CorpusEntry(program, suite, status, ast, reference, ref_ast))
        except (CorpusError, DataError, KeyError, ValueError) as err:
            rejected.append(RejectedEntry(name, str(err)))
    return entries, rejected


def correct_entries(entries: Iterable[CorpusEntry]) -> list[CorpusEntry]:
    return [e for e in entries if e.status == STATUS_CORRECT]


def buggy_entries(entries: Iterable[CorpusEntry]) -> list[CorpusEntry]:
    return [e for e in entries if e.status == STATUS_BUGGY]


# --- training samples ------------------------------------------------------


@dataclass(frozen=True)
class TrainingSample:
    direction: str  # fix | break
    input_tokens: tuple[int, ...]
    target_tokens: tuple[int, ...]
    origin: str  # mechanical | backtranslation
    iteration: int  # 0 for mechanical, >=1 for backtranslation
    source_program: str
    span: Span

    def __post_init__(self) -> None:
        if self.direction not in (DIRECTION_FIX, DIRECTION_BREAK):
            raise ValueError(f"bad direction {self.direction!r}")
        if not self.input_tokens or not self.target_tokens:
            raise ValueError("token sequences must be nonempty")
        if self.origin == ORIGIN_BACKTRANSLATION and self.iteration < 1:
            raise ValueError("back-translation samples need iteration >= 1")

    def content_key(self) -> str:
        return content_hash(
            [self.direction, list(self.input_tokens), list(self.target_tokens)]
        )

    def to_json(self) -> dict:
        # the fields in order, shallowly: `asdict` would deep-copy every token
        return {**vars(self), "span": [self.span.start_line, self.span.end_line]}

    @staticmethod
    def from_json(raw: dict) -> "TrainingSample":
        return TrainingSample(
            direction=raw["direction"],
            input_tokens=tuple(raw["input_tokens"]),
            target_tokens=tuple(raw["target_tokens"]),
            origin=raw["origin"],
            iteration=int(raw["iteration"]),
            source_program=raw["source_program"],
            span=Span(raw["span"][0], raw["span"][1]),
        )


def sample_from_edit(
    direction: str,
    program: SourceProgram,
    region: Span,
    target_lines: Sequence[str],
    source_program: str,
    origin: str,
    iteration: int,
    rep_cfg: RepresentationConfig,
    vocab: Vocabulary,
) -> Optional[TrainingSample]:
    """The sample whose input marks `region` of `program` and whose target
    is `target_lines`, the text that replaces it; the one encoding of an
    edit, whether it came from a corruption rule or from a model. None
    when the target or the marked input is over its length budget."""
    target = encode_target("\n".join(target_lines), rep_cfg, vocab)
    if target is None:
        return None
    try:
        input_tokens = build_input(program, region, rep_cfg, vocab)
    except RegionTooLong:
        return None
    return TrainingSample(
        direction=direction,
        input_tokens=tuple(input_tokens),
        target_tokens=tuple(target),
        origin=origin,
        iteration=iteration,
        source_program=source_program,
        span=region,
    )


HOLDOUT_FRACTION = 0.02  # the validation share of every training run's samples


def split_holdout(
    samples: list[TrainingSample], fraction: float, seed: int
) -> tuple[list[TrainingSample], list[TrainingSample]]:
    """Deterministic disjoint (train, validation) split.

    Validation gets round(fraction * N) samples, at least one. Rounding
    is half-up so the split does not depend on banker's rounding.
    """
    if not samples:
        raise ValueError("cannot split an empty sample list")
    if not 0.0 < fraction < 1.0:
        raise ValueError("fraction must be in (0, 1)")
    n_val = max(1, round_half_up(fraction * len(samples)))
    if n_val >= len(samples):
        n_val = max(1, len(samples) - 1)
    order = np.random.default_rng(seed).permutation(len(samples))
    val_idx = set(order[:n_val].tolist())
    train = [s for i, s in enumerate(samples) if i not in val_idx]
    validation = [s for i, s in enumerate(samples) if i in val_idx]
    return train, validation


# --- persistent sample store -------------------------------------------------

STORE_FORMAT = 1


class SampleStore:
    """Append-only deduplicated store, persisted as header + length-prefixed
    JSON lines (`<byte length>\\t<json>`). One writer, many readers.

    Only the file's last line may be a record that is not whole (a torn
    tail write): loading ignores it, and the first append cuts the file
    back to the last whole record, so that what it writes is read back by
    every later load. An unreadable record before the last line, or a
    header that is not a JSON object, raises CorpusError and leaves the
    file as it is."""

    def __init__(self, path: str | Path, vocab_sha: str | None = None):
        self.path = Path(path)
        self.samples: list[TrainingSample] = []
        self._keys: set[str] = set()
        self.vocab_sha = vocab_sha
        # byte offset where the last whole record's content ends, when the
        # file holds anything after it but that record's newline
        self._mend_at: int | None = None
        if self.path.exists():
            self._load()
        else:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            header = {"format": STORE_FORMAT}
            if vocab_sha:
                header["vocab_sha"] = vocab_sha
            with open(self.path, "w", encoding="utf-8") as fh:
                fh.write(json.dumps(header) + "\n")
                fh.flush()
                os.fsync(fh.fileno())

    def _load(self) -> None:
        data = self.path.read_bytes()
        lines = data.split(b"\n")
        if not lines[0]:
            raise CorpusError(f"{self.path}: empty store file")
        try:
            header = json.loads(lines[0])
        except ValueError as err:
            raise CorpusError(f"{self.path}: store header is not JSON") from err
        if not isinstance(header, dict):
            raise CorpusError(f"{self.path}: store header is not a JSON object")
        if header.get("format") != STORE_FORMAT:
            raise CorpusError(f"{self.path}: unsupported store format {header.get('format')}")
        stored_sha = header.get("vocab_sha")
        if self.vocab_sha is not None and stored_sha is not None and stored_sha != self.vocab_sha:
            raise CorpusError(f"{self.path}: store was built with a different vocabulary")
        if stored_sha is not None:
            self.vocab_sha = stored_sha
        # lines[last] is the file's last line; only it may be a torn tail
        last = max((number for number, line in enumerate(lines) if line), default=0)
        whole_end = start = len(lines[0])
        for number, line in enumerate(lines[1:], start=1):
            start += 1  # the newline before this line
            if line:
                try:
                    prefix, payload = line.split(b"\t", 1)
                    if int(prefix) != len(payload):
                        raise ValueError("length prefix does not match the record")
                    sample = TrainingSample.from_json(json.loads(payload))
                except (ValueError, KeyError, TypeError) as err:
                    if number == last:
                        break  # a torn tail write: the next append cuts it
                    raise CorpusError(f"{self.path}: unreadable record on line {number + 1}: {err}") from err
                key = sample.content_key()
                if key not in self._keys:
                    self._keys.add(key)
                    self.samples.append(sample)
                whole_end = start + len(line)
            start += len(line)
        if len(data) != whole_end + 1:
            self._mend_at = whole_end

    def __len__(self) -> int:
        return len(self.samples)

    def append(self, batch: Iterable[TrainingSample]) -> int:
        """Add new samples, skipping content duplicates. The batch is
        persisted (flushed and fsynced) before returning."""
        fresh: list[TrainingSample] = []
        for sample in batch:
            key = sample.content_key()
            if key in self._keys:
                continue
            self._keys.add(key)
            fresh.append(sample)
        if fresh:
            with open(self.path, "ab") as fh:
                if self._mend_at is not None:
                    fh.truncate(self._mend_at)
                    fh.write(b"\n")
                    self._mend_at = None
                for sample in fresh:
                    payload = json.dumps(sample.to_json(), sort_keys=True).encode("utf-8")
                    fh.write(b"%d\t%s\n" % (len(payload), payload))
                fh.flush()
                os.fsync(fh.fileno())
            self.samples.extend(fresh)
        return len(fresh)

    def samples_for(
        self, direction: str, include_mechanical: bool = True
    ) -> list[TrainingSample]:
        out = []
        for sample in self.samples:
            if sample.direction != direction:
                continue
            if not include_mechanical and sample.origin == ORIGIN_MECHANICAL:
                continue
            out.append(sample)
        return out

    def counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for sample in self.samples:
            key = f"{sample.direction}/{sample.origin}"
            out[key] = out.get(key, 0) + 1
        out["total"] = len(self.samples)
        return out
