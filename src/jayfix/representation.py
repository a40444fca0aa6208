"""Token vocabulary and the shared fixer/breaker input representation.

The tokenizer is a deterministic lexeme-level scheme: keywords,
operators, punctuation, newline and space-run tokens, digits encoded
one per token, identifiers split on underscores and camelCase into
corpus-derived pieces, and a raw-byte fallback for anything else. Every
token carries its exact surface text, so decoding is concatenation and
``decode(encode(x)) == x`` for arbitrary text.

Model inputs are three concatenated parts: the lines preceding the
edited region, the region wrapped in [START_BUGGY]/[END_BUGGY] marker
tokens, and the lines following it. When the whole sequence exceeds the
length budget, context is trimmed symmetrically from the outer ends;
the marked region itself is never dropped.
"""

from __future__ import annotations

import json
import re
import string
from dataclasses import dataclass
from pathlib import Path

from .minilang import SourceProgram, Span
from .minilang.lexer import OPERATORS
from .util import DataError, content_hash, read_text

PAD, BOS, EOS, START_BUGGY, END_BUGGY, UNK = range(6)
RESERVED_TOKENS = ["<pad>", "<s>", "</s>", "[START_BUGGY]", "[END_BUGGY]", "<unk>"]
N_RESERVED = len(RESERVED_TOKENS)
N_BYTES = 256

MAX_SPACE_RUN = 16

_FIXED_LEXEMES = [
    "\n",
    *(" " * n for n in range(1, MAX_SPACE_RUN + 1)),
    *(str(d) for d in range(10)),
    "fn", "let", "if", "else", "while", "return", "true", "false", "int", "bool",
    *OPERATORS,
]

# A newline, a run of spaces, an ASCII identifier, an operator (longest
# first), or any other single character.
_ATOM_RE = re.compile(
    r"\n| +|[A-Za-z_][A-Za-z0-9_]*|" + "|".join(re.escape(op) for op in OPERATORS) + r"|."
)
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_IDENT_START = frozenset(string.ascii_letters + "_")
_CAMEL_RE = re.compile(r"(?<=[a-z0-9])(?=[A-Z])")

VOCAB_FORMAT = 1


class RegionTooLong(ValueError):
    """The marked region alone does not fit the input length budget."""


@dataclass(frozen=True)
class RepresentationConfig:
    context_lines: int = 3
    max_input_len: int = 256
    max_target_len: int = 64

    def __post_init__(self) -> None:
        if self.context_lines < 0:
            raise ValueError("context_lines must be >= 0")
        if self.max_input_len < 8 or self.max_target_len < 8:
            raise ValueError("length budgets must be >= 8")


def split_identifier(word: str) -> list[str]:
    """Split on underscores (kept as their own pieces) and camelCase."""
    pieces: list[str] = []
    for chunk in re.split(r"(_)", word):
        if not chunk:
            continue
        if chunk == "_":
            pieces.append(chunk)
        else:
            pieces.extend(p for p in _CAMEL_RE.split(chunk) if p)
    return pieces


def _atoms(text: str) -> list[str]:
    """Scan text into token surface strings (lossless: ''.join == text)."""
    out: list[str] = []
    for atom in _ATOM_RE.findall(text):
        first = atom[0]
        if first in _IDENT_START:
            out.extend(split_identifier(atom))
        elif first == " ":
            run = len(atom)
            while run > MAX_SPACE_RUN:
                out.append(" " * MAX_SPACE_RUN)
                run -= MAX_SPACE_RUN
            out.append(" " * run)
        else:
            out.append(atom)  # a character that is no lexeme falls back to bytes at encode time
    return out


class Vocabulary:
    """Immutable token table: reserved ids, 256 byte-fallback ids, fixed
    lexemes, and corpus-derived identifier pieces."""

    def __init__(self, pieces: list[str]):
        self.pieces = list(pieces)
        self._table: list[str | None] = [None] * N_RESERVED
        self._table.extend(f"<0x{b:02x}>" for b in range(N_BYTES))
        lexemes = list(_FIXED_LEXEMES) + self.pieces
        self._lexeme_to_id: dict[str, int] = {}
        for lexeme in lexemes:
            if lexeme in self._lexeme_to_id:
                raise ValueError(f"duplicate lexeme {lexeme!r}")
            self._lexeme_to_id[lexeme] = len(self._table)
            self._table.append(lexeme)

    @property
    def size(self) -> int:
        return len(self._table)

    def sha(self) -> str:
        return content_hash({"format": VOCAB_FORMAT, "pieces": self.pieces})

    @classmethod
    def from_corpus(cls, texts: list[str]) -> "Vocabulary":
        fixed = set(_FIXED_LEXEMES)
        pieces: set[str] = set()
        for text in texts:
            for atom in _atoms(text):
                if atom not in fixed and _IDENT_RE.fullmatch(atom):
                    pieces.add(atom)
        return cls(sorted(pieces))

    def save(self, path: str | Path) -> None:
        payload = {"format": VOCAB_FORMAT, "pieces": self.pieces}
        Path(path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "Vocabulary":
        """Read a vocabulary `save` wrote; any other file raises DataError."""
        try:
            payload = json.loads(read_text(path))
        except ValueError as err:  # not JSON
            raise DataError(f"{path}: not a vocabulary ({err})") from err
        if not isinstance(payload, dict) or payload.get("format") != VOCAB_FORMAT:
            raise DataError(f"{path}: not a vocabulary of format {VOCAB_FORMAT}")
        pieces = payload.get("pieces")
        if not isinstance(pieces, list) or not all(isinstance(piece, str) for piece in pieces):
            raise DataError(f"{path}: vocab pieces are not a list of strings")
        try:
            return cls(pieces)
        except ValueError as err:  # a duplicate lexeme
            raise DataError(f"{path}: {err}") from err

    # --- encoding ---

    def encode(self, text: str) -> list[int]:
        ids: list[int] = []
        for atom in _atoms(text):
            token_id = self._lexeme_to_id.get(atom)
            if token_id is not None:
                ids.append(token_id)
            else:
                ids.extend(N_RESERVED + b for b in atom.encode("utf-8"))
        return ids

    def decode(self, ids: list[int]) -> str:
        parts: list[str] = []
        byte_buffer = bytearray()

        def flush() -> None:
            if byte_buffer:
                parts.append(byte_buffer.decode("utf-8", errors="replace"))
                byte_buffer.clear()

        for token_id in ids:
            if token_id < 0 or token_id >= len(self._table):
                raise ValueError(f"token id {token_id} out of range")
            if N_RESERVED <= token_id < N_RESERVED + N_BYTES:
                byte_buffer.append(token_id - N_RESERVED)
                continue
            flush()
            if token_id in (PAD, BOS, EOS, UNK):
                continue
            if token_id == START_BUGGY:
                parts.append("[START_BUGGY]")
            elif token_id == END_BUGGY:
                parts.append("[END_BUGGY]")
            else:
                parts.append(self._table[token_id])  # type: ignore[arg-type]
        flush()
        return "".join(parts)


def build_input(
    program: SourceProgram,
    span: Span,
    cfg: RepresentationConfig,
    vocab: Vocabulary,
) -> list[int]:
    """Three-part marked input for one edit region.

    Raises RegionTooLong when the marked region plus its two marker
    tokens cannot fit max_input_len; callers treat that as a rejected
    sample, not a fatal error.
    """
    lines = program.lines
    if span.end_line > len(lines):
        raise ValueError(f"span {span} outside {program.name} ({len(lines)} lines)")
    n = cfg.context_lines
    first = span.start_line - 1
    last = span.end_line
    prefix_lines = lines[max(0, first - n) : first]
    region_lines = lines[first:last]
    suffix_lines = lines[last : last + n]

    prefix = vocab.encode("".join(line + "\n" for line in prefix_lines))
    region = vocab.encode("\n".join(region_lines))
    suffix = vocab.encode("".join("\n" + line for line in suffix_lines))

    budget = cfg.max_input_len
    if len(region) + 2 > budget:
        raise RegionTooLong(
            f"marked region of {len(region)} tokens exceeds budget {budget - 2}"
        )
    overflow = len(prefix) + len(region) + len(suffix) + 2 - budget
    while overflow > 0 and (prefix or suffix):
        if len(prefix) >= len(suffix):
            prefix.pop(0)
        else:
            suffix.pop()
        overflow -= 1
    return prefix + [START_BUGGY] + region + [END_BUGGY] + suffix


def encode_target(text: str, cfg: RepresentationConfig, vocab: Vocabulary) -> list[int] | None:
    """Target tokens for a replacement region, or None when over budget
    (one slot is kept for EOS)."""
    ids = vocab.encode(text)
    if not ids or len(ids) > cfg.max_target_len - 1:
        return None
    return ids
