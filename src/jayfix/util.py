"""Small shared helpers: the data error, reading an input text file,
canonical JSON, artifact files replaced by rename, stable hashing and seeded RNG
derivation."""

from __future__ import annotations

import hashlib
import json
import os
from contextlib import contextmanager
from pathlib import Path
from typing import BinaryIO, Iterator

import numpy as np

class DataError(Exception):
    """Input that contradicts the data a run works on (exit code 2)."""


def read_text(path: str | Path) -> str:
    """The UTF-8 text of input file `path`. A directory in its place, a
    file that cannot be read, or one that is not UTF-8 is a DataError."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (IsADirectoryError, PermissionError) as err:
        raise DataError(f"cannot read {path}: {err.strerror}") from err
    except UnicodeDecodeError as err:
        raise DataError(f"{path} is not UTF-8 text") from err


def canonical_json(obj) -> str:
    """Deterministic JSON: sorted keys, no whitespace drift."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


@contextmanager
def replaced_atomically(path: str | Path) -> Iterator[BinaryIO]:
    """A binary file for the new content of `path`: a temporary file beside
    it, renamed onto `path` when the block ends. If the block raises, the
    temporary file is removed, so `path` keeps its old bytes (or stays
    absent) and never holds a partial write."""
    path = Path(path)
    temporary = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(temporary, "wb") as fh:
            yield fh
        os.replace(temporary, path)
    except BaseException:
        temporary.unlink(missing_ok=True)
        raise


def write_json(path: str | Path, obj) -> None:
    """Write a JSON artifact: two-space indent, sorted keys, final newline."""
    with replaced_atomically(path) as fh:
        fh.write((json.dumps(obj, indent=2, sort_keys=True) + "\n").encode("utf-8"))


def content_hash(obj) -> str:
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()


def derive_seed(*parts) -> int:
    """Stable 63-bit seed from arbitrary JSON-serializable parts."""
    digest = hashlib.sha256(canonical_json(list(parts)).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") & (2**63 - 1)


def derive_rng(*parts) -> np.random.Generator:
    return np.random.default_rng(derive_seed(*parts))


def round_half_up(x: float) -> int:
    import math

    return int(math.floor(x + 0.5))
