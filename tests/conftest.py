from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from jayfix.corpus import load_corpus
from jayfix.model import tape
from jayfix.representation import RepresentationConfig, Vocabulary

REPO_ROOT = Path(__file__).resolve().parent.parent
CORPUS_DIR = REPO_ROOT / "corpus"

# Property tests draw the same examples on every run: seeded from each
# test's own hash, with no deadline, and with no example database, so a
# run never replays examples that an earlier run stored.
settings.register_profile("deterministic", derandomize=True, deadline=None, database=None)
settings.load_profile("deterministic")


@pytest.fixture
def float64(monkeypatch):
    """Compute in float64 for one test. jayfix computes in float32; the
    finite-difference gradient checks and the differential tests against
    full recompute keep their tolerances, which need float64. Build the
    models inside the test, after this fixture has run."""
    monkeypatch.setattr(tape, "DTYPE", np.float64)


@pytest.fixture(scope="session")
def corpus_dir() -> Path:
    return CORPUS_DIR


@pytest.fixture(scope="session")
def manifest() -> list[dict]:
    return json.loads((CORPUS_DIR / "manifest.json").read_text())


@pytest.fixture(scope="session")
def corpus_entries():
    entries, rejected = load_corpus(CORPUS_DIR)
    assert not rejected, rejected
    return entries


@pytest.fixture(scope="session")
def correct(corpus_entries):
    return [e for e in corpus_entries if e.status == "correct"]


@pytest.fixture(scope="session")
def buggy(corpus_entries):
    return [e for e in corpus_entries if e.status == "buggy"]


@pytest.fixture(scope="session")
def vocab(corpus_entries) -> Vocabulary:
    return Vocabulary.from_corpus([e.program.text for e in corpus_entries])


@pytest.fixture(scope="session")
def rep_cfg() -> RepresentationConfig:
    return RepresentationConfig()
