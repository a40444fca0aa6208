from __future__ import annotations

import json
import shutil

import pytest
from helpers import MALFORMED_SUITES
from hypothesis import given, settings, strategies as st

from jayfix.corpus import (
    CorpusError,
    DIRECTION_BREAK,
    DIRECTION_FIX,
    SampleStore,
    TrainingSample,
    load_corpus,
    split_holdout,
)
from jayfix.minilang import Span


def make_sample(i: int, direction: str = DIRECTION_FIX) -> TrainingSample:
    return TrainingSample(
        direction=direction,
        input_tokens=(10, 11, 12 + i),
        target_tokens=(20, 21 + i),
        origin="mechanical",
        iteration=0,
        source_program=f"p{i}",
        span=Span(1, 1),
    )


# --- load_corpus -------------------------------------------------------------


def test_seed_corpus_loads_fully(corpus_entries):
    assert len(corpus_entries) == 30
    assert sum(1 for e in corpus_entries if e.status == "correct") == 20
    assert sum(1 for e in corpus_entries if e.status == "buggy") == 10


def test_buggy_entries_carry_passing_reference_fixes(buggy):
    for entry in buggy:
        assert entry.reference_fix is not None, entry.name


def test_status_violation_is_rejected_not_fatal(tmp_path, corpus_dir):
    shutil.copytree(corpus_dir, tmp_path / "corpus")
    # make one correct program fail a test: flip an expected value
    cases = json.loads((tmp_path / "corpus" / "gcd.tests.json").read_text())
    cases[0]["expect"] = 12345
    (tmp_path / "corpus" / "gcd.tests.json").write_text(json.dumps(cases))
    entries, rejected = load_corpus(tmp_path / "corpus")
    assert len(entries) == 29
    assert len(rejected) == 1 and rejected[0].name == "gcd"
    assert "failing" in rejected[0].reason


def test_missing_suite_is_rejected(tmp_path, corpus_dir):
    shutil.copytree(corpus_dir, tmp_path / "corpus")
    (tmp_path / "corpus" / "lcm.tests.json").unlink()
    entries, rejected = load_corpus(tmp_path / "corpus")
    assert any(r.name == "lcm" and "suite" in r.reason for r in rejected)
    assert len(entries) == 29


def test_malformed_suite_json_is_rejected(tmp_path, corpus_dir):
    shutil.copytree(corpus_dir, tmp_path / "corpus")
    (tmp_path / "corpus" / "abs_value.tests.json").write_text("{not json")
    entries, rejected = load_corpus(tmp_path / "corpus")
    assert any(r.name == "abs_value" for r in rejected)


@pytest.mark.parametrize("content", MALFORMED_SUITES.values(), ids=MALFORMED_SUITES.keys())
def test_a_malformed_suite_is_a_rejection_record_not_a_crash(tmp_path, corpus_dir, content):
    shutil.copytree(corpus_dir, tmp_path / "corpus")
    (tmp_path / "corpus" / "abs_value.tests.json").write_text(content)
    entries, rejected = load_corpus(tmp_path / "corpus")
    assert len(entries) == 29
    [record] = rejected
    assert record.name == "abs_value" and record.reason.startswith("abs_value.tests.json: malformed suite: ")


def test_empty_manifest_gives_empty_corpus(tmp_path):
    (tmp_path / "manifest.json").write_text("[]")
    entries, rejected = load_corpus(tmp_path)
    assert entries == [] and rejected == []


def test_truly_empty_dir_gives_empty_corpus(tmp_path):
    entries, rejected = load_corpus(tmp_path)
    assert entries == [] and rejected == []


def test_programs_without_manifest_is_an_error(tmp_path):
    (tmp_path / "orphan.jay").write_text("fn f() -> int { return 1; }\n")
    with pytest.raises(CorpusError):
        load_corpus(tmp_path)


# --- split_holdout ------------------------------------------------------------


def test_two_percent_of_1000_is_20():
    samples = [make_sample(i) for i in range(1000)]
    train, val = split_holdout(samples, 0.02, seed=1)
    assert len(train) == 980 and len(val) == 20


def test_minimum_one_validation_sample():
    samples = [make_sample(i) for i in range(10)]
    train, val = split_holdout(samples, 0.02, seed=1)
    assert len(train) == 9 and len(val) == 1


def test_split_is_deterministic():
    samples = [make_sample(i) for i in range(57)]
    first = split_holdout(samples, 0.1, seed=42)
    second = split_holdout(samples, 0.1, seed=42)
    assert first == second
    different = split_holdout(samples, 0.1, seed=43)
    assert first != different


def test_empty_input_raises():
    with pytest.raises(ValueError):
        split_holdout([], 0.02, seed=0)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(min_value=2, max_value=300), seed=st.integers(0, 2**31))
def test_split_partitions_disjoint_and_exhaustive(n, seed):
    samples = [make_sample(i) for i in range(n)]
    train, val = split_holdout(samples, 0.02, seed=seed)
    assert len(train) + len(val) == n
    assert len(val) >= 1
    keys = {id(s) for s in samples}
    assert {id(s) for s in train} | {id(s) for s in val} == keys
    assert not ({id(s) for s in train} & {id(s) for s in val})


# --- SampleStore ---------------------------------------------------------------


def test_append_is_deduplicating(tmp_path):
    store = SampleStore(tmp_path / "store.jsonl")
    batch = [make_sample(i) for i in range(5)]
    assert store.append(batch) == 5
    assert store.append(batch) == 0
    assert len(store) == 5


def test_disjoint_batches_accumulate(tmp_path):
    store = SampleStore(tmp_path / "store.jsonl")
    assert store.append([make_sample(i) for i in range(5)]) == 5
    assert store.append([make_sample(100 + i) for i in range(7)]) == 7
    assert len(store) == 12


def test_same_pair_may_exist_in_both_directions(tmp_path):
    store = SampleStore(tmp_path / "store.jsonl")
    fix = make_sample(1, DIRECTION_FIX)
    brk = TrainingSample(
        direction=DIRECTION_BREAK,
        input_tokens=fix.input_tokens,
        target_tokens=fix.target_tokens,
        origin="mechanical",
        iteration=0,
        source_program="p",
        span=Span(1, 1),
    )
    assert store.append([fix, brk]) == 2


def test_store_persists_and_reloads(tmp_path):
    path = tmp_path / "store.jsonl"
    store = SampleStore(path)
    store.append([make_sample(i) for i in range(4)])
    reloaded = SampleStore(path)
    assert len(reloaded) == 4
    assert [s.to_json() for s in reloaded.samples] == [s.to_json() for s in store.samples]
    assert reloaded.append([make_sample(0)]) == 0


def test_torn_tail_write_is_ignored(tmp_path):
    path = tmp_path / "store.jsonl"
    store = SampleStore(path)
    store.append([make_sample(i) for i in range(3)])
    with open(path, "a") as fh:
        fh.write('999\t{"direction": "fix", "input_tokens": [1')  # torn record
    reloaded = SampleStore(path)
    assert len(reloaded) == 3


def test_appends_after_a_torn_tail_are_kept(tmp_path):
    path = tmp_path / "store.jsonl"
    SampleStore(path).append([make_sample(0)])
    whole = path.read_bytes()
    with open(path, "a") as fh:
        fh.write('999\t{"direction": "fix", "input_tokens": [1')  # torn record
    reopened = SampleStore(path)
    assert len(reopened) == 1
    assert path.read_text().endswith("[1")  # loading alone leaves the file as it is
    assert reopened.append([make_sample(1), make_sample(2)]) == 2
    assert path.read_bytes().startswith(whole)
    reloaded = SampleStore(path)
    assert [s.to_json() for s in reloaded.samples] == [make_sample(i).to_json() for i in range(3)]


def test_a_whole_last_record_without_its_newline_is_kept(tmp_path):
    path = tmp_path / "store.jsonl"
    SampleStore(path).append([make_sample(0), make_sample(1)])
    path.write_bytes(path.read_bytes()[:-1])
    reopened = SampleStore(path)
    assert len(reopened) == 2
    assert reopened.append([make_sample(2)]) == 1
    assert [s.to_json() for s in SampleStore(path).samples] == [make_sample(i).to_json() for i in range(3)]


@pytest.mark.parametrize("damage", ["length prefix", "payload", "no tab"])
def test_an_unreadable_record_before_the_last_line_raises_and_keeps_the_file(tmp_path, damage):
    path = tmp_path / "store.jsonl"
    SampleStore(path).append([make_sample(i) for i in range(20)])
    lines = path.read_bytes().split(b"\n")
    prefix, payload = lines[10].split(b"\t", 1)  # record 10
    lines[10] = {
        "length prefix": b"%d\t%s" % (int(prefix) + 1, payload),
        "payload": prefix + b"\t" + payload.replace(b'"direction"', b'"direxion"'),
        "no tab": prefix + b" " + payload,
    }[damage]
    path.write_bytes(b"\n".join(lines))
    damaged = path.read_bytes()
    with pytest.raises(CorpusError, match="line 11"):
        SampleStore(path)
    assert path.read_bytes() == damaged


def test_an_unreadable_last_line_is_a_torn_tail_even_with_its_newline(tmp_path):
    path = tmp_path / "store.jsonl"
    SampleStore(path).append([make_sample(i) for i in range(3)])
    with open(path, "a") as fh:
        fh.write('999\t{"direction": "fix"}\n')
    reopened = SampleStore(path)
    assert len(reopened) == 3
    assert reopened.append([make_sample(3)]) == 1
    assert [s.to_json() for s in SampleStore(path).samples] == [make_sample(i).to_json() for i in range(4)]


@pytest.mark.parametrize("header", ["{not json", "[1]"])
def test_a_header_that_is_not_a_json_object_raises(tmp_path, header):
    path = tmp_path / "store.jsonl"
    path.write_text(header + "\n")
    with pytest.raises(CorpusError, match="header"):
        SampleStore(path)


def test_header_format_is_validated(tmp_path):
    path = tmp_path / "store.jsonl"
    path.write_text('{"format": 99}\n')
    with pytest.raises(CorpusError):
        SampleStore(path)


def test_vocab_sha_mismatch_detected(tmp_path):
    path = tmp_path / "store.jsonl"
    SampleStore(path, vocab_sha="aaa")
    with pytest.raises(CorpusError):
        SampleStore(path, vocab_sha="bbb")


def test_counts_by_direction_and_origin(tmp_path):
    store = SampleStore(tmp_path / "store.jsonl")
    store.append([make_sample(i, DIRECTION_FIX) for i in range(3)])
    store.append([make_sample(10 + i, DIRECTION_BREAK) for i in range(2)])
    counts = store.counts()
    assert counts["fix/mechanical"] == 3
    assert counts["break/mechanical"] == 2
    assert counts["total"] == 5
