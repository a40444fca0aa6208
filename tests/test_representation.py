from __future__ import annotations

import json

import pytest
from hypothesis import given, settings, strategies as st

from jayfix import util
from jayfix.minilang import SourceProgram, Span, enumerate_statement_locations
from jayfix.representation import (
    END_BUGGY,
    PAD,
    BOS,
    EOS,
    START_BUGGY,
    UNK,
    VOCAB_FORMAT,
    RegionTooLong,
    RepresentationConfig,
    Vocabulary,
    build_input,
    encode_target,
    split_identifier,
)


def test_reserved_ids_are_distinct():
    assert len({PAD, BOS, EOS, START_BUGGY, END_BUGGY, UNK}) == 6


def test_simple_roundtrip(vocab):
    text = "x = a + b;"
    assert vocab.decode(vocab.encode(text)) == text


def test_empty_string_roundtrip(vocab):
    assert vocab.encode("") == []
    assert vocab.decode([]) == ""


def test_every_seed_program_roundtrips(vocab, corpus_entries):
    for entry in corpus_entries:
        ids = vocab.encode(entry.program.text)
        assert vocab.decode(ids) == entry.program.text, entry.name


def test_unknown_text_falls_back_to_bytes(vocab):
    text = "weirdIdentifierΩ = ключ;"
    assert vocab.decode(vocab.encode(text)) == text


@settings(max_examples=80, deadline=None)
@given(st.text(max_size=120))
def test_arbitrary_text_roundtrips(text):
    vocab = Vocabulary([])
    assert vocab.decode(vocab.encode(text)) == text


def test_identifier_splitting():
    assert split_identifier("binary_search") == ["binary", "_", "search"]
    assert split_identifier("maxSoFar") == ["max", "So", "Far"]
    assert split_identifier("x") == ["x"]
    assert split_identifier("_lead") == ["_", "lead"]


def test_digits_encode_one_per_token(vocab):
    ids = vocab.encode("123")
    assert len(ids) == 3
    assert vocab.decode(ids) == "123"


def test_vocabulary_is_small_and_stable(vocab, corpus_entries):
    assert vocab.size < 1000
    again = Vocabulary.from_corpus([e.program.text for e in corpus_entries])
    assert again.sha() == vocab.sha()
    assert again.size == vocab.size


def test_vocab_save_load_roundtrip(tmp_path, vocab):
    vocab.save(tmp_path / "vocab.json")
    loaded = Vocabulary.load(tmp_path / "vocab.json")
    assert loaded.sha() == vocab.sha()
    text = "fn main() -> int { return 42; }"
    assert loaded.encode(text) == vocab.encode(text)


@pytest.mark.parametrize("pieces", [None, ["é", "ab"]], ids=["corpus", "non-ASCII"])
def test_vocab_save_keeps_its_bytes(tmp_path, vocab, pieces):
    vocab = vocab if pieces is None else Vocabulary(pieces)
    vocab.save(tmp_path / "vocab.json")
    # the bytes the hand-written writer produced before the save went through write_json
    expected = json.dumps({"format": VOCAB_FORMAT, "pieces": vocab.pieces}, indent=2) + "\n"
    assert (tmp_path / "vocab.json").read_bytes() == expected.encode("ascii")


def test_interrupted_vocab_save_keeps_the_old_file(tmp_path, monkeypatch, vocab):
    path = tmp_path / "vocab.json"
    Vocabulary(["ab"]).save(path)
    before = path.read_bytes()

    def fail(*args, **kwargs):
        raise OSError("interrupted")

    monkeypatch.setattr(util.os, "replace", fail)
    with pytest.raises(OSError, match="interrupted"):
        vocab.save(path)
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["vocab.json"]


# --- build_input ---------------------------------------------------------------


def make_program() -> SourceProgram:
    lines = [f"line{i};" for i in range(1, 11)]
    return SourceProgram("p", "\n".join(lines))


def test_input_structure_mid_file(vocab, rep_cfg):
    program = make_program()
    ids = build_input(program, Span(5, 5), rep_cfg, vocab)
    text = vocab.decode(ids)
    assert text.count("[START_BUGGY]") == 1
    assert text.count("[END_BUGGY]") == 1
    assert text.index("[START_BUGGY]") < text.index("[END_BUGGY]")
    before, _, rest = text.partition("[START_BUGGY]")
    region, _, after = rest.partition("[END_BUGGY]")
    assert before == "line2;\nline3;\nline4;\n"  # exactly 3 context lines
    assert region == "line5;"
    assert after == "\nline6;\nline7;\nline8;"


def test_input_at_file_top_has_empty_prefix(vocab, rep_cfg):
    program = make_program()
    ids = build_input(program, Span(1, 1), rep_cfg, vocab)
    text = vocab.decode(ids)
    assert text.startswith("[START_BUGGY]line1;[END_BUGGY]")


def test_input_at_file_bottom_has_empty_suffix(vocab, rep_cfg):
    program = make_program()
    ids = build_input(program, Span(10, 10), rep_cfg, vocab)
    text = vocab.decode(ids)
    assert text.endswith("[END_BUGGY]")


def test_marker_pair_for_every_corpus_span(vocab, rep_cfg, corpus_entries):
    for entry in corpus_entries:
        for span in enumerate_statement_locations(entry.ast):
            ids = build_input(entry.program, span, rep_cfg, vocab)
            assert ids.count(START_BUGGY) == 1
            assert ids.count(END_BUGGY) == 1
            assert ids.index(START_BUGGY) < ids.index(END_BUGGY)
            assert len(ids) <= rep_cfg.max_input_len


def test_truncation_preserves_marked_region(vocab):
    cfg = RepresentationConfig(context_lines=3, max_input_len=24, max_target_len=8)
    program = make_program()
    ids = build_input(program, Span(5, 5), cfg, vocab)
    assert len(ids) <= 24
    assert ids.count(START_BUGGY) == 1 and ids.count(END_BUGGY) == 1
    region = ids[ids.index(START_BUGGY) + 1 : ids.index(END_BUGGY)]
    assert vocab.decode(region) == "line5;"


def test_oversized_region_is_rejected(vocab):
    cfg = RepresentationConfig(context_lines=0, max_input_len=8, max_target_len=8)
    program = SourceProgram("p", "a_very_long_line = a + b + c + d + e + f + g;\nx = 1;")
    with pytest.raises(RegionTooLong):
        build_input(program, Span(1, 1), cfg, vocab)


def test_zero_context_lines(vocab):
    cfg = RepresentationConfig(context_lines=0, max_input_len=64, max_target_len=16)
    program = make_program()
    text = vocab.decode(build_input(program, Span(4, 5), cfg, vocab))
    assert text == "[START_BUGGY]line4;\nline5;[END_BUGGY]"


def test_build_input_is_deterministic(vocab, rep_cfg, corpus_entries):
    entry = corpus_entries[0]
    span = enumerate_statement_locations(entry.ast)[0]
    a = build_input(entry.program, span, rep_cfg, vocab)
    b = build_input(entry.program, span, rep_cfg, vocab)
    assert a == b


def test_encode_target_budget(vocab):
    cfg = RepresentationConfig(context_lines=3, max_input_len=64, max_target_len=8)
    assert encode_target("x = 1;", cfg, vocab) is not None
    assert encode_target("x = aaaa + bbbb + cccc + dddd + eeee;", cfg, vocab) is None
    assert encode_target("", cfg, vocab) is None
