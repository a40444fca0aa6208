"""Differential tests: the cached `BeamScorer` against full recompute.

`FullRecomputeScorer` is the decoder as beam search used it before the
cache: every call runs teacher-forced `Seq2SeqModel.decode` over BOS and
the whole of every prefix, against the encoder memory repeated per row.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from helpers import exhaustive_top_k
from jayfix.model import BeamScorer, ModelConfig, Seq2SeqModel, beam_search, micro_config, tape
from jayfix.representation import BOS, EOS, PAD

TOLERANCE = 1e-12


class FullRecomputeScorer:
    def __init__(self, model: Seq2SeqModel, input_tokens: list[int]):
        self.model = model
        self.src = np.asarray([input_tokens], dtype=np.int64)
        with tape.no_grad():
            self.memory = model.encode(self.src)

    @property
    def vocab_size(self) -> int:
        return self.model.config.vocab_size

    def step_logprobs(self, prefixes):
        batch = len(prefixes)
        tgt_in = np.full((batch, max(len(p) for p in prefixes) + 1), PAD, dtype=np.int64)
        for row, prefix in enumerate(prefixes):
            tgt_in[row, 0] = BOS
            tgt_in[row, 1 : 1 + len(prefix)] = prefix
        with tape.no_grad():
            memory = tape.Tensor(np.repeat(self.memory.data, batch, axis=0))
            logits = self.model.decode(memory, np.repeat(self.src, batch, axis=0), tgt_in).data
        last = [len(p) for p in prefixes]
        return tape.log_softmax_last(logits[np.arange(batch), last, :])


class Differential:
    """Scores with the cached scorer and checks every call against the oracle."""

    def __init__(self, model: Seq2SeqModel, input_tokens: list[int]):
        self.cached = BeamScorer(model, input_tokens)
        self.oracle = FullRecomputeScorer(model, input_tokens)
        self.vocab_size = self.cached.vocab_size
        self.calls = 0
        self.max_error = 0.0

    def step_logprobs(self, prefixes):
        ours = self.cached.step_logprobs(prefixes)
        theirs = self.oracle.step_logprobs(prefixes)
        assert ours.shape == theirs.shape
        self.calls += 1
        self.max_error = max(self.max_error, float(np.abs(ours - theirs).max()))
        assert self.max_error <= TOLERANCE, (self.calls, prefixes)
        return ours


def tiny_model(seed: int) -> Seq2SeqModel:
    return Seq2SeqModel(ModelConfig.tiny(
        vocab_size=24, n_decoder_layers=2, max_src_len=16, max_tgt_len=8, seed=seed,
    ))


def micro_model(seed: int) -> Seq2SeqModel:
    return Seq2SeqModel(dataclasses.replace(micro_config(vocab_size=16, seed=seed), n_decoder_layers=3))


MODELS = {"tiny": tiny_model, "micro": micro_model}
# the second source ends in PAD, which the cross-attention mask must hide
SOURCES = ([6, 7, 8, 9, 10], [9, 6, 11, PAD, PAD])


@pytest.mark.parametrize("name", sorted(MODELS))
@pytest.mark.parametrize("source", SOURCES)
def test_beam_search_steps_match_full_recompute(name, source):
    model = MODELS[name](seed=3)
    for k in (1, 10, 100):
        scorer = Differential(model, source)
        ours = beam_search(scorer, k=k, max_len=model.config.max_tgt_len)
        oracle = beam_search(FullRecomputeScorer(model, source), k=k, max_len=model.config.max_tgt_len)
        assert scorer.calls > 1
        assert [c.tokens for c in ours] == [c.tokens for c in oracle]
        for a, b in zip(ours, oracle):
            assert abs(a.log_prob - b.log_prob) <= 1e-11


@pytest.mark.parametrize("name", sorted(MODELS))
def test_exhaustive_depth_first_calls_match_full_recompute(name):
    model = MODELS[name](seed=4)
    # only EOS and two content tokens, so the enumeration stays small
    forbid = tuple(i for i in range(model.config.vocab_size) if i not in (EOS, 6, 7))
    scorer = Differential(model, SOURCES[1])
    ours = exhaustive_top_k(scorer, k=20, max_len=4, forbidden=forbid)
    oracle = exhaustive_top_k(FullRecomputeScorer(model, SOURCES[1]), k=20, max_len=4, forbidden=forbid)
    assert scorer.calls == 15  # one per content prefix of length < 4
    assert [c.tokens for c in ours] == [c.tokens for c in oracle]


@pytest.mark.parametrize("name", sorted(MODELS))
def test_non_extending_calls_match_full_recompute(name):
    model = MODELS[name](seed=5)
    scorer = Differential(model, SOURCES[0])
    scorer.step_logprobs([[6, 7, 6]])  # a first call deeper than BOS
    scorer.step_logprobs([[7], [6, 6]])  # ragged lengths
    scorer.step_logprobs([[6, 6, 7], [6, 6, 6], [6, 6, 7]])  # extends the last call, a repeat included
    scorer.step_logprobs([[7, 7]])  # a prefix the cache does not hold
    scorer.step_logprobs([[7, PAD, 6]])  # a PAD token in the prefix is masked as in training
    assert scorer.calls == 5


def test_beam_search_decodes_one_position_per_step(monkeypatch):
    model = tiny_model(seed=6)
    positions = []
    step = model.decode_step

    def counting(tgt_ids, cache, *args):
        positions.append(cache[0][0].shape[0] - 1)
        return step(tgt_ids, cache, *args)

    monkeypatch.setattr(model, "decode_step", counting)
    scorer = BeamScorer(model, SOURCES[0])
    calls = 0

    class Counting:
        vocab_size = scorer.vocab_size

        def step_logprobs(self, prefixes):
            nonlocal calls
            calls += 1
            return scorer.step_logprobs(prefixes)

    beam_search(Counting(), k=10, max_len=model.config.max_tgt_len)
    assert positions == list(range(calls))


def test_prefix_longer_than_the_model_allows_raises():
    model = tiny_model(seed=7)
    scorer = BeamScorer(model, SOURCES[0])
    with pytest.raises(ValueError):
        scorer.step_logprobs([[6] * (model.config.max_tgt_len + 1)])
    with pytest.raises(ValueError):
        scorer.step_logprobs([[model.config.vocab_size]])
    # a failed call leaves the scorer usable
    expected = FullRecomputeScorer(model, SOURCES[0]).step_logprobs([[6]])
    assert np.abs(scorer.step_logprobs([[6]]) - expected).max() <= TOLERANCE
