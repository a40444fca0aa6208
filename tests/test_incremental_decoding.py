"""Differential tests: the cached `BeamScorer` against full recompute.

`FullRecomputeScorer` is the decoder as beam search used it before the
cache: every call runs teacher-forced `Seq2SeqModel.decode` over BOS and
the whole of every prefix, against the encoder memory repeated per row.

The tests held to `TOLERANCE` run in float64 (the `float64` fixture);
one test compares the two paths in float32, the dtype jayfix computes
in, at a bound derived from float32's epsilon.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from gradcheck import micro_config
from jayfix.model import BeamScorer, ModelConfig, Seq2SeqModel, beam_search, tape
from jayfix.representation import BOS, PAD

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
    """Scores with the cached scorer and checks every call against the
    oracle: both in `tape.DTYPE`, and each log-prob within `bound` of the
    oracle's, a function of the oracle's log-probs."""

    def __init__(self, model: Seq2SeqModel, input_tokens: list[int], bound=lambda logprobs: TOLERANCE):
        self.bound = bound
        self.cached = BeamScorer(model, input_tokens)
        self.oracle = FullRecomputeScorer(model, input_tokens)
        self.vocab_size = self.cached.vocab_size
        self.calls = 0

    def step_logprobs(self, prefixes):
        ours = self.cached.step_logprobs(prefixes)
        theirs = self.oracle.step_logprobs(prefixes)
        assert ours.shape == theirs.shape
        assert ours.dtype == theirs.dtype == tape.DTYPE
        self.calls += 1
        assert np.all(np.abs(ours - theirs) <= self.bound(theirs)), (self.calls, prefixes)
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


@pytest.mark.usefixtures("float64")
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


# In float32 the two paths round differently: BLAS groups the sums of a
# one-position step and of a whole-prefix decode differently. Bound: a
# step's log-probs come out of at most ~64 rounded operations, ~20 per
# decoder layer (norms, projections, attention scores, softmax, context,
# residuals, feed-forward) for at most 3 layers, then the final norm,
# the output projection and the log-softmax. Each rounding errs by at
# most eps relative; with no operation amplifying relative error by more
# than O(1), true of these small random models, the log-probs agree to
# 64 eps times the magnitude they are computed at, max(1, |log-prob|):
# logits here are O(1), and a log-prob is a logit minus the largest
# logit and log Z. Measured over seeds 3, 5 and 7: at most 1.5 eps of
# that scale (2 ulps). A candidate's log-prob sums one step per token,
# so its bound sums theirs: 64 eps * (tokens + |log-prob|), as every
# step's log-prob is <= 0.
F32_SCALE = 64 * float(np.finfo(np.float32).eps)


def float32_step_bound(logprobs: np.ndarray) -> np.ndarray:
    return F32_SCALE * np.maximum(1.0, np.abs(logprobs))


@pytest.mark.parametrize("name", sorted(MODELS))
@pytest.mark.parametrize("source", SOURCES)
def test_float32_beam_search_matches_full_recompute(name, source):
    model = MODELS[name](seed=3)
    assert model.params["out.w"].data.dtype == np.float32
    for k in (1, 10, 100):
        scorer = Differential(model, source, bound=float32_step_bound)
        ours = beam_search(scorer, k=k, max_len=model.config.max_tgt_len)
        oracle = beam_search(FullRecomputeScorer(model, source), k=k, max_len=model.config.max_tgt_len)
        assert scorer.calls > 1
        assert [c.tokens for c in ours] == [c.tokens for c in oracle]
        for a, b in zip(ours, oracle):
            assert abs(a.log_prob - b.log_prob) <= F32_SCALE * (len(b.tokens) + abs(b.log_prob))


@pytest.mark.usefixtures("float64")
@pytest.mark.parametrize("name", sorted(MODELS))
def test_other_calls_raise_and_leave_the_scorer_usable(name):
    model = MODELS[name](seed=5)
    scorer = Differential(model, SOURCES[0])
    for rejected in ([[6, 7, 6]], [[], [6]]):  # first calls deeper than BOS, and ragged
        with pytest.raises(ValueError, match="extend"):
            scorer.step_logprobs(rejected)
    scorer.step_logprobs([[]])  # checked against the oracle
    rejected_then_accepted = [
        ([[]], [[6], [7], [6]]),  # a repeat of the last call; then a repeated prefix
        ([[6], [6, 7]], [[6, 7], [7, 6]]),  # ragged lengths
        ([[6, 7, 6, 6]], [[6, 7, 7]]),  # two tokens deeper
        ([[6, 7, 7], [8, 6, 7]], [[6, 7, 7, 6], [6, 7, 7, 7]]),  # a prefix the cache does not hold
    ]
    for rejected, accepted in rejected_then_accepted:
        with pytest.raises(ValueError, match="extend"):
            scorer.step_logprobs(rejected)
        scorer.step_logprobs(accepted)
    assert scorer.calls == 1 + len(rejected_then_accepted)


@pytest.mark.usefixtures("float64")
@pytest.mark.parametrize("name", sorted(MODELS))
def test_pad_in_a_prefix_is_masked_as_in_training(name):
    model = MODELS[name](seed=5)
    scorer = Differential(model, SOURCES[0])
    for prefixes in ([[]], [[7], [6]], [[7, PAD], [6, 7]], [[7, PAD, 6], [6, 7, PAD]]):
        scorer.step_logprobs(prefixes)
    assert scorer.calls == 4


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


@pytest.mark.usefixtures("float64")
def test_prefix_longer_than_the_model_allows_raises():
    model = tiny_model(seed=7)
    scorer = Differential(model, SOURCES[0])
    scorer.step_logprobs([[]])
    with pytest.raises(ValueError):
        scorer.step_logprobs([[model.config.vocab_size]])
    # a failed call leaves the scorer usable: grow the prefix to the longest the model allows
    prefix = []
    while len(prefix) < model.config.max_tgt_len:
        prefix = prefix + [6]
        scorer.step_logprobs([prefix])
    with pytest.raises(ValueError):
        scorer.step_logprobs([prefix + [6]])
