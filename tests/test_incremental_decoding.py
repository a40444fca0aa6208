"""Differential tests: the cached, multi-source `BeamScorer` against
full recompute, and multi-source beam search against one search per
source.

`FullRecomputeScorer` is the decoder as beam search used it before the
cache: every call runs teacher-forced `Seq2SeqModel.decode` over BOS and
the whole of every prefix, against its source's encoder memory repeated
per row, one source at a time. `beam_search_one_source` is beam search
as it ran before sources were batched: one source per search.

The tests held to `TOLERANCE` run in float64 (the `float64` fixture);
one test compares the two paths in float32, the dtype jayfix computes
in, at a bound derived from float32's epsilon.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from gradcheck import micro_config
from helpers import beam_search_one_source
from jayfix.model import BeamScorer, ModelConfig, Seq2SeqModel, beam_search, tape
from jayfix.representation import BOS, PAD

TOLERANCE = 1e-12


class FullRecomputeScorer:
    def __init__(self, model: Seq2SeqModel, sources: list[list[int]]):
        self.model = model
        self.sources = [np.asarray([tokens], dtype=np.int64) for tokens in sources]
        with tape.no_grad():
            self.memories = [model.encode(src) for src in self.sources]

    @property
    def vocab_size(self) -> int:
        return self.model.config.vocab_size

    @property
    def n_sources(self) -> int:
        return len(self.sources)

    def step_logprobs(self, prefixes):
        assert len(prefixes) == self.n_sources
        rows = [
            self._one_source(src, memory, batch)
            for src, memory, batch in zip(self.sources, self.memories, prefixes) if batch
        ]
        return np.concatenate(rows)

    def _one_source(self, src, memory, prefixes):
        batch = len(prefixes)
        lengths = np.asarray([len(p) + 1 for p in prefixes])
        tgt_in = np.full((batch, lengths.max()), PAD, dtype=np.int64)
        for row, prefix in enumerate(prefixes):
            tgt_in[row, 0] = BOS
            tgt_in[row, 1 : 1 + len(prefix)] = prefix
        with tape.no_grad():
            # the packed memory of `batch` copies of the source
            memory = tape.Tensor(np.tile(memory.data, (batch, 1)))
            logits = self.model.decode(memory, np.repeat(src, batch, axis=0), tgt_in, lengths).data
        return tape.log_softmax_last(logits[np.cumsum(lengths) - 1])


class Differential:
    """Scores with the cached scorer and checks every call against the
    oracle: both in `tape.DTYPE`, and each log-prob within `bound` of the
    oracle's, a function of the oracle's log-probs."""

    def __init__(self, model: Seq2SeqModel, sources: list[list[int]], bound=lambda logprobs: TOLERANCE):
        self.bound = bound
        self.cached = BeamScorer(model, sources)
        self.oracle = FullRecomputeScorer(model, sources)
        self.vocab_size = self.cached.vocab_size
        self.n_sources = self.cached.n_sources
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
# sources of different lengths, decoded together: each is padded to the longest
BATCH = [[6, 7, 8, 9, 10], [12, 8], [9, 6, 11, PAD, PAD], [7, 13, 6, 9, 11, 10, 8, 12, 14]]


@pytest.mark.usefixtures("float64")
@pytest.mark.parametrize("name", sorted(MODELS))
@pytest.mark.parametrize("source", SOURCES)
def test_beam_search_steps_match_full_recompute(name, source):
    model = MODELS[name](seed=3)
    for k in (1, 10, 100):
        scorer = Differential(model, [source])
        [ours] = beam_search(scorer, k=k, max_len=model.config.max_tgt_len)
        oracle = beam_search_one_source(FullRecomputeScorer(model, [source]), k=k, max_len=model.config.max_tgt_len)
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
        scorer = Differential(model, [source], bound=float32_step_bound)
        [ours] = beam_search(scorer, k=k, max_len=model.config.max_tgt_len)
        oracle = beam_search_one_source(FullRecomputeScorer(model, [source]), k=k, max_len=model.config.max_tgt_len)
        assert scorer.calls > 1
        assert [c.tokens for c in ours] == [c.tokens for c in oracle]
        for a, b in zip(ours, oracle):
            assert abs(a.log_prob - b.log_prob) <= F32_SCALE * (len(b.tokens) + abs(b.log_prob))


# --- many sources at once against one search per source ---------------------


def recording_layouts(monkeypatch, model: Seq2SeqModel) -> list[tuple[int, int]]:
    """Each decoder step's fewest and most rows of any source, as the
    model decodes them from now on."""
    layouts = []
    step = model.decode_step

    def recording(tgt_ids, cache, self_mask, cross_kv, cross_mask, sources):
        counts = np.bincount(sources, minlength=cross_mask.shape[0])
        layouts.append((int(counts.min()), int(counts.max())))
        return step(tgt_ids, cache, self_mask, cross_kv, cross_mask, sources)

    monkeypatch.setattr(model, "decode_step", recording)
    return layouts


@pytest.mark.usefixtures("float64")
@pytest.mark.parametrize("name", sorted(MODELS))
def test_multi_source_beams_equal_the_per_source_oracle(name, monkeypatch):
    layouts = []
    # at seed 6 greedy decoding ends some sources before others
    for model in (MODELS[name](seed=3), MODELS[name](seed=6)):
        max_len = model.config.max_tgt_len
        layouts.append(recording_layouts(monkeypatch, model))
        for k in (1, 10, 100):
            scorer = Differential(model, BATCH)
            ours = beam_search(scorer, k=k, max_len=max_len)
            assert scorer.calls > 1 and len(ours) == len(BATCH)
            for source, beams in zip(BATCH, ours):
                oracle = beam_search_one_source(FullRecomputeScorer(model, [source]), k=k, max_len=max_len)
                assert [c.tokens for c in beams] == [c.tokens for c in oracle]
                for a, b in zip(beams, oracle):
                    assert abs(a.log_prob - b.log_prob) <= 1e-11
    # the searches padded the queries of a source with fewer rows, and of a done source
    layouts = [layout for steps in layouts for layout in steps]
    assert any(0 < fewest < most for fewest, most in layouts)
    assert any(fewest == 0 for fewest, _ in layouts)


@pytest.mark.usefixtures("float64")
@pytest.mark.parametrize("name", sorted(MODELS))
def test_a_source_does_not_depend_on_its_batch_mates(name):
    model = MODELS[name](seed=4)
    max_len = model.config.max_tgt_len
    for k in (1, 10, 100):
        alone = [beam_search(BeamScorer(model, [source]), k=k, max_len=max_len)[0] for source in BATCH]
        for order in ([3, 2, 1, 0], [1, 2, 3, 0], [2, 0]):
            together = beam_search(BeamScorer(model, [BATCH[i] for i in order]), k=k, max_len=max_len)
            for i, beams in zip(order, together):
                assert [c.tokens for c in beams] == [c.tokens for c in alone[i]]
                for a, b in zip(beams, alone[i]):
                    assert abs(a.log_prob - b.log_prob) <= TOLERANCE


@pytest.mark.parametrize("name", sorted(MODELS))
def test_float32_multi_source_beams_match_the_per_source_oracle(name):
    model = MODELS[name](seed=3)
    max_len = model.config.max_tgt_len
    for k in (1, 10, 100):
        scorer = Differential(model, BATCH, bound=float32_step_bound)
        ours = beam_search(scorer, k=k, max_len=max_len)
        assert scorer.calls > 1
        for source, beams in zip(BATCH, ours):
            oracle = beam_search_one_source(FullRecomputeScorer(model, [source]), k=k, max_len=max_len)
            assert [c.tokens for c in beams] == [c.tokens for c in oracle]
            for a, b in zip(beams, oracle):
                assert abs(a.log_prob - b.log_prob) <= F32_SCALE * (len(b.tokens) + abs(b.log_prob))


@pytest.mark.usefixtures("float64")
@pytest.mark.parametrize("name", sorted(MODELS))
def test_other_calls_raise_and_leave_the_scorer_usable(name):
    model = MODELS[name](seed=5)
    scorer = Differential(model, [SOURCES[0]])
    for rejected in ([[6, 7, 6]], [[], [6]]):  # first calls deeper than BOS, and ragged
        with pytest.raises(ValueError, match="extend"):
            scorer.step_logprobs([rejected])
    scorer.step_logprobs([[[]]])  # checked against the oracle
    rejected_then_accepted = [
        ([[]], [[6], [7], [6]]),  # a repeat of the last call; then a repeated prefix
        ([[6], [6, 7]], [[6, 7], [7, 6]]),  # ragged lengths
        ([[6, 7, 6, 6]], [[6, 7, 7]]),  # two tokens deeper
        ([[6, 7, 7], [8, 6, 7]], [[6, 7, 7, 6], [6, 7, 7, 7]]),  # a prefix the cache does not hold
    ]
    for rejected, accepted in rejected_then_accepted:
        with pytest.raises(ValueError, match="extend"):
            scorer.step_logprobs([rejected])
        scorer.step_logprobs([accepted])
    assert scorer.calls == 1 + len(rejected_then_accepted)


@pytest.mark.usefixtures("float64")
def test_calls_must_keep_each_prefix_with_its_source():
    model = tiny_model(seed=5)
    scorer = Differential(model, BATCH[:2])
    with pytest.raises(ValueError, match="sources"):
        scorer.step_logprobs([[[]]])  # one source's prefixes for two sources
    scorer.step_logprobs([[[]], [[]]])
    scorer.step_logprobs([[[6], [7]], [[8]]])
    with pytest.raises(ValueError, match="extend"):
        scorer.step_logprobs([[[8, 6]], [[6, 7]]])  # each prefix under the other source
    scorer.step_logprobs([[], [[8, 6]]])  # source 0 is done
    with pytest.raises(ValueError, match="extend"):
        scorer.step_logprobs([[[6, 7]], [[8, 6, 6]]])  # a done source does not come back
    scorer.step_logprobs([[], [[8, 6, 6]]])
    assert scorer.calls == 4


@pytest.mark.usefixtures("float64")
@pytest.mark.parametrize("name", sorted(MODELS))
def test_pad_in_a_prefix_is_masked_as_in_training(name):
    model = MODELS[name](seed=5)
    scorer = Differential(model, [SOURCES[0]])
    for prefixes in ([[]], [[7], [6]], [[7, PAD], [6, 7]], [[7, PAD, 6], [6, 7, PAD]]):
        scorer.step_logprobs([prefixes])
    assert scorer.calls == 4


def test_beam_search_decodes_one_position_per_step(monkeypatch):
    model = tiny_model(seed=6)
    positions = []
    step = model.decode_step

    def counting(tgt_ids, cache, *args):
        positions.append(cache[0][0].shape[0] - 1)
        return step(tgt_ids, cache, *args)

    monkeypatch.setattr(model, "decode_step", counting)
    scorer = BeamScorer(model, BATCH)
    calls = 0

    class Counting:
        vocab_size = scorer.vocab_size
        n_sources = scorer.n_sources

        def step_logprobs(self, prefixes):
            nonlocal calls
            calls += 1
            return scorer.step_logprobs(prefixes)

    beam_search(Counting(), k=10, max_len=model.config.max_tgt_len)
    assert positions == list(range(calls))


@pytest.mark.usefixtures("float64")
def test_prefix_longer_than_the_model_allows_raises():
    model = tiny_model(seed=7)
    scorer = Differential(model, [SOURCES[0]])
    scorer.step_logprobs([[[]]])
    with pytest.raises(ValueError):
        scorer.step_logprobs([[[model.config.vocab_size]]])
    # a failed call leaves the scorer usable: grow the prefix to the longest the model allows
    prefix = []
    while len(prefix) < model.config.max_tgt_len:
        prefix = prefix + [6]
        scorer.step_logprobs([[prefix]])
    with pytest.raises(ValueError):
        scorer.step_logprobs([[prefix + [6]]])
