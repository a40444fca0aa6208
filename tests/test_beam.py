from __future__ import annotations

import numpy as np
import pytest

from helpers import exhaustive_top_k
from jayfix.model.beam import beam_search
from jayfix.representation import BOS, EOS, PAD


class StubScorer:
    """Deterministic fake model over a tiny vocabulary: the next-token
    distribution depends only on (seed, prefix)."""

    def __init__(self, seed: int, vocab_size: int = 8):
        self.seed = seed
        self.vocab_size = vocab_size

    def step_logprobs(self, prefixes):
        rows = []
        for prefix in prefixes:
            rng = np.random.default_rng([self.seed, len(prefix) + 1, *(t + 1 for t in prefix)])
            logits = 2.0 * rng.normal(size=self.vocab_size)
            shifted = logits - logits.max()
            rows.append(shifted - np.log(np.exp(shifted).sum()))
        return np.asarray(rows)


# ids 6 and 7 are the only "content" symbols; EOS completes sequences
FORBID = tuple(i for i in range(8) if i not in (EOS, 6, 7))


def full_space_size(max_len: int) -> int:
    # EOS-terminated sequences of content length < max_len, plus all
    # content-only sequences of exactly max_len
    return sum(2**n for n in range(max_len)) + 2**max_len


@pytest.mark.parametrize("seed", range(8))
def test_beam_with_full_width_equals_exhaustive(seed):
    scorer = StubScorer(seed)
    max_len = 4
    k = full_space_size(max_len)
    beam = beam_search(scorer, k=k, max_len=max_len, forbidden=FORBID)
    oracle = exhaustive_top_k(scorer, k=k, max_len=max_len, forbidden=FORBID)
    assert len(beam) == len(oracle) == k
    assert [c.tokens for c in beam] == [c.tokens for c in oracle]
    for ours, theirs in zip(beam, oracle):
        assert ours.log_prob == pytest.approx(theirs.log_prob, abs=1e-12)
        assert ours.rank == theirs.rank


@pytest.mark.parametrize("seed", range(100))
def test_beam_k1_equals_greedy(seed):
    scorer = StubScorer(seed + 1000)
    max_len = 5
    candidate = beam_search(scorer, k=1, max_len=max_len, forbidden=FORBID)[0]
    tokens = []
    while len(tokens) < max_len:
        row = scorer.step_logprobs([tokens])[0].copy()
        row[list(FORBID)] = -np.inf
        best = int(np.argmax(row))
        tokens.append(best)
        if best == EOS:
            break
    assert candidate.tokens == tuple(tokens)


def test_log_probs_non_increasing_and_ranks_contiguous():
    scorer = StubScorer(3)
    results = beam_search(scorer, k=10, max_len=4, forbidden=FORBID)
    probs = [c.log_prob for c in results]
    assert probs == sorted(probs, reverse=True)
    assert [c.rank for c in results] == list(range(1, len(results) + 1))


def test_candidates_unique():
    scorer = StubScorer(4)
    results = beam_search(scorer, k=25, max_len=4, forbidden=FORBID)
    assert len({c.tokens for c in results}) == len(results)


def test_every_candidate_ends_with_eos_or_hits_max_len():
    scorer = StubScorer(5)
    for candidate in beam_search(scorer, k=12, max_len=3, forbidden=FORBID):
        assert candidate.tokens[-1] == EOS or len(candidate.tokens) == 3


def test_forbidden_tokens_never_appear():
    scorer = StubScorer(6)
    for candidate in beam_search(scorer, k=20, max_len=4, forbidden=FORBID):
        assert PAD not in candidate.tokens
        assert BOS not in candidate.tokens


def test_content_tokens_strip_trailing_eos():
    scorer = StubScorer(7)
    done = [c for c in beam_search(scorer, k=5, max_len=4, forbidden=FORBID) if c.tokens[-1] == EOS]
    assert done
    for candidate in done:
        assert candidate.content_tokens == candidate.tokens[:-1]


def test_invalid_arguments():
    scorer = StubScorer(0)
    with pytest.raises(ValueError):
        beam_search(scorer, k=0, max_len=3)
    with pytest.raises(ValueError):
        beam_search(scorer, k=1, max_len=0)
