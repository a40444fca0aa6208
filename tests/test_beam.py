from __future__ import annotations

import numpy as np
import pytest

from helpers import ToyScorer, beam_search_one_source, exhaustive_top_k
from jayfix.model.beam import beam_search
from jayfix.representation import BOS, EOS, PAD


# ids 6 and 7 are the only "content" symbols; EOS completes sequences
FORBID = tuple(i for i in range(8) if i not in (EOS, 6, 7))


def full_space_size(max_len: int) -> int:
    # EOS-terminated sequences of content length < max_len, plus all
    # content-only sequences of exactly max_len
    return sum(2**n for n in range(max_len)) + 2**max_len


@pytest.mark.parametrize("seed", range(8))
def test_beam_with_full_width_equals_exhaustive(seed):
    scorer = ToyScorer([seed])
    max_len = 4
    k = full_space_size(max_len)
    [beam] = beam_search(scorer, k=k, max_len=max_len, forbidden=FORBID)
    oracle = exhaustive_top_k(scorer, k=k, max_len=max_len, forbidden=FORBID)
    assert len(beam) == len(oracle) == k
    assert [c.tokens for c in beam] == [c.tokens for c in oracle]
    for ours, theirs in zip(beam, oracle):
        assert ours.log_prob == pytest.approx(theirs.log_prob, abs=1e-12)
        assert ours.rank == theirs.rank


@pytest.mark.parametrize("seed", range(100))
def test_beam_k1_equals_greedy(seed):
    scorer = ToyScorer([seed + 1000])
    max_len = 5
    [[candidate]] = beam_search(scorer, k=1, max_len=max_len, forbidden=FORBID)
    tokens = []
    while len(tokens) < max_len:
        row = scorer.step_logprobs([[tokens]])[0].copy()
        row[list(FORBID)] = -np.inf
        best = int(np.argmax(row))
        tokens.append(best)
        if best == EOS:
            break
    assert candidate.tokens == tuple(tokens)


def test_log_probs_non_increasing_and_ranks_contiguous():
    scorer = ToyScorer([3])
    [results] = beam_search(scorer, k=10, max_len=4, forbidden=FORBID)
    probs = [c.log_prob for c in results]
    assert probs == sorted(probs, reverse=True)
    assert [c.rank for c in results] == list(range(1, len(results) + 1))


def test_candidates_unique():
    scorer = ToyScorer([4])
    [results] = beam_search(scorer, k=25, max_len=4, forbidden=FORBID)
    assert len({c.tokens for c in results}) == len(results)


def test_every_candidate_ends_with_eos_or_hits_max_len():
    scorer = ToyScorer([5])
    for candidate in beam_search(scorer, k=12, max_len=3, forbidden=FORBID)[0]:
        assert candidate.tokens[-1] == EOS or len(candidate.tokens) == 3


def test_forbidden_tokens_never_appear():
    scorer = ToyScorer([6])
    for candidate in beam_search(scorer, k=20, max_len=4, forbidden=FORBID)[0]:
        assert PAD not in candidate.tokens
        assert BOS not in candidate.tokens


def test_content_tokens_strip_trailing_eos():
    scorer = ToyScorer([7])
    done = [c for c in beam_search(scorer, k=5, max_len=4, forbidden=FORBID)[0] if c.tokens[-1] == EOS]
    assert done
    for candidate in done:
        assert candidate.content_tokens == candidate.tokens[:-1]


@pytest.mark.parametrize("k", [1, 3, 10, 100])
def test_each_source_searches_as_if_alone(k):
    # sources finish at different steps; every source's beams are those of
    # a search over it alone, whatever its batch-mates and their order
    seeds = [11, 12, 13, 14, 15]
    alone = {seed: beam_search_one_source(ToyScorer([seed]), k=k, max_len=5, forbidden=FORBID) for seed in seeds}
    for order in (seeds, seeds[::-1], seeds[2:] + seeds[:2]):
        assert beam_search(ToyScorer(order), k=k, max_len=5, forbidden=FORBID) == [alone[s] for s in order]


def test_one_scorer_call_per_step_over_every_live_source():
    calls = []
    scorer = ToyScorer([21, 22, 23])
    step = scorer.step_logprobs
    scorer.step_logprobs = lambda prefixes: calls.append([len(batch) for batch in prefixes]) or step(prefixes)
    results = beam_search(scorer, k=4, max_len=5, forbidden=FORBID)
    assert 1 < len(calls) <= 5 and calls[0] == [1, 1, 1]
    assert all(any(batch) for batch in calls)
    # a source drops out once its pool is all EOS, and never comes back
    for source, candidates in enumerate(results):
        live = [batch[source] > 0 for batch in calls]
        assert live == sorted(live, reverse=True)
        if not all(live):
            assert all(c.tokens[-1] == EOS for c in candidates)


def test_invalid_arguments():
    scorer = ToyScorer([0])
    with pytest.raises(ValueError):
        beam_search(scorer, k=0, max_len=3)
    with pytest.raises(ValueError):
        beam_search(scorer, k=1, max_len=0)
