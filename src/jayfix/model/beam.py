"""Beam-search decoding.

Keeps the K best partial sequences by total log-probability. Finished
beams (those that emitted EOS) stay in the pool with frozen scores;
decoding stops exactly when every surviving beam has finished, or when
max_len is reached, whichever comes first. Candidates are ranked by
log-probability with a lexicographic token-order tie-break, so results
are fully deterministic. There is no length penalty.

With K at least the size of the full sequence space nothing is ever
pruned, so the result equals exhaustive top-K enumeration; with K=1 the
result is greedy decoding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

import numpy as np

from ..representation import BOS, EOS, PAD


class Scorer(Protocol):
    """Anything that can score next tokens for a batch of prefixes."""

    @property
    def vocab_size(self) -> int: ...

    def step_logprobs(self, prefixes: list[list[int]]) -> np.ndarray: ...


@dataclass(frozen=True)
class BeamCandidate:
    tokens: tuple[int, ...]  # includes the trailing EOS when one was emitted
    log_prob: float
    rank: int

    @property
    def content_tokens(self) -> tuple[int, ...]:
        return self.tokens[:-1] if self.tokens and self.tokens[-1] == EOS else self.tokens


def _sort_key(entry: tuple[tuple[int, ...], float]):
    tokens, log_prob = entry
    return (-log_prob, tokens)


def _top_extensions(
    alive: list[tuple[tuple[int, ...], float]], scores: np.ndarray, k: int
) -> list[tuple[tuple[int, ...], float]]:
    """The k best (prefix + token) extensions by score, materialized as
    tuples. Every extension tied with the k-th score is included so the
    caller's lexicographic tie-break stays exact."""
    flat = scores.ravel()
    finite = np.flatnonzero(np.isfinite(flat))
    if finite.size > k:
        kth_value = np.partition(flat[finite], finite.size - k)[finite.size - k]
        chosen = finite[flat[finite] >= kth_value]
    else:
        chosen = finite
    vocab = scores.shape[1]
    out = []
    for index in chosen.tolist():
        beam_index, token_id = divmod(index, vocab)
        tokens, _ = alive[beam_index]
        out.append((tokens + (token_id,), float(flat[index])))
    return out


def beam_search(
    scorer: Scorer,
    k: int,
    max_len: int,
    forbidden: tuple[int, ...] = (PAD, BOS),
) -> list[BeamCandidate]:
    """Up to K candidates, sorted by log-probability (ties broken by
    token order). Each candidate either ends with EOS or has max_len
    tokens."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    alive: list[tuple[tuple[int, ...], float]] = [((), 0.0)]
    finished: list[tuple[tuple[int, ...], float]] = []
    for _ in range(max_len):
        if not alive:
            break
        logprobs = scorer.step_logprobs([list(tokens) for tokens, _ in alive])
        scores = np.asarray([score for _, score in alive])[:, None] + logprobs
        for token_id in forbidden:
            scores[:, token_id] = -np.inf
        pool = list(finished) + _top_extensions(alive, scores, k)
        pool.sort(key=_sort_key)
        pool = pool[:k]
        finished = [entry for entry in pool if entry[0][-1] == EOS]
        alive = [entry for entry in pool if entry[0][-1] != EOS]
        if not alive:
            break  # all K surviving beams have emitted EOS
    results = sorted(finished + alive, key=_sort_key)[:k]
    return [
        BeamCandidate(tokens=tokens, log_prob=log_prob, rank=i + 1)
        for i, (tokens, log_prob) in enumerate(results)
    ]

