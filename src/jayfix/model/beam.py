"""Beam-search decoding, every source at once.

One search decodes a batch of sources. Each source keeps its own pool:
the K best partial sequences by total log-probability, and finished
beams (those that emitted EOS), which stay in the pool with frozen
scores. A source stops exactly when every surviving beam of its pool
has finished, or when max_len is reached, whichever comes first.
Candidates are ranked by log-probability with a lexicographic
token-order tie-break, so results are fully deterministic. There is no
length penalty. Each step scores the live prefixes of every unfinished
source in one scorer call, so a search makes at most max_len calls
however many sources it decodes.

With K at least the size of the full sequence space nothing is ever
pruned, so a source's result equals exhaustive top-K enumeration; with
K=1 the result is greedy decoding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

import numpy as np

from ..representation import BOS, EOS, PAD


class Scorer(Protocol):
    """Anything that can score next tokens for batches of prefixes, one
    batch per source. `step_logprobs(prefixes)` takes each source's
    prefixes, `prefixes[s]` (empty for a source that is done), and
    returns a (rows, V) array: the rows of source 0's prefixes, then
    source 1's, and so on."""

    @property
    def vocab_size(self) -> int: ...

    @property
    def n_sources(self) -> int: ...

    def step_logprobs(self, prefixes: list[list[list[int]]]) -> np.ndarray: ...


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
) -> list[list[BeamCandidate]]:
    """For each source, up to K candidates, sorted by log-probability
    (ties broken by token order). Each candidate either ends with EOS or
    has max_len tokens."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    sources = range(scorer.n_sources)
    alive: list[list[tuple[tuple[int, ...], float]]] = [[((), 0.0)] for _ in sources]
    finished: list[list[tuple[tuple[int, ...], float]]] = [[] for _ in sources]
    for _ in range(max_len):
        if not any(alive):
            break  # every source's K surviving beams have emitted EOS
        logprobs = scorer.step_logprobs([[list(tokens) for tokens, _ in pool] for pool in alive])
        scores = np.asarray([score for pool in alive for _, score in pool])[:, None] + logprobs
        scores[:, list(forbidden)] = -np.inf
        start = 0
        for source in sources:
            if not alive[source]:
                continue
            rows = scores[start : start + len(alive[source])]
            start += len(alive[source])
            pool = finished[source] + _top_extensions(alive[source], rows, k)
            pool.sort(key=_sort_key)
            pool = pool[:k]
            finished[source] = [entry for entry in pool if entry[0][-1] == EOS]
            alive[source] = [entry for entry in pool if entry[0][-1] != EOS]
    return [
        [
            BeamCandidate(tokens=tokens, log_prob=log_prob, rank=i + 1)
            for i, (tokens, log_prob) in enumerate(sorted(finished[source] + alive[source], key=_sort_key)[:k])
        ]
        for source in sources
    ]
