"""Test-only helpers with no caller in `src/`: a seeded toy scorer, the
per-source beam search and a brute-force top-K as oracles, the tape ops
`mul` and `softmax` and the unfused attention chain built from them as
the oracle of `tape.attention`, the padded teacher-forced model as the
oracle of the packed one, a compile check, a region's text, a
corruption-rule lookup, repair tasks built from mechanical bugs, and
malformed test suites."""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from jayfix.corpus import CorpusEntry
from jayfix.evaluate import RepairTask
from jayfix.mechanical import DEFAULT_RULES, CorruptionRule, MechanicalBug
from jayfix.minilang import SourceProgram, Span, analyze
from jayfix.model import BeamCandidate, Seq2SeqModel, tape
from jayfix.model.beam import Scorer, _top_extensions
from jayfix.model.transformer import NEG_INF
from jayfix.representation import BOS, EOS, PAD


class ToyScorer:
    """Deterministic fake model over a tiny vocabulary, one seed per
    source: the next-token distribution depends only on (seed, prefix)."""

    def __init__(self, seeds: Sequence[int], vocab_size: int = 8):
        self.seeds = list(seeds)
        self.vocab_size = vocab_size

    @property
    def n_sources(self) -> int:
        return len(self.seeds)

    def step_logprobs(self, prefixes):
        rows = []
        for seed, batch in zip(self.seeds, prefixes, strict=True):
            for prefix in batch:
                rng = np.random.default_rng([seed, len(prefix) + 1, *(t + 1 for t in prefix)])
                logits = 2.0 * rng.normal(size=self.vocab_size)
                shifted = logits - logits.max()
                rows.append(shifted - np.log(np.exp(shifted).sum()))
        return np.asarray(rows)


def _sort_key(entry: tuple[tuple[int, ...], float]):
    tokens, log_prob = entry
    return (-log_prob, tokens)


def beam_search_one_source(
    scorer: Scorer,
    k: int,
    max_len: int,
    forbidden: tuple[int, ...] = (PAD, BOS),
) -> list[BeamCandidate]:
    """Beam search over a one-source scorer, one source per search: the
    oracle for `beam_search`, which decodes every source at once."""
    assert scorer.n_sources == 1
    alive: list[tuple[tuple[int, ...], float]] = [((), 0.0)]
    finished: list[tuple[tuple[int, ...], float]] = []
    for _ in range(max_len):
        if not alive:
            break
        logprobs = scorer.step_logprobs([[list(tokens) for tokens, _ in alive]])
        scores = np.asarray([score for _, score in alive])[:, None] + logprobs
        for token_id in forbidden:
            scores[:, token_id] = -np.inf
        pool = list(finished) + _top_extensions(alive, scores, k)
        pool.sort(key=_sort_key)
        pool = pool[:k]
        finished = [entry for entry in pool if entry[0][-1] == EOS]
        alive = [entry for entry in pool if entry[0][-1] != EOS]
    results = sorted(finished + alive, key=_sort_key)[:k]
    return [
        BeamCandidate(tokens=tokens, log_prob=log_prob, rank=i + 1)
        for i, (tokens, log_prob) in enumerate(results)
    ]


def exhaustive_top_k(
    scorer: Scorer,
    k: int,
    max_len: int,
    forbidden: tuple[int, ...] = (PAD, BOS),
) -> list[BeamCandidate]:
    """Brute-force oracle over a one-source scorer: enumerate every
    complete sequence up to max_len (EOS-terminated, or EOS-free at
    exactly max_len) and rank them all. Only viable for toy
    vocabularies."""
    assert scorer.n_sources == 1
    complete: list[tuple[tuple[int, ...], float]] = []

    def expand(prefix: tuple[int, ...], score: float) -> None:
        if len(prefix) == max_len:
            complete.append((prefix, score))
            return
        row = scorer.step_logprobs([[list(prefix)]])[0]
        for token_id in range(scorer.vocab_size):
            if token_id in forbidden:
                continue
            extended = prefix + (token_id,)
            extended_score = score + float(row[token_id])
            if token_id == EOS:
                complete.append((extended, extended_score))
            else:
                expand(extended, extended_score)

    expand((), 0.0)
    # the order beam_search promises: log-probability, ties by token order
    complete.sort(key=lambda entry: (-entry[1], entry[0]))
    return [
        BeamCandidate(tokens=tokens, log_prob=log_prob, rank=i + 1)
        for i, (tokens, log_prob) in enumerate(complete[:k])
    ]


# --- the unfused attention chain ------------------------------------------------
#
# `tape.attention` as it ran before it was one node: matmul, mul by the
# scale, softmax under the additive mask, dropout, matmul, each its own
# tape node keeping its own output (and dropout its float keep factor).


def mul(a: tape.Tensor, b) -> tape.Tensor:
    b_data = tape._as_array(b)
    a_data = a.data
    out_data = a_data * b_data
    a_node = a.node
    b_node = b.node if isinstance(b, tape.Tensor) else None

    def backward(grad: np.ndarray) -> None:
        if a_node is not None:
            a_node.accumulate(tape._unbroadcast(grad * b_data, a_data.shape))
        if b_node is not None:
            b_node.accumulate(tape._unbroadcast(grad * a_data, b_data.shape))

    parents = (a, b) if isinstance(b, tape.Tensor) else (a,)
    return tape._make(out_data, parents, backward)


def softmax(x: tape.Tensor, additive_mask: Optional[np.ndarray] = None) -> tape.Tensor:
    scores = x.data if additive_mask is None else x.data + additive_mask
    scores = scores - scores.max(axis=-1, keepdims=True)
    exp = np.exp(scores)
    out_data = exp / exp.sum(axis=-1, keepdims=True)
    x_node = x.node

    def backward(grad: np.ndarray) -> None:
        dot = (grad * out_data).sum(axis=-1, keepdims=True)
        x_node.accumulate((grad - dot) * out_data)

    return tape._make(out_data, (x,), backward)


def unfused_attention(q, k, v, scale, additive_mask, p, rng, train) -> tape.Tensor:
    """`tape.attention` as a chain of five tape ops."""
    scores = mul(tape.matmul(q, tape.transpose(k, (0, 1, 3, 2))), scale)
    weights = tape.dropout(softmax(scores, additive_mask), p, rng, train)
    return tape.matmul(weights, v)


# --- the padded model -----------------------------------------------------------
#
# `Seq2SeqModel.encode`, `decode` and `loss` as they ran before they
# packed their rows: every position-wise layer over the whole padded
# grid (B, L, D), PAD positions included, with the masks discarding
# them afterwards, and attention as the unfused chain. The parameters
# are the model's own.


def _padded_attention(model: Seq2SeqModel, prefix, query, key_value, mask, train, rng):
    c = model.config
    q, k, v = (model._project(prefix, name, x) for name, x in
               (("wq", query), ("wk", key_value), ("wv", key_value)))
    scale = 1.0 / np.sqrt(c.d_model // c.n_heads)
    context = tape.transpose(unfused_attention(q, k, v, scale, mask, c.dropout, rng, train), (0, 2, 1, 3))
    context = tape.reshape(context, (q.shape[0], q.shape[2], c.d_model))
    return tape.matmul(context, model.params[f"{prefix}.wo"])


def _padded_embed(model: Seq2SeqModel, prefix: str, ids: np.ndarray, train, rng):
    x = tape.add(
        tape.embedding(model.params[f"{prefix}.tok_emb"], ids),
        tape.embedding(model.params[f"{prefix}.pos_emb"], np.arange(ids.shape[1])),
    )
    return tape.dropout(x, model.config.dropout, rng, train)


def padded_encode(model: Seq2SeqModel, src_ids: np.ndarray, train=False, rng=None) -> tape.Tensor:
    """Encoder memory over the padded grid, (B, S, D)."""
    c = model.config
    x = _padded_embed(model, "enc", src_ids, train, rng)
    mask = model.pad_mask(src_ids)
    for i in range(c.n_encoder_layers):
        normed = model._ln(f"enc.{i}.ln1", x)
        attn = _padded_attention(model, f"enc.{i}.self", normed, normed, mask, train, rng)
        x = tape.add(x, tape.dropout(attn, c.dropout, rng, train))
        ffn = model._ffn(f"enc.{i}.ffn", model._ln(f"enc.{i}.ln2", x), train, rng)
        x = tape.add(x, tape.dropout(ffn, c.dropout, rng, train))
    return model._ln("enc.ln_final", x)


def padded_decode(model: Seq2SeqModel, memory, src_ids, tgt_in_ids, train=False, rng=None) -> tape.Tensor:
    """Decoder logits over the padded grid, (B, T, V)."""
    c = model.config
    t = tgt_in_ids.shape[1]
    y = _padded_embed(model, "dec", tgt_in_ids, train, rng)
    causal = np.triu(np.full((t, t), NEG_INF, dtype=tape.DTYPE), k=1)[None, None, :, :]
    self_mask = causal + model.pad_mask(tgt_in_ids)
    cross_mask = model.pad_mask(src_ids)
    for i in range(c.n_decoder_layers):
        normed = model._ln(f"dec.{i}.ln1", y)
        attn = _padded_attention(model, f"dec.{i}.self", normed, normed, self_mask, train, rng)
        y = tape.add(y, tape.dropout(attn, c.dropout, rng, train))
        cross = _padded_attention(model, f"dec.{i}.cross", model._ln(f"dec.{i}.ln2", y), memory,
                                  cross_mask, train, rng)
        y = tape.add(y, tape.dropout(cross, c.dropout, rng, train))
        ffn = model._ffn(f"dec.{i}.ffn", model._ln(f"dec.{i}.ln3", y), train, rng)
        y = tape.add(y, tape.dropout(ffn, c.dropout, rng, train))
    y = model._ln("dec.ln_final", y)
    return tape.add(tape.matmul(y, model.params["out.w"]), model.params["out.b"])


def padded_loss(model: Seq2SeqModel, src_ids, tgt_in_ids, tgt_out_ids, train=True, rng=None) -> tape.Tensor:
    logits = padded_decode(model, padded_encode(model, src_ids, train, rng), src_ids, tgt_in_ids, train, rng)
    return tape.cross_entropy(logits, tgt_out_ids, tgt_out_ids != PAD)


def compiles(source: SourceProgram | str) -> bool:
    ast, diagnostics = analyze(source)
    return ast is not None and not diagnostics


def region_text(text: str, span: Span) -> str:
    lines = text.split("\n")
    if span.end_line > len(lines):
        raise ValueError(f"span {span} outside file of {len(lines)} lines")
    return "\n".join(lines[span.start_line - 1 : span.end_line])


def rule_by_id(rule_id: str) -> CorruptionRule:
    for rule in DEFAULT_RULES:
        if rule.id == rule_id:
            return rule
    raise KeyError(rule_id)


def tasks_from_mechanical_bugs(
    bugs: Sequence[MechanicalBug], entries: Sequence[CorpusEntry]
) -> list[RepairTask]:
    """Held-out evaluation tasks built from mechanical corruptions of
    correct seeds; the base program is the reference fix."""
    by_name = {entry.name: entry for entry in entries}
    tasks = []
    for bug in bugs:
        base = by_name[bug.base_name]
        tasks.append(
            RepairTask(
                name=f"{bug.base_name}#{bug.rule_id}@{bug.anchor_span}",
                buggy=bug.mutant,
                fault_span=bug.mutant_region,
                suite=base.suite,
                reference=base.program,
                reference_ast=base.ast,
            )
        )
    return tasks


# `.tests.json` contents that are not a suite, each a CorpusError from `load_suite`
MALFORMED_SUITES = {
    "not JSON": "{not json",
    "a case without args": '[{"id": "t", "entry": "f"}]',
    "a case that is not an object": "[1]",
    "args that are not an array": '[{"id": "t", "entry": "f", "args": 5, "expect": 1}]',
    "args that are a string": '[{"id": "t", "entry": "f", "args": "ab", "expect": 1}]',
    "a string arg": '[{"id": "t", "entry": "f", "args": ["a"], "expect": 1}]',
    "an array arg holding a string": '[{"id": "t", "entry": "f", "args": [[1, "z"]], "expect": 1}]',
    "an array arg holding a bool": '[{"id": "t", "entry": "f", "args": [[true]], "expect": 1}]',
    "an arg beyond int64": '[{"id": "t", "entry": "f", "args": [9223372036854775808], "expect": 1}]',
    "a string expect": '[{"id": "t", "entry": "f", "args": [], "expect": "x"}]',
    "duplicate case ids": '[{"id": "t", "entry": "f", "args": [], "expect": 1}, '
    '{"id": "t", "entry": "f", "args": [], "expect": 1}]',
}
