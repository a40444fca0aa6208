"""Encoder-decoder transformer built on the tape module.

Pre-norm residual blocks, learned positional embeddings, multi-head
attention, ReLU feed-forward, untied output projection. Two instances
of this class play the fixer and breaker roles; they share architecture
and never weights.

Teacher-forced passes (`encode`, `decode`, `loss`) compute on real
tokens only: the embeddings, layer norms, projections, feed-forward
layers, residual adds, output projection and cross-entropy run on
packed rows, one per non-PAD source token and one per target position
up to and including EOS. Attention runs on the padded (B, H, L, Dh)
grid under the PAD and causal masks. (ByteTransformer, Zhai et al.,
IPDPS 2023, lays out a transformer the same way.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..representation import BOS, PAD
from . import tape
from .tape import Tensor

NEG_INF = -1e9


@dataclass(frozen=True)
class ModelConfig:
    d_model: int = 128
    d_ff: int = 512
    n_heads: int = 4
    n_encoder_layers: int = 2
    n_decoder_layers: int = 2
    dropout: float = 0.1
    vocab_size: int = 512
    max_src_len: int = 256
    max_tgt_len: int = 64
    seed: int = 0

    def __post_init__(self) -> None:
        if min(self.d_model, self.d_ff, self.n_heads, self.n_encoder_layers,
               self.n_decoder_layers, self.vocab_size) < 1:
            raise ValueError("all model dimensions must be >= 1")
        if self.d_model % self.n_heads != 0:
            raise ValueError("d_model must be divisible by n_heads")

    @classmethod
    def desk(cls, vocab_size: int, **overrides) -> "ModelConfig":
        """Default desk-scale configuration (~1M parameters)."""
        return cls(vocab_size=vocab_size, **overrides)

    @classmethod
    def tiny(cls, vocab_size: int, **overrides) -> "ModelConfig":
        """Small configuration for smoke runs and acceptance pipelines."""
        base = dict(d_model=64, d_ff=128, n_heads=2, n_encoder_layers=1,
                    n_decoder_layers=1, dropout=0.0, vocab_size=vocab_size)
        base.update(overrides)
        return cls(**base)


class Seq2SeqModel:
    """One trainable sequence-to-sequence network."""

    def __init__(self, config: ModelConfig, arrays: Optional[dict[str, np.ndarray]] = None):
        """Parameters drawn from `config.seed`, or, given `arrays` (named
        and shaped as `state_arrays` returns them), those arrays with no
        random draw."""
        self.config = config
        self.step = 0
        self.params: dict[str, Tensor] = {}
        if arrays is not None:
            self.load_state_arrays(arrays)
            return
        rng = np.random.default_rng(config.seed)
        for name, (shape, fill) in self._layout().items():
            # drawn in float64 and cast once to tape.DTYPE, so the initial
            # parameters are a function of the seed and the dtype alone
            array = rng.normal(0.0, 0.02, size=shape) if fill is None else np.full(shape, fill)
            self.params[name] = Tensor(array, requires_grad=True)

    # --- parameters ---

    def _layout(self) -> dict[str, tuple[tuple[int, ...], Optional[float]]]:
        """Each parameter's shape and initial fill value (None: drawn from
        the seeded generator), in the order they are drawn and stored."""
        c = self.config
        d = c.d_model
        layout: dict[str, tuple[tuple[int, ...], Optional[float]]] = {
            "enc.tok_emb": ((c.vocab_size, d), None),
            "enc.pos_emb": ((c.max_src_len, d), None),
            "dec.tok_emb": ((c.vocab_size, d), None),
            "dec.pos_emb": ((c.max_tgt_len + 1, d), None),
        }

        def attention(prefix: str) -> None:
            for name in ("wq", "wk", "wv", "wo"):
                layout[f"{prefix}.{name}"] = ((d, d), None)

        def ffn(prefix: str) -> None:
            layout[f"{prefix}.w1"] = ((d, c.d_ff), None)
            layout[f"{prefix}.b1"] = ((c.d_ff,), 0.0)
            layout[f"{prefix}.w2"] = ((c.d_ff, d), None)
            layout[f"{prefix}.b2"] = ((d,), 0.0)

        def ln(*prefixes: str) -> None:
            for prefix in prefixes:
                layout[f"{prefix}.g"] = ((d,), 1.0)
                layout[f"{prefix}.b"] = ((d,), 0.0)

        for i in range(c.n_encoder_layers):
            attention(f"enc.{i}.self")
            ffn(f"enc.{i}.ffn")
            ln(f"enc.{i}.ln1", f"enc.{i}.ln2")
        ln("enc.ln_final")
        for i in range(c.n_decoder_layers):
            attention(f"dec.{i}.self")
            attention(f"dec.{i}.cross")
            ffn(f"dec.{i}.ffn")
            ln(f"dec.{i}.ln1", f"dec.{i}.ln2", f"dec.{i}.ln3")
        ln("dec.ln_final")
        layout["out.w"] = ((d, c.vocab_size), None)
        layout["out.b"] = ((c.vocab_size,), 0.0)
        return layout

    def n_parameters(self) -> int:
        return sum(p.data.size for p in self.params.values())

    def state_arrays(self) -> dict[str, np.ndarray]:
        return {name: p.data.copy() for name, p in self.params.items()}

    def load_state_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        """Copy `arrays` into the parameters, cast to tape.DTYPE, after
        checking their names and shapes against the config's."""
        layout = self._layout()
        if set(arrays) != set(layout):
            missing = set(layout) ^ set(arrays)
            raise ValueError(f"parameter name mismatch: {sorted(missing)}")
        for name, array in arrays.items():
            if array.shape != layout[name][0]:
                raise ValueError(f"shape mismatch for {name}")
        for name in layout:
            data = np.array(arrays[name], dtype=tape.DTYPE)
            if name in self.params:
                self.params[name].data = data
            else:
                self.params[name] = Tensor(data, requires_grad=True)

    # --- building blocks ---
    #
    # `rows` (a `tape.Rows`) places packed rows (N, D) in their padded
    # grid; with `rows` None a tensor is the whole grid, (B, L, D), as in
    # `decode_step`.

    def _project(self, prefix: str, name: str, x: Tensor, rows: Optional[tape.Rows] = None) -> Tensor:
        """Heads (B, H, L, Dh) of x's projection."""
        c = self.config
        y = tape.matmul(x, self.params[f"{prefix}.{name}"])
        heads = (c.n_heads, c.d_model // c.n_heads)
        if rows is None:
            y = tape.reshape(y, y.shape[:2] + heads)
        else:
            y = tape.scatter_rows(tape.reshape(y, (len(rows),) + heads), rows)
        return tape.transpose(y, (0, 2, 1, 3))

    def _attend(
        self,
        prefix: str,
        q: Tensor,
        k: Tensor,
        v: Tensor,
        additive_mask: Optional[np.ndarray],
        train: bool,
        rng: Optional[np.random.Generator],
        rows: Optional[tape.Rows] = None,
    ) -> Tensor:
        """Attention over projected heads, (B, H, Lq, Dh) queries against
        (B, H, Lk, Dh) keys and values, through the output projection of
        the queries' `rows`."""
        c = self.config
        batch, q_len = q.shape[0], q.shape[2]
        d_head = c.d_model // c.n_heads
        context = tape.attention(q, k, v, 1.0 / np.sqrt(d_head), additive_mask, c.dropout, rng, train)
        context = tape.transpose(context, (0, 2, 1, 3))
        if rows is None:
            context = tape.reshape(context, (batch, q_len, c.d_model))
        else:
            context = tape.reshape(tape.gather_rows(context, rows), (len(rows), c.d_model))
        return tape.matmul(context, self.params[f"{prefix}.wo"])

    def _attention(
        self,
        prefix: str,
        query: Tensor,
        query_rows: tape.Rows,
        key_value: Tensor,
        key_rows: tape.Rows,
        additive_mask: np.ndarray,
        train: bool,
        rng: Optional[np.random.Generator],
    ) -> Tensor:
        q = self._project(prefix, "wq", query, query_rows)
        k = self._project(prefix, "wk", key_value, key_rows)
        v = self._project(prefix, "wv", key_value, key_rows)
        return self._attend(prefix, q, k, v, additive_mask, train, rng, query_rows)

    def _ffn(self, prefix: str, x: Tensor, train: bool, rng, rows: Optional[tape.Rows] = None) -> Tensor:
        hidden = tape.relu(tape.add(tape.matmul(x, self.params[f"{prefix}.w1"]), self.params[f"{prefix}.b1"]))
        hidden = tape.dropout(hidden, self.config.dropout, rng, train, rows)
        return tape.add(tape.matmul(hidden, self.params[f"{prefix}.w2"]), self.params[f"{prefix}.b2"])

    def _ln(self, prefix: str, x: Tensor) -> Tensor:
        return tape.layer_norm(x, self.params[f"{prefix}.g"], self.params[f"{prefix}.b"])

    def _embed(self, prefix: str, ids: np.ndarray, rows: tape.Rows) -> Tensor:
        """Token plus position embeddings of the packed rows."""
        return tape.add(
            tape.embedding(self.params[f"{prefix}.tok_emb"], ids[rows.batch, rows.position]),
            tape.embedding(self.params[f"{prefix}.pos_emb"], rows.position),
        )

    # --- encoder / decoder ---

    def encode(self, src_ids: np.ndarray, train: bool = False, rng=None) -> Tensor:
        """Encoder memory (N, D): a row per non-PAD source token, in
        row-major order (`source_rows`)."""
        c = self.config
        src_ids = np.asarray(src_ids, dtype=np.int64)
        if src_ids.ndim != 2:
            raise ValueError("src_ids must be (batch, length)")
        if src_ids.shape[1] > c.max_src_len:
            raise ValueError(f"source length {src_ids.shape[1]} exceeds {c.max_src_len}")
        if src_ids.size and src_ids.max() >= c.vocab_size:
            raise ValueError("token id out of range")
        rows = self.source_rows(src_ids)
        x = tape.dropout(self._embed("enc", src_ids, rows), c.dropout, rng, train, rows)
        mask = self.pad_mask(src_ids)
        for i in range(c.n_encoder_layers):
            normed = self._ln(f"enc.{i}.ln1", x)
            attn = self._attention(f"enc.{i}.self", normed, rows, normed, rows, mask, train, rng)
            x = tape.add(x, tape.dropout(attn, c.dropout, rng, train, rows))
            ffn = self._ffn(f"enc.{i}.ffn", self._ln(f"enc.{i}.ln2", x), train, rng, rows)
            x = tape.add(x, tape.dropout(ffn, c.dropout, rng, train, rows))
        return self._ln("enc.ln_final", x)

    def decode(
        self,
        memory: Tensor,
        src_ids: np.ndarray,
        tgt_in_ids: np.ndarray,
        lengths: np.ndarray,
        train: bool = False,
        rng=None,
    ) -> Tensor:
        """Teacher-forced decoder logits (N, V) given encoder memory: a row
        per position t < lengths[b] of each target row b, in row-major
        order. A PAD token inside those positions keeps its row and, as a
        key, is masked."""
        c = self.config
        tgt_in_ids = np.asarray(tgt_in_ids, dtype=np.int64)
        lengths = np.asarray(lengths, dtype=np.int64)
        if tgt_in_ids.ndim != 2:
            raise ValueError("tgt_in_ids must be (batch, length)")
        t = tgt_in_ids.shape[1]
        if t > c.max_tgt_len + 1:
            raise ValueError(f"target length {t} exceeds {c.max_tgt_len + 1}")
        if lengths.shape != tgt_in_ids.shape[:1] or lengths.min(initial=0) < 0 or lengths.max(initial=0) > t:
            raise ValueError("lengths must be one per target row, each in [0, length]")
        if tgt_in_ids.size and tgt_in_ids.max() >= c.vocab_size:
            raise ValueError("token id out of range")
        rows = tape.Rows(np.arange(t) < lengths[:, None])
        src_rows = self.source_rows(np.asarray(src_ids))
        if memory.shape[0] != len(src_rows):
            raise ValueError(f"memory has {memory.shape[0]} rows for {len(src_rows)} source tokens")
        y = tape.dropout(self._embed("dec", tgt_in_ids, rows), c.dropout, rng, train, rows)
        causal = np.triu(np.full((t, t), NEG_INF, dtype=tape.DTYPE), k=1)[None, None, :, :]
        self_mask = causal + self.pad_mask(tgt_in_ids)
        cross_mask = self.pad_mask(src_ids)
        for i in range(c.n_decoder_layers):
            normed = self._ln(f"dec.{i}.ln1", y)
            attn = self._attention(f"dec.{i}.self", normed, rows, normed, rows, self_mask, train, rng)
            y = tape.add(y, tape.dropout(attn, c.dropout, rng, train, rows))
            normed = self._ln(f"dec.{i}.ln2", y)
            cross = self._attention(f"dec.{i}.cross", normed, rows, memory, src_rows, cross_mask, train, rng)
            y = tape.add(y, tape.dropout(cross, c.dropout, rng, train, rows))
            ffn = self._ffn(f"dec.{i}.ffn", self._ln(f"dec.{i}.ln3", y), train, rng, rows)
            y = tape.add(y, tape.dropout(ffn, c.dropout, rng, train, rows))
        y = self._ln("dec.ln_final", y)
        return tape.add(tape.matmul(y, self.params["out.w"]), self.params["out.b"])

    def cross_attention_kv(self, memory: Tensor, src_ids: np.ndarray) -> list[tuple[Tensor, Tensor]]:
        """Each decoder layer's cross-attention keys and values over the
        encoder memory of `src_ids`, (B, H, S, Dh) with zeros at PAD, for
        `decode_step`."""
        rows = self.source_rows(src_ids)
        return [
            tuple(self._project(f"dec.{i}.cross", name, memory, rows) for name in ("wk", "wv"))
            for i in range(self.config.n_decoder_layers)
        ]

    def decode_step(
        self,
        tgt_ids: np.ndarray,
        cache: list[tuple[np.ndarray, np.ndarray]],
        self_mask: np.ndarray,
        cross_kv: list[tuple[Tensor, Tensor]],
        cross_mask: np.ndarray,
        sources: np.ndarray,
    ) -> np.ndarray:
        """Eval-mode decoder logits (B, V) at one new target position T.

        tgt_ids (B,) are the tokens at T. cache holds each layer's
        self-attention keys and values, position-major (T + 1, B, H, Dh):
        the caller fills positions < T and this step writes position T.
        self_mask (B, 1, 1, T + 1) is the additive mask over the same
        positions. cross_kv holds each layer's cross-attention keys and
        values over N sources, (N, H, S, Dh) (`cross_attention_kv`), and
        cross_mask (N, 1, 1, S) hides their PAD positions. Row b decodes
        against source sources[b]; rows come grouped by source, in
        source order. Cross-attention lays the queries out as
        (N, H, R, Dh), R the most rows any source has, with zero queries
        in the slots of a source that has fewer (or none, once it is
        done): a single source is one sequence of B query positions.
        """
        c = self.config
        tgt_ids = np.asarray(tgt_ids, dtype=np.int64)
        batch, position = tgt_ids.shape[0], cache[0][0].shape[0] - 1
        if position > c.max_tgt_len:
            raise ValueError(f"target length {position + 1} exceeds {c.max_tgt_len + 1}")
        n_sources = cross_mask.shape[0]
        counts = np.bincount(sources, minlength=n_sources)
        width = int(counts.max())
        # each row's slot in the (N * R) query grid: its source's R slots, in row order
        slots = sources * width + np.arange(batch) - (np.cumsum(counts) - counts)[sources]
        y = tape.add(
            tape.embedding(self.params["dec.tok_emb"], tgt_ids[:, None]),
            tape.embedding(self.params["dec.pos_emb"], np.asarray([position])),
        )
        for i, (keys, values) in enumerate(cache):
            prefix = f"dec.{i}.self"
            normed = self._ln(f"dec.{i}.ln1", y)
            keys[position] = self._project(prefix, "wk", normed).data[:, :, 0]
            values[position] = self._project(prefix, "wv", normed).data[:, :, 0]
            k, v = Tensor(keys.transpose(1, 2, 0, 3)), Tensor(values.transpose(1, 2, 0, 3))
            y = tape.add(y, self._attend(prefix, self._project(prefix, "wq", normed), k, v, self_mask, False, None))
            prefix = f"dec.{i}.cross"
            queries = np.zeros((n_sources * width, c.d_model), dtype=tape.DTYPE)
            queries[slots] = self._ln(f"dec.{i}.ln2", y).data[:, 0]
            k, v = cross_kv[i]
            q = self._project(prefix, "wq", Tensor(queries.reshape(n_sources, width, c.d_model)))
            cross = self._attend(prefix, q, k, v, cross_mask, False, None).data.reshape(-1, c.d_model)
            y = tape.add(y, cross[slots][:, None, :])
            y = tape.add(y, self._ffn(f"dec.{i}.ffn", self._ln(f"dec.{i}.ln3", y), False, None))
        y = self._ln("dec.ln_final", y)
        return tape.add(tape.matmul(y, self.params["out.w"]), self.params["out.b"]).data[:, 0, :]

    @staticmethod
    def source_rows(src_ids: np.ndarray) -> tape.Rows:
        """The encoder's packed rows: every non-PAD source token."""
        return tape.Rows(src_ids != PAD)

    @staticmethod
    def pad_mask(ids: np.ndarray) -> np.ndarray:
        """(B, 1, 1, L) additive mask hiding PAD positions."""
        return np.where(ids[:, None, None, :] == PAD, tape.DTYPE(NEG_INF), tape.DTYPE(0.0))

    # --- convenience surfaces ---

    def forward_logits(
        self, src_ids: np.ndarray, tgt_in_ids: np.ndarray, lengths: np.ndarray, train: bool = False, rng=None
    ) -> Tensor:
        """Logits (N, V) of `decode`'s rows."""
        memory = self.encode(src_ids, train, rng)
        return self.decode(memory, src_ids, tgt_in_ids, lengths, train, rng)

    def loss(
        self,
        src_ids: np.ndarray,
        tgt_in_ids: np.ndarray,
        tgt_out_ids: np.ndarray,
        train: bool = True,
        rng=None,
    ) -> Tensor:
        """Mean cross-entropy over the non-PAD targets. The decoder runs on
        each row's positions up to its last non-PAD target (EOS)."""
        real = np.asarray(tgt_out_ids) != PAD
        width = real.shape[1]
        lengths = np.where(real.any(axis=1), width - np.argmax(real[:, ::-1], axis=1), 0)
        logits = self.forward_logits(src_ids, tgt_in_ids, lengths, train, rng)
        targets = np.asarray(tgt_out_ids)[np.arange(width) < lengths[:, None]]
        return tape.cross_entropy(logits, targets, targets != PAD)


class BeamScorer:
    """The `Scorer` beam search uses: a batch of sources, each with its
    own batch of prefixes.

    `__init__` encodes each source on its own, exactly as a batch of one,
    and projects each decoder layer's cross-attention keys and values
    once per source, shared by every beam of that source; the sources'
    keys and values are padded to the longest source, (N, H, S, Dh),
    under the PAD mask. It accepts exactly the calls beam search makes:
    one empty prefix per source first, then each call's prefixes of a
    source must each extend a prefix that source had in the previous
    call by one token; a source with no prefixes in a call is done.
    `step_logprobs` keeps each layer's
    self-attention keys and values over BOS and each prefix of its
    previous call, gathers the parents' rows and decodes only the new
    position, every source's rows in one decoder step. Any other call
    raises ValueError and leaves the scorer as it was; score arbitrary
    prefixes with teacher-forced `Seq2SeqModel.decode`.
    """

    def __init__(self, model: Seq2SeqModel, sources: list[list[int]]):
        if not sources:
            raise ValueError("no sources to decode")
        self.model = model
        c = model.config
        d_head = c.d_model // c.n_heads
        src = np.full((len(sources), max(len(tokens) for tokens in sources)), PAD, dtype=np.int64)
        shape = (len(sources), c.n_heads, src.shape[1], d_head)
        kv = [(np.zeros(shape, dtype=tape.DTYPE), np.zeros(shape, dtype=tape.DTYPE)) for _ in range(c.n_decoder_layers)]
        with tape.no_grad():
            for index, tokens in enumerate(sources):
                src[index, : len(tokens)] = tokens
                one = np.asarray([tokens], dtype=np.int64)
                for padded, projected in zip(kv, model.cross_attention_kv(model.encode(one), one)):
                    for into, tensor in zip(padded, projected):
                        into[index, :, : len(tokens)] = tensor.data[0]
        self._cross_kv = [(Tensor(keys), Tensor(values)) for keys, values in kv]
        self._cross_mask = model.pad_mask(src)
        # the cache: a row per (source, prefix) of the last call, over BOS
        # and that prefix; before the first call, one empty row per source
        empty = np.zeros((0, len(sources), c.n_heads, d_head), dtype=tape.DTYPE)
        self._rows: dict[tuple[int, tuple[int, ...]], int] = {(s, ()): s for s in range(len(sources))}
        self._cache: list[tuple[np.ndarray, np.ndarray]] = [(empty, empty)] * c.n_decoder_layers
        self._self_mask = np.zeros((len(sources), 1, 1, 0), dtype=tape.DTYPE)

    @property
    def vocab_size(self) -> int:
        return self.model.config.vocab_size

    @property
    def n_sources(self) -> int:
        return self._cross_mask.shape[0]

    def step_logprobs(self, prefixes: list[list[list[int]]]) -> np.ndarray:
        """(rows, V) log-probabilities for the next token, a row per
        prefix: source 0's prefixes first, then source 1's, and so on."""
        if len(prefixes) != self.n_sources:
            raise ValueError(f"expected prefixes for {self.n_sources} sources, got {len(prefixes)}")
        keys = [(source, (BOS, *prefix)) for source, batch in enumerate(prefixes) for prefix in batch]
        if not keys:
            raise ValueError("no prefixes to score")
        parents = [self._rows.get((source, key[:-1])) for source, key in keys]
        if None in parents:
            raise ValueError("each prefix must extend a prefix of the previous call by one token")
        logits = self._advance(
            np.asarray([key[-1] for _, key in keys]), np.asarray(parents), np.asarray([s for s, _ in keys])
        )
        self._rows = {key: row for row, key in enumerate(keys)}
        return tape.log_softmax_last(logits)

    def _advance(self, tokens: np.ndarray, parents: np.ndarray, sources: np.ndarray) -> np.ndarray:
        """Logits for the cached rows `parents` of `sources`, each extended
        by its token; the extended rows replace the cache."""
        length = self._self_mask.shape[3]
        cache = []
        for layer in self._cache:
            grown = []
            for old in layer:
                new = np.empty((length + 1, len(tokens)) + old.shape[2:], dtype=old.dtype)
                # mode="clip" lets take write straight into the slice; parents are in range
                np.take(old, parents, axis=1, out=new[:length], mode="clip")
                grown.append(new)
            cache.append(tuple(grown))
        self_mask = np.concatenate([self._self_mask[parents], self.model.pad_mask(tokens[:, None])], axis=3)
        with tape.no_grad():
            logits = self.model.decode_step(tokens, cache, self_mask, self._cross_kv, self._cross_mask, sources)
        self._cache, self._self_mask = cache, self_mask
        return logits
