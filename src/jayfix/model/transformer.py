"""Encoder-decoder transformer built on the tape module.

Pre-norm residual blocks, learned positional embeddings, multi-head
attention, ReLU feed-forward, untied output projection. Two instances
of this class play the fixer and breaker roles; they share architecture
and never weights.
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

    def __init__(self, config: ModelConfig):
        self.config = config
        self.step = 0
        self.params: dict[str, Tensor] = {}
        self._init_params(np.random.default_rng(config.seed))

    # --- parameters ---

    def _param(self, name: str, array: np.ndarray) -> None:
        # drawn in float64 and cast once to tape.DTYPE, so the initial
        # parameters are a function of the seed and the dtype alone
        self.params[name] = Tensor(array, requires_grad=True)

    def _init_params(self, rng: np.random.Generator) -> None:
        c = self.config
        std = 0.02

        def normal(*shape) -> np.ndarray:
            return rng.normal(0.0, std, size=shape)

        self._param("enc.tok_emb", normal(c.vocab_size, c.d_model))
        self._param("enc.pos_emb", normal(c.max_src_len, c.d_model))
        self._param("dec.tok_emb", normal(c.vocab_size, c.d_model))
        self._param("dec.pos_emb", normal(c.max_tgt_len + 1, c.d_model))
        for i in range(c.n_encoder_layers):
            self._init_attention(f"enc.{i}.self", rng)
            self._init_ffn(f"enc.{i}.ffn", rng)
            self._init_ln(f"enc.{i}.ln1")
            self._init_ln(f"enc.{i}.ln2")
        self._init_ln("enc.ln_final")
        for i in range(c.n_decoder_layers):
            self._init_attention(f"dec.{i}.self", rng)
            self._init_attention(f"dec.{i}.cross", rng)
            self._init_ffn(f"dec.{i}.ffn", rng)
            self._init_ln(f"dec.{i}.ln1")
            self._init_ln(f"dec.{i}.ln2")
            self._init_ln(f"dec.{i}.ln3")
        self._init_ln("dec.ln_final")
        self._param("out.w", normal(c.d_model, c.vocab_size))
        self._param("out.b", np.zeros(c.vocab_size))

    def _init_attention(self, prefix: str, rng: np.random.Generator) -> None:
        d = self.config.d_model
        for name in ("wq", "wk", "wv", "wo"):
            self._param(f"{prefix}.{name}", rng.normal(0.0, 0.02, size=(d, d)))

    def _init_ffn(self, prefix: str, rng: np.random.Generator) -> None:
        c = self.config
        self._param(f"{prefix}.w1", rng.normal(0.0, 0.02, size=(c.d_model, c.d_ff)))
        self._param(f"{prefix}.b1", np.zeros(c.d_ff))
        self._param(f"{prefix}.w2", rng.normal(0.0, 0.02, size=(c.d_ff, c.d_model)))
        self._param(f"{prefix}.b2", np.zeros(c.d_model))

    def _init_ln(self, prefix: str) -> None:
        d = self.config.d_model
        self._param(f"{prefix}.g", np.ones(d))
        self._param(f"{prefix}.b", np.zeros(d))

    def n_parameters(self) -> int:
        return sum(p.data.size for p in self.params.values())

    def state_arrays(self) -> dict[str, np.ndarray]:
        return {name: p.data.copy() for name, p in self.params.items()}

    def load_state_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        if set(arrays) != set(self.params):
            missing = set(self.params) ^ set(arrays)
            raise ValueError(f"parameter name mismatch: {sorted(missing)}")
        for name, array in arrays.items():
            if array.shape != self.params[name].data.shape:
                raise ValueError(f"shape mismatch for {name}")
            self.params[name].data = np.array(array, dtype=tape.DTYPE)

    # --- building blocks ---

    def _heads(self, x: Tensor) -> Tensor:
        """(B, L, D) -> (B, H, L, Dh)."""
        c = self.config
        batch, length = x.shape[0], x.shape[1]
        x = tape.reshape(x, (batch, length, c.n_heads, c.d_model // c.n_heads))
        return tape.transpose(x, (0, 2, 1, 3))

    def _project(self, prefix: str, name: str, x: Tensor) -> Tensor:
        return self._heads(tape.matmul(x, self.params[f"{prefix}.{name}"]))

    def _attend(
        self,
        prefix: str,
        q: Tensor,
        k: Tensor,
        v: Tensor,
        additive_mask: Optional[np.ndarray],
        train: bool,
        rng: Optional[np.random.Generator],
    ) -> Tensor:
        """Attention over projected heads, (B, H, Lq, Dh) queries against
        (B, H, Lk, Dh) keys and values, through the output projection."""
        c = self.config
        batch, q_len = q.shape[0], q.shape[2]
        d_head = c.d_model // c.n_heads
        scores = tape.mul(tape.matmul(q, tape.transpose(k, (0, 1, 3, 2))), 1.0 / np.sqrt(d_head))
        weights = tape.softmax(scores, additive_mask)
        weights = tape.dropout(weights, c.dropout, rng, train)
        context = tape.matmul(weights, v)  # (B, H, Lq, Dh)
        context = tape.transpose(context, (0, 2, 1, 3))
        context = tape.reshape(context, (batch, q_len, c.d_model))
        return tape.matmul(context, self.params[f"{prefix}.wo"])

    def _attention(
        self,
        prefix: str,
        query: Tensor,
        key_value: Tensor,
        additive_mask: Optional[np.ndarray],
        train: bool,
        rng: Optional[np.random.Generator],
    ) -> Tensor:
        q = self._project(prefix, "wq", query)
        k = self._project(prefix, "wk", key_value)
        v = self._project(prefix, "wv", key_value)
        return self._attend(prefix, q, k, v, additive_mask, train, rng)

    def _ffn(self, prefix: str, x: Tensor, train: bool, rng) -> Tensor:
        hidden = tape.relu(tape.add(tape.matmul(x, self.params[f"{prefix}.w1"]), self.params[f"{prefix}.b1"]))
        hidden = tape.dropout(hidden, self.config.dropout, rng, train)
        return tape.add(tape.matmul(hidden, self.params[f"{prefix}.w2"]), self.params[f"{prefix}.b2"])

    def _ln(self, prefix: str, x: Tensor) -> Tensor:
        return tape.layer_norm(x, self.params[f"{prefix}.g"], self.params[f"{prefix}.b"])

    # --- encoder / decoder ---

    def encode(self, src_ids: np.ndarray, train: bool = False, rng=None) -> Tensor:
        c = self.config
        src_ids = np.asarray(src_ids, dtype=np.int64)
        if src_ids.ndim != 2:
            raise ValueError("src_ids must be (batch, length)")
        if src_ids.shape[1] > c.max_src_len:
            raise ValueError(f"source length {src_ids.shape[1]} exceeds {c.max_src_len}")
        if src_ids.size and src_ids.max() >= c.vocab_size:
            raise ValueError("token id out of range")
        positions = np.arange(src_ids.shape[1])
        x = tape.add(
            tape.embedding(self.params["enc.tok_emb"], src_ids),
            tape.embedding(self.params["enc.pos_emb"], positions),
        )
        x = tape.dropout(x, c.dropout, rng, train)
        mask = self.pad_mask(src_ids)
        for i in range(c.n_encoder_layers):
            normed = self._ln(f"enc.{i}.ln1", x)
            attn = self._attention(f"enc.{i}.self", normed, normed, mask, train, rng)
            x = tape.add(x, tape.dropout(attn, c.dropout, rng, train))
            ffn = self._ffn(f"enc.{i}.ffn", self._ln(f"enc.{i}.ln2", x), train, rng)
            x = tape.add(x, tape.dropout(ffn, c.dropout, rng, train))
        return self._ln("enc.ln_final", x)

    def decode(
        self,
        memory: Tensor,
        src_ids: np.ndarray,
        tgt_in_ids: np.ndarray,
        train: bool = False,
        rng=None,
    ) -> Tensor:
        """Decoder logits (B, T, V) given encoder memory."""
        c = self.config
        tgt_in_ids = np.asarray(tgt_in_ids, dtype=np.int64)
        if tgt_in_ids.ndim != 2:
            raise ValueError("tgt_in_ids must be (batch, length)")
        if tgt_in_ids.shape[1] > c.max_tgt_len + 1:
            raise ValueError(f"target length {tgt_in_ids.shape[1]} exceeds {c.max_tgt_len + 1}")
        if tgt_in_ids.size and tgt_in_ids.max() >= c.vocab_size:
            raise ValueError("token id out of range")
        t = tgt_in_ids.shape[1]
        positions = np.arange(t)
        y = tape.add(
            tape.embedding(self.params["dec.tok_emb"], tgt_in_ids),
            tape.embedding(self.params["dec.pos_emb"], positions),
        )
        y = tape.dropout(y, c.dropout, rng, train)
        causal = np.triu(np.full((t, t), NEG_INF, dtype=tape.DTYPE), k=1)[None, None, :, :]
        self_mask = causal + self.pad_mask(tgt_in_ids)
        cross_mask = self.pad_mask(src_ids)
        for i in range(c.n_decoder_layers):
            normed = self._ln(f"dec.{i}.ln1", y)
            attn = self._attention(f"dec.{i}.self", normed, normed, self_mask, train, rng)
            y = tape.add(y, tape.dropout(attn, c.dropout, rng, train))
            cross = self._attention(f"dec.{i}.cross", self._ln(f"dec.{i}.ln2", y), memory, cross_mask, train, rng)
            y = tape.add(y, tape.dropout(cross, c.dropout, rng, train))
            ffn = self._ffn(f"dec.{i}.ffn", self._ln(f"dec.{i}.ln3", y), train, rng)
            y = tape.add(y, tape.dropout(ffn, c.dropout, rng, train))
        y = self._ln("dec.ln_final", y)
        return tape.add(tape.matmul(y, self.params["out.w"]), self.params["out.b"])

    def cross_attention_kv(self, memory: Tensor) -> list[tuple[Tensor, Tensor]]:
        """Each decoder layer's cross-attention keys and values over the
        encoder memory, (B, H, S, Dh), for `decode_step`."""
        return [
            (self._project(f"dec.{i}.cross", "wk", memory), self._project(f"dec.{i}.cross", "wv", memory))
            for i in range(self.config.n_decoder_layers)
        ]

    def decode_step(
        self,
        tgt_ids: np.ndarray,
        cache: list[tuple[np.ndarray, np.ndarray]],
        self_mask: np.ndarray,
        cross_kv: list[tuple[Tensor, Tensor]],
        cross_mask: np.ndarray,
    ) -> np.ndarray:
        """Eval-mode decoder logits (B, V) at one new target position T.

        tgt_ids (B,) are the tokens at T. cache holds each layer's
        self-attention keys and values, position-major (T + 1, B, H, Dh):
        the caller fills positions < T and this step writes position T.
        self_mask (B, 1, 1, T + 1) is the additive mask over the same
        positions. Every row decodes against one source: cross_kv is
        `cross_attention_kv` of a batch of one, and the B queries go
        through it as one sequence of B positions.
        """
        c = self.config
        tgt_ids = np.asarray(tgt_ids, dtype=np.int64)
        batch, position = tgt_ids.shape[0], cache[0][0].shape[0] - 1
        if position > c.max_tgt_len:
            raise ValueError(f"target length {position + 1} exceeds {c.max_tgt_len + 1}")
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
            rows = tape.reshape(self._ln(f"dec.{i}.ln2", y), (1, batch, c.d_model))
            k, v = cross_kv[i]
            cross = self._attend(prefix, self._project(prefix, "wq", rows), k, v, cross_mask, False, None)
            y = tape.add(y, tape.reshape(cross, (batch, 1, c.d_model)))
            y = tape.add(y, self._ffn(f"dec.{i}.ffn", self._ln(f"dec.{i}.ln3", y), False, None))
        y = self._ln("dec.ln_final", y)
        return tape.add(tape.matmul(y, self.params["out.w"]), self.params["out.b"]).data[:, 0, :]

    @staticmethod
    def pad_mask(ids: np.ndarray) -> np.ndarray:
        """(B, 1, 1, L) additive mask hiding PAD positions."""
        return np.where(ids[:, None, None, :] == PAD, tape.DTYPE(NEG_INF), tape.DTYPE(0.0))

    # --- convenience surfaces ---

    def forward_logits(
        self, src_ids: np.ndarray, tgt_in_ids: np.ndarray, train: bool = False, rng=None
    ) -> Tensor:
        memory = self.encode(src_ids, train, rng)
        return self.decode(memory, src_ids, tgt_in_ids, train, rng)

    def loss(
        self,
        src_ids: np.ndarray,
        tgt_in_ids: np.ndarray,
        tgt_out_ids: np.ndarray,
        train: bool = True,
        rng=None,
    ) -> Tensor:
        logits = self.forward_logits(src_ids, tgt_in_ids, train, rng)
        mask = np.asarray(tgt_out_ids) != PAD
        return tape.cross_entropy(logits, tgt_out_ids, mask)


class BeamScorer:
    """The `Scorer` beam search uses: one source, batches of prefixes.

    `__init__` encodes the source once and projects each decoder layer's
    cross-attention keys and values once, (1, H, S, Dh), shared by every
    beam. It accepts exactly the calls beam search makes: `[[]]` first,
    then each call's prefixes must each extend a prefix of the previous
    call by one token. `step_logprobs` keeps each layer's self-attention
    keys and values over BOS and each prefix of its previous call,
    gathers the parents' rows and decodes only the new position. Any
    other call raises ValueError and leaves the scorer as it was; score
    arbitrary prefixes with teacher-forced `Seq2SeqModel.decode`.
    """

    def __init__(self, model: Seq2SeqModel, input_tokens: list[int]):
        self.model = model
        src = np.asarray([input_tokens], dtype=np.int64)
        with tape.no_grad():
            self._cross_kv = model.cross_attention_kv(model.encode(src))
        self._cross_mask = model.pad_mask(src)
        # the cache: a row per prefix of the last call, over BOS and that
        # prefix; before the first call, one empty row that BOS extends
        c = model.config
        empty = np.zeros((0, 1, c.n_heads, c.d_model // c.n_heads), dtype=tape.DTYPE)
        self._rows: dict[tuple[int, ...], int] = {(): 0}
        self._cache: list[tuple[np.ndarray, np.ndarray]] = [(empty, empty)] * c.n_decoder_layers
        self._self_mask = np.zeros((1, 1, 1, 0), dtype=tape.DTYPE)

    @property
    def vocab_size(self) -> int:
        return self.model.config.vocab_size

    def step_logprobs(self, prefixes: list[list[int]]) -> np.ndarray:
        """(len(prefixes), V) log-probabilities for the next token."""
        if not prefixes:
            raise ValueError("no prefixes to score")
        keys = [(BOS, *prefix) for prefix in prefixes]
        parents = [self._rows.get(key[:-1]) for key in keys]
        if None in parents:
            raise ValueError("each prefix must extend a prefix of the previous call by one token")
        logits = self._advance(np.asarray([key[-1] for key in keys]), np.asarray(parents))
        self._rows = {key: row for row, key in enumerate(keys)}
        return tape.log_softmax_last(logits)

    def _advance(self, tokens: np.ndarray, parents: np.ndarray) -> np.ndarray:
        """Logits for the cached rows `parents`, each extended by its
        token; the extended rows replace the cache."""
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
            logits = self.model.decode_step(tokens, cache, self_mask, self._cross_kv, self._cross_mask)
        self._cache, self._self_mask = cache, self_mask
        return logits
