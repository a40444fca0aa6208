"""Differential test: the model's packed rows against the padded grid.

`Seq2SeqModel.loss` runs every position-wise layer (embeddings, layer
norms, projections, feed-forward, residual adds, the output projection
and the cross-entropy) on the real tokens only: the non-PAD source
tokens, and each target row up to and including its EOS. The oracle,
`helpers.padded_loss`, runs them over the whole padded grid, as the
model did before. Both compute in float64 (the `float64` fixture); the
loss and every parameter gradient agree to `TOLERANCE`, relative to the
oracle's largest magnitude. With dropout both draw the same masks from
the same random stream.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from helpers import mul, padded_loss
from jayfix.corpus import DIRECTION_FIX, TrainingSample
from jayfix.minilang import Span
from jayfix.model import ModelConfig, Seq2SeqModel, tape
from jayfix.model.training import make_batch
from jayfix.representation import N_RESERVED, PAD

TOLERANCE = 1e-12
VOCAB = 40


def sample(rng: np.random.Generator, src_len: int, tgt_len: int, src_tail=()) -> TrainingSample:
    src = [int(t) for t in rng.integers(N_RESERVED, VOCAB, size=src_len)] + list(src_tail)
    tgt = [int(t) for t in rng.integers(N_RESERVED, VOCAB, size=tgt_len)]
    return TrainingSample(
        direction=DIRECTION_FIX, input_tokens=tuple(src), target_tokens=tuple(tgt),
        origin="mechanical", iteration=0, source_program="packing", span=Span(1, 1),
    )


# (source length, target length, source tail) per sample
BATCHES = {
    "ragged": [(9, 2, ()), (3, 6, ()), (6, 4, ()), (1, 1, ())],
    "no PAD": [(5, 3, ()), (5, 3, ()), (5, 3, ())],
    "source ending in PAD": [(4, 3, (PAD, PAD)), (7, 5, (PAD,)), (2, 2, (PAD,))],
    "one sample": [(6, 4, ())],
}


def model(dropout: float) -> Seq2SeqModel:
    return Seq2SeqModel(ModelConfig(
        d_model=16, d_ff=24, n_heads=2, n_encoder_layers=2, n_decoder_layers=2,
        dropout=dropout, vocab_size=VOCAB, max_src_len=16, max_tgt_len=8, seed=9,
    ))


def relative_error(ours: np.ndarray, theirs: np.ndarray) -> float:
    return float(np.abs(ours - theirs).max() / np.abs(theirs).max())


def loss_and_grads(net: Seq2SeqModel, loss_fn, batch, train: bool):
    rng = np.random.default_rng(17)
    tape.zero_grads(net.params.values())
    loss = loss_fn(*batch, train=train, rng=rng)
    tape.backward(loss)
    # the next draw shows that both consumed the same random stream
    return loss.item(), {name: p.grad for name, p in net.params.items()}, rng.random()


@pytest.mark.usefixtures("float64")
@pytest.mark.parametrize("dropout", [0.0, 0.1])
@pytest.mark.parametrize("name", sorted(BATCHES))
def test_packed_loss_and_gradients_match_the_padded_grid(name, dropout):
    rng = np.random.default_rng(sorted(BATCHES).index(name))
    batch = make_batch([sample(rng, *shape) for shape in BATCHES[name]])
    src, tgt_in, tgt_out = batch
    if name == "no PAD":
        assert PAD not in src and PAD not in tgt_in and PAD not in tgt_out
    if name == "source ending in PAD":
        assert (src[:, -1] == PAD).all() and (src[0, 4:] == PAD).all()
    net = model(dropout)
    for train in sorted({False, dropout > 0}):
        ours = loss_and_grads(net, net.loss, batch, train)
        theirs = loss_and_grads(net, lambda *a, **k: padded_loss(net, *a, **k), batch, train)
        assert ours[2] == theirs[2]
        assert abs(ours[0] - theirs[0]) <= TOLERANCE * abs(theirs[0])
        assert ours[1].keys() == theirs[1].keys()
        for param in ours[1]:
            assert ours[1][param].dtype == np.float64
            assert relative_error(ours[1][param], theirs[1][param]) <= TOLERANCE, param


def test_dropout_masks_the_real_cells_of_the_padded_draw():
    x = tape.Tensor(np.arange(1.0, 13.0).reshape(6, 2), requires_grad=True)
    real = np.array([[True, True, False], [True, False, False], [True, True, True]])
    rows = tape.Rows(real)
    packed = tape.dropout(x, 0.5, np.random.default_rng(3), True, rows)
    grid = tape.dropout(tape.scatter_rows(x, rows), 0.5, np.random.default_rng(3), True)
    assert np.array_equal(packed.data, tape.gather_rows(grid, rows).data)


def test_rows_round_trip_through_the_grid():
    real = np.array([[False, True, True], [False, False, False], [True, False, True]])
    rows = tape.Rows(real)
    x = tape.Tensor(np.arange(8.0).reshape(4, 2), requires_grad=True)
    grid = tape.scatter_rows(x, rows)
    assert grid.shape == (3, 3, 2)
    assert np.array_equal(grid.data[~real], np.zeros((5, 2)))
    back = tape.gather_rows(grid, rows)
    assert np.array_equal(back.data, x.data)
    tape.backward(mul(back, np.full((4, 2), 3.0)))
    assert np.array_equal(x.grad, np.full((4, 2), 3.0))
