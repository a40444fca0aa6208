"""Differential tests of the tape against the code it replaced.

`tape.matmul`'s folded weight product is checked against numpy's
batched matmul, the path it replaces for a 2-D right operand.

The reference computes the forward product and both gradients one
leading index at a time, summing the weight gradient over those indices
afterwards, as `matmul` did before it folded the rows into one GEMM.
Both run in float64 (the `float64` fixture).

Gradients kept by `Tensor.accumulate` are checked against the
zero-filled buffers it used to add into.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from gradcheck import _random_batch, micro_config
from jayfix.model import Seq2SeqModel, tape

TOLERANCE = 1e-12


def batched_reference(a: np.ndarray, b: np.ndarray, grad: np.ndarray):
    """(a @ b, d/da, d/db) of sum(grad * (a @ b)), batched over a's leading axes."""
    ga = grad @ np.swapaxes(b, -1, -2)
    gb = np.swapaxes(a, -1, -2) @ grad
    while gb.ndim > 2:
        gb = gb.sum(axis=0)
    return a @ b, ga, gb


def relative_error(ours: np.ndarray, theirs: np.ndarray) -> float:
    return float(np.abs(ours - theirs).max() / np.abs(theirs).max())


CASES = {
    "3-D": ((4, 5, 6), None),
    "4-D": ((3, 2, 5, 6), None),
    "B=1": ((1, 5, 6), None),
    "L=1": ((4, 1, 6), None),
    "B=1, L=1": ((1, 1, 6), None),
    "non-contiguous": ((5, 4, 6), (1, 0, 2)),  # a transposed view, (4, 5, 6)
}


@pytest.mark.usefixtures("float64")
@pytest.mark.parametrize("case", sorted(CASES))
def test_folded_weight_matmul_matches_batched_matmul(case):
    shape, axes = CASES[case]
    rng = np.random.default_rng(sorted(CASES).index(case))
    a_data = rng.normal(size=shape)
    if axes is not None:
        a_data = a_data.transpose(axes)
        assert not a_data.flags.c_contiguous
    a = tape.Tensor(a_data, requires_grad=True)
    b = tape.Tensor(rng.normal(size=(a_data.shape[-1], 7)), requires_grad=True)
    out = tape.matmul(a, b)
    grad = rng.normal(size=out.shape)
    out._backward(grad)
    expected_out, expected_ga, expected_gb = batched_reference(a_data, b.data, grad)
    assert out.shape == expected_out.shape and a.grad.shape == a_data.shape and b.grad.shape == b.data.shape
    assert out.data.dtype == a.grad.dtype == b.grad.dtype == np.float64
    assert relative_error(out.data, expected_out) <= TOLERANCE
    assert relative_error(a.grad, expected_ga) <= TOLERANCE
    assert relative_error(b.grad, expected_gb) <= TOLERANCE


# --- gradient ownership ----------------------------------------------------------
#
# `Tensor.accumulate` keeps the first gradient array a tensor is handed,
# without a copy, and adds any later one out of place. The array it
# keeps may be another node's gradient (`add` hands the same array to
# both parents) or a view of one (`reshape`, `transpose`), so no backward
# may write into an array it was handed. The reference is `accumulate`
# as it was: a zero-filled buffer per tensor, added into in place.


def zero_buffer_accumulate(self, grad):
    if self.grad is None:
        self.grad = np.zeros_like(self.data)
    self.grad += grad


def shared_array(leaves):
    a, b = leaves
    s = tape.add(a, b)  # hands one array to a and to b
    return tape.add(tape.mul(s, a), a)  # then a gets two more contributions


def used_twice(leaves):
    (x,) = leaves
    return tape.add(tape.mul(x, x), tape.relu(x))


def views(leaves):
    x, w = leaves
    y = tape.transpose(tape.reshape(x, (3, 2, 4)), (1, 0, 2))  # (2, 3, 4): a view of x's gradient
    z = tape.add(y, tape.reshape(x, (2, 3, 4)))  # x again, through another view
    return tape.matmul(z, w)


GRAPHS = {
    "shared array": (shared_array, [(3, 4), (3, 4)]),
    "used twice": (used_twice, [(5,)]),
    "views": (views, [(6, 4), (4, 1)]),
}


def run_graph(graph, shapes, seed, accumulate, monkeypatch):
    """Every tensor's gradient after one backward, and each array that
    was handed to `accumulate` together with a copy taken when it was."""
    handed = []

    def recording(tensor, grad):
        handed.append((grad, grad.copy()))
        accumulate(tensor, grad)

    monkeypatch.setattr(tape.Tensor, "accumulate", recording)
    rng = np.random.default_rng(seed)
    leaves = [tape.Tensor(rng.normal(size=shape), requires_grad=True) for shape in shapes]
    out = graph(leaves)
    tape.backward(out)
    return [leaf.grad for leaf in leaves] + [out.grad], handed


@pytest.mark.usefixtures("float64")
@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_kept_gradients_equal_zero_buffer_accumulation(name, monkeypatch):
    graph, shapes = GRAPHS[name]
    ours, handed = run_graph(graph, shapes, 1, tape.Tensor.accumulate, monkeypatch)
    theirs, _ = run_graph(graph, shapes, 1, zero_buffer_accumulate, monkeypatch)
    for a, b in zip(ours, theirs):
        assert a.shape == b.shape and np.array_equal(a, b)
    assert handed and all(np.array_equal(array, copy) for array, copy in handed)
    if name == "shared array":
        assert any(a is b for (a, _), (b, _) in zip(handed, handed[1:]))


@pytest.mark.usefixtures("float64")
def test_model_gradients_equal_zero_buffer_accumulation(monkeypatch):
    config = dataclasses.replace(micro_config(seed=2), dropout=0.1)
    batch = _random_batch(config, np.random.default_rng(3), n=3)
    grads = []
    for accumulate in (tape.Tensor.accumulate, zero_buffer_accumulate):
        handed = []

        def recording(tensor, grad, accumulate=accumulate):
            handed.append((grad, grad.copy()))
            accumulate(tensor, grad)

        monkeypatch.setattr(tape.Tensor, "accumulate", recording)
        model = Seq2SeqModel(config)
        tape.backward(model.loss(*batch, train=True, rng=np.random.default_rng(4)))
        assert all(np.array_equal(array, copy) for array, copy in handed)
        grads.append({name: param.grad for name, param in model.params.items()})
    ours, theirs = grads
    assert ours.keys() == theirs.keys()
    for name in ours:
        assert np.array_equal(ours[name], theirs[name]), name
