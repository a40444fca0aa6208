"""Differential test: `tape.matmul`'s folded weight product against
numpy's batched matmul, the path it replaces for a 2-D right operand.

The reference computes the forward product and both gradients one
leading index at a time, summing the weight gradient over those indices
afterwards, as `matmul` did before it folded the rows into one GEMM.
Both run in float64 (the `float64` fixture).
"""

from __future__ import annotations

import numpy as np
import pytest

from jayfix.model import tape

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
