"""Minimal reverse-mode autodiff over numpy arrays.

Just enough machinery for an encoder-decoder transformer: broadcasted
add, batched matmul (one GEMM over the rows when the right operand
is a 2-D weight), relu, embedding gather, fused layer-norm, fused
attention, masked token cross-entropy, reshape/transpose,
inverted dropout, and two ops that move rows between layouts:
`scatter_rows` lays packed rows (N, ...) out in their padded grid
(B, L, ...) with zeros elsewhere, and `gather_rows` takes them back out
(`Rows` says which cells are real). Position-wise layers run on the
packed rows, attention on the grid.

Everything computes in one dtype, `DTYPE` (float32): every Tensor's
data is cast to it, and every array an op mixes into its output
(masks, dropout keep masks, constants) is built in it, so no op
upcasts. Results are deterministic per dtype. Finite-difference
gradient checks need float64's headroom; they switch `DTYPE` before
building a model.

Graphs are built eagerly; ``backward(loss)`` walks the tape in reverse
topological order. Wrap inference in ``no_grad()`` to skip bookkeeping.

A graph is backpropagated once: `backward` consumes it. Once a node's
backward has run, the node lets go of its parents and its backward
closure, and of its gradient unless it is the root, so each activation
is freed as soon as the last node that needs it is done. Leaves (the
parameters) keep their gradients, and the root keeps its seed.

Saved state is kept small. `dropout` keeps a boolean keep mask and
rebuilds the float factor `mask / (1 - p)` in backward. `attention` is
one node for softmax(q k^T * scale + mask), dropped out, times v: it
keeps only the softmax weights and the boolean keep mask, and rebuilds
the dropped weights from them in backward.

Gradient ownership: `Tensor.accumulate` keeps the first gradient array
a tensor is handed, without a copy, and adds any later one out of place.
The array it keeps may also be another tensor's gradient (`add` hands
the same array to both parents) or a view of one (`reshape`,
`transpose`). So no backward writes into an array it was handed, and
nothing writes into a `.grad`.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Optional

import numpy as np

DTYPE = np.float32

_grad_enabled = True


@contextmanager
def no_grad():
    global _grad_enabled
    previous = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = previous


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "__weakref__")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=DTYPE)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = requires_grad and _grad_enabled
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Optional[Callable[[np.ndarray], None]] = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def accumulate(self, grad: np.ndarray) -> None:
        # kept, not copied, and never written into ("Gradient ownership" above)
        self.grad = grad if self.grad is None else self.grad + grad

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, grad={self.requires_grad})"


def _make(data: np.ndarray, parents: tuple[Tensor, ...], backward) -> Tensor:
    out = Tensor(data)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._backward = backward
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum grad down to `shape` (inverse of numpy broadcasting)."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def _as_array(x) -> np.ndarray:
    return x.data if isinstance(x, Tensor) else np.asarray(x, dtype=DTYPE)


def add(a: Tensor, b) -> Tensor:
    b_data = _as_array(b)
    out_data = a.data + b_data

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a.accumulate(_unbroadcast(grad, a.data.shape))
        if isinstance(b, Tensor) and b.requires_grad:
            b.accumulate(_unbroadcast(grad, b.data.shape))

    parents = (a, b) if isinstance(b, Tensor) else (a,)
    return _make(out_data, parents, backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """`a @ b`. A 2-D `b` (a weight) against an `a` of more dimensions is
    one GEMM over `a`'s rows, `(-1, D) @ (D, F)`, in the forward pass and
    in both gradients: numpy would run one BLAS call per leading index.
    Any other pair is numpy's batched matmul."""
    if b.data.ndim == 2 and a.data.ndim > 2:
        rows = a.data.reshape(-1, a.data.shape[-1])
        out_data = (rows @ b.data).reshape(a.data.shape[:-1] + b.data.shape[1:])

        def backward(grad: np.ndarray) -> None:
            grad_rows = grad.reshape(-1, grad.shape[-1])
            if a.requires_grad:
                a.accumulate((grad_rows @ b.data.T).reshape(a.data.shape))
            if b.requires_grad:
                b.accumulate(rows.T @ grad_rows)

        return _make(out_data, (a, b), backward)

    out_data = a.data @ b.data

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            ga = grad @ np.swapaxes(b.data, -1, -2)
            a.accumulate(_unbroadcast(ga, a.data.shape))
        if b.requires_grad:
            gb = np.swapaxes(a.data, -1, -2) @ grad
            b.accumulate(_unbroadcast(gb, b.data.shape))

    return _make(out_data, (a, b), backward)


def relu(x: Tensor) -> Tensor:
    mask = x.data > 0
    out_data = x.data * mask

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x.accumulate(grad * mask)

    return _make(out_data, (x,), backward)


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    out_data = x.data.reshape(shape)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x.accumulate(grad.reshape(x.data.shape))

    return _make(out_data, (x,), backward)


def transpose(x: Tensor, axes: tuple[int, ...]) -> Tensor:
    out_data = x.data.transpose(axes)
    inverse = np.argsort(axes)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x.accumulate(grad.transpose(inverse))

    return _make(out_data, (x,), backward)


class Rows:
    """Where the rows of a packed tensor (N, ...) sit in a padded grid
    (B, L, ...): `batch` and `position` (each (N,)) are the grid cells of
    the true cells of `real` (B, L), in row-major order."""

    __slots__ = ("grid", "batch", "position")

    def __init__(self, real: np.ndarray):
        self.grid: tuple[int, int] = real.shape
        self.batch, self.position = np.nonzero(real)

    def __len__(self) -> int:
        return len(self.batch)


def scatter_rows(x: Tensor, rows: Rows) -> Tensor:
    """Packed rows (N, ...) laid out in their padded grid (B, L, ...),
    with zeros in every other cell."""
    out_data = np.zeros(rows.grid + x.data.shape[1:], dtype=DTYPE)
    out_data[rows.batch, rows.position] = x.data

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x.accumulate(grad[rows.batch, rows.position])

    return _make(out_data, (x,), backward)


def gather_rows(x: Tensor, rows: Rows) -> Tensor:
    """The packed rows (N, ...) of a padded grid (B, L, ...); the inverse
    of `scatter_rows`."""
    out_data = x.data[rows.batch, rows.position]

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            full = np.zeros(x.data.shape, dtype=DTYPE)
            full[rows.batch, rows.position] = grad
            x.accumulate(full)

    return _make(out_data, (x,), backward)


def embedding(table: Tensor, ids: np.ndarray) -> Tensor:
    ids = np.asarray(ids, dtype=np.int64)
    if ids.size and (ids.min() < 0 or ids.max() >= table.data.shape[0]):
        raise ValueError("token id out of range")
    out_data = table.data[ids]

    def backward(grad: np.ndarray) -> None:
        if table.requires_grad:
            acc = np.zeros_like(table.data)
            np.add.at(acc, ids, grad)
            table.accumulate(acc)

    return _make(out_data, (table,), backward)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    mean = x.data.mean(axis=-1, keepdims=True)
    centered = x.data - mean
    var = (centered**2).mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    normed = centered * inv_std
    out_data = normed * gain.data + bias.data

    def backward(grad: np.ndarray) -> None:
        if gain.requires_grad:
            gain.accumulate(_unbroadcast(grad * normed, gain.data.shape))
        if bias.requires_grad:
            bias.accumulate(_unbroadcast(grad, bias.data.shape))
        if x.requires_grad:
            n = x.data.shape[-1]
            g = grad * gain.data
            gx = (
                g - g.mean(axis=-1, keepdims=True)
                - normed * (g * normed).mean(axis=-1, keepdims=True)
            ) * inv_std
            x.accumulate(gx)

    return _make(out_data, (x, gain, bias), backward)


def _keep_factor(keep: np.ndarray, p: float) -> np.ndarray:
    """Inverted dropout's float factor for a boolean keep mask."""
    return keep.astype(DTYPE) / (1.0 - p)


def dropout(
    x: Tensor, p: float, rng: Optional[np.random.Generator], train: bool, rows: Optional[Rows] = None
) -> Tensor:
    """Inverted dropout. For packed rows the keep mask is drawn over their
    padded grid and then gathered, so the random stream and the mask of
    every real cell are those of the padded tensor."""
    if not train or p <= 0.0:
        return x
    assert rng is not None
    shape = x.data.shape if rows is None else rows.grid + x.data.shape[1:]
    keep = rng.random(shape) >= p
    if rows is not None:
        keep = keep[rows.batch, rows.position]
    out_data = x.data * _keep_factor(keep, p)

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x.accumulate(grad * _keep_factor(keep, p))

    return _make(out_data, (x,), backward)


def attention(
    q: Tensor,
    k: Tensor,
    v: Tensor,
    scale: float,
    additive_mask: Optional[np.ndarray],
    p: float,
    rng: Optional[np.random.Generator],
    train: bool,
) -> Tensor:
    """dropout(softmax(q @ k^T * scale + additive_mask)) @ v over heads:
    q (B, H, Lq, Dh) against k and v (B, H, Lk, Dh) of the same B and H.
    One node, which keeps the softmax weights and, when dropout is on,
    its boolean keep mask; the keep mask is drawn as `dropout` draws it."""
    k_t = np.swapaxes(k.data, -1, -2)
    scale = np.asarray(scale, dtype=DTYPE)
    scores = (q.data @ k_t) * scale
    if additive_mask is not None:
        scores = scores + additive_mask
    scores = scores - scores.max(axis=-1, keepdims=True)
    exp = np.exp(scores)
    weights = exp / exp.sum(axis=-1, keepdims=True)
    keep = None
    dropped = weights
    if train and p > 0.0:
        assert rng is not None
        keep = rng.random(weights.shape) >= p
        dropped = weights * _keep_factor(keep, p)
    out_data = dropped @ v.data

    def backward(grad: np.ndarray) -> None:
        factor = None if keep is None else _keep_factor(keep, p)
        rebuilt = weights if factor is None else weights * factor  # the dropped weights
        if v.requires_grad:
            v.accumulate(np.swapaxes(rebuilt, -1, -2) @ grad)
        if q.requires_grad or k.requires_grad:
            g = grad @ np.swapaxes(v.data, -1, -2)
            if factor is not None:
                g = g * factor
            g = (g - (g * weights).sum(axis=-1, keepdims=True)) * weights
            g = g * scale
            if q.requires_grad:
                q.accumulate(g @ np.swapaxes(k_t, -1, -2))
            if k.requires_grad:
                k.accumulate(np.swapaxes(np.swapaxes(q.data, -1, -2) @ g, -1, -2))

    return _make(out_data, (q, k, v), backward)


def cross_entropy(logits: Tensor, targets: np.ndarray, mask: np.ndarray) -> Tensor:
    """Mean negative log-likelihood over positions where mask is true.

    logits: (..., V); targets: integer array matching logits[...,0] shape;
    an all-false mask yields a loss of exactly 0 with zero gradients.
    """
    targets = np.asarray(targets, dtype=np.int64)
    mask = np.asarray(mask, dtype=bool)
    count = int(mask.sum())
    shifted = logits.data - logits.data.max(axis=-1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    log_probs = shifted - log_z
    picked = np.take_along_axis(log_probs, targets[..., None], axis=-1)[..., 0]
    if count == 0:
        out_data = np.zeros((), dtype=DTYPE)
    else:
        out_data = -(picked * mask).sum() / count

    def backward(grad: np.ndarray) -> None:
        if logits.requires_grad and count > 0:
            probs = np.exp(log_probs)
            one_hot = np.zeros_like(probs)
            np.put_along_axis(one_hot, targets[..., None], 1.0, axis=-1)
            g = (probs - one_hot) * mask[..., None] / count
            logits.accumulate(g * grad)

    return _make(out_data, (logits,), backward)


def log_softmax_last(logits: np.ndarray) -> np.ndarray:
    """Plain-numpy log-softmax over the final axis (inference helper)."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def backward(loss: Tensor) -> None:
    """Reverse-accumulate gradients from a scalar loss, consuming the
    graph (see the module docstring)."""
    topo: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in visited or not node.requires_grad:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            stack.append((parent, False))
    loss.grad = np.ones_like(loss.data)
    while topo:
        node = topo.pop()  # the list must not keep a consumed node alive
        if node._backward is None:
            continue  # a leaf keeps its gradient
        if node.grad is not None:
            node._backward(node.grad)
        node._parents = ()
        node._backward = None
        if node is not loss:
            node.grad = None


def zero_grads(params) -> None:
    for p in params:
        p.grad = None
