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

A tensor and its place in the graph are two objects. A `Tensor` holds
its value, `.data`; when it needs a gradient it also points at a small
`Node`, which holds the gradient, the nodes of the parents that need
one (in op-argument order) and the op's backward closure. No node
refers to a tensor, so the graph holds a forward value only while a
backward closure reads it, and a value that no backward reads is freed
as soon as the forward code drops its tensor. Leaves (the parameters)
are tensors whose node has no backward; `Tensor.grad` and
`Tensor.requires_grad` read their node.

A graph is backpropagated once: `backward` consumes it. Once a node's
backward has run, the node lets go of its parents and its backward
closure, and of its gradient unless it is the root, so each saved array
is freed as soon as the last node that needs it is done. Leaves keep
their gradients, and the root keeps its seed.

Saved state: each backward closure captures exactly the arrays it
reads, besides its parents' nodes. `matmul` keeps both operands;
`attention` the softmax weights, the boolean dropout keep mask, `q`,
`v` and `k^T`, and rebuilds the dropped weights from the first two in
backward; `layer_norm` the normalized input, the inverse standard
deviation and the gain; `relu` its boolean mask; `dropout` its boolean
keep mask, rebuilding the float factor `mask / (1 - p)` in backward;
`cross_entropy` the log-probabilities, with its targets and mask. `add`,
`reshape`, `transpose`, `gather_rows`, `scatter_rows` and `embedding`
keep only shapes, ids and rows.

Gradient ownership: `Node.accumulate` keeps the first gradient array a
node is handed, without a copy, and adds any later one out of place.
The array it keeps may also be another node's gradient (`add` hands the
same array to both parents) or a view of one (`reshape`, `transpose`).
So no backward writes into an array it was handed, and nothing writes
into a `.grad`.
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


class Node:
    """A tensor's place in the graph: its gradient so far, the nodes of
    its parents that need a gradient, in op-argument order, and the
    op's backward closure (None for a leaf)."""

    __slots__ = ("grad", "parents", "backward", "__weakref__")

    def __init__(self, parents: tuple[Node, ...] = (),
                 backward: Optional[Callable[[np.ndarray], None]] = None):
        self.grad: Optional[np.ndarray] = None
        self.parents = parents
        self.backward = backward

    def accumulate(self, grad: np.ndarray) -> None:
        # kept, not copied, and never written into ("Gradient ownership" above)
        self.grad = grad if self.grad is None else self.grad + grad


class Tensor:
    __slots__ = ("data", "node", "__weakref__")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=DTYPE)
        self.node: Optional[Node] = Node() if requires_grad and _grad_enabled else None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def requires_grad(self) -> bool:
        return self.node is not None

    @property
    def grad(self) -> Optional[np.ndarray]:
        return None if self.node is None else self.node.grad

    @grad.setter
    def grad(self, grad: Optional[np.ndarray]) -> None:
        if self.node is not None:
            self.node.grad = grad
        elif grad is not None:
            raise ValueError("a tensor that needs no gradient has none")

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, grad={self.requires_grad})"


def _make(data: np.ndarray, parents: tuple[Tensor, ...], backward) -> Tensor:
    """A tensor of `data`, with a node over `parents`' nodes when grad
    mode is on and any of them needs a gradient. `backward` accumulates
    into those nodes; it must not capture the parent tensors."""
    out = Tensor(data)
    if _grad_enabled:
        nodes = tuple(p.node for p in parents if p.node is not None)
        if nodes:
            out.node = Node(nodes, backward)
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
    a_node, a_shape = a.node, a.data.shape
    b_node, b_shape = (b.node, b_data.shape) if isinstance(b, Tensor) else (None, None)

    def backward(grad: np.ndarray) -> None:
        if a_node is not None:
            a_node.accumulate(_unbroadcast(grad, a_shape))
        if b_node is not None:
            b_node.accumulate(_unbroadcast(grad, b_shape))

    parents = (a, b) if isinstance(b, Tensor) else (a,)
    return _make(out_data, parents, backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """`a @ b`. A 2-D `b` (a weight) against an `a` of more dimensions is
    one GEMM over `a`'s rows, `(-1, D) @ (D, F)`, in the forward pass and
    in both gradients: numpy would run one BLAS call per leading index.
    Any other pair is numpy's batched matmul."""
    a_node, b_node, a_shape, b_data = a.node, b.node, a.data.shape, b.data
    if b_data.ndim == 2 and a.data.ndim > 2:
        rows = a.data.reshape(-1, a_shape[-1])
        out_data = (rows @ b_data).reshape(a_shape[:-1] + b_data.shape[1:])

        def backward(grad: np.ndarray) -> None:
            grad_rows = grad.reshape(-1, grad.shape[-1])
            if a_node is not None:
                a_node.accumulate((grad_rows @ b_data.T).reshape(a_shape))
            if b_node is not None:
                b_node.accumulate(rows.T @ grad_rows)

        return _make(out_data, (a, b), backward)

    a_data = a.data
    out_data = a_data @ b_data

    def backward(grad: np.ndarray) -> None:
        if a_node is not None:
            ga = grad @ np.swapaxes(b_data, -1, -2)
            a_node.accumulate(_unbroadcast(ga, a_shape))
        if b_node is not None:
            gb = np.swapaxes(a_data, -1, -2) @ grad
            b_node.accumulate(_unbroadcast(gb, b_data.shape))

    return _make(out_data, (a, b), backward)


# A one-parent op gets a node only when its parent has one, so its
# backward accumulates into the parent's node unconditionally.


def relu(x: Tensor) -> Tensor:
    mask = x.data > 0
    out_data = x.data * mask
    x_node = x.node

    def backward(grad: np.ndarray) -> None:
        x_node.accumulate(grad * mask)

    return _make(out_data, (x,), backward)


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    out_data = x.data.reshape(shape)
    x_node, x_shape = x.node, x.data.shape

    def backward(grad: np.ndarray) -> None:
        x_node.accumulate(grad.reshape(x_shape))

    return _make(out_data, (x,), backward)


def transpose(x: Tensor, axes: tuple[int, ...]) -> Tensor:
    out_data = x.data.transpose(axes)
    inverse = np.argsort(axes)
    x_node = x.node

    def backward(grad: np.ndarray) -> None:
        x_node.accumulate(grad.transpose(inverse))

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
    x_node = x.node

    def backward(grad: np.ndarray) -> None:
        x_node.accumulate(grad[rows.batch, rows.position])

    return _make(out_data, (x,), backward)


def gather_rows(x: Tensor, rows: Rows) -> Tensor:
    """The packed rows (N, ...) of a padded grid (B, L, ...); the inverse
    of `scatter_rows`."""
    out_data = x.data[rows.batch, rows.position]
    x_node, x_shape = x.node, x.data.shape

    def backward(grad: np.ndarray) -> None:
        full = np.zeros(x_shape, dtype=DTYPE)
        full[rows.batch, rows.position] = grad
        x_node.accumulate(full)

    return _make(out_data, (x,), backward)


def embedding(table: Tensor, ids: np.ndarray) -> Tensor:
    ids = np.asarray(ids, dtype=np.int64)
    if ids.size and (ids.min() < 0 or ids.max() >= table.data.shape[0]):
        raise ValueError("token id out of range")
    out_data = table.data[ids]
    table_node, (vocab, width), dtype = table.node, table.data.shape, table.data.dtype

    def backward(grad: np.ndarray) -> None:
        # one `np.add.at` over the flat table with a 1-D index takes
        # numpy's fast path; it adds the rows in the order the 2-D
        # `np.add.at(acc, ids, grad)` does, so each cell has the same sum
        acc = np.zeros(vocab * width, dtype=dtype)
        cells = (ids[..., None] * width + np.arange(width)).reshape(-1)
        np.add.at(acc, cells, grad.reshape(-1))
        table_node.accumulate(acc.reshape(vocab, width))

    return _make(out_data, (table,), backward)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    mean = x.data.mean(axis=-1, keepdims=True)
    centered = x.data - mean
    var = (centered**2).mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    normed = centered * inv_std
    gain_data = gain.data
    out_data = normed * gain_data + bias.data
    x_node, gain_node, bias_node, bias_shape = x.node, gain.node, bias.node, bias.data.shape

    def backward(grad: np.ndarray) -> None:
        if gain_node is not None:
            gain_node.accumulate(_unbroadcast(grad * normed, gain_data.shape))
        if bias_node is not None:
            bias_node.accumulate(_unbroadcast(grad, bias_shape))
        if x_node is not None:
            g = grad * gain_data
            gx = (
                g - g.mean(axis=-1, keepdims=True)
                - normed * (g * normed).mean(axis=-1, keepdims=True)
            ) * inv_std
            x_node.accumulate(gx)

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
    x_node = x.node

    def backward(grad: np.ndarray) -> None:
        x_node.accumulate(grad * _keep_factor(keep, p))

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
    q_data, v_data = q.data, v.data
    k_t = np.swapaxes(k.data, -1, -2)
    scale = np.asarray(scale, dtype=DTYPE)
    scores = (q_data @ k_t) * scale
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
    out_data = dropped @ v_data
    q_node, k_node, v_node = q.node, k.node, v.node

    def backward(grad: np.ndarray) -> None:
        factor = None if keep is None else _keep_factor(keep, p)
        rebuilt = weights if factor is None else weights * factor  # the dropped weights
        if v_node is not None:
            v_node.accumulate(np.swapaxes(rebuilt, -1, -2) @ grad)
        if q_node is not None or k_node is not None:
            g = grad @ np.swapaxes(v_data, -1, -2)
            if factor is not None:
                g = g * factor
            g = (g - (g * weights).sum(axis=-1, keepdims=True)) * weights
            g = g * scale
            if q_node is not None:
                q_node.accumulate(g @ np.swapaxes(k_t, -1, -2))
            if k_node is not None:
                k_node.accumulate(np.swapaxes(np.swapaxes(q_data, -1, -2) @ g, -1, -2))

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
    logits_node = logits.node

    def backward(grad: np.ndarray) -> None:
        if count > 0:
            probs = np.exp(log_probs)
            one_hot = np.zeros_like(probs)
            np.put_along_axis(one_hot, targets[..., None], 1.0, axis=-1)
            g = (probs - one_hot) * mask[..., None] / count
            logits_node.accumulate(g * grad)

    return _make(out_data, (logits,), backward)


def log_softmax_last(logits: np.ndarray) -> np.ndarray:
    """Plain-numpy log-softmax over the final axis (inference helper)."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def backward(loss: Tensor) -> None:
    """Reverse-accumulate gradients from a scalar loss, consuming the
    graph (see the module docstring)."""
    root = loss.node
    if root is None:
        return  # nothing in the graph needs a gradient
    topo: list[Node] = []
    visited: set[int] = set()
    stack: list[tuple[Node, bool]] = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node.parents:
            stack.append((parent, False))
    root.grad = np.ones_like(loss.data)
    while topo:
        node = topo.pop()  # the list must not keep a consumed node alive
        if node.backward is None:
            continue  # a leaf keeps its gradient
        if node.grad is not None:
            node.backward(node.grad)
        node.parents = ()
        node.backward = None
        if node is not root:
            node.grad = None


def zero_grads(params) -> None:
    for p in params:
        p.grad = None
