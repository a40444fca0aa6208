"""Differential tests of the tape against the code it replaced.

`tape.matmul`'s folded weight product is checked against numpy's
batched matmul, the path it replaces for a 2-D right operand.

The reference computes the forward product and both gradients one
leading index at a time, summing the weight gradient over those indices
afterwards, as `matmul` did before it folded the rows into one GEMM.
Both run in float64 (the `float64` fixture).

Gradients kept by `Node.accumulate` are checked against the
zero-filled buffers it used to add into.

`tape.embedding`'s backward is checked bit for bit against the 2-D
`np.add.at` it replaced.

`tape.attention` is checked bit for bit against the chain of five tape
ops it replaces (`helpers.unfused_attention`), in float32 and float64,
and so is a model trained through each. `backward` consumes its graph;
the leaf gradients are checked against a walk that keeps it.
"""

from __future__ import annotations

import dataclasses
import weakref

import numpy as np
import pytest

from gradcheck import _random_batch, micro_config
from helpers import mul, unfused_attention
from jayfix.model import AdamW, ModelConfig, Seq2SeqModel, TrainConfig, tape
from jayfix.model.transformer import NEG_INF

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
    out.node.backward(grad)
    expected_out, expected_ga, expected_gb = batched_reference(a_data, b.data, grad)
    assert out.shape == expected_out.shape and a.grad.shape == a_data.shape and b.grad.shape == b.data.shape
    assert out.data.dtype == a.grad.dtype == b.grad.dtype == np.float64
    assert relative_error(out.data, expected_out) <= TOLERANCE
    assert relative_error(a.grad, expected_ga) <= TOLERANCE
    assert relative_error(b.grad, expected_gb) <= TOLERANCE


# --- gradient ownership ----------------------------------------------------------
#
# `Node.accumulate` keeps the first gradient array a node is handed,
# without a copy, and adds any later one out of place. The array it
# keeps may be another node's gradient (`add` hands the same array to
# both parents) or a view of one (`reshape`, `transpose`), so no backward
# may write into an array it was handed. The reference is `accumulate`
# as it was: a zero-filled buffer per node, added into in place.


def zero_buffer_accumulate(self, grad):
    if self.grad is None:
        self.grad = np.zeros(grad.shape, dtype=grad.dtype)
    self.grad += grad


def shared_array(leaves):
    a, b = leaves
    s = tape.add(a, b)  # hands one array to a and to b
    return tape.add(mul(s, a), a)  # then a gets two more contributions


def used_twice(leaves):
    (x,) = leaves
    return tape.add(mul(x, x), tape.relu(x))


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

    def recording(node, grad):
        handed.append((grad, grad.copy()))
        accumulate(node, grad)

    monkeypatch.setattr(tape.Node, "accumulate", recording)
    rng = np.random.default_rng(seed)
    leaves = [tape.Tensor(rng.normal(size=shape), requires_grad=True) for shape in shapes]
    out = graph(leaves)
    tape.backward(out)
    tensors = leaves + [out]
    assert all(tensor.grad.shape == tensor.shape for tensor in tensors)
    return [tensor.grad for tensor in tensors], handed


@pytest.mark.usefixtures("float64")
@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_kept_gradients_equal_zero_buffer_accumulation(name, monkeypatch):
    graph, shapes = GRAPHS[name]
    ours, handed = run_graph(graph, shapes, 1, tape.Node.accumulate, monkeypatch)
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
    for accumulate in (tape.Node.accumulate, zero_buffer_accumulate):
        handed = []

        def recording(node, grad, accumulate=accumulate):
            handed.append((grad, grad.copy()))
            accumulate(node, grad)

        monkeypatch.setattr(tape.Node, "accumulate", recording)
        model = Seq2SeqModel(config)
        tape.backward(model.loss(*batch, train=True, rng=np.random.default_rng(4)))
        assert all(np.array_equal(array, copy) for array, copy in handed)
        assert all(param.grad.shape == param.shape for param in model.params.values())
        grads.append({name: param.grad for name, param in model.params.items()})
    ours, theirs = grads
    assert ours.keys() == theirs.keys()
    for name in ours:
        assert np.array_equal(ours[name], theirs[name]), name


# --- embedding backward ----------------------------------------------------------
#
# `tape.embedding` adds its gradient rows into the flat table with a 1-D
# index, numpy's fast path for `np.add.at`. The reference is the 2-D
# `np.add.at(acc, ids, grad)` it replaces: each cell must get the same
# float sum, its rows added in the same order.

EMBEDDING_IDS = {
    "one id 300 times": lambda rng: rng.permutation(np.concatenate([np.full(300, 7), rng.integers(0, 380, 200)])),
    "all rows one id": lambda rng: np.full(500, 3),
    "2-D ids": lambda rng: rng.integers(0, 380, size=(16, 33)),
    "position ids": lambda rng: np.nonzero(np.arange(132) < rng.integers(1, 133, size=(16, 1)))[1],
    "Zipf ids": lambda rng: np.minimum(rng.zipf(1.3, size=2000), 380) - 1,
}


@pytest.mark.parametrize("contiguous", [True, False], ids=["contiguous", "transposed"])
@pytest.mark.parametrize("width", [64, 128])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("case", sorted(EMBEDDING_IDS))
def test_embedding_backward_equals_two_dimensional_add_at_bit_for_bit(case, dtype, width, contiguous, monkeypatch):
    monkeypatch.setattr(tape, "DTYPE", dtype)
    rng = np.random.default_rng(sorted(EMBEDDING_IDS).index(case))
    ids = EMBEDDING_IDS[case](rng)
    table = tape.Tensor(rng.normal(size=(380, width)), requires_grad=True)
    out = tape.embedding(table, ids)
    assert np.array_equal(out.data, table.data[ids])
    if contiguous:
        grad = rng.normal(size=out.shape).astype(dtype)
    else:
        grad = np.swapaxes(rng.normal(size=out.shape[::-1]).astype(dtype), 0, -1)
    out.node.backward(grad)
    expected = np.zeros((380, width), dtype=dtype)
    np.add.at(expected, ids, grad)
    assert table.grad.dtype == dtype and table.grad.shape == expected.shape
    assert table.grad.tobytes() == expected.tobytes()


# --- fused attention ---------------------------------------------------------------


def pad_mask(real: np.ndarray) -> np.ndarray:
    """(B, 1, 1, Lk) additive mask over keys that are not `real`."""
    return np.where(real[:, None, None, :], 0.0, NEG_INF).astype(tape.DTYPE)


def causal(length: int) -> np.ndarray:
    return np.triu(np.full((length, length), NEG_INF, dtype=tape.DTYPE), k=1)[None, None]


# (query length, key length, the additive mask over a batch of 3)
ATTENTION_CASES = {
    "no mask": (5, 5, lambda: None),
    "PAD mask": (5, 5, lambda: pad_mask(np.arange(5) < np.array([[5], [3], [1]]))),
    "causal + PAD mask": (5, 5, lambda: causal(5) + pad_mask(np.arange(5) < np.array([[5], [4], [2]]))),
    "Lq != Lk": (3, 7, lambda: pad_mask(np.arange(7) < np.array([[7], [2], [5]]))),
}


def attend(op, case: str, p: float, frozen: str):
    """Output and q, k, v gradients of `op` on the case's inputs, with the
    input named `frozen` not requiring a gradient, and the next draw of
    the dropout generator."""
    q_len, k_len, mask = ATTENTION_CASES[case]
    rng = np.random.default_rng(sorted(ATTENTION_CASES).index(case))
    shapes = {"q": (3, 2, q_len, 6), "k": (3, 2, k_len, 6), "v": (3, 2, k_len, 6)}
    inputs = {name: tape.Tensor(rng.normal(size=shape), requires_grad=name != frozen)
              for name, shape in shapes.items()}
    dropout_rng = np.random.default_rng(11)
    out = op(*inputs.values(), 1.0 / np.sqrt(6), mask(), p, dropout_rng, True)
    tape.backward(mul(out, rng.normal(size=out.shape)))
    return out.data, [inputs[name].grad for name in shapes], dropout_rng.random()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("p", [0.0, 0.1])
@pytest.mark.parametrize("case", sorted(ATTENTION_CASES))
def test_attention_equals_the_unfused_chain_bit_for_bit(case, p, dtype, monkeypatch):
    monkeypatch.setattr(tape, "DTYPE", dtype)
    for frozen in ("none", "q", "k", "v"):
        ours = attend(tape.attention, case, p, frozen)
        theirs = attend(unfused_attention, case, p, frozen)
        assert ours[0].dtype == dtype and np.array_equal(ours[0], theirs[0])
        for name, a, b in zip("qkv", ours[1], theirs[1]):
            if name == frozen:
                assert a is None and b is None
            else:
                assert a.dtype == dtype and np.array_equal(a, b), name
        assert ours[2] == theirs[2]


@pytest.mark.parametrize("p", [0.0, 0.1])
def test_attention_keeps_only_its_weights_and_a_boolean_keep_mask(p):
    rng = np.random.default_rng(0)
    q, k, v = (tape.Tensor(rng.normal(size=(2, 2, 5, 4)), requires_grad=True) for _ in range(3))
    out = tape.attention(q, k, v, 0.5, None, p, np.random.default_rng(1), True)
    saved = [cell.cell_contents for cell in out.node.backward.__closure__]
    scores = [array for array in saved if isinstance(array, np.ndarray) and array.shape == (2, 2, 5, 5)]
    assert sorted(array.dtype.name for array in scores) == (["bool", "float32"] if p else ["float32"])


# --- a graph is backpropagated once ------------------------------------------------


def keeping_backward(loss):
    """`backward` as it was: the same walk, leaving the graph alive."""
    root = loss.node
    topo, visited, stack = [], set(), [(root, False)]
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
    for node in reversed(topo):
        if node.backward is not None and node.grad is not None:
            node.backward(node.grad)
    return topo


def test_backward_frees_the_graph_and_keeps_the_leaf_gradients():
    grads = []
    for walk in (tape.backward, keeping_backward):
        rng = np.random.default_rng(5)
        x = tape.Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        w = tape.Tensor(rng.normal(size=(3, 3)), requires_grad=True)
        hidden = tape.relu(tape.matmul(x, w))
        out = tape.add(mul(hidden, hidden), tape.matmul(hidden, w))
        node, value = weakref.ref(hidden.node), weakref.ref(hidden.data)
        del hidden
        assert node() is not None and value() is not None  # `mul` and `matmul` read the value
        kept = walk(out)
        assert (node() is None) == (value() is None) == (walk is tape.backward)
        assert out.grad is not None  # the root keeps its seed
        grads.append((x.grad, w.grad))
        del kept
    (ours_x, ours_w), (theirs_x, theirs_w) = grads
    assert np.array_equal(ours_x, theirs_x) and np.array_equal(ours_w, theirs_w)


def test_model_backward_frees_every_attention_node(monkeypatch):
    config = dataclasses.replace(micro_config(seed=4), dropout=0.1)
    batch = _random_batch(config, np.random.default_rng(6), n=3)
    attention = tape.attention
    grads = []
    for walk in (tape.backward, keeping_backward):
        nodes = []

        def recording(*args):
            out = attention(*args)
            nodes.append(weakref.ref(out.node))
            return out

        monkeypatch.setattr(tape, "attention", recording)
        model = Seq2SeqModel(config)
        loss = model.loss(*batch, train=True, rng=np.random.default_rng(7))
        assert len(nodes) == 3 and all(node() is not None for node in nodes)
        kept = walk(loss)
        assert all((node() is None) == (walk is tape.backward) for node in nodes)
        grads.append({name: param.grad for name, param in model.params.items()})
        del kept
    ours, theirs = grads
    for name in ours:
        assert np.array_equal(ours[name], theirs[name]), name


# --- the graph keeps only what backward reads -------------------------------------
#
# A node holds its parents' nodes, never their tensors, and each backward
# closure captures only the arrays it reads. A forward value that no
# backward reads dies with its tensor; an operand that one reads lives
# until that backward has run.

# ops whose backward reads nothing of its input's value, on a (6, 8) input
CHAINS = {
    "add": [],
    "relu": [tape.relu],
    "dropout": [lambda h: tape.dropout(h, 0.5, np.random.default_rng(0), True)],
    "reshape": [lambda h: tape.reshape(h, (3, 2, 8)), lambda h: tape.reshape(h, (6, 8))],
    "relu, dropout, reshape": [
        tape.relu,
        lambda h: tape.dropout(h, 0.5, np.random.default_rng(0), True),
        lambda h: tape.reshape(h, (3, 2, 8)),
        lambda h: tape.reshape(h, (6, 8)),
    ],
}


@pytest.mark.parametrize("chain", sorted(CHAINS))
def test_a_value_no_backward_reads_dies_with_its_tensor(chain):
    rng = np.random.default_rng(12)
    x, w, b = (tape.Tensor(rng.normal(size=shape), requires_grad=True) for shape in ((6, 4), (4, 8), (8,)))
    h = tape.matmul(x, w)
    values = [weakref.ref(h.data)]
    for op in CHAINS[chain]:
        h = op(h)
        values.append(weakref.ref(h.data))
    out = tape.add(h, b)  # `add` reads no value
    assert values[-1]() is not None
    del h
    assert [value() for value in values] == [None] * len(values)
    tape.backward(out)
    assert x.grad.shape == x.shape and w.grad.shape == w.shape and b.grad.shape == b.shape


@pytest.mark.parametrize("x_shape", [(10, 4), (2, 5, 4)], ids=["2-D", "folded"])
def test_the_operands_of_matmul_and_attention_live_until_backward(x_shape):
    rng = np.random.default_rng(13)
    x = tape.Tensor(rng.normal(size=x_shape), requires_grad=True)
    wq, wk, wv, wo = (tape.Tensor(rng.normal(size=(4, 4)), requires_grad=True) for _ in range(4))
    q, k, v = (tape.relu(tape.matmul(x, w)) for w in (wq, wk, wv))
    context = tape.attention(q, k, v, 0.5, None, 0.1, np.random.default_rng(1), True)
    out = tape.matmul(context, wo)
    operands = [weakref.ref(t.data) for t in (q, k, v, context)]
    del q, k, v, context
    assert all(operand() is not None for operand in operands)
    tape.backward(out)
    assert [operand() for operand in operands] == [None] * 4


# the arrays each op's backward captures, by name, with their dtype kind;
# besides them it captures its parents' nodes, shapes, dtypes, scalars and `Rows`
SAVED = {
    "add": {},
    "matmul": {"a_data": "f", "b_data": "f"},  # `rows` for `a_data` when folded
    "attention": {"weights": "f", "keep": "b", "q_data": "f", "v_data": "f", "k_t": "f", "scale": "f"},
    "layer_norm": {"normed": "f", "inv_std": "f", "gain_data": "f"},
    "relu": {"mask": "b"},
    "dropout": {"keep": "b"},
    "cross_entropy": {"log_probs": "f", "targets": "i", "mask": "b"},
    "reshape": {},
    "transpose": {"inverse": "i"},
    "gather_rows": {},
    "scatter_rows": {},
    "embedding": {"ids": "i"},
}


CAPTURED_TYPES = (tape.Node, np.ndarray, tape.Rows, tuple, int, float, np.dtype)


def test_a_desk_training_graph_keeps_only_what_backward_reads():
    config = ModelConfig.desk(vocab_size=40)
    assert config.dropout == 0.1
    model = Seq2SeqModel(config)
    loss = model.loss(*_random_batch(config, np.random.default_rng(14), n=3), train=True,
                      rng=np.random.default_rng(15))
    seen, stack, ops = set(), [loss.node], set()
    while stack:
        node = stack.pop()
        if id(node) in seen or node.backward is None:
            continue
        seen.add(id(node))
        stack.extend(node.parents)
        op = node.backward.__qualname__.split(".")[0]
        ops.add(op)
        captured = dict(zip(node.backward.__code__.co_freevars,
                            (cell.cell_contents for cell in node.backward.__closure__)))
        arrays = {name: value.dtype.kind for name, value in captured.items() if isinstance(value, np.ndarray)}
        assert arrays == SAVED[op], op
        for name, value in captured.items():
            assert value is None or isinstance(value, CAPTURED_TYPES), (op, name)
            assert not isinstance(value, tuple) or all(isinstance(size, int) for size in value), (op, name)
    assert ops == set(SAVED)


def test_adamw_steps_through_fused_attention_equal_the_unfused_chain(monkeypatch):
    config = ModelConfig(d_model=16, d_ff=24, n_heads=2, n_encoder_layers=2, n_decoder_layers=2,
                         dropout=0.1, vocab_size=16, max_src_len=12, max_tgt_len=8, seed=8)
    batches = [_random_batch(config, np.random.default_rng(seed), n=4) for seed in range(3)]
    states = []
    for attention in (tape.attention, unfused_attention):
        monkeypatch.setattr(tape, "attention", attention)
        model = Seq2SeqModel(config)
        optimizer = AdamW(model, TrainConfig(learning_rate=1e-2))
        rng = np.random.default_rng(9)
        for batch in batches:
            tape.zero_grads(model.params.values())
            tape.backward(model.loss(*batch, train=True, rng=rng))
            optimizer.step()
        states.append(model.state_arrays())
    ours, theirs = states
    assert ours.keys() == theirs.keys()
    for name in ours:
        assert ours[name].dtype == np.float32 and np.array_equal(ours[name], theirs[name]), name
