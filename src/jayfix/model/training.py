"""Teacher-forced training with decoupled weight decay and early stopping.

Each epoch shuffles the training set with a seeded generator, batches
samples, and takes one AdamW step per batch. After every epoch the
validation loss is measured in eval mode; the best-scoring parameter
snapshot is restored at the end. Training stops early once `patience`
epochs pass without improvement, and aborts with TrainingDiverged if
the loss goes non-finite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..corpus import TrainingSample
from ..representation import BOS, EOS, PAD
from . import tape
from .transformer import Seq2SeqModel


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 16
    learning_rate: float = 1e-4
    weight_decay: float = 0.01
    max_epochs: int = 30
    patience: int = 3
    seed: int = 0

    def __post_init__(self) -> None:
        if min(self.batch_size, self.max_epochs, self.patience) < 1:
            raise ValueError("batch_size, max_epochs and patience must be >= 1")
        if self.learning_rate <= 0 or self.weight_decay < 0:
            raise ValueError("learning_rate must be > 0 and weight_decay >= 0")


class TrainingDiverged(RuntimeError):
    def __init__(self, epoch: int, step: int, loss: float):
        super().__init__(f"non-finite loss {loss!r} at epoch {epoch}, step {step}")
        self.epoch = epoch
        self.step = step


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    val_loss: float


@dataclass
class TrainResult:
    best_val_loss: float
    best_epoch: int
    history: list[EpochStats] = field(default_factory=list)


def make_batch(samples: Sequence[TrainingSample]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pad a group of samples into (src, tgt_in, tgt_out) id arrays."""
    src_width = max(len(s.input_tokens) for s in samples)
    tgt_width = max(len(s.target_tokens) for s in samples) + 1  # room for BOS/EOS
    src = np.full((len(samples), src_width), PAD, dtype=np.int64)
    tgt_in = np.full((len(samples), tgt_width), PAD, dtype=np.int64)
    tgt_out = np.full((len(samples), tgt_width), PAD, dtype=np.int64)
    for row, sample in enumerate(samples):
        src[row, : len(sample.input_tokens)] = sample.input_tokens
        target = list(sample.target_tokens)
        tgt_in[row, 0] = BOS
        tgt_in[row, 1 : 1 + len(target)] = target
        tgt_out[row, : len(target)] = target
        tgt_out[row, len(target)] = EOS
    return src, tgt_in, tgt_out


class AdamW:
    """Adam with decoupled weight decay. Decay applies to matrices
    (ndim >= 2); gains and biases are exempt. The moments have the
    parameters' dtype."""

    def __init__(self, model: Seq2SeqModel, cfg: TrainConfig):
        self.model = model
        self.cfg = cfg
        self.beta1, self.beta2, self.eps = 0.9, 0.999, 1e-8
        self.t = 0
        self.m = {name: np.zeros_like(p.data) for name, p in model.params.items()}
        self.v = {name: np.zeros_like(p.data) for name, p in model.params.items()}

    def step(self) -> None:
        self.t += 1
        lr = self.cfg.learning_rate
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        for name, param in self.model.params.items():
            grad = param.grad
            if grad is None:
                continue
            m = self.m[name]
            v = self.v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * grad
            v *= self.beta2
            v += (1.0 - self.beta2) * grad * grad
            update = (m / bc1) / (np.sqrt(v / bc2) + self.eps)
            if param.data.ndim >= 2:
                update = update + self.cfg.weight_decay * param.data
            param.data -= lr * update


def evaluate_loss(model: Seq2SeqModel, samples: Sequence[TrainingSample], batch_size: int) -> float:
    """Mean token-level cross-entropy in eval mode (no dropout)."""
    total = 0.0
    tokens = 0
    with tape.no_grad():
        for start in range(0, len(samples), batch_size):
            chunk = samples[start : start + batch_size]
            src, tgt_in, tgt_out = make_batch(chunk)
            loss = model.loss(src, tgt_in, tgt_out, train=False)
            count = int((tgt_out != PAD).sum())
            total += loss.item() * count
            tokens += count
    return total / max(tokens, 1)


def train(
    model: Seq2SeqModel,
    train_samples: Sequence[TrainingSample],
    val_samples: Sequence[TrainingSample],
    cfg: TrainConfig,
) -> TrainResult:
    """Fine-tune in place; on return the model holds the parameters of
    the epoch with the best validation loss."""
    if not train_samples:
        raise ValueError("train set is empty")
    if not val_samples:
        raise ValueError("validation set is empty")
    rng = np.random.default_rng(cfg.seed)
    optimizer = AdamW(model, cfg)
    best_val = float("inf")
    best_epoch = 0
    best_state = model.state_arrays()
    history: list[EpochStats] = []
    epochs_since_best = 0
    train_list = list(train_samples)
    for epoch in range(1, cfg.max_epochs + 1):
        order = rng.permutation(len(train_list))
        epoch_loss = 0.0
        epoch_tokens = 0
        for step_index, start in enumerate(range(0, len(order), cfg.batch_size)):
            chunk = [train_list[i] for i in order[start : start + cfg.batch_size]]
            src, tgt_in, tgt_out = make_batch(chunk)
            tape.zero_grads(model.params.values())
            loss = model.loss(src, tgt_in, tgt_out, train=True, rng=rng)
            loss_value = loss.item()
            if not np.isfinite(loss_value):
                raise TrainingDiverged(epoch, step_index, loss_value)
            tape.backward(loss)
            optimizer.step()
            model.step += 1
            count = int((tgt_out != PAD).sum())
            epoch_loss += loss_value * count
            epoch_tokens += count
        train_loss = epoch_loss / max(epoch_tokens, 1)
        val_loss = evaluate_loss(model, val_samples, cfg.batch_size)
        if not np.isfinite(val_loss):
            raise TrainingDiverged(epoch, -1, val_loss)
        history.append(EpochStats(epoch, train_loss, val_loss))
        if val_loss < best_val:
            best_val = val_loss
            best_epoch = epoch
            best_state = model.state_arrays()
            epochs_since_best = 0
        else:
            epochs_since_best += 1
            if epochs_since_best >= cfg.patience:
                break
    model.load_state_arrays(best_state)
    return TrainResult(best_val_loss=best_val, best_epoch=best_epoch, history=history)
