"""Finite-difference validation of the analytic gradients.

Builds a micro model (a few thousand parameters), computes the analytic
gradient of the batch cross-entropy, then perturbs every parameter
element by +/-h and compares against the central difference. This is
the correctness gate for the hand-rolled backward passes.

Central differences are only valid where the loss is smooth within the
probe window. ReLU is the one kink in the model, so the probe batch is
drawn to keep pre-activations away from zero, and any element whose
+/-h evaluations still straddle a sign change is excluded from the
comparison (and counted); analytic subgradients at a kink are not
comparable to a chord across it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from jayfix.corpus import DIRECTION_FIX, TrainingSample
from jayfix.minilang import Span
from jayfix.model import ModelConfig, Seq2SeqModel, tape
from jayfix.model.training import make_batch
from jayfix.representation import N_RESERVED


def micro_config(vocab_size: int = 16, seed: int = 0) -> ModelConfig:
    """Sub-5k-parameter configuration usable with finite differences."""
    return ModelConfig(
        d_model=8,
        d_ff=16,
        n_heads=1,
        n_encoder_layers=1,
        n_decoder_layers=1,
        dropout=0.0,
        vocab_size=vocab_size,
        max_src_len=12,
        max_tgt_len=8,
        seed=seed,
    )


@dataclass(frozen=True)
class GradCheckResult:
    max_rel_error: float
    worst_param: str
    n_parameters: int
    n_checked: int
    n_skipped_kink: int


def _random_batch(config: ModelConfig, rng: np.random.Generator, n: int = 2):
    samples = []
    for i in range(n):
        src_len = int(rng.integers(3, min(9, config.max_src_len - 1)))
        tgt_len = int(rng.integers(2, min(6, config.max_tgt_len - 1)))
        src = rng.integers(N_RESERVED, config.vocab_size, size=src_len)
        tgt = rng.integers(N_RESERVED, config.vocab_size, size=tgt_len)
        samples.append(
            TrainingSample(
                direction=DIRECTION_FIX,
                input_tokens=tuple(int(t) for t in src),
                target_tokens=tuple(int(t) for t in tgt),
                origin="mechanical",
                iteration=0,
                source_program="gradcheck",
                span=Span(1, 1),
            )
        )
    return make_batch(samples)


def _loss_with_relu_signs(model: Seq2SeqModel, src, tgt_in, tgt_out) -> tuple[float, bytes]:
    """Eval-mode loss plus the sign pattern of every relu input."""
    signs: list[bytes] = []
    original = tape.relu

    def probed(x):
        signs.append((x.data > 0).tobytes())
        return original(x)

    tape.relu = probed
    try:
        with tape.no_grad():
            value = model.loss(src, tgt_in, tgt_out, train=False).item()
    finally:
        tape.relu = original
    return value, b"".join(signs)


def _min_relu_margin(model: Seq2SeqModel, src, tgt_in, tgt_out) -> float:
    closest = [np.inf]
    original = tape.relu

    def probed(x):
        if x.data.size:
            closest[0] = min(closest[0], float(np.abs(x.data).min()))
        return original(x)

    tape.relu = probed
    try:
        with tape.no_grad():
            model.loss(src, tgt_in, tgt_out, train=False)
    finally:
        tape.relu = original
    return closest[0]


def grad_check(config: ModelConfig | None = None, seed: int = 0, step: float = 1e-4) -> GradCheckResult:
    """Max relative error between analytic and central-difference
    gradients over every parameter element that stays clear of relu
    kinks inside the probe window."""
    config = config or micro_config(seed=seed)
    model = Seq2SeqModel(config)
    if model.n_parameters() >= 5000:
        raise ValueError(f"config too large for finite differences: {model.n_parameters()} params")
    rng = np.random.default_rng(seed + 1)
    src, tgt_in, tgt_out = _random_batch(config, rng)
    for _ in range(16):  # prefer a batch with pre-activations away from zero
        if _min_relu_margin(model, src, tgt_in, tgt_out) > 2.0 * step:
            break
        src, tgt_in, tgt_out = _random_batch(config, rng)

    tape.zero_grads(model.params.values())
    loss = model.loss(src, tgt_in, tgt_out, train=False)
    tape.backward(loss)

    worst = 0.0
    worst_param = ""
    checked = 0
    skipped = 0
    for name, param in model.params.items():
        analytic = param.grad if param.grad is not None else np.zeros_like(param.data)
        flat = param.data.reshape(-1)
        analytic_flat = analytic.reshape(-1)
        for index in range(flat.size):
            original = flat[index]
            flat[index] = original + step
            upper, signs_up = _loss_with_relu_signs(model, src, tgt_in, tgt_out)
            flat[index] = original - step
            lower, signs_down = _loss_with_relu_signs(model, src, tgt_in, tgt_out)
            flat[index] = original
            if signs_up != signs_down:
                skipped += 1
                continue
            checked += 1
            numeric = (upper - lower) / (2.0 * step)
            denom = max(abs(analytic_flat[index]) + abs(numeric), 1e-6)
            rel = abs(analytic_flat[index] - numeric) / denom
            if rel > worst:
                worst = rel
                worst_param = name
    return GradCheckResult(
        max_rel_error=worst,
        worst_param=worst_param,
        n_parameters=model.n_parameters(),
        n_checked=checked,
        n_skipped_kink=skipped,
    )
