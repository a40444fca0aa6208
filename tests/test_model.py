from __future__ import annotations

import numpy as np
import pytest

from gradcheck import grad_check, micro_config
from jayfix.corpus import DIRECTION_FIX, TrainingSample
from jayfix.minilang import Span
from jayfix.model import (
    BeamScorer,
    ModelConfig,
    Seq2SeqModel,
    TrainConfig,
    TrainingDiverged,
    load_checkpoint,
    save_checkpoint,
    train,
)
from jayfix.model.training import make_batch
from jayfix.representation import BOS, EOS, N_RESERVED, PAD

VOCAB = 64


def next_token_distribution(model: Seq2SeqModel, input_tokens, prefix) -> np.ndarray:
    """Fed one token at a time, as beam search feeds `BeamScorer`."""
    scorer = BeamScorer(model, input_tokens)
    for length in range(len(prefix) + 1):
        logprobs = scorer.step_logprobs([prefix[:length]])[0]
    return np.exp(logprobs)


def tiny_model(seed: int = 0) -> Seq2SeqModel:
    return Seq2SeqModel(
        ModelConfig(
            d_model=16, d_ff=32, n_heads=2, n_encoder_layers=1, n_decoder_layers=1,
            dropout=0.0, vocab_size=VOCAB, max_src_len=32, max_tgt_len=16, seed=seed,
        )
    )


def make_samples(n: int, seed: int = 0, width: int = 10) -> list[TrainingSample]:
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        src = rng.integers(N_RESERVED, VOCAB, size=width)
        tgt = rng.integers(N_RESERVED, VOCAB, size=4)
        out.append(
            TrainingSample(
                direction=DIRECTION_FIX,
                input_tokens=tuple(int(t) for t in src),
                target_tokens=tuple(int(t) for t in tgt),
                origin="mechanical",
                iteration=0,
                source_program=f"s{i}",
                span=Span(1, 1),
            )
        )
    return out


# --- forward -------------------------------------------------------------------


def test_distribution_shape_and_normalization():
    model = tiny_model()
    dist = next_token_distribution(model, [10, 11, 12], [13, 14])
    assert dist.shape == (VOCAB,)
    assert np.isfinite(dist).all()
    assert abs(dist.sum() - 1.0) < 1e-5


def test_forward_deterministic_across_fresh_models():
    a = next_token_distribution(tiny_model(seed=5), [10, 11], [12])
    b = next_token_distribution(tiny_model(seed=5), [10, 11], [12])
    assert np.array_equal(a, b)


def test_different_seeds_give_different_models():
    a = next_token_distribution(tiny_model(seed=1), [10, 11], [12])
    b = next_token_distribution(tiny_model(seed=2), [10, 11], [12])
    assert not np.allclose(a, b)


def test_token_id_out_of_range_raises():
    model = tiny_model()
    with pytest.raises(ValueError):
        next_token_distribution(model, [VOCAB + 5], [10])


def test_config_validation():
    with pytest.raises(ValueError):
        ModelConfig(d_model=10, n_heads=3, vocab_size=VOCAB)
    with pytest.raises(ValueError):
        ModelConfig(d_model=0, vocab_size=VOCAB)


# --- gradients -------------------------------------------------------------------


def test_grad_check_two_seeds():
    for seed in (0, 7):
        result = grad_check(seed=seed)
        assert result.n_parameters < 5000
        assert result.max_rel_error < 1e-3, result
        # kink exclusions must stay a negligible fraction of the elements
        assert result.n_skipped_kink <= 0.01 * result.n_checked


def test_empty_target_loss_is_zero_with_zero_grads():
    from jayfix.model import tape

    model = Seq2SeqModel(micro_config())
    src = np.array([[6, 7, 8]])
    tgt_in = np.array([[BOS]])
    tgt_out = np.array([[PAD]])  # fully masked: no target tokens
    tape.zero_grads(model.params.values())
    loss = model.loss(src, tgt_in, tgt_out, train=False)
    assert loss.item() == 0.0
    tape.backward(loss)
    for param in model.params.values():
        assert param.grad is None or not np.any(param.grad)


# --- training --------------------------------------------------------------------


def test_batch_layout():
    samples = make_samples(3)
    src, tgt_in, tgt_out = make_batch(samples)
    assert src.shape[0] == 3
    assert (tgt_in[:, 0] == BOS).all()
    row = 0
    n = len(samples[row].target_tokens)
    assert tgt_out[row, n] == EOS
    assert tgt_in[row, 1 : 1 + n].tolist() == list(samples[row].target_tokens)


def test_training_reduces_loss_and_returns_best():
    model = tiny_model(seed=3)
    samples = make_samples(24, seed=1)
    cfg = TrainConfig(batch_size=8, learning_rate=3e-3, weight_decay=0.01, max_epochs=30, patience=30, seed=5)
    result = train(model, samples, samples, cfg)
    assert result.history[0].train_loss > result.best_val_loss
    assert result.best_epoch == min(range(1, len(result.history) + 1), key=lambda e: result.history[e - 1].val_loss)


def test_early_stopping_returns_best_not_last():
    model = tiny_model(seed=4)
    train_set = make_samples(16, seed=2)
    # validation the model cannot fit: same inputs, contradictory targets
    val_set = make_samples(8, seed=99, width=10)
    cfg = TrainConfig(batch_size=8, learning_rate=5e-3, weight_decay=0.01, max_epochs=40, patience=1, seed=6)
    result = train(model, train_set, val_set, cfg)
    assert len(result.history) <= 40
    assert result.best_epoch <= len(result.history)
    recorded_best = min(h.val_loss for h in result.history)
    assert result.best_val_loss == recorded_best
    # the restored parameters reproduce the best validation loss exactly
    from jayfix.model.training import evaluate_loss

    assert abs(evaluate_loss(model, val_set, 8) - recorded_best) < 1e-9


def test_divergence_aborts_with_diagnostics():
    model = tiny_model(seed=8)
    model.params["out.b"].data[:] = np.nan  # numerically dead state
    samples = make_samples(8, seed=3)
    cfg = TrainConfig(batch_size=8, learning_rate=1e-3, weight_decay=0.0, max_epochs=10, patience=10, seed=0)
    with pytest.raises(TrainingDiverged) as err:
        train(model, samples, samples, cfg)
    assert err.value.epoch == 1
    assert "non-finite" in str(err.value)


def test_training_is_deterministic():
    cfg = TrainConfig(batch_size=8, learning_rate=1e-3, weight_decay=0.01, max_epochs=3, patience=3, seed=11)
    samples = make_samples(16, seed=4)
    a = tiny_model(seed=12)
    b = tiny_model(seed=12)
    train(a, samples, samples, cfg)
    train(b, samples, samples, cfg)
    for name in a.params:
        assert np.array_equal(a.params[name].data, b.params[name].data), name


def test_train_config_defaults():
    cfg = TrainConfig()
    assert cfg.batch_size == 16
    assert cfg.learning_rate == 1e-4
    assert cfg.weight_decay == 0.01


# --- checkpoints -------------------------------------------------------------------


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    model = tiny_model(seed=21)
    model.step = 123
    save_checkpoint(model, tmp_path / "m.ckpt")
    loaded = load_checkpoint(tmp_path / "m.ckpt")
    assert loaded.config == model.config
    assert loaded.step == 123
    for name in model.params:
        assert np.array_equal(loaded.params[name].data, model.params[name].data)
    a = next_token_distribution(model, [10, 11, 12], [13])
    b = next_token_distribution(loaded, [10, 11, 12], [13])
    assert np.array_equal(a, b)


def test_checkpoint_rejects_wrong_files(tmp_path):
    path = tmp_path / "bogus.npz"
    np.savez(path, foo=np.zeros(3))
    with pytest.raises(ValueError):
        load_checkpoint(path)
