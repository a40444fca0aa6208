from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from gradcheck import grad_check, micro_config
from jayfix.corpus import DIRECTION_FIX, TrainingSample
from jayfix.minilang import Span
from jayfix.model import (
    AdamW,
    BeamScorer,
    ModelConfig,
    Seq2SeqModel,
    TrainConfig,
    TrainingDiverged,
    load_checkpoint,
    save_checkpoint,
    tape,
    train,
)
from jayfix.model.training import make_batch
from jayfix.representation import BOS, EOS, N_RESERVED, PAD

VOCAB = 64


def next_token_distribution(model: Seq2SeqModel, input_tokens, prefix) -> np.ndarray:
    """Fed one token at a time, as beam search feeds `BeamScorer`."""
    scorer = BeamScorer(model, [input_tokens])
    for length in range(len(prefix) + 1):
        logprobs = scorer.step_logprobs([[prefix[:length]]])[0]
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


@pytest.mark.usefixtures("float64")
def test_grad_check_two_seeds():
    for seed in (0, 7):
        result = grad_check(seed=seed)
        assert result.n_parameters < 5000
        assert result.max_rel_error < 1e-3, result
        # kink exclusions must stay a negligible fraction of the elements
        assert result.n_skipped_kink <= 0.01 * result.n_checked


def test_empty_target_loss_is_zero_with_zero_grads():
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


def test_training_and_decoding_stay_in_float32(monkeypatch):
    # Tensor casts every op's output to float32, so an op that mixes in a
    # float64 array (a mask, a dropout keep mask) computes in float64 and
    # hides it; record each op's output and each gradient before any cast
    produced = set()
    make, accumulate = tape._make, tape.Tensor.accumulate

    def recording_make(data, parents, backward):
        produced.add(data.dtype)
        return make(data, parents, backward)

    def recording_accumulate(tensor, grad):
        produced.add(grad.dtype)
        accumulate(tensor, grad)

    monkeypatch.setattr(tape, "_make", recording_make)
    monkeypatch.setattr(tape.Tensor, "accumulate", recording_accumulate)
    model = Seq2SeqModel(dataclasses.replace(tiny_model().config, dropout=0.1))
    optimizer = AdamW(model, TrainConfig())
    src, tgt_in, tgt_out = make_batch(make_samples(2, width=10) + make_samples(2, seed=1, width=6))
    tape.backward(model.loss(src, tgt_in, tgt_out, train=True, rng=np.random.default_rng(0)))
    optimizer.step()
    scorer = BeamScorer(model, [[10, 11, 12, PAD], [13, 14]])
    logprobs = scorer.step_logprobs([[[]], [[]]])
    arrays = {"pad mask": Seq2SeqModel.pad_mask(src), "log-probs": logprobs,
              "self mask": scorer._self_mask, "cross mask": scorer._cross_mask}
    for name, param in model.params.items():
        assert param.grad is not None, name
        arrays.update({name: param.data, f"{name} grad": param.grad,
                       f"{name} m": optimizer.m[name], f"{name} v": optimizer.v[name]})
    for i, ((keys, values), (cross_k, cross_v)) in enumerate(zip(scorer._cache, scorer._cross_kv)):
        arrays.update({f"layer {i} keys": keys, f"layer {i} values": values,
                       f"layer {i} cross keys": cross_k.data, f"layer {i} cross values": cross_v.data})
    assert {name: a.dtype for name, a in arrays.items() if a.dtype != np.float32} == {}
    assert produced == {np.dtype(np.float32)}


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


def test_loading_a_checkpoint_draws_no_random_initialisation(tmp_path, monkeypatch):
    model = tiny_model(seed=23)
    save_checkpoint(model, tmp_path / "m.ckpt")
    draws = []
    default_rng = np.random.default_rng

    def spy(*args, **kwargs):
        draws.append(args)
        return default_rng(*args, **kwargs)

    monkeypatch.setattr(np.random, "default_rng", spy)
    loaded = load_checkpoint(tmp_path / "m.ckpt")
    assert draws == []
    Seq2SeqModel(model.config)
    assert draws == [(23,)]  # the spy sees a draw where there is one
    monkeypatch.undo()
    assert list(loaded.params) == list(model.params)
    for name, param in model.params.items():
        assert loaded.params[name].requires_grad
        assert loaded.params[name].data.dtype == np.float32
        assert np.array_equal(loaded.params[name].data, param.data), name
    a = next_token_distribution(model, [10, 11, 12], [13, 14])
    b = next_token_distribution(loaded, [10, 11, 12], [13, 14])
    assert np.array_equal(a, b)


def test_arrays_of_another_layout_are_rejected_by_name_and_shape():
    model = tiny_model(seed=24)
    arrays = model.state_arrays()
    missing = {name: array for name, array in arrays.items() if name != "out.b"}
    reshaped = {**arrays, "dec.0.ffn.w1": arrays["dec.0.ffn.w1"].T}
    for load in (model.load_state_arrays, lambda a: Seq2SeqModel(model.config, a)):
        with pytest.raises(ValueError, match=r"parameter name mismatch: \['out.b'\]"):
            load(missing)
        with pytest.raises(ValueError, match="shape mismatch for dec.0.ffn.w1"):
            load(reshaped)
    for name, array in arrays.items():
        assert np.array_equal(model.params[name].data, array), name


def test_float64_checkpoint_loads_cast_once(tmp_path, monkeypatch):
    # as written before jayfix computed in float32: same format, float64 arrays
    with monkeypatch.context() as patch:
        patch.setattr(tape, "DTYPE", np.float64)
        save_checkpoint(tiny_model(seed=22), tmp_path / "old.ckpt")
    with np.load(tmp_path / "old.ckpt") as archive:
        stored = {key[len("param/"):]: archive[key] for key in archive.files if key.startswith("param/")}
    assert {array.dtype for array in stored.values()} == {np.dtype(np.float64)}
    loaded = load_checkpoint(tmp_path / "old.ckpt")
    cast = Seq2SeqModel(loaded.config)
    cast.load_state_arrays({name: array.astype(np.float32) for name, array in stored.items()})
    for name, array in stored.items():
        assert loaded.params[name].data.dtype == np.float32
        assert np.array_equal(loaded.params[name].data, array.astype(np.float32)), name
    src, tgt_in, tgt_out = make_batch(make_samples(3, seed=5))
    lengths = (tgt_out != PAD).sum(axis=1)
    with tape.no_grad():
        logits = loaded.forward_logits(src, tgt_in, lengths).data
        assert logits.dtype == np.float32
        assert np.array_equal(logits, cast.forward_logits(src, tgt_in, lengths).data)


def test_checkpoint_rejects_wrong_files(tmp_path):
    path = tmp_path / "bogus.npz"
    np.savez(path, foo=np.zeros(3))
    with pytest.raises(ValueError):
        load_checkpoint(path)


def test_interrupted_save_keeps_the_old_checkpoint(tmp_path, monkeypatch):
    path = tmp_path / "m.ckpt"
    save_checkpoint(tiny_model(seed=21), path)
    before = path.read_bytes()

    def failing_savez(fh, **arrays):
        fh.write(b"PK\x03\x04 half an archive")
        raise OSError("no space left on device")

    monkeypatch.setattr(np, "savez", failing_savez)
    with pytest.raises(OSError, match="no space"):
        save_checkpoint(tiny_model(seed=22), path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["m.ckpt"]
