from __future__ import annotations

import json
from dataclasses import fields

import pytest

from jayfix.config import DataError, RunConfig
from jayfix.representation import RepresentationConfig


def test_package_defaults():
    cfg = RunConfig()
    assert cfg.eval_k == 100  # inference beam width
    assert cfg.fuel == 100_000
    assert cfg.per_location_cap == 4
    loop = cfg.loop_config()
    assert loop.k_correct == 10 and loop.k_buggy == 1
    assert loop.critic_family == "compiler"
    assert loop.iterations == 2
    rep = cfg.representation_config()
    assert rep.context_lines == 3
    assert rep.max_input_len == 256 and rep.max_target_len == 64
    train = cfg.train_config()
    assert (train.batch_size, train.learning_rate, train.weight_decay) == (16, 1e-4, 0.01)


def test_flag_precedence_over_file(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"seed": 3, "eval_k": 50, "loop": {"critic_family": "tests"}}))
    cfg = RunConfig.from_file(path)
    assert cfg.eval_k == 50
    cfg.apply_overrides(seed=9, critic="none", iterations=5, beam=7, jobs=2)
    assert cfg.seed == 9
    assert cfg.eval_k == 7
    assert cfg.loop_config().critic_family == "none"
    assert cfg.loop_config().iterations == 5
    assert cfg.jobs == 2


def test_desk_model_config_dimensions():
    cfg = RunConfig()
    model = cfg.model_config(vocab_size=380)
    assert (model.d_model, model.d_ff, model.n_heads) == (128, 512, 4)
    assert model.n_encoder_layers == model.n_decoder_layers == 2
    assert model.dropout == 0.1


def test_bad_config_section_rejected(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"loop": "compiler"}))
    with pytest.raises(ValueError):
        RunConfig.from_file(path)


@pytest.mark.parametrize(
    "raw, key",
    [
        ({"iteration": 3}, "iteration"),
        ({"loop": {"iteration": 3}}, "iteration"),
        ({"model": {"d_modl": 8}}, "d_modl"),
        ({"train": {"epochs": 1}}, "epochs"),
        ({"representation": {"context": 2}}, "context"),
    ],
)
def test_unknown_config_key_rejected(raw, key):
    with pytest.raises(ValueError, match=key):
        RunConfig.from_json(raw)


def test_resolved_config_reads_back():
    # every key the echo writes, apart from the vocabulary-sized model, is known
    cfg = RunConfig.from_json({"seed": 4, "loop": {"k_buggy": 2}, "train": {"max_epochs": 3}})
    echoed = cfg.resolved_json()
    assert RunConfig.from_json(echoed).resolved_json() == echoed


def test_echo_with_vocabulary_reads_back():
    # the echo after gen-mechanical names model.vocab_size; it re-runs as is
    cfg = RunConfig.from_json({"seed": 4, "model_preset": "tiny", "model": {"d_model": 16}})
    echoed = cfg.resolved_json(vocab_size=380)
    assert set(echoed) == {f.name for f in fields(RunConfig)}
    assert echoed["model"]["vocab_size"] == 380
    assert RunConfig.from_json(echoed).resolved_json(vocab_size=380) == echoed


def test_echo_for_another_vocabulary_is_a_data_error():
    echoed = RunConfig().resolved_json(vocab_size=380)
    with pytest.raises(DataError, match="vocab_size"):
        RunConfig.from_json(echoed).model_config(vocab_size=381)


def test_representation_validation():
    with pytest.raises(ValueError):
        RepresentationConfig(context_lines=-1)
    with pytest.raises(ValueError):
        RepresentationConfig(max_input_len=4)


@pytest.mark.parametrize("model, ok", [
    ({}, True),
    ({"max_src_len": 128, "max_tgt_len": 31}, True),  # BOS + 31 target tokens fit max_tgt_len + 1
    ({"max_src_len": 127}, False),
    ({"max_tgt_len": 30}, False),
])
def test_model_lengths_cover_the_representation(model, ok):
    cfg = RunConfig.from_json({
        "model_preset": "tiny", "model": model,
        "representation": {"max_input_len": 128, "max_target_len": 32},
    })
    if ok:
        resolved = cfg.model_config(vocab_size=380)
        assert resolved.max_src_len >= 128 and resolved.max_tgt_len + 1 >= 32
    else:
        with pytest.raises(ValueError, match="below the representation"):
            cfg.model_config(vocab_size=380)
