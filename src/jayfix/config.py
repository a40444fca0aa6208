"""Run configuration: one JSON file, overridable by CLI flags, with
defaults matching the per-module values. Precedence: flags > file >
defaults. Every command echoes its fully-resolved configuration into
its output directory."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Any, Optional

from .backtranslate import LoopConfig
from .minilang import DEFAULT_FUEL
from .model import ModelConfig, TrainConfig
from .representation import RepresentationConfig
from .util import DataError


def _default_jobs() -> int:
    import os

    return max(1, os.cpu_count() or 1)


# the dataclass each section's overrides are passed to
_SECTIONS = {
    "model": ModelConfig,
    "train": TrainConfig,
    "loop": LoopConfig,
    "representation": RepresentationConfig,
}


def _reject_unknown_keys(raw: dict, cls, where: str) -> None:
    unknown = sorted(set(raw) - {f.name for f in fields(cls)})
    if unknown:
        raise ValueError(f"unknown key(s) in {where}: {', '.join(unknown)}")


@dataclass
class RunConfig:
    seed: int = 0
    corpus_dir: str = "corpus"
    work_dir: str = "work"
    jobs: int = field(default_factory=_default_jobs)
    eval_k: int = 100
    fuel: int = DEFAULT_FUEL
    per_location_cap: int = 4
    model_preset: str = "desk"  # desk | tiny
    model: dict = field(default_factory=dict)  # ModelConfig overrides
    train: dict = field(default_factory=dict)  # TrainConfig overrides
    loop: dict = field(default_factory=dict)  # LoopConfig overrides
    representation: dict = field(default_factory=dict)

    @staticmethod
    def from_file(path: str | Path) -> "RunConfig":
        try:
            text = Path(path).read_text(encoding="utf-8")
        except IsADirectoryError as err:
            raise DataError(f"config {path} is a directory, not a file") from err
        raw = json.loads(text)
        return RunConfig.from_json(raw)

    @staticmethod
    def from_json(raw: dict) -> "RunConfig":
        """A config from parsed JSON. A key that names no setting, at the
        top level or in a section, is an error rather than ignored."""
        if not isinstance(raw, dict):
            raise ValueError("config must be a JSON object")
        _reject_unknown_keys(raw, RunConfig, "config")
        cfg = RunConfig()
        for key, value in raw.items():
            if key in _SECTIONS:
                if not isinstance(value, dict):
                    raise ValueError(f"config section {key!r} must be an object")
                _reject_unknown_keys(value, _SECTIONS[key], f"config section {key!r}")
                value = dict(value)
            setattr(cfg, key, value)
        return cfg

    def apply_overrides(
        self,
        seed: Optional[int] = None,
        critic: Optional[str] = None,
        iterations: Optional[int] = None,
        beam: Optional[int] = None,
        jobs: Optional[int] = None,
    ) -> None:
        if seed is not None:
            self.seed = seed
        if critic is not None:
            self.loop["critic_family"] = critic
        if iterations is not None:
            self.loop["iterations"] = iterations
        if beam is not None:
            self.eval_k = beam
        if jobs is not None:
            self.jobs = jobs

    # --- resolved sub-configurations ---

    def representation_config(self) -> RepresentationConfig:
        return RepresentationConfig(**self.representation)

    def model_config(self, vocab_size: int) -> ModelConfig:
        overrides = dict(self.model)
        # an echoed config names the size of the vocabulary it ran with
        named = overrides.pop("vocab_size", vocab_size)
        if named != vocab_size:
            raise DataError(f"config model.vocab_size {named} does not match the vocabulary's size {vocab_size}")
        overrides.setdefault("seed", self.seed)
        rep = self.representation_config()
        overrides.setdefault("max_src_len", rep.max_input_len)
        overrides.setdefault("max_tgt_len", rep.max_target_len)
        if self.model_preset == "tiny":
            model = ModelConfig.tiny(vocab_size=vocab_size, **overrides)
        elif self.model_preset == "desk":
            model = ModelConfig.desk(vocab_size=vocab_size, **overrides)
        else:
            raise ValueError(f"unknown model preset {self.model_preset!r}")
        # the decoder reads BOS plus at most max_target_len - 1 target tokens
        if model.max_src_len < rep.max_input_len or model.max_tgt_len + 1 < rep.max_target_len:
            raise ValueError(
                f"model lengths max_src_len {model.max_src_len} / max_tgt_len {model.max_tgt_len} are below "
                f"the representation's max_input_len {rep.max_input_len} / max_target_len {rep.max_target_len}"
            )
        return model

    def train_config(self) -> TrainConfig:
        overrides = dict(self.train)
        overrides.setdefault("seed", self.seed)
        return TrainConfig(**overrides)

    def loop_config(self) -> LoopConfig:
        overrides = dict(self.loop)
        overrides.setdefault("seed", self.seed)
        overrides.setdefault("fuel", self.fuel)
        overrides.setdefault("jobs", self.jobs)
        return LoopConfig(**overrides)

    def resolved_json(self, vocab_size: Optional[int] = None) -> dict[str, Any]:
        """Every setting, each section resolved to its dataclass; the
        model section only once the vocabulary's size is known."""
        out = asdict(self)
        out.update(
            train=asdict(self.train_config()),
            loop=asdict(self.loop_config()),
            representation=asdict(self.representation_config()),
        )
        if vocab_size is not None:
            out["model"] = asdict(self.model_config(vocab_size))
        return out

