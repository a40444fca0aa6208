"""Checkpoint container: a numpy .npz archive with named parameter
arrays plus a JSON metadata entry (format version, model config echo,
training-step counter). See docs/checkpoint.md for the byte layout.
Parameters are stored in the dtype the model computes in, `tape.DTYPE`;
loading casts them to it once, so an older float64 checkpoint still
loads. Round-tripping a model through save/load reproduces its outputs
bit-for-bit on the same platform and dtype. Loading draws no random
initialisation: the model is built from the stored arrays. A path that
is a directory, or a file that is not a whole zip archive (truncated,
or another format), raises DataError. Saving writes a temporary file and
renames it into place, so a failed save leaves the old checkpoint whole.
"""

from __future__ import annotations

import json
import zipfile
from dataclasses import asdict
from pathlib import Path

import numpy as np

from ..util import DataError, replaced_atomically
from .transformer import ModelConfig, Seq2SeqModel

CHECKPOINT_FORMAT = 1
_META_KEY = "__meta__"


def save_checkpoint(model: Seq2SeqModel, path: str | Path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    meta = {
        "format": CHECKPOINT_FORMAT,
        "config": asdict(model.config),
        "step": model.step,
    }
    arrays = {f"param/{name}": tensor.data for name, tensor in model.params.items()}
    arrays[_META_KEY] = np.frombuffer(json.dumps(meta, sort_keys=True).encode("utf-8"), dtype=np.uint8)
    with replaced_atomically(path) as fh:
        np.savez(fh, **arrays)


def load_checkpoint(path: str | Path) -> Seq2SeqModel:
    path = Path(path)
    try:
        fh = open(path, "rb")
    except IsADirectoryError as err:
        raise DataError(f"{path}: a directory, not a checkpoint") from err
    with fh:
        if not zipfile.is_zipfile(fh):
            raise DataError(f"{path}: not a checkpoint (truncated, or not a zip archive)")
        fh.seek(0)
        try:
            with np.load(fh) as archive:
                if _META_KEY not in archive:
                    raise ValueError(f"{path}: not a checkpoint (missing metadata)")
                meta = json.loads(bytes(archive[_META_KEY]).decode("utf-8"))
                if meta.get("format") != CHECKPOINT_FORMAT:
                    raise ValueError(f"{path}: unsupported checkpoint format {meta.get('format')}")
                config = ModelConfig(**meta["config"])
                arrays = {
                    key[len("param/") :]: archive[key]
                    for key in archive.files
                    if key.startswith("param/")
                }
        except zipfile.BadZipFile as err:
            raise DataError(f"{path}: damaged checkpoint ({err})") from err
    model = Seq2SeqModel(config, arrays)
    model.step = int(meta.get("step", 0))
    return model
