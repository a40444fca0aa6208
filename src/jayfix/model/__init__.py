"""Neural engine: tape autograd, encoder-decoder transformer, AdamW
training with early stopping, beam-search decoding and checkpoints."""

from .beam import BeamCandidate, beam_search
from .checkpoint import load_checkpoint, save_checkpoint
from .training import (
    AdamW,
    EpochStats,
    TrainConfig,
    TrainingDiverged,
    TrainResult,
    evaluate_loss,
    make_batch,
    train,
)
from .transformer import BeamScorer, ModelConfig, Seq2SeqModel

__all__ = [
    "AdamW",
    "BeamCandidate",
    "BeamScorer",
    "EpochStats",
    "ModelConfig",
    "Seq2SeqModel",
    "TrainConfig",
    "TrainResult",
    "TrainingDiverged",
    "beam_search",
    "evaluate_loss",
    "load_checkpoint",
    "make_batch",
    "save_checkpoint",
    "train",
]
