"""Neural engine: tape autograd, encoder-decoder transformer, AdamW
training with early stopping, beam-search decoding, checkpoints, and
the finite-difference gradient gate."""

from .beam import BeamCandidate, beam_search
from .checkpoint import load_checkpoint, save_checkpoint
from .gradcheck import GradCheckResult, grad_check, micro_config
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
    "GradCheckResult",
    "ModelConfig",
    "Seq2SeqModel",
    "TrainConfig",
    "TrainResult",
    "TrainingDiverged",
    "beam_search",
    "evaluate_loss",
    "grad_check",
    "load_checkpoint",
    "make_batch",
    "micro_config",
    "save_checkpoint",
    "train",
]
