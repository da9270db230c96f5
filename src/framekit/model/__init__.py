"""Neural action predictor: biLSTM encoder, recurrent feed-forward
decoder, teacher-forced training, and greedy decoding."""

from .checkpoint import load_checkpoint, save_checkpoint
from .config import ModelConfig
from .decode import parse_tokens
from .lexicon import Lexicon
from .network import (Parameters, document_loss, encode_tokens, extract_features,
                      feature_dim)
from .training import (Adam, Checkpoint, TrainingError, build_lexicon, grad_check,
                    oracle_sequences, train)

__all__ = [
    "Adam", "Checkpoint", "Lexicon", "ModelConfig", "Parameters",
    "TrainingError", "build_lexicon", "document_loss",
    "encode_tokens", "extract_features", "feature_dim", "grad_check",
    "load_checkpoint", "oracle_sequences", "parse_tokens",
    "save_checkpoint", "train",
]
