"""Model hyperparameters.  Defaults follow the published training recipe
(32-dim word embeddings, 256-dim single-layer LSTMs, 128-dim hidden
layer, Adam at learning rate 0.0005 with beta1=0.01, beta2=0.999,
epsilon=1e-5, gradient clipping at 1.0, batch size 8, no dropout)."""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Optional

_BOOLS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


@dataclass
class ModelConfig:
    word_dim: int = 32
    lstm_dim: int = 256
    hidden_dim: int = 128
    max_affix_len: int = 3
    k_attention: int = 5
    k_history: int = 5
    learning_rate: float = 0.0005
    adam_beta1: float = 0.01
    adam_beta2: float = 0.999
    adam_epsilon: float = 1e-5
    gradient_clip_norm: float = 1.0
    batch_size: int = 8
    affix_dim: int = 8
    shape_dim: int = 4
    link_dim: int = 16
    hidden_activation: str = "relu"  # or "tanh"
    use_ema: bool = False
    ema_decay: float = 0.999
    decode_action_cap: int = 32  # max non-SHIFT actions per token position
    dtype: str = "float32"
    word_vectors_path: Optional[str] = None

    def __post_init__(self) -> None:
        for name in ("word_dim", "lstm_dim", "hidden_dim", "max_affix_len",
                     "k_attention", "k_history", "batch_size", "affix_dim",
                     "shape_dim", "link_dim", "decode_action_cap"):
            value = getattr(self, name)
            if type(value) is not int or value < 1:
                raise ValueError(f"{name} must be an integer >= 1")
        # Written as `not (in range)`, so that NaN fails.
        for name in ("learning_rate", "adam_epsilon"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be > 0")
        for name in ("adam_beta1", "adam_beta2", "ema_decay"):
            if not 0 <= getattr(self, name) < 1:
                raise ValueError(f"{name} must be in [0, 1)")
        if not self.gradient_clip_norm >= 0:
            raise ValueError("gradient_clip_norm must be >= 0 (0 turns clipping off)")
        if self.hidden_activation not in ("relu", "tanh"):
            raise ValueError("hidden_activation must be 'relu' or 'tanh'")
        if self.dtype not in ("float32", "float64"):
            raise ValueError("dtype must be 'float32' or 'float64'")
        if type(self.use_ema) is not bool:
            raise ValueError("use_ema must be true or false")
        if not (self.word_vectors_path is None or isinstance(self.word_vectors_path, str)):
            raise ValueError("word_vectors_path must be a string")

    def apply_override(self, key: str, raw: str) -> None:
        """Set one field from a key=value command line override; a
        rejected value leaves the configuration as it was."""
        matching = {f.name: f for f in fields(self)}
        if key not in matching:
            raise ValueError(f"unknown model option {key!r}")
        current = getattr(self, key)
        if key == "word_vectors_path":
            value: object = raw
        elif isinstance(current, bool):
            value = _BOOLS.get(raw.lower())
            if value is None:
                raise ValueError(f"{key} expects true/false/yes/no/1/0, got {raw!r}")
        elif isinstance(current, (int, float)):
            parse, kind = (int, "an integer") if isinstance(current, int) else (float, "a number")
            try:
                value = parse(raw)
            except ValueError:
                raise ValueError(f"{key} expects {kind}, got {raw!r}") from None
        else:
            value = raw
        replace(self, **{key: value})  # validates a copy
        setattr(self, key, value)
