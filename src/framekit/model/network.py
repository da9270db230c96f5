"""Network parameters and the forward passes shared by training and
decoding: a bidirectional LSTM over lexical token embeddings feeding a
single-hidden-layer feed-forward unit whose own activations recur into
later steps through the attention and history features."""

from __future__ import annotations

import numpy as np

from ..document import Token
from ..transitions import ParserState
from . import autodiff as ad
from .autodiff import Tensor
from .config import ModelConfig
from .features import StepFeatures, extract_features
from .lexicon import (CAPS_SHAPES, DIGIT_SHAPES, HYPHEN_SHAPES, Lexicon,
                      PUNCT_SHAPES, QUOTE_SHAPES, caps_shape, digit_shape,
                      hyphen_shape, punct_shape, quote_shape)


def lexical_input_dim(config: ModelConfig) -> int:
    return (config.word_dim + 2 * config.max_affix_len * config.affix_dim
            + 5 * config.shape_dim)


def feature_dim(config: ModelConfig) -> int:
    k, h = config.k_attention, config.hidden_dim
    return (2 * config.lstm_dim                  # current token, both LSTMs
            + 2 * k * config.lstm_dim            # attention phrase activations
            + 2 * k * h                          # created / focused activations
            + config.k_history * h               # previous step activations
            + 4 * config.link_dim)               # role triples and back-offs


class Parameters:
    """All weight arrays plus the vocabulary they were built against."""

    def __init__(self, config: ModelConfig, lexicon: Lexicon, seed: int = 1):
        self.config = config
        self.lexicon = lexicon
        self.arrays: dict[str, np.ndarray] = {}
        self.ema: dict[str, np.ndarray] | None = None
        self._init(seed)

    def _init(self, seed: int) -> None:
        cfg = self.config
        lex = self.lexicon
        dtype = np.dtype(cfg.dtype)
        rng = np.random.default_rng(seed)

        def table(name: str, rows: int, dim: int) -> None:
            self.arrays[name] = rng.normal(0.0, 0.1, (rows, dim)).astype(dtype)

        table("word_emb", lex.num_words, cfg.word_dim)
        table("prefix_emb", lex.num_prefixes, cfg.affix_dim)
        table("suffix_emb", lex.num_suffixes, cfg.affix_dim)
        table("hyphen_emb", HYPHEN_SHAPES, cfg.shape_dim)
        table("caps_emb", CAPS_SHAPES, cfg.shape_dim)
        table("punct_emb", PUNCT_SHAPES, cfg.shape_dim)
        table("quote_emb", QUOTE_SHAPES, cfg.shape_dim)
        table("digit_emb", DIGIT_SHAPES, cfg.shape_dim)

        k, runs = cfg.k_attention, lex.num_roles
        table("triple_emb", k * runs * k, cfg.link_dim)
        table("source_role_emb", k * runs, cfg.link_dim)
        table("role_target_emb", runs * k, cfg.link_dim)
        table("source_target_emb", k * k, cfg.link_dim)

        in_dim, L = lexical_input_dim(cfg), cfg.lstm_dim
        for direction in ("fw", "bw"):
            sx = 1.0 / np.sqrt(in_dim)
            sh = 1.0 / np.sqrt(L)
            self.arrays[f"lstm_{direction}_wx"] = rng.uniform(
                -sx, sx, (4 * L, in_dim)).astype(dtype)
            self.arrays[f"lstm_{direction}_wh"] = rng.uniform(
                -sh, sh, (4 * L, L)).astype(dtype)
            bias = np.zeros(4 * L, dtype=dtype)
            bias[L:2 * L] = 1.0  # forget gate bias
            self.arrays[f"lstm_{direction}_b"] = bias

        F, H = feature_dim(cfg), cfg.hidden_dim
        s1 = np.sqrt(6.0 / (F + H))
        self.arrays["ff_w1"] = rng.uniform(-s1, s1, (H, F)).astype(dtype)
        self.arrays["ff_b1"] = np.zeros(H, dtype=dtype)
        # Zero output layer: the initial action distribution is uniform.
        self.arrays["ff_w2"] = np.zeros((lex.num_actions, H), dtype=dtype)
        self.arrays["ff_b2"] = np.zeros(lex.num_actions, dtype=dtype)

        if cfg.word_vectors_path:
            self._load_word_vectors(cfg.word_vectors_path)

    def _load_word_vectors(self, path: str) -> None:
        """Seed word embedding rows from a `word v1 .. vD` text file."""
        dim = self.config.word_dim
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                parts = line.split()
                if len(parts) != dim + 1:
                    continue
                row = self.lexicon.words.get(parts[0])
                if row is not None:
                    vec = np.array([float(v) for v in parts[1:]])
                    self.arrays["word_emb"][row] = vec.astype(self.arrays["word_emb"].dtype)

    def tensors(self, trainable: bool, use_ema: bool = False) -> dict[str, Tensor]:
        source = self.arrays
        if use_ema:
            if self.ema is None:
                raise ValueError("no averaged parameters in this model")
            source = self.ema
        return {name: Tensor(array, requires_grad=trainable)
                for name, array in source.items()}

    def start_ema(self) -> None:
        self.ema = {name: array.copy() for name, array in self.arrays.items()}

    def update_ema(self, decay: float) -> None:
        assert self.ema is not None
        for name, shadow in self.ema.items():
            shadow *= decay
            shadow += (1.0 - decay) * self.arrays[name]


def _lstm_cell(P: dict[str, Tensor], direction: str, x: Tensor,
               h: Tensor, c: Tensor) -> tuple[Tensor, Tensor]:
    z = ad.lstm_affine(P[f"lstm_{direction}_wx"], P[f"lstm_{direction}_wh"],
                       P[f"lstm_{direction}_b"], x, h)
    i, f, o, g = ad.split(z, 4)
    i, f, o, g = ad.sigmoid(i), ad.sigmoid(f), ad.sigmoid(o), ad.tanh(g)
    c_next = ad.add(ad.mul(f, c), ad.mul(i, g))
    h_next = ad.mul(o, ad.tanh(c_next))
    return h_next, c_next


def _token_embedding(P: dict[str, Tensor], lexicon: Lexicon, word: str) -> Tensor:
    pairs = [(P["word_emb"], lexicon.word_id(word))]
    pairs += [(P["prefix_emb"], i) for i in lexicon.prefix_ids(word)]
    pairs += [(P["suffix_emb"], i) for i in lexicon.suffix_ids(word)]
    pairs.append((P["hyphen_emb"], hyphen_shape(word)))
    pairs.append((P["caps_emb"], caps_shape(word)))
    pairs.append((P["punct_emb"], punct_shape(word)))
    pairs.append((P["quote_emb"], quote_shape(word)))
    pairs.append((P["digit_emb"], digit_shape(word)))
    return ad.concat_rows(pairs)


def encode_tokens(P: dict[str, Tensor], config: ModelConfig, lexicon: Lexicon,
                  tokens: list[Token]) -> tuple[list[Tensor], list[Tensor]]:
    """Left-to-right and right-to-left LSTM activations per token."""
    dtype = P["lstm_fw_b"].data.dtype
    L = config.lstm_dim
    embeddings = [_token_embedding(P, lexicon, t.text) for t in tokens]

    forward: list[Tensor] = []
    h = c = ad.constant(np.zeros(L, dtype=dtype))
    for emb in embeddings:
        h, c = _lstm_cell(P, "fw", emb, h, c)
        forward.append(h)

    backward: list[Tensor] = [None] * len(tokens)  # type: ignore[list-item]
    h = c = ad.constant(np.zeros(L, dtype=dtype))
    for index in range(len(tokens) - 1, -1, -1):
        h, c = _lstm_cell(P, "bw", embeddings[index], h, c)
        backward[index] = h
    return forward, backward


class ForwardPass:
    """One document's forward state, shared by teacher forcing and
    greedy decoding: the parser state, the token encodings, and the
    hidden activations of every decoder step so far."""

    def __init__(self, P: dict[str, Tensor], config: ModelConfig,
                 lexicon: Lexicon, text: str, tokens: list[Token]):
        self.P = P
        self.config = config
        self.lexicon = lexicon
        self.state = ParserState(text, tokens)
        self.enc_lr, self.enc_rl = encode_tokens(P, config, lexicon, tokens)
        self.hidden_steps: list[Tensor] = []
        dtype = P["ff_b1"].data.dtype
        self._zero_lstm = ad.constant(np.zeros(config.lstm_dim, dtype=dtype))
        self._zero_hidden = ad.constant(np.zeros(config.hidden_dim, dtype=dtype))

    def _activation_at(self, encodings: list[Tensor], index) -> Tensor:
        if index is None or not 0 <= index < len(encodings):
            return self._zero_lstm
        return encodings[index]

    def _hidden_at(self, step) -> Tensor:
        if step is None or not 0 <= step < len(self.hidden_steps):
            return self._zero_hidden
        return self.hidden_steps[step]

    def _feature_vector(self, feats: StepFeatures) -> Tensor:
        cfg = self.config
        parts = [self._activation_at(self.enc_lr, feats.cursor_token),
                 self._activation_at(self.enc_rl, feats.cursor_token)]
        for index in feats.att_end_token:
            parts.append(self._activation_at(self.enc_lr, index))
        for index in feats.att_end_token:
            parts.append(self._activation_at(self.enc_rl, index))
        for step in feats.att_created:
            parts.append(self._hidden_at(step))
        for step in feats.att_focused:
            parts.append(self._hidden_at(step))
        for step in feats.history:
            parts.append(self._hidden_at(step))
        parts.append(ad.rows_sum(self.P["triple_emb"], feats.triples, cfg.link_dim))
        parts.append(ad.rows_sum(self.P["source_role_emb"], feats.source_roles,
                                 cfg.link_dim))
        parts.append(ad.rows_sum(self.P["role_target_emb"], feats.role_targets,
                                 cfg.link_dim))
        parts.append(ad.rows_sum(self.P["source_target_emb"], feats.source_targets,
                                 cfg.link_dim))
        return ad.concat(parts)

    def step_logits(self) -> Tensor:
        """Score every action in the current state; records the hidden
        activation so later steps can attend to it."""
        feats = extract_features(self.state, self.lexicon,
                                 self.config.k_attention, self.config.k_history)
        vector = self._feature_vector(feats)
        pre = ad.affine(self.P["ff_w1"], self.P["ff_b1"], vector)
        hidden = ad.relu(pre) if self.config.hidden_activation == "relu" else ad.tanh(pre)
        logits = ad.affine(self.P["ff_w2"], self.P["ff_b2"], hidden)
        self.hidden_steps.append(hidden)
        return logits


def document_loss(P: dict[str, Tensor], config: ModelConfig, lexicon: Lexicon,
                  text: str, tokens: list[Token],
                  actions) -> tuple[Tensor, int, int]:
    """Teacher-forced cross-entropy over one oracle sequence.

    Returns (summed loss, action count, correctly ranked actions).
    """
    run = ForwardPass(P, config, lexicon, text, tokens)
    losses = []
    correct = 0
    for action in actions:
        logits = run.step_logits()
        target = lexicon.action_id(action)
        loss, _ = ad.softmax_cross_entropy(logits, target)
        if int(np.argmax(logits.data)) == target:
            correct += 1
        losses.append(loss)
        run.state.apply(action)
    return ad.addn(losses), len(losses), correct
