"""Network parameters and the one forward and backward pass shared by
training and decoding: a bidirectional LSTM over lexical token
embeddings feeding a single-hidden-layer feed-forward unit whose own
activations recur into later steps through the attention and history
features.

Everything runs on numpy arrays.  The encoder computes the input term
of all tokens in one matmul per direction; each decoder step gathers
its feature vector from the LSTM outputs and the hidden activations so
far.  `document_loss` makes a teacher-forced pass one autodiff node:
its backward runs only dpre -> W1ᵀ·dpre (decoder) and dz -> Whᵀ·dz
(encoder) step by step, then gives each weight one matmul and each
embedding table one `np.add.at` over the whole document.
"""

from __future__ import annotations

import numpy as np

from ..document import Token
from ..transitions import ParserState
from .autodiff import Tensor
from .config import ModelConfig
from .features import extract_features
from .lexicon import (CAPS_SHAPES, DIGIT_SHAPES, HYPHEN_SHAPES, Lexicon,
                      PUNCT_SHAPES, QUOTE_SHAPES)


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


def parameter_shapes(config: ModelConfig, lexicon: Lexicon) -> dict[str, tuple[int, ...]]:
    """Name and shape of every weight array, in allocation order."""
    k, runs, link = config.k_attention, lexicon.num_roles, config.link_dim
    in_dim, L = lexical_input_dim(config), config.lstm_dim
    F, H, A = feature_dim(config), config.hidden_dim, lexicon.num_actions
    shapes = {
        "word_emb": (lexicon.num_words, config.word_dim),
        "prefix_emb": (lexicon.num_prefixes, config.affix_dim),
        "suffix_emb": (lexicon.num_suffixes, config.affix_dim),
        "hyphen_emb": (HYPHEN_SHAPES, config.shape_dim),
        "caps_emb": (CAPS_SHAPES, config.shape_dim),
        "punct_emb": (PUNCT_SHAPES, config.shape_dim),
        "quote_emb": (QUOTE_SHAPES, config.shape_dim),
        "digit_emb": (DIGIT_SHAPES, config.shape_dim),
        "triple_emb": (k * runs * k, link),
        "source_role_emb": (k * runs, link),
        "role_target_emb": (runs * k, link),
        "source_target_emb": (k * k, link),
    }
    for direction in ("fw", "bw"):
        shapes[f"lstm_{direction}_wx"] = (4 * L, in_dim)
        shapes[f"lstm_{direction}_wh"] = (4 * L, L)
        shapes[f"lstm_{direction}_b"] = (4 * L,)
    shapes.update(ff_w1=(H, F), ff_b1=(H,), ff_w2=(A, H), ff_b2=(A,))
    return shapes


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
        dtype = np.dtype(cfg.dtype)
        rng = np.random.default_rng(seed)
        for name, shape in parameter_shapes(cfg, self.lexicon).items():
            if name.endswith("_emb"):
                array = rng.normal(0.0, 0.1, shape)
            elif name.startswith("lstm_") and name.endswith(("_wx", "_wh")):
                bound = 1.0 / np.sqrt(shape[1])
                array = rng.uniform(-bound, bound, shape)
            elif name == "ff_w1":
                bound = np.sqrt(6.0 / (shape[0] + shape[1]))
                array = rng.uniform(-bound, bound, shape)
            else:
                # Biases, and a zero output layer: the initial action
                # distribution is uniform.
                array = np.zeros(shape)
                if name.startswith("lstm_"):
                    array[shape[0] // 4:shape[0] // 2] = 1.0  # forget gate bias
            self.arrays[name] = array.astype(dtype)

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


# Role-link tables, summed over a step's links, in feature-vector order.
_LINK_TABLES = ("triple_emb", "source_role_emb", "role_target_emb",
                "source_target_emb")


class _LSTM:
    """One direction of the encoder run over a sequence of inputs,
    keeping the gates and cells its backward needs."""

    def __init__(self, P: dict[str, Tensor], direction: str, inputs: np.ndarray):
        self.wx, self.wh, self.b = (P[f"lstm_{direction}_{part}"]
                                    for part in ("wx", "wh", "b"))
        self.inputs = inputs
        wh = self.wh.data
        n, L = len(inputs), wh.shape[1]
        # The input term for every token at once; only Wh·h is per step.
        z_in = inputs @ self.wx.data.T + self.b.data
        self.gates = gates = np.empty_like(z_in)        # i, f, o, g
        self.cells = np.zeros((n + 1, L), dtype=z_in.dtype)    # row 0: c before t=0
        self.outputs = np.zeros((n + 1, L), dtype=z_in.dtype)  # row 0: h before t=0
        c = self.cells[0]
        h = self.outputs[0]
        for t in range(n):
            z = z_in[t] + wh @ h
            gates[t, :3 * L] = 1.0 / (1.0 + np.exp(-z[:3 * L]))
            gates[t, 3 * L:] = np.tanh(z[3 * L:])
            i, f, o, g = gates[t].reshape(4, L)
            c = self.cells[t + 1] = f * c + i * g
            h = self.outputs[t + 1] = o * np.tanh(c)

    def backward(self, d_outputs: np.ndarray) -> np.ndarray:
        """Accumulate the weight gradients for output gradients
        `d_outputs`; return the input gradients."""
        n, L = d_outputs.shape
        gates = self.gates.reshape(n, 4, L)
        i, f, o, g = (gates[:, k] for k in range(4))
        tanh_c = np.tanh(self.cells[1:])
        # d(activation)/d(pre-activation) of each gate.
        d_act = self.gates * (1.0 - self.gates)
        d_act[:, 3 * L:] = 1.0 - g * g
        d_act = d_act.reshape(n, 4, L)
        # Per step, dz = [dc·g, dc·c_prev, dh·tanh(c), dc·i] * d_act.
        by_dc = np.stack([g, self.cells[:-1], np.zeros_like(g), i], axis=1) * d_act
        by_dh = tanh_c * d_act[:, 2]
        dc_by_dh = o * (1.0 - tanh_c * tanh_c)
        dz = np.empty_like(self.gates)
        wh = self.wh.data
        dh_next = np.zeros(L, dtype=dz.dtype)
        dc_next = np.zeros(L, dtype=dz.dtype)
        for t in range(n - 1, -1, -1):
            dh = d_outputs[t] + dh_next
            dc = dc_next + dh * dc_by_dh[t]
            z = dz[t].reshape(4, L)
            np.multiply(by_dc[t], dc, out=z)
            z[2] = by_dh[t] * dh
            dc_next = dc * f[t]
            dh_next = dz[t] @ wh
        self.wx.accumulate(dz.T @ self.inputs)
        self.wh.accumulate(dz.T @ self.outputs[:-1])
        self.b.accumulate(dz.sum(axis=0))
        return dz @ self.wx.data


class Encoding:
    """The biLSTM outputs for one token sequence: `lr` and `rl` hold
    the left-to-right and right-to-left activation of each token."""

    def __init__(self, P: dict[str, Tensor], lexicon: Lexicon, tokens: list[Token]):
        self.P = P
        n, m = len(tokens), lexicon.max_affix_len
        rows = np.array([lexicon.token_rows(t.text) for t in tokens],
                        dtype=np.intp).reshape(n, 6 + 2 * m)
        self.ids: list[tuple[str, np.ndarray]] = []  # per table, (tokens, rows)
        columns = []
        for name, width in (("word_emb", 1), ("prefix_emb", m), ("suffix_emb", m),
                            ("hyphen_emb", 1), ("caps_emb", 1), ("punct_emb", 1),
                            ("quote_emb", 1), ("digit_emb", 1)):
            ids, rows = rows[:, :width], rows[:, width:]
            table = P[name].data
            self.ids.append((name, ids))
            columns.append(table[ids].reshape(n, width * table.shape[1]))
        inputs = np.concatenate(columns, axis=1)
        self.fw = _LSTM(P, "fw", inputs)
        self.bw = _LSTM(P, "bw", inputs[::-1])
        self.lr = self.fw.outputs[1:]
        self.rl = self.bw.outputs[:0:-1]

    def backward(self, d_lr: np.ndarray, d_rl: np.ndarray) -> None:
        d_inputs = self.fw.backward(d_lr) + self.bw.backward(d_rl[::-1])[::-1]
        offset = 0
        for name, ids in self.ids:
            table = self.P[name]
            dim = table.data.shape[1]
            width = ids.shape[1] * dim
            rows = d_inputs[:, offset:offset + width].reshape(-1, dim)
            np.add.at(table.grad_buffer(), ids.reshape(-1), rows)
            offset += width


def encode_tokens(P: dict[str, Tensor], config: ModelConfig, lexicon: Lexicon,
                  tokens: list[Token]) -> Encoding:
    """Left-to-right and right-to-left LSTM activations per token."""
    return Encoding(P, lexicon, tokens)


class ForwardPass:
    """One document's forward state, shared by teacher forcing and
    greedy decoding: the parser state, the token encodings, and the
    inputs and hidden activations of every decoder step so far, which
    `backward` reuses."""

    def __init__(self, P: dict[str, Tensor], config: ModelConfig,
                 lexicon: Lexicon, text: str, tokens: list[Token]):
        self.P = P
        self.config = config
        self.lexicon = lexicon
        self.state = ParserState(text, tokens)
        self.encoding = encode_tokens(P, config, lexicon, tokens)
        dtype = P["ff_b1"].data.dtype
        # Feature rows are gathered from two pools whose row 0 is the
        # zero vector that absent features read.  LSTM pool: then the
        # left-to-right activations, then the right-to-left ones.
        # Hidden pool: step s's hidden activation at row s + 1.
        self.lstm_pool = np.concatenate([np.zeros((1, config.lstm_dim), dtype),
                                         self.encoding.lr, self.encoding.rl])
        self.hidden_pool = np.zeros((64, config.hidden_dim), dtype)
        self.inputs: list[np.ndarray] = []
        self.lstm_rows: list[list[int]] = []
        self.hidden_rows: list[list[int]] = []
        self._no_links = np.zeros(len(_LINK_TABLES) * config.link_dim, dtype)
        self.link_ids: list[list[int]] = [[] for _ in _LINK_TABLES]
        self.link_steps: list[int] = []

    def step_logits(self) -> np.ndarray:
        """Score every action in the current state; records the hidden
        activation so later steps can attend to it."""
        cfg = self.config
        P = self.P
        feats = extract_features(self.state, self.lexicon,
                                 cfg.k_attention, cfg.k_history)
        n = self.state.num_tokens
        step = len(self.inputs)
        fw = [i + 1 if i is not None and 0 <= i < n else 0
              for i in [feats.cursor_token] + feats.att_end_token]
        bw = [row + n if row else 0 for row in fw]
        lstm = fw[:1] + bw[:1] + fw[1:] + bw[1:]
        hidden = [s + 1 if s is not None and 0 <= s < step else 0
                  for s in feats.att_created + feats.att_focused + feats.history]
        parts = [self.lstm_pool[lstm].reshape(-1), self.hidden_pool[hidden].reshape(-1)]
        # Each role link adds one id to each of the four link tables.
        if feats.triples:
            link_ids = (feats.triples, feats.source_roles, feats.role_targets,
                        feats.source_targets)
            for name, ids, log in zip(_LINK_TABLES, link_ids, self.link_ids):
                parts.append(P[name].data[ids].sum(axis=0))
                log.extend(ids)
            self.link_steps.extend([step] * len(feats.triples))
        else:
            parts.append(self._no_links)
        x = np.concatenate(parts)
        pre = P["ff_w1"].data @ x + P["ff_b1"].data
        activation = np.maximum(pre, 0.0) if cfg.hidden_activation == "relu" else np.tanh(pre)
        if step + 1 == len(self.hidden_pool):
            self.hidden_pool = np.concatenate([self.hidden_pool,
                                               np.zeros_like(self.hidden_pool)])
        self.hidden_pool[step + 1] = activation
        self.inputs.append(x)
        self.lstm_rows.append(lstm)
        self.hidden_rows.append(hidden)
        return P["ff_w2"].data @ activation + P["ff_b2"].data

    def backward(self, d_logits: np.ndarray) -> None:
        """Accumulate parameter gradients given the gradient of every
        step's logits, one row per step."""
        P = self.P
        cfg = self.config
        steps, H, L = len(self.inputs), cfg.hidden_dim, cfg.lstm_dim
        X = np.array(self.inputs)
        hidden = self.hidden_pool[1:steps + 1]
        P["ff_w2"].accumulate(d_logits.T @ hidden)
        P["ff_b2"].accumulate(d_logits.sum(axis=0))
        # Row 0 collects the gradient of the zero row, then is dropped.
        d_hidden = np.zeros((steps + 1, H), dtype=X.dtype)
        d_hidden[1:] = d_logits @ P["ff_w2"].data
        if cfg.hidden_activation == "relu":
            d_act = (hidden > 0.0).astype(X.dtype)
        else:
            d_act = 1.0 - hidden * hidden
        # Feature vector: LSTM rows, then hidden rows, then link sums.
        # Hidden activations feed later steps, so only the hidden part of
        # the input gradient runs step by step, latest step first.
        lstm_width = 2 * (1 + cfg.k_attention) * L
        hidden_end = lstm_width + (2 * cfg.k_attention + cfg.k_history) * H
        w1 = P["ff_w1"].data
        w1_hidden = w1[:, lstm_width:hidden_end]
        d_pre = np.empty((steps, H), dtype=X.dtype)
        for t in range(steps - 1, -1, -1):
            d = d_pre[t] = d_hidden[t + 1] * d_act[t]
            np.add.at(d_hidden, self.hidden_rows[t], (d @ w1_hidden).reshape(-1, H))
        P["ff_w1"].accumulate(d_pre.T @ X)
        P["ff_b1"].accumulate(d_pre.sum(axis=0))
        d_x = d_pre @ w1

        d_pool = np.zeros_like(self.lstm_pool)
        np.add.at(d_pool, np.reshape(self.lstm_rows, -1),
                  d_x[:, :lstm_width].reshape(-1, L))
        d_links = d_x[self.link_steps, hidden_end:]
        D = cfg.link_dim
        for k, (name, ids) in enumerate(zip(_LINK_TABLES, self.link_ids)):
            np.add.at(P[name].grad_buffer(), np.asarray(ids, dtype=np.intp),
                      d_links[:, k * D:(k + 1) * D])
        n = self.state.num_tokens
        self.encoding.backward(d_pool[1:n + 1], d_pool[n + 1:])


def document_loss(P: dict[str, Tensor], config: ModelConfig, lexicon: Lexicon,
                  text: str, tokens: list[Token],
                  actions) -> tuple[Tensor, int, int]:
    """Teacher-forced cross-entropy over one oracle sequence.

    Returns (summed loss as one autodiff node whose backward covers the
    whole document, action count, correctly ranked actions).
    """
    run = ForwardPass(P, config, lexicon, text, tokens)
    logits = []
    targets = []
    for action in actions:
        logits.append(run.step_logits())
        targets.append(lexicon.action_id(action))
        run.state.apply(action)
    steps = np.arange(len(targets))
    scores = np.array(logits)
    shifted = scores - scores.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    probs = exp / exp.sum(axis=1, keepdims=True)
    losses = -np.log(np.maximum(probs[steps, targets], np.finfo(probs.dtype).tiny))
    correct = int(np.sum(np.argmax(scores, axis=1) == targets))

    def back(g: np.ndarray) -> None:
        d_logits = probs.copy()
        d_logits[steps, targets] -= 1.0
        run.backward(d_logits * g)

    loss = Tensor(np.asarray(losses.sum(), dtype=probs.dtype),
                  parents=P.values(), backward=back)
    return loss, len(targets), correct
