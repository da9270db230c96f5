"""Network parameters and the forward and backward passes shared by
training and decoding: a bidirectional LSTM over lexical token
embeddings feeding a single-hidden-layer feed-forward unit whose own
activations recur into later steps through the attention and history
features.

Everything runs on numpy arrays.  The encoder steps both LSTM
directions together and computes the input term of all tokens in one
matmul per direction.  A decoder step's feature vector gathers rows of
two pools, the LSTM outputs and the hidden activations of the steps so
far (`ForwardPass`), plus the summed embeddings of its role links.

One function, `decoder_steps`, is the decoder's forward.  It gathers
the LSTM and link features of a block of steps at once and runs only
the hidden recurrence step by step, then gives the block's logits.
Greedy decoding (`ForwardPass.step_logits`) calls it for one step at a
time, since its next state depends on its prediction; teacher forcing
calls it once for the whole example:

- a plan (`plan_example`, `ExamplePlan`) replays the oracle sequence
  once and records what the weights do not change: the tokens' table
  rows, and each step's pool rows, link ids and target action;
- the numeric pass over a plan (`PlannedPass`) runs `decoder_steps`
  over every step, so a gold sequence is scored exactly as decoding
  would score it.  Its backward runs only dpre -> W1_hiddenᵀ·dpre
  (decoder) and dz -> Whᵀ·dz (encoder) step by step, then gives each
  weight one matmul.  Rows are scatter-added through numpy's
  one-dimensional `np.add.at` (`_add_rows`), which adds in the same
  order as the two-dimensional one, several times faster.

`train` plans each example once and runs the pass on every visit;
`document_loss` plans and runs in one call.  `_step_rows` turns
features into pool rows for the plan and for `step_logits` alike.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..document import Token
from ..transitions import ParserState
from .autodiff import Tensor
from .config import ModelConfig
from .features import StepFeatures, extract_features
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


def _feature_bounds(config: ModelConfig) -> tuple[int, int]:
    """Where the feature vector's LSTM part ends and its link part
    starts; the hidden activations lie between."""
    lstm_end = 2 * (1 + config.k_attention) * config.lstm_dim
    return lstm_end, lstm_end + (2 * config.k_attention + config.k_history) * config.hidden_dim


def _step_rows(feats: StepFeatures, num_tokens: int, step: int):
    """One step's features as rows of the pools that `ForwardPass`
    describes (0 where a feature is absent), and its link ids, one list
    per link table."""
    fw = [i + 1 if i is not None and 0 <= i < num_tokens else 0
          for i in [feats.cursor_token] + feats.att_end_token]
    bw = [row + num_tokens if row else 0 for row in fw]
    lstm = fw[:1] + bw[:1] + fw[1:] + bw[1:]
    hidden = [s + 1 if s is not None and 0 <= s < step else 0
              for s in feats.att_created + feats.att_focused + feats.history]
    links = (feats.triples, feats.source_roles, feats.role_targets, feats.source_targets)
    return lstm, hidden, links


def _add_rows(target: np.ndarray, rows: np.ndarray, values: np.ndarray) -> None:
    """`np.add.at(target, rows, values)` for a C-contiguous 2-D
    `target`, through numpy's faster one-dimensional path: the same
    sums, added in the same order."""
    assert target.flags.c_contiguous  # else reshape would copy
    width = target.shape[1]
    flat = (rows[:, None] * width + np.arange(width)).reshape(-1)
    np.add.at(target.reshape(-1), flat, values.reshape(-1))


def token_table(lexicon: Lexicon, tokens: list[Token]) -> np.ndarray:
    """Each token's embedding-table rows (`Lexicon.token_rows`), one
    row per token."""
    return np.array([lexicon.token_rows(t.text) for t in tokens],
                    dtype=np.intp).reshape(len(tokens), 6 + 2 * lexicon.max_affix_len)


class Encoding:
    """The biLSTM outputs for one token sequence: `lr` and `rl` hold
    the left-to-right and right-to-left activation of each token.

    The two directions step together: at step t, direction 0 reads
    token t and direction 1 reads token n - 1 - t.  Each keeps its
    gates and cells for the backward."""

    def __init__(self, P: dict[str, Tensor], rows: np.ndarray, max_affix_len: int):
        self.P = P
        n, m = len(rows), max_affix_len
        self.ids: list[tuple[str, np.ndarray]] = []  # per table, (tokens, rows)
        columns = []
        for name, width in (("word_emb", 1), ("prefix_emb", m), ("suffix_emb", m),
                            ("hyphen_emb", 1), ("caps_emb", 1), ("punct_emb", 1),
                            ("quote_emb", 1), ("digit_emb", 1)):
            ids, rows = rows[:, :width], rows[:, width:]
            table = P[name].data
            self.ids.append((name, ids))
            columns.append(table[ids].reshape(n, width * table.shape[1]))
        self.inputs = inputs = np.concatenate(columns, axis=1)
        self.weights = [tuple(P[f"lstm_{direction}_{part}"] for part in ("wx", "wh", "b"))
                        for direction in ("fw", "bw")]
        (wx_fw, wh_fw, b_fw), (wx_bw, wh_bw, b_bw) = self.weights
        self.wh = wh = np.stack([wh_fw.data, wh_bw.data])
        L = wh.shape[2]
        # The input term for every token at once; only Wh·h is per step.
        z_in = np.stack([inputs @ wx_fw.data.T + b_fw.data,
                         inputs[::-1] @ wx_bw.data.T + b_bw.data], axis=1)
        self.gates = gates = np.empty_like(z_in)             # i, f, o, g
        self.cells = np.zeros((n + 1, 2, L), dtype=z_in.dtype)    # row 0: c before t=0
        self.outputs = np.zeros((n + 1, 2, L), dtype=z_in.dtype)  # row 0: h before t=0
        c = self.cells[0]
        h = self.outputs[0]
        for t in range(n):
            z = z_in[t] + np.matmul(wh, h[:, :, None])[:, :, 0]
            gates[t, :, :3 * L] = 1.0 / (1.0 + np.exp(-z[:, :3 * L]))
            gates[t, :, 3 * L:] = np.tanh(z[:, 3 * L:])
            i, f, o, g = gates[t].reshape(2, 4, L).transpose(1, 0, 2)
            c = self.cells[t + 1] = f * c + i * g
            h = self.outputs[t + 1] = o * np.tanh(c)
        self.lr = self.outputs[1:, 0]
        self.rl = self.outputs[:0:-1, 1]

    def backward(self, d_lr: np.ndarray, d_rl: np.ndarray) -> None:
        """Accumulate the gradients of the LSTM weights and embedding
        tables for output gradients `d_lr` and `d_rl`."""
        d_outputs = np.stack([d_lr, d_rl[::-1]], axis=1)
        n, _, L = d_outputs.shape
        gates = self.gates.reshape(n, 2, 4, L)
        i, f, o, g = (gates[:, :, k] for k in range(4))
        tanh_c = np.tanh(self.cells[1:])
        # d(activation)/d(pre-activation) of each gate.
        d_act = self.gates * (1.0 - self.gates)
        d_act[:, :, 3 * L:] = 1.0 - g * g
        d_act = d_act.reshape(n, 2, 4, L)
        # Per step, dz = [dc·g, dc·c_prev, dh·tanh(c), dc·i] * d_act.
        by_dc = np.stack([g, self.cells[:-1], np.zeros_like(g), i], axis=2) * d_act
        by_dh = tanh_c * d_act[:, :, 2]
        dc_by_dh = o * (1.0 - tanh_c * tanh_c)
        dz = np.empty_like(self.gates)
        dh_next = np.zeros((2, L), dtype=dz.dtype)
        dc_next = np.zeros((2, L), dtype=dz.dtype)
        for t in range(n - 1, -1, -1):
            dh = d_outputs[t] + dh_next
            dc = dc_next + dh * dc_by_dh[t]
            z = dz[t].reshape(2, 4, L)
            np.multiply(by_dc[t], dc[:, None], out=z)
            z[:, 2] = by_dh[t] * dh
            dc_next = dc * f[t]
            dh_next = np.matmul(dz[t][:, None], self.wh)[:, 0]
        d_inputs = []
        for k, (wx, wh, b) in enumerate(self.weights):
            dz_k = dz[:, k]
            wx.accumulate(dz_k.T @ (self.inputs if k == 0 else self.inputs[::-1]))
            wh.accumulate(dz_k.T @ self.outputs[:-1, k])
            b.accumulate(dz_k.sum(axis=0))
            d_inputs.append(dz_k @ wx.data)
        d_inputs = d_inputs[0] + d_inputs[1][::-1]
        offset = 0
        for name, ids in self.ids:
            table = self.P[name]
            dim = table.data.shape[1]
            width = ids.shape[1] * dim
            rows = d_inputs[:, offset:offset + width].reshape(-1, dim)
            _add_rows(table.grad_buffer(), ids.reshape(-1), rows)
            offset += width


def encode_tokens(P: dict[str, Tensor], config: ModelConfig, lexicon: Lexicon,
                  tokens: list[Token], rows: np.ndarray | None = None) -> Encoding:
    """Left-to-right and right-to-left LSTM activations per token;
    `rows`, when given, is the tokens' `token_table`."""
    if rows is None:
        rows = token_table(lexicon, tokens)
    return Encoding(P, rows, lexicon.max_affix_len)


def _lstm_pool(config: ModelConfig, encoding: Encoding) -> np.ndarray:
    """Row 0 the zero vector, then the left-to-right activations, then
    the right-to-left ones."""
    zero = np.zeros((1, config.lstm_dim), encoding.lr.dtype)
    return np.concatenate([zero, encoding.lr, encoding.rl])


def decoder_steps(P: dict[str, Tensor], config: ModelConfig, lstm_pool: np.ndarray,
                  hidden: np.ndarray, first: int, lstm_rows, hidden_rows,
                  link_steps: np.ndarray, link_ids) -> tuple[np.ndarray, np.ndarray]:
    """The decoder's forward over steps `first`, `first` + 1, ...: one
    row per step of pool rows (`_step_rows`), and the links of all
    steps with the step each belongs to, counted from `first`.

    Every step's LSTM and link features are gathered at once.  Only the
    hidden activations go step by step: step s reads earlier rows of
    the hidden pool `hidden` and writes its activation to row s + 1.
    Returns the feature vectors X, one row per step, and the logits,
    one matrix-vector product per step."""
    lstm_end, link_start = _feature_bounds(config)
    w1, b1 = P["ff_w1"].data, P["ff_b1"].data
    steps = len(lstm_rows)
    X = np.zeros((steps, w1.shape[1]), w1.dtype)
    X[:, :lstm_end] = lstm_pool[lstm_rows].reshape(steps, lstm_end)
    if link_steps.size:
        links = np.zeros((steps, w1.shape[1] - link_start), w1.dtype)
        _add_rows(links, link_steps,
                  np.concatenate([P[name].data.take(ids, axis=0) for name, ids
                                  in zip(_LINK_TABLES, link_ids)], axis=1))
        X[:, link_start:] = links
    relu = config.hidden_activation == "relu"
    for x, rows, row in zip(X, hidden_rows, range(first + 1, first + steps + 1)):
        x[lstm_end:link_start] = hidden[rows].reshape(-1)
        pre = w1 @ x + b1
        if relu:
            np.maximum(pre, 0.0, out=hidden[row])
        else:
            np.tanh(pre, out=hidden[row])
    activations = hidden[first + 1:first + steps + 1, :, None]
    return X, np.matmul(P["ff_w2"].data, activations)[:, :, 0] + P["ff_b2"].data


class ForwardPass:
    """Greedy decoding's forward state for one document: the parser
    state, the token encodings, and the hidden activations of the steps
    so far.

    A step's feature vector gathers rows of two pools whose row 0 is
    the zero vector that absent features read: the LSTM pool
    (`_lstm_pool`) and the hidden pool, which holds step s's hidden
    activation at row s + 1."""

    def __init__(self, P: dict[str, Tensor], config: ModelConfig,
                 lexicon: Lexicon, text: str, tokens: list[Token]):
        self.P = P
        self.config = config
        self.lexicon = lexicon
        self.state = ParserState(text, tokens)
        self.lstm_pool = _lstm_pool(config, encode_tokens(P, config, lexicon, tokens))
        self.hidden_pool = np.zeros((64, config.hidden_dim), self.lstm_pool.dtype)

    def step_logits(self) -> np.ndarray:
        """Score every action in the current state; records the hidden
        activation so later steps can attend to it."""
        cfg, state = self.config, self.state
        feats = extract_features(state, self.lexicon, cfg.k_attention, cfg.k_history)
        lstm, hidden, links = _step_rows(feats, state.num_tokens, state.step)
        if state.step + 1 == len(self.hidden_pool):
            self.hidden_pool = np.concatenate([self.hidden_pool,
                                               np.zeros_like(self.hidden_pool)])
        link_ids = np.array(links, np.intp)
        _, scores = decoder_steps(self.P, cfg, self.lstm_pool, self.hidden_pool,
                                  state.step, [lstm], [hidden],
                                  np.zeros(link_ids.shape[1], np.intp), link_ids)
        return scores[0]


@dataclass(frozen=True)
class ExamplePlan:
    """One training example reduced to what teacher forcing reads that
    no weight update changes, in read-only arrays: the tokens' table
    rows, then per step the pool rows of its features (`ForwardPass`)
    and its target action id.  The links of all steps are listed
    together, with the step each belongs to.

    Size is linear in the steps: one int per feature."""

    tokens: list[Token]
    token_rows: np.ndarray   # (tokens, 6 + 2 * max_affix_len)
    lstm_rows: np.ndarray    # (steps, 2 + 2k)
    hidden_rows: np.ndarray  # (steps, 2k + k_history)
    link_steps: np.ndarray   # (links,)
    link_ids: np.ndarray     # (tables, links)
    targets: np.ndarray      # (steps,)


def plan_example(config: ModelConfig, lexicon: Lexicon, text: str,
                 tokens: list[Token], actions) -> ExamplePlan:
    """Replay `actions` once and record every step's features."""
    state = ParserState(text, tokens)
    n = state.num_tokens
    lstm_rows, hidden_rows, targets = [], [], []
    link_steps: list[int] = []
    link_ids: list[list[int]] = [[] for _ in _LINK_TABLES]
    for step, action in enumerate(actions):
        feats = extract_features(state, lexicon, config.k_attention, config.k_history)
        lstm, hidden, links = _step_rows(feats, n, step)
        lstm_rows.append(lstm)
        hidden_rows.append(hidden)
        for log, ids in zip(link_ids, links):
            log.extend(ids)
        link_steps.extend([step] * len(links[0]))
        targets.append(lexicon.action_id(action))
        state.apply(action)
    steps = len(targets)
    slots = 2 * config.k_attention + config.k_history
    arrays = dict(
        token_rows=token_table(lexicon, tokens),
        lstm_rows=np.array(lstm_rows, dtype=np.intp).reshape(steps, -1),
        hidden_rows=np.array(hidden_rows, dtype=np.intp).reshape(steps, slots),
        link_steps=np.array(link_steps, dtype=np.intp),
        link_ids=np.array(link_ids, dtype=np.intp).reshape(len(_LINK_TABLES), -1),
        targets=np.array(targets, dtype=np.intp))
    for array in arrays.values():
        array.flags.writeable = False
    return ExamplePlan(tokens=tokens, **arrays)


class PlannedPass:
    """Teacher forcing's numeric pass over one plan: every step's
    logits in `scores`, and the backward that `planned_loss` runs."""

    def __init__(self, P: dict[str, Tensor], config: ModelConfig,
                 lexicon: Lexicon, plan: ExamplePlan):
        self.P = P
        self.config = config
        self.plan = plan
        self.encoding = encode_tokens(P, config, lexicon, plan.tokens, plan.token_rows)
        self.lstm_pool = _lstm_pool(config, self.encoding)
        hidden = np.zeros((len(plan.targets) + 1, config.hidden_dim), self.lstm_pool.dtype)
        self.inputs, self.scores = decoder_steps(
            P, config, self.lstm_pool, hidden, 0, plan.lstm_rows, plan.hidden_rows,
            plan.link_steps, plan.link_ids)
        self.hidden = hidden[1:]

    def backward(self, d_logits: np.ndarray) -> None:
        """Accumulate parameter gradients given the gradient of every
        step's logits, one row per step."""
        P, cfg, plan = self.P, self.config, self.plan
        steps, H, L, D = len(d_logits), cfg.hidden_dim, cfg.lstm_dim, cfg.link_dim
        lstm_end, link_start = _feature_bounds(cfg)
        w1 = P["ff_w1"].data
        w1_hidden = w1[:, lstm_end:link_start]
        hidden = self.hidden
        P["ff_w2"].accumulate(d_logits.T @ hidden)
        P["ff_b2"].accumulate(d_logits.sum(axis=0))
        # Row 0 collects the gradient of the zero row, then is dropped.
        d_hidden = np.zeros((steps + 1, H), dtype=hidden.dtype)
        d_hidden[1:] = d_logits @ P["ff_w2"].data
        if cfg.hidden_activation == "relu":
            d_act = (hidden > 0.0).astype(hidden.dtype)
        else:
            d_act = 1.0 - hidden * hidden
        # Hidden activations feed later steps, so only the hidden part
        # of the input gradient runs step by step, latest step first.
        # Each step adds into d_hidden the way `_add_rows` does.
        d_pre = np.empty((steps, H), dtype=hidden.dtype)
        flat = (plan.hidden_rows[:, :, None] * H + np.arange(H)).reshape(steps, -1)
        d_flat = d_hidden.reshape(-1)
        for t in range(steps - 1, -1, -1):
            d = d_pre[t]
            np.multiply(d_hidden[t + 1], d_act[t], out=d)
            np.add.at(d_flat, flat[t], d @ w1_hidden)
        P["ff_w1"].accumulate(d_pre.T @ self.inputs)
        P["ff_b1"].accumulate(d_pre.sum(axis=0))
        d_x = d_pre @ w1

        d_pool = np.zeros_like(self.lstm_pool)
        _add_rows(d_pool, plan.lstm_rows.reshape(-1), d_x[:, :lstm_end].reshape(-1, L))
        if plan.link_steps.size:
            d_links = d_x[plan.link_steps, link_start:]
            for k, (name, ids) in enumerate(zip(_LINK_TABLES, plan.link_ids)):
                _add_rows(P[name].grad_buffer(), ids, d_links[:, k * D:(k + 1) * D])
        n = len(plan.tokens)
        self.encoding.backward(d_pool[1:n + 1], d_pool[n + 1:])


def planned_loss(P: dict[str, Tensor], config: ModelConfig, lexicon: Lexicon,
                 plan: ExamplePlan) -> tuple[Tensor, int, int]:
    """Teacher-forced cross-entropy over a planned example.

    Returns (summed loss as one autodiff node whose backward covers the
    whole document, action count, correctly ranked actions).
    """
    run = PlannedPass(P, config, lexicon, plan)
    scores, targets = run.scores, plan.targets
    steps = np.arange(len(targets))
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


def document_loss(P: dict[str, Tensor], config: ModelConfig, lexicon: Lexicon,
                  text: str, tokens: list[Token],
                  actions) -> tuple[Tensor, int, int]:
    """`planned_loss` of a freshly planned example."""
    return planned_loss(P, config, lexicon,
                        plan_example(config, lexicon, text, tokens, actions))
