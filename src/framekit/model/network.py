"""Network parameters and the forward and backward passes shared by
training and decoding: a bidirectional LSTM over lexical token
embeddings feeding a single-hidden-layer feed-forward unit whose own
activations recur into later steps through the attention and history
features.  A token's input is its rows of the embedding tables that
`Lexicon.input_tables` lists, in that order.

Everything runs on numpy arrays.  A decoder step's feature vector
gathers rows of two pools, whose row 0 is the zero vector that an
absent feature reads: the LSTM pool (`Encoding.pool`), which holds
token i of n at row i + 1 left to right and n + i + 1 right to left,
and the hidden pool, which holds step s's activation at row s + 1; it
adds the summed embeddings of its role links.  One function,
`extract_features`, reads a parser state's features straight as those
rows and link ids, for planning and decoding alike.  One function,
`decoder_steps`, is the decoder's forward: it gathers the LSTM and link
features of a block of steps at once and runs only the hidden
recurrence step by step.
Greedy decoding (`ForwardPass.step_logits`) calls it for one step at a
time, since its next state depends on its prediction.  Teacher forcing
runs one pass over a whole training batch:

- a plan (`plan_example`, `ExamplePlan`) replays the oracle sequence
  once and records what the weights do not change: the tokens' table
  rows, and each step's pool rows, link ids and target action;
- the numeric pass over a batch of plans (`PlannedPass`) runs the
  documents in lockstep through one encoder and one decoder pass.  The
  encoder pads the token sequences to the longest; a sequence of n
  tokens runs while step t < n, reading token t left to right and
  token n - 1 - t right to left.  The decoder keeps every document's
  steps in one hidden pool, each document from its own row offset, and
  its step t runs every document with more than t steps.  The pass
  gives the batch's loss, and its backward adds every weight's
  gradient into one dict of arrays, `grads[name]`, zero-filled by the
  caller.  The backward runs only dpre -> W1_hiddenᵀ·dpre and
  dz -> Whᵀ·dz in lockstep, latest step first.  Rows are scatter-added
  through numpy's one-dimensional `np.add.at` (`_add_rows`): the same
  sums in the same order as the two-dimensional one, several times
  faster.

The pass is bit-identical to one document at a time, and scores a gold
sequence exactly as decoding does.  Each per-row product (Wh·h, W1·x,
W2·h and their transposes) is a stacked matrix-vector `np.matmul`,
which gives a row the same sums however many rows run with it.  The
matrix-matrix products over one document's tokens or steps stay per
document: the weight gradients (dzᵀ·inputs, dpreᵀ·X) would sum over
another length, and the input terms and the gradients passed down a
layer would round differently, since numpy sends a one-row product to
another BLAS routine than a many-row one.  Each weight gradient
receives its documents' contributions in batch order, and the
documents' losses are summed in batch order.  `train` plans each
example once; `grad_check` runs the pass over a batch of one.  Only
`document_loss` wraps a pass as an autodiff node, for the benchmark's
traced training, which sums and backpropagates one node per document.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..document import Token
from ..transitions import ParserState
from .autodiff import Tensor
from .config import ModelConfig
from .lexicon import InputTable, Lexicon


# Role-link tables, summed over a step's links, in feature-vector order.
_LINK_TABLES = ("triple_emb", "source_role_emb", "role_target_emb",
                "source_target_emb")


def _feature_bounds(config: ModelConfig) -> tuple[int, int]:
    """Where the feature vector's LSTM part ends and its link part (one
    `link_dim` sum per link table) starts; the hidden activations lie
    between.  `extract_features` lists each part's rows in order."""
    lstm_end = 2 * (1 + config.k_attention) * config.lstm_dim
    return lstm_end, lstm_end + (2 * config.k_attention + config.k_history) * config.hidden_dim


def feature_dim(config: ModelConfig) -> int:
    return _feature_bounds(config)[1] + len(_LINK_TABLES) * config.link_dim


def parameter_shapes(config: ModelConfig, lexicon: Lexicon) -> dict[str, tuple[int, ...]]:
    """Name and shape of every weight array, in allocation order; raises
    ValueError for a lexicon built at another affix length."""
    if lexicon.max_affix_len != config.max_affix_len:
        raise ValueError(f"lexicon max_affix_len {lexicon.max_affix_len!r} is not "
                         f"the configuration's {config.max_affix_len}")
    k, runs, link = config.k_attention, lexicon.num_roles, config.link_dim
    F, H, A, L = feature_dim(config), config.hidden_dim, lexicon.num_actions, config.lstm_dim
    tables = lexicon.input_tables()
    in_dim = sum(t.per_token * getattr(config, t.dim) for t in tables)
    shapes = {t.name: (t.rows, getattr(config, t.dim)) for t in tables}
    shapes.update(triple_emb=(k * runs * k, link), source_role_emb=(k * runs, link),
                  role_target_emb=(runs * k, link), source_target_emb=(k * k, link))
    for direction in ("fw", "bw"):
        shapes[f"lstm_{direction}_wx"] = (4 * L, in_dim)
        shapes[f"lstm_{direction}_wh"] = (4 * L, L)
        shapes[f"lstm_{direction}_b"] = (4 * L,)
    shapes.update(ff_w1=(H, F), ff_b1=(H,), ff_w2=(A, H), ff_b2=(A,))
    return shapes


class WordVectorError(ValueError):
    """A line of a word vector file that does not load."""


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
        """Seed word embedding rows from a UTF-8 `word v1 .. vD` text
        file, skipping a word2vec `count dim` header on line 1.  Raises
        WordVectorError("PATH: line N: ...") for a line that does not decode,
        has another width, or gives a lexicon word a value that does not
        parse or is not finite."""
        dim = self.config.word_dim
        table = self.arrays["word_emb"]
        with open(path, "rb") as handle:
            for number, raw in enumerate(handle, 1):
                try:
                    parts = raw.decode("utf-8").split()
                    if number == 1 and len(parts) == 2 and all(p.isdigit() for p in parts):
                        continue
                    if len(parts) != dim + 1:
                        raise ValueError(f"{len(parts) - 1} values, expected {dim}")
                    row = self.lexicon.words.get(parts[0])
                    if row is not None:
                        vec = np.array([float(v) for v in parts[1:]])
                        if not np.all(np.isfinite(vec)):
                            raise ValueError("a value is not finite")
                        table[row] = vec.astype(table.dtype)
                except ValueError as exc:
                    raise WordVectorError(f"{path}: line {number}: {exc}") from None

    def tensors(self, trainable: bool) -> dict[str, Tensor]:
        return {name: Tensor(array, requires_grad=trainable)
                for name, array in self.arrays.items()}

    def start_ema(self) -> None:
        self.ema = {name: array.copy() for name, array in self.arrays.items()}

    def update_ema(self, decay: float) -> None:
        assert self.ema is not None
        for name, shadow in self.ema.items():
            shadow *= decay
            shadow += (1.0 - decay) * self.arrays[name]


def extract_features(state: ParserState, lexicon: Lexicon, k_attention: int,
                     k_history: int) -> tuple[list[int], list[int], tuple[list[int], ...]]:
    """One decoder step's features as pool rows: the LSTM rows of the
    cursor token and of the last token of each top-k frame's latest
    evoking phrase (none after EMBED or ELABORATE), all left to right,
    then all right to left; the hidden rows of the steps that created
    and last fronted each top-k frame, then of the previous k_history
    steps.  Per link table (`_LINK_TABLES`), the (source, role, target)
    ids of the role links between top-k frames (`ParserState.links`),
    or their back-offs."""
    n, k, step = state.num_tokens, k_attention, state.step
    attention = state.attention[:k]
    absent = [0] * (k - len(attention))
    phrases = state.phrases  # each lies inside the tokens
    fw = [state.cursor + 1 if state.cursor < n else 0]
    for frame in attention:
        span = phrases.get(frame)
        fw.append(span[0] + span[1] if span is not None else 0)
    fw += absent
    bw = [row + n if row else 0 for row in fw]
    # Every buffer frame was created and fronted before this step.
    created, focused = state.created_step, state.focused_step
    hidden = ([created[frame] + 1 for frame in attention] + absent
              + [focused[frame] + 1 for frame in attention] + absent
              + [step - j if step > j else 0 for j in range(k_history)])

    links = ([], [], [], [])
    triples, source_roles, role_targets, source_targets = links
    if state.links:
        positions = {frame: i for i, frame in enumerate(attention)}
        num_roles = lexicon.num_roles
        for s_pos, frame in enumerate(attention):
            for role, target in state.links.get(frame, ()):
                t_pos = positions.get(target)
                if t_pos is None:
                    continue
                role_id = lexicon.role_id(role)
                source_role = s_pos * num_roles + role_id
                triples.append(source_role * k + t_pos)
                source_roles.append(source_role)
                role_targets.append(role_id * k + t_pos)
                source_targets.append(s_pos * k + t_pos)
    return fw[:1] + bw[:1] + fw[1:] + bw[1:], hidden, links


def _add_rows(target: np.ndarray, rows: np.ndarray, values: np.ndarray) -> None:
    """`np.add.at(target, rows, values)` for a C-contiguous 2-D
    `target`, through numpy's faster one-dimensional path: the same
    sums, added in the same order."""
    assert target.flags.c_contiguous  # else reshape would copy
    width = target.shape[1]
    flat = (rows[:, None] * width + np.arange(width)).reshape(-1)
    np.add.at(target.reshape(-1), flat, values.reshape(-1))


def token_table(lexicon: Lexicon, tokens: list[Token]) -> np.ndarray:
    """Each token's row ids (`Lexicon.token_rows`), one row per token."""
    width = sum(table.per_token for table in lexicon.input_tables())
    return np.array(lexicon.token_rows([t.text for t in tokens]),
                    dtype=np.intp).reshape(len(tokens), width)


class Encoding:
    """The biLSTM outputs of a batch of token sequences in one pool,
    `pool`: row 0 is the zero vector that absent features read, then
    each sequence in turn gives its left-to-right activations, one row
    per token, and its right-to-left ones.  `docs` holds, per sequence,
    its first row in `inputs` (its pool rows follow row twice that),
    its length and its slot in the padded arrays.

    The recurrence steps every sequence and both directions together,
    padded to the longest sequence.  At step t, sequence b (n_b tokens)
    runs only while t < n_b: its direction 0 reads token t and its
    direction 1 token n_b - 1 - t.  The padded arrays hold the
    sequences longest first, so the ones running at step t are a
    prefix; each keeps its gates and cells for the backward."""

    def __init__(self, arrays: dict[str, np.ndarray], token_rows: list[np.ndarray],
                 tables: list[InputTable]):
        self.arrays = arrays
        rows = np.concatenate(token_rows)
        n = len(rows)
        self.ids: list[tuple[str, np.ndarray]] = []  # per table, (tokens, rows)
        columns = []
        for table in tables:
            ids, rows = rows[:, :table.per_token], rows[:, table.per_token:]
            weights = arrays[table.name]
            self.ids.append((table.name, ids))
            columns.append(weights[ids].reshape(n, table.per_token * weights.shape[1]))
        self.inputs = inputs = np.concatenate(columns, axis=1)
        (wx_fw, wh_fw, b_fw), (wx_bw, wh_bw, b_bw) = (
            [arrays[f"lstm_{direction}_{part}"] for part in ("wx", "wh", "b")]
            for direction in ("fw", "bw"))
        self.wh = wh = np.stack([wh_fw, wh_bw])
        L = wh.shape[2]
        lengths = [len(r) for r in token_rows]
        slots = np.argsort([-n for n in lengths], kind="stable").argsort()
        self.docs = list(zip(np.cumsum([0] + lengths[:-1]), lengths, slots))
        self.running = [sum(n > t for n in lengths) for t in range(max(lengths))]
        T, B = len(self.running), len(lengths)
        # Each sequence's input term for all its tokens at once; only
        # Wh·h goes step by step.
        z_in = np.zeros((T, B, 2, 4 * L), wh.dtype)
        for start, n, j in self.docs:
            x = inputs[start:start + n]
            z_in[:n, j, 0] = x @ wx_fw.T + b_fw
            z_in[:n, j, 1] = x[::-1] @ wx_bw.T + b_bw
        self.gates = gates = np.zeros_like(z_in)                  # i, f, o, g
        self.cells = np.zeros((T + 1, B, 2, L), dtype=z_in.dtype)    # row 0: c before t=0
        self.outputs = np.zeros((T + 1, B, 2, L), dtype=z_in.dtype)  # row 0: h before t=0
        for t, k in enumerate(self.running):
            z = z_in[t, :k] + np.matmul(wh, self.outputs[t, :k, :, :, None])[..., 0]
            gates[t, :k, :, :3 * L] = 1.0 / (1.0 + np.exp(-z[..., :3 * L]))
            gates[t, :k, :, 3 * L:] = np.tanh(z[..., 3 * L:])
            i, f, o, g = gates[t, :k].reshape(k, 2, 4, L).transpose(2, 0, 1, 3)
            c = self.cells[t + 1, :k] = f * self.cells[t, :k] + i * g
            self.outputs[t + 1, :k] = o * np.tanh(c)
        pool = [np.zeros((1, L), z_in.dtype)]
        for _, n, j in self.docs:
            pool += [self.outputs[1:n + 1, j, 0], self.outputs[n:0:-1, j, 1]]
        self.pool = np.concatenate(pool)

    def backward(self, d_pool: np.ndarray, grads: dict[str, np.ndarray]) -> None:
        """Add to `grads` the gradients of the LSTM weights and
        embedding tables for the gradient `d_pool` of the pool."""
        T, B, _, L = self.outputs[1:].shape
        d_outputs = np.zeros((T, B, 2, L), dtype=d_pool.dtype)
        for start, n, j in self.docs:
            row = 2 * start + 1
            d_outputs[:n, j, 0] = d_pool[row:row + n]
            d_outputs[:n, j, 1] = d_pool[row + n:row + 2 * n][::-1]
        gates = self.gates.reshape(T, B, 2, 4, L)
        i, f, o, g = (gates[..., k, :] for k in range(4))
        tanh_c = np.tanh(self.cells[1:])
        # d(activation)/d(pre-activation) of each gate.
        d_act = self.gates * (1.0 - self.gates)
        d_act[..., 3 * L:] = 1.0 - g * g
        d_act = d_act.reshape(T, B, 2, 4, L)
        # Per step, dz = [dc·g, dc·c_prev, dh·tanh(c), dc·i] * d_act.
        by_dc = np.stack([g, self.cells[:-1], np.zeros_like(g), i], axis=-2)
        by_dc *= d_act
        by_dh = tanh_c * d_act[..., 2, :]
        dc_by_dh = o * (1.0 - tanh_c * tanh_c)
        dz = np.zeros_like(self.gates)
        dh_next = np.zeros((B, 2, L), dtype=dz.dtype)
        dc_next = np.zeros((B, 2, L), dtype=dz.dtype)
        for t in range(T - 1, -1, -1):
            k = self.running[t]
            dh = d_outputs[t, :k] + dh_next[:k]
            dc = dc_next[:k] + dh * dc_by_dh[t, :k]
            z = dz[t, :k].reshape(k, 2, 4, L)
            np.multiply(by_dc[t, :k], dc[:, :, None], out=z)
            z[:, :, 2] = by_dh[t, :k] * dh
            dc_next[:k] = dc * f[t, :k]
            dh_next[:k] = np.matmul(dz[t, :k, :, None], self.wh)[:, :, 0]
        # These products sum over one sequence's tokens, or would round
        # differently at another row count, so they go sequence by
        # sequence, in batch order.
        d_inputs = np.empty_like(self.inputs)
        for start, n, j in self.docs:
            x = self.inputs[start:start + n]
            parts = []
            for k, direction in enumerate(("fw", "bw")):
                dz_k = dz[:n, j, k]
                grads[f"lstm_{direction}_wx"] += dz_k.T @ (x if k == 0 else x[::-1])
                grads[f"lstm_{direction}_wh"] += dz_k.T @ self.outputs[:n, j, k]
                grads[f"lstm_{direction}_b"] += dz_k.sum(axis=0)
                parts.append(dz_k @ self.arrays[f"lstm_{direction}_wx"])
            d_inputs[start:start + n] = parts[0] + parts[1][::-1]
        offset = 0
        for name, ids in self.ids:
            dim = grads[name].shape[1]
            width = ids.shape[1] * dim
            rows = d_inputs[:, offset:offset + width].reshape(-1, dim)
            _add_rows(grads[name], ids.reshape(-1), rows)
            offset += width


def encode_tokens(arrays: dict[str, np.ndarray], lexicon: Lexicon,
                  tokens: list[Token]) -> Encoding:
    """The biLSTM pool of one token sequence."""
    return Encoding(arrays, [token_table(lexicon, tokens)], lexicon.input_tables())


def decoder_steps(arrays: dict[str, np.ndarray], config: ModelConfig, lstm_pool: np.ndarray,
                  hidden: np.ndarray, first: int, groups, lstm_rows, hidden_rows,
                  link_steps: np.ndarray, link_ids) -> tuple[np.ndarray, np.ndarray]:
    """The decoder's forward over a block of steps: one row per step of
    pool rows (`extract_features`), and the links of all steps with the step
    row each belongs to.

    Every step's LSTM and link features are gathered at once.  Only the
    hidden activations go step by step: `groups` lists the step rows
    that run together, in order, as index arrays or slices, and step
    row i reads earlier rows of the hidden pool `hidden` and writes its
    activation to row first + i + 1.  Returns the feature vectors X, one
    row per step, and the logits; every per-row product is a stacked
    matrix-vector product, the same for a group of one row or of many."""
    lstm_end, link_start = _feature_bounds(config)
    w1, b1 = arrays["ff_w1"], arrays["ff_b1"]
    steps = len(lstm_rows)
    X = np.zeros((steps, w1.shape[1]), w1.dtype)
    X[:, :lstm_end] = lstm_pool[lstm_rows].reshape(steps, lstm_end)
    if link_steps.size:
        links = np.zeros((steps, w1.shape[1] - link_start), w1.dtype)
        _add_rows(links, link_steps,
                  np.concatenate([arrays[name].take(ids, axis=0) for name, ids
                                  in zip(_LINK_TABLES, link_ids)], axis=1))
        X[:, link_start:] = links
    relu = config.hidden_activation == "relu"
    for rows in groups:
        X[rows, lstm_end:link_start] = hidden[hidden_rows[rows]].reshape(
            -1, link_start - lstm_end)
        pre = np.matmul(w1, X[rows, :, None])[:, :, 0] + b1
        hidden[first + 1:][rows] = np.maximum(pre, 0.0) if relu else np.tanh(pre)
    activations = hidden[first + 1:first + steps + 1, :, None]
    return X, np.matmul(arrays["ff_w2"], activations)[:, :, 0] + arrays["ff_b2"]


class ForwardPass:
    """Greedy decoding's forward state for one document: the parser
    state, its LSTM pool, and the hidden pool of the steps so far."""

    def __init__(self, arrays: dict[str, np.ndarray], config: ModelConfig,
                 lexicon: Lexicon, text: str, tokens: list[Token]):
        self.arrays = arrays
        self.config = config
        self.lexicon = lexicon
        self.state = ParserState(text, tokens)
        self.lstm_pool = encode_tokens(arrays, lexicon, tokens).pool
        self.hidden_pool = np.zeros((64, config.hidden_dim), self.lstm_pool.dtype)

    def step_logits(self) -> np.ndarray:
        """Score every action in the current state; records the hidden
        activation so later steps can attend to it."""
        cfg, state = self.config, self.state
        lstm, hidden, links = extract_features(state, self.lexicon, cfg.k_attention,
                                               cfg.k_history)
        if state.step + 1 == len(self.hidden_pool):
            self.hidden_pool = np.concatenate([self.hidden_pool,
                                               np.zeros_like(self.hidden_pool)])
        link_ids = np.array(links, np.intp)
        # Index arrays, which numpy reads faster than nested lists.
        _, scores = decoder_steps(self.arrays, cfg, self.lstm_pool, self.hidden_pool,
                                  state.step, [slice(0, 1)], np.array([lstm], np.intp),
                                  np.array([hidden], np.intp),
                                  np.zeros(link_ids.shape[1], np.intp), link_ids)
        return scores[0]


@dataclass(frozen=True)
class ExamplePlan:
    """One training example reduced to what teacher forcing reads that
    no weight update changes, in read-only arrays: the tokens' table
    rows, then per step the pool rows of its features
    (`extract_features`) and its target action id.  The links of all
    steps are listed together, with the step each belongs to.

    Size is linear in the steps: one int per feature."""

    token_rows: np.ndarray   # (tokens, ids per token of `Lexicon.input_tables`)
    lstm_rows: np.ndarray    # (steps, 2 + 2k)
    hidden_rows: np.ndarray  # (steps, 2k + k_history)
    link_steps: np.ndarray   # (links,)
    link_ids: np.ndarray     # (tables, links)
    targets: np.ndarray      # (steps,)


def plan_example(config: ModelConfig, lexicon: Lexicon, text: str,
                 tokens: list[Token], actions) -> ExamplePlan:
    """Replay `actions` once and record every step's features."""
    state = ParserState(text, tokens)
    lstm_rows, hidden_rows, targets = [], [], []
    link_steps: list[int] = []
    link_ids: list[list[int]] = [[] for _ in _LINK_TABLES]
    for step, action in enumerate(actions):
        lstm, hidden, links = extract_features(state, lexicon, config.k_attention,
                                               config.k_history)
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
    return ExamplePlan(**arrays)


class PlannedPass:
    """Teacher forcing's numeric pass over a batch of plans: every
    step's logits in `scores`, the teacher-forced cross-entropy `loss`
    (summed over each document's steps, then over the documents in
    batch order), the number of actions and of correctly ranked ones,
    and the `backward` of the loss.

    The documents share one LSTM pool (`Encoding`) and one hidden pool.
    Document b's steps are the rows `spans[b]` of the batch's steps, so
    its step s writes hidden row spans[b][0] + s + 1; its plan's pool
    rows are shifted by those offsets.  The hidden recurrence runs in
    lockstep: at step t, every document with more than t steps."""

    def __init__(self, arrays: dict[str, np.ndarray], config: ModelConfig,
                 lexicon: Lexicon, plans: list[ExamplePlan]):
        self.arrays = arrays
        self.config = config
        self.encoding = encoding = Encoding(arrays, [plan.token_rows for plan in plans],
                                            lexicon.input_tables())
        lengths = np.array([len(plan.targets) for plan in plans])
        bounds = np.concatenate([[0], np.cumsum(lengths)])
        self.spans = list(zip(bounds[:-1], bounds[1:]))

        def pool_rows(rows, offsets):  # a document's offset on each of its steps
            rows = np.concatenate(rows)  # row 0, the zero row, stays
            return np.where(rows > 0, rows + np.repeat(offsets, lengths)[:, None], 0)

        self.lstm_rows = pool_rows([plan.lstm_rows for plan in plans],
                                   [2 * start for start, _, _ in encoding.docs])
        self.hidden_rows = pool_rows([plan.hidden_rows for plan in plans], bounds[:-1])
        self.link_steps = np.concatenate([plan.link_steps + start for plan, start
                                          in zip(plans, bounds)])
        self.link_ids = np.concatenate([plan.link_ids for plan in plans], axis=1)
        self.targets = targets = np.concatenate([plan.targets for plan in plans])
        # Group t: the rows of every document's step t, in batch order.
        local = np.arange(bounds[-1]) - np.repeat(bounds[:-1], lengths)
        self.groups = np.split(np.argsort(local, kind="stable"),
                               np.cumsum(np.bincount(local))[:-1])
        hidden = np.zeros((bounds[-1] + 1, config.hidden_dim), encoding.pool.dtype)
        self.inputs, self.scores = decoder_steps(
            arrays, config, encoding.pool, hidden, 0, self.groups, self.lstm_rows,
            self.hidden_rows, self.link_steps, self.link_ids)
        self.hidden = hidden[1:]

        scores, steps = self.scores, np.arange(len(targets))
        exp = np.exp(scores - scores.max(axis=1, keepdims=True))
        self.probs = probs = exp / exp.sum(axis=1, keepdims=True)
        losses = -np.log(np.maximum(probs[steps, targets], np.finfo(probs.dtype).tiny))
        sums = [losses[start:end].sum() for start, end in self.spans]
        self.loss = sum(sums[1:], sums[0])
        self.actions = len(targets)
        self.correct = int(np.sum(np.argmax(scores, axis=1) == targets))

    def backward(self, grads: dict[str, np.ndarray], scale: float) -> None:
        """Add to `grads`, one array per weight, the gradient of `scale`
        times the loss.

        Each weight product that sums over one document's steps runs
        document by document, in batch order, so every weight gradient
        receives the same sums in the same order as from a batch of
        one document at a time."""
        d_logits = self.probs.copy()
        d_logits[np.arange(self.actions), self.targets] -= 1.0
        # The decoder's arrays are freed before the encoder's backward.
        self.encoding.backward(self._decoder_backward(d_logits * scale, grads), grads)

    def _decoder_backward(self, d_logits: np.ndarray,
                          grads: dict[str, np.ndarray]) -> np.ndarray:
        """The decoder's part of `backward`: the LSTM pool's gradient."""
        arrays, cfg = self.arrays, self.config
        steps, H, L, D = len(d_logits), cfg.hidden_dim, cfg.lstm_dim, cfg.link_dim
        lstm_end, link_start = _feature_bounds(cfg)
        w1 = arrays["ff_w1"]
        w1_hidden = w1[:, lstm_end:link_start]
        hidden, spans = self.hidden, self.spans
        # Row 0 collects the gradient of the zero row, then is dropped.
        d_hidden = np.zeros((steps + 1, H), dtype=hidden.dtype)
        for start, end in spans:
            grads["ff_w2"] += d_logits[start:end].T @ hidden[start:end]
            grads["ff_b2"] += d_logits[start:end].sum(axis=0)
            d_hidden[start + 1:end + 1] = d_logits[start:end] @ arrays["ff_w2"]
        if cfg.hidden_activation == "relu":
            d_act = (hidden > 0.0).astype(hidden.dtype)
        else:
            d_act = 1.0 - hidden * hidden
        # Hidden activations feed later steps, so only the hidden part
        # of the input gradient runs step by step, latest step first.
        d_pre = np.empty((steps, H), dtype=hidden.dtype)
        for rows in reversed(self.groups):
            d = d_pre[rows] = d_hidden[rows + 1] * d_act[rows]
            _add_rows(d_hidden, self.hidden_rows[rows].reshape(-1),
                      np.matmul(d[:, None], w1_hidden).reshape(-1, H))
        # The hidden columns of the input gradient went step by step
        # above; only the LSTM and link columns are kept.
        d_lstm = np.empty((steps, lstm_end), dtype=hidden.dtype)
        d_links = np.empty((steps, w1.shape[1] - link_start), dtype=hidden.dtype)
        for start, end in spans:
            grads["ff_w1"] += d_pre[start:end].T @ self.inputs[start:end]
            grads["ff_b1"] += d_pre[start:end].sum(axis=0)
            d_x = d_pre[start:end] @ w1
            d_lstm[start:end] = d_x[:, :lstm_end]
            d_links[start:end] = d_x[:, link_start:]
        if self.link_steps.size:
            d_links = d_links[self.link_steps]
            for k, (name, ids) in enumerate(zip(_LINK_TABLES, self.link_ids)):
                _add_rows(grads[name], ids, d_links[:, k * D:(k + 1) * D])
        d_pool = np.zeros_like(self.encoding.pool)
        _add_rows(d_pool, self.lstm_rows.reshape(-1), d_lstm.reshape(-1, L))
        return d_pool


def document_loss(P: dict[str, Tensor], config: ModelConfig, lexicon: Lexicon,
                  text: str, tokens: list[Token],
                  actions) -> tuple[Tensor, int, int]:
    """The `PlannedPass` of one freshly planned example as one autodiff
    node, whose backward adds into the parameters' gradient buffers:
    (loss, action count, correctly ranked actions)."""
    run = PlannedPass({name: t.data for name, t in P.items()}, config, lexicon,
                      [plan_example(config, lexicon, text, tokens, actions)])

    def back(g: np.ndarray) -> None:
        run.backward({name: t.grad_buffer() for name, t in P.items()}, g)

    return (Tensor(np.asarray(run.loss), parents=P.values(), backward=back),
            run.actions, run.correct)
