"""Training (teacher forcing + Adam with global-norm clipping) and the
finite-difference gradient checker."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from ..document import Document
from ..oracle import UnrepresentableDocumentError, generate
from ..transitions import Action
from .config import ModelConfig
from .lexicon import Lexicon
from .network import Parameters, PlannedPass, WordVectorError, plan_example


class TrainingError(Exception):
    pass


class Adam:
    """Adam over named arrays, updating them in place.

    Each step scales the gradients by clip/norm when their global norm
    exceeds `gradient_clip_norm`, updates the moments m and v, and moves
    each array by lr * m_hat / (sqrt(v_hat) + epsilon), with Kingma &
    Ba's bias-corrected m_hat = m / (1 - beta1**t) and
    v_hat = v / (1 - beta2**t); epsilon is added to sqrt(v_hat), not to
    the uncorrected sqrt(v).  At the recipe's beta1=0.01, m_hat is close
    to the latest gradient and the update close to lr * sign(g): sign
    descent, which gives no per-step guarantee that the loss falls.  On
    a single example it can overshoot into a period-2 oscillation while
    the loss still falls on average.

    The moments, the gradients and the update are each one contiguous
    block, with a view per array (`m[name]`, `v[name]`, `grads[name]`),
    so a step runs each elementwise operation once over all the arrays,
    into those blocks: the same operations in the same order as array by
    array, so the same values.  `step` takes any dict of gradients with
    the arrays' names, and copies them into the gradient block unless
    they are its views, which `zero_grads` hands out zero-filled; once
    the moments are updated, the step uses that block as scratch.
    """

    def __init__(self, arrays: dict[str, np.ndarray], config: ModelConfig):
        dtypes = {array.dtype for array in arrays.values()}
        if len(dtypes) > 1:
            raise TypeError(f"Adam needs arrays of one dtype, got {sorted(map(str, dtypes))}")
        self.arrays = arrays
        self.config = config
        self.t = 0
        # One row each: m, v, the gradients, the update.
        sizes = [array.size for array in arrays.values()]
        self._blocks = np.zeros((4, sum(sizes)), dtypes.pop() if dtypes else np.float64)
        self.m, self.v, self.grads, self._updates = (
            {name: part.reshape(array.shape) for (name, array), part
             in zip(arrays.items(), np.split(block, np.cumsum(sizes[:-1], dtype=np.intp)))}
            for block in self._blocks)

    def zero_grads(self) -> dict[str, np.ndarray]:
        """The gradient block's views, zero-filled, for `step` to read."""
        self._blocks[2].fill(0)
        return self.grads

    def step(self, grads: dict[str, np.ndarray]) -> float:
        """Update the arrays; returns the gradients' global norm before
        clipping."""
        if grads.keys() != self.arrays.keys():
            raise KeyError(f"gradients for {sorted(grads)}, arrays {sorted(self.arrays)}")
        cfg = self.config
        m, v, g, update = self._blocks
        total = 0.0
        for name, grad in grads.items():
            if grad is not self.grads[name]:
                np.copyto(self.grads[name], grad)
            total += float(np.sum(np.multiply(grad, grad, out=self._updates[name])))
        norm = math.sqrt(total)
        if norm > cfg.gradient_clip_norm > 0:
            np.multiply(g, cfg.gradient_clip_norm / norm, out=g)
        self.t += 1
        b1, b2 = cfg.adam_beta1, cfg.adam_beta2
        bias1 = 1.0 - b1 ** self.t
        bias2 = 1.0 - b2 ** self.t
        # m = b1 m + (1 - b1) g;  v = b2 v + ((1 - b2) g) g
        np.multiply(m, b1, out=m)
        m += np.multiply(g, 1.0 - b1, out=update)
        np.multiply(v, b2, out=v)
        np.multiply(g, 1.0 - b2, out=update)
        v += np.multiply(update, g, out=update)
        # update = lr (m / bias1) / (sqrt(v / bias2) + epsilon), with
        # the denominator in the gradient block
        np.multiply(np.divide(m, bias1, out=update), cfg.learning_rate, out=update)
        np.sqrt(np.divide(v, bias2, out=g), out=g)
        g += cfg.adam_epsilon
        np.divide(update, g, out=update)
        for name, array in self.arrays.items():
            array -= self._updates[name]
        return norm


@dataclass
class Checkpoint:
    """The means over the steps since the last checkpoint: loss per
    action, accuracy, global gradient norm before clipping, and the
    share of steps whose gradients were clipped."""
    step: int
    loss: float
    accuracy: float
    grad_norm: float
    clip_rate: float


def oracle_sequences(corpus: list[Document]) -> list[list[Action]]:
    """Each document's oracle sequence; a document the oracle cannot
    represent is named by its index."""
    sequences = []
    for index, doc in enumerate(corpus):
        try:
            sequences.append(generate(doc))
        except UnrepresentableDocumentError as exc:
            raise UnrepresentableDocumentError(f"document {index}: {exc}") from None
    return sequences


def build_lexicon(corpus: list[Document], config: ModelConfig,
                  sequences: Optional[list[list[Action]]] = None) -> Lexicon:
    if sequences is None:
        sequences = oracle_sequences(corpus)
    return Lexicon.build(corpus, sequences, config.max_affix_len)


def train(corpus: list[Document], config: ModelConfig, seed: int = 1,
          steps: int = 1000, checkpoint_every: int = 200,
          on_checkpoint: Optional[Callable[[Parameters, Checkpoint], None]] = None,
          ) -> Parameters:
    """Train an action predictor on oracle sequences.

    Deterministic for a given (corpus, config, seed, steps).  Every
    `checkpoint_every` steps the running loss/accuracy is reported to
    `on_checkpoint`, which may also run a dev evaluation.
    """
    if not corpus:
        raise TrainingError("cannot train on an empty corpus")
    if steps < 1 or checkpoint_every < 1:
        raise TrainingError("steps and checkpoint_every must be at least 1")
    if not any(doc.tokens for doc in corpus):
        raise TrainingError("no oracle sequence has a SHIFT: the corpus has no tokens")
    sequences = oracle_sequences(corpus)
    lexicon = build_lexicon(corpus, config, sequences)
    try:
        params = Parameters(config, lexicon, seed)
    except OSError as exc:  # opening word_vectors_path
        raise TrainingError(f"word vectors {config.word_vectors_path}: "
                            f"{exc.strerror or exc}") from None
    except WordVectorError as exc:  # a line of it, which the message names
        raise TrainingError(f"word vectors {exc}") from None
    except ValueError as exc:  # a shape numpy refuses, before allocating it
        raise TrainingError(f"cannot allocate the parameters: {exc}") from None
    adam = Adam(params.arrays, config)
    if config.use_ema:
        params.start_ema()

    # Everything teacher forcing reads that the weights do not change,
    # once per example; each visit then runs only the numeric pass.
    plans = [plan_example(config, lexicon, doc.text, list(doc.tokens), actions)
             for doc, actions in zip(corpus, sequences)]
    rng = random.Random(seed)
    order: list[int] = []
    window = []  # per step since the last checkpoint: loss, correct, actions, norm

    for step in range(1, steps + 1):
        batch = []
        for _ in range(config.batch_size):
            if not order:
                order = list(range(len(plans)))
                rng.shuffle(order)
            batch.append(plans[order.pop()])

        run = PlannedPass(params.arrays, config, lexicon, batch)
        # The loss per action; its gradient takes the same 1/actions,
        # in the loss's dtype.
        scale = run.loss.dtype.type(1.0 / run.actions)
        loss_value = float(run.loss * scale)
        if not math.isfinite(loss_value):
            raise TrainingError(f"non-finite loss at step {step}")
        grads = adam.zero_grads()
        run.backward(grads, scale)
        norm = adam.step(grads)
        if config.use_ema:
            params.update_ema(config.ema_decay)

        window.append((loss_value, run.correct, run.actions, norm))
        if step % checkpoint_every == 0 or step == steps:
            losses, correct, actions, norms = zip(*window)
            clipped = sum(n > config.gradient_clip_norm > 0 for n in norms)
            report = Checkpoint(step=step,
                                loss=sum(losses) / len(window),
                                accuracy=sum(correct) / max(1, sum(actions)),
                                grad_norm=sum(norms) / len(window),
                                clip_rate=clipped / len(window))
            if on_checkpoint is not None:
                on_checkpoint(params, report)
            window = []
    return params


class GradCheck(NamedTuple):
    error: float   # max relative error over the elements compared
    skipped: int   # elements at a kink of the loss, not compared


def grad_check(params: Parameters, doc: Document,
               actions: Optional[list[Action]] = None,
               step: float = 1e-5) -> GradCheck:
    """Max relative error of analytic vs central-difference gradients.

    Checks every element of every parameter tensor; the error for each
    is |analytic - numeric| / max(1, |analytic|, |numeric|), or inf
    where that is not finite (a NaN passes no check).  Elements
    at a kink of the loss (a relu input within `step` of zero) are
    skipped and counted: there the two one-sided differences disagree
    by more than 100 * step, relative, where a smooth loss moves them
    apart by only about step * |f''|.  Use a float64 parameter set;
    finite differences have no headroom in single precision.
    """
    if actions is None:
        actions = generate(doc)
    config = params.config
    lexicon = params.lexicon

    plan = plan_example(config, lexicon, doc.text, list(doc.tokens), actions)
    analytic = {name: np.zeros_like(array) for name, array in params.arrays.items()}
    PlannedPass(params.arrays, config, lexicon, [plan]).backward(analytic, 1.0)

    def loss_at() -> float:
        return float(PlannedPass(params.arrays, config, lexicon, [plan]).loss)

    centre = loss_at()
    worst = 0.0
    skipped = 0
    for name, array in params.arrays.items():
        flat = array.reshape(-1)
        grad_flat = analytic[name].reshape(-1)
        for index in range(flat.shape[0]):
            original = flat[index]
            flat[index] = original + step
            upper = (loss_at() - centre) / step
            flat[index] = original - step
            lower = (centre - loss_at()) / step
            flat[index] = original
            if abs(upper - lower) > 100 * step * max(1.0, abs(upper), abs(lower)):
                skipped += 1
                continue
            numeric = (upper + lower) / 2.0
            a = float(grad_flat[index])
            error = abs(a - numeric) / max(1.0, abs(a), abs(numeric))
            worst = max(worst, error if math.isfinite(error) else math.inf)
    return GradCheck(worst, skipped)
