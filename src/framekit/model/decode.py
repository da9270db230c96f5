"""Greedy decoding: repeatedly apply the highest-scoring valid action.

A per-position cap on non-SHIFT actions guarantees termination even for
adversarial parameters; once a position exhausts its budget only SHIFT
(or STOP at the end of input) may be chosen.
"""

from __future__ import annotations

import numpy as np

from ..document import Document, Token
from ..transitions import SHIFT, STOP
from .network import ForwardPass, Parameters


def parse_tokens(params: Parameters, text: str, tokens: list[Token],
                 use_ema: bool = False) -> Document:
    """Parse a pre-tokenized text into a predicted document.

    Each step tries the actions in descending score order, equal scores
    in inventory order, and applies the first that is valid and within
    the cap.  NaN scores sort last, so an action scored NaN is taken
    only when no action with a number score can be."""
    config = params.config
    lexicon = params.lexicon
    arrays = params.ema if use_ema else params.arrays
    if arrays is None:
        raise ValueError("no averaged parameters in this model")
    run = ForwardPass(arrays, config, lexicon, text, tokens)
    actions = lexicon.actions
    nonshift_here = 0

    while not run.state.done:
        scores = run.step_logits()
        capped = nonshift_here >= config.decode_action_cap
        for index in np.argsort(-scores, kind="stable"):
            best = actions[index]
            if (not capped or best.kind in (SHIFT, STOP)) and run.state.is_valid(best):
                break
        else:
            raise RuntimeError("action inventory has no valid action; "
                               "it must contain SHIFT and STOP")
        if best.kind == SHIFT:
            nonshift_here = 0
        elif best.kind != STOP:
            nonshift_here += 1
        run.state.apply(best)
    return run.state.to_document()
