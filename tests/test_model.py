import dataclasses
import gc
import math
import random
import re

import numpy as np
import pytest

from framekit import cli
from framekit.corpus import generate_corpus
from framekit.document import Document, Mention, Token, tokenize
from framekit.model import (ModelConfig, Parameters, build_lexicon, grad_check,
                            parse_tokens, train)
from framekit.model import autodiff as ad
from framekit.model.lexicon import (Lexicon, caps_shape, digit_shape, hyphen_shape,
                                    punct_shape, quote_shape)
from framekit.model.checkpoint import load_checkpoint, save_checkpoint
from framekit.model.network import (ExamplePlan, ForwardPass, PlannedPass,
                                    document_loss, encode_tokens, extract_features,
                                    feature_dim, plan_example, token_table)
from framekit.model.training import Adam, TrainingError, oracle_sequences
from framekit.store import Store
from framekit.transitions import EVOKE, STOP, Action, ParserState, SymbolName
from support import (ReferenceAdam, hit_document, random_document, reference_step_features,
                     reference_step_rows, reference_token_rows)


def tiny_config(**kw):
    base = dict(lstm_dim=6, hidden_dim=5, word_dim=4, affix_dim=2,
                shape_dim=2, link_dim=3, k_attention=3, k_history=2)
    base.update(kw)
    return ModelConfig(**base)


def setup(n_docs=3, corpus_seed=7, **kw):
    corpus = generate_corpus(corpus_seed, n_docs)
    config = tiny_config(**kw)
    sequences = oracle_sequences(corpus)
    lexicon = build_lexicon(corpus, config, sequences)
    params = Parameters(config, lexicon, seed=1)
    return corpus, config, sequences, lexicon, params


def zero_grads(params):
    """One zero-filled gradient array per weight, as `Adam.zero_grads`
    gives them to `train`."""
    return {name: np.zeros_like(array) for name, array in params.arrays.items()}


def planned_pass(params, text, tokens, actions):
    """The pass over one freshly planned example."""
    plan = plan_example(params.config, params.lexicon, text, list(tokens), actions)
    return PlannedPass(params.arrays, params.config, params.lexicon, [plan])


# -- encoder -----------------------------------------------------------------

# The pool of one sequence of n tokens: the zero row, then n
# left-to-right rows, then n right-to-left ones.

def test_encode_empty_sentence():
    _, config, _, lexicon, params = setup()
    encoding = encode_tokens(params.arrays, lexicon, [])
    assert encoding.pool.shape == (1, config.lstm_dim)


def test_encode_zero_weights_zero_activations():
    _, config, _, lexicon, params = setup()
    for array in params.arrays.values():
        array[...] = 0.0
    tokens = tokenize("John hit")
    encoding = encode_tokens(params.arrays, lexicon, tokens)
    assert encoding.pool.shape == (5, config.lstm_dim) and np.all(encoding.pool == 0.0)


def test_encode_shapes_single_token():
    _, config, _, lexicon, params = setup()
    encoding = encode_tokens(params.arrays, lexicon, tokenize("word"))
    assert encoding.pool.shape == (3, config.lstm_dim)


# -- features ----------------------------------------------------------------

# A step's rows, in `extract_features` order: the LSTM pool rows of the
# cursor token (left-to-right, right-to-left), then of the attention
# frames' last phrase tokens (all left-to-right, then all right-to-left);
# the hidden pool rows of the attention frames' created steps, their
# focused steps, then the history.  Of n tokens, token i's rows are
# i + 1 and n + i + 1; step s's row is s + 1; row 0 is an absent feature.

def test_features_fresh_state():
    _, config, _, lexicon, _ = setup()
    state = ParserState("a b", tokenize("a b"))
    feats = reference_step_features(state, lexicon, config.k_attention, config.k_history)
    assert feats.cursor_token == 0
    assert feats.att_end_token == [None] * config.k_attention
    assert feats.att_created == [None] * config.k_attention
    assert feats.history == [None] * config.k_history
    assert feats.triples == [] and feats.source_roles == []
    lstm, hidden, links = extract_features(state, lexicon, config.k_attention,
                                           config.k_history)
    assert lstm == [1, 3] + [0] * 2 * config.k_attention  # cursor at token 0 of 2
    assert hidden == [0] * (2 * config.k_attention + config.k_history)
    assert links == ([], [], [], [])


def test_features_after_worked_example_prefix():
    doc = hit_document()
    config = tiny_config(k_attention=5, k_history=5)
    lexicon = build_lexicon([doc], config)
    state = ParserState(doc.text, doc.tokens)
    state.apply(Action.evoke("/saft/person", 1))
    state.apply(Action.shift())
    state.apply(Action.evoke("/pb/hit-01", 1))
    state.apply(Action.connect(0, "/pb/arg0", 1))
    feats = reference_step_features(state, lexicon, config.k_attention, config.k_history)
    num_roles = lexicon.num_roles
    arg0 = lexicon.role_id("/pb/arg0")
    expected_triple = (0 * num_roles + arg0) * config.k_attention + 1
    assert feats.triples == [expected_triple]
    assert feats.source_roles == [0 * num_roles + arg0]
    assert feats.role_targets == [arg0 * config.k_attention + 1]
    assert feats.source_targets == [0 * config.k_attention + 1]
    # hit evoked at token 1, person at token 0; both single-token phrases
    assert feats.att_end_token[:2] == [1, 0]
    # created/focused step bookkeeping: hit created at step 2, person at 0
    assert feats.att_created[:2] == [2, 0]
    assert feats.att_focused[:2] == [3, 0]
    assert feats.history == [3, 2, 1, 0, None]
    lstm, hidden, links = extract_features(state, lexicon, config.k_attention,
                                           config.k_history)
    assert links == ([expected_triple], [0 * num_roles + arg0],
                     [arg0 * config.k_attention + 1], [0 * config.k_attention + 1])
    # Of 4 tokens: the cursor at token 1, hit's phrase ends at token 1,
    # person's at token 0.
    assert lstm == [2, 6] + [2, 1, 0, 0, 0] + [6, 5, 0, 0, 0]
    # Created at steps 2 and 0, focused at 3 and 0, history steps 3..0.
    assert hidden == [3, 1, 0, 0, 0] + [4, 1, 0, 0, 0] + [4, 3, 2, 1, 0]


def test_attention_feature_uses_phrase_last_token():
    _, config, _, lexicon, _ = setup()
    state = ParserState("New York won", tokenize("New York won"))
    state.apply(Action.evoke("/t/loc", 2))
    feats = reference_step_features(state, lexicon, config.k_attention, config.k_history)
    assert feats.att_end_token[0] == 1
    lstm, _, _ = extract_features(state, lexicon, config.k_attention, config.k_history)
    assert lstm == [1, 4] + [2, 0, 0] + [5, 0, 0]  # token 1 of 3


def test_embedded_frame_has_no_phrase_feature():
    _, config, _, lexicon, _ = setup()
    state = ParserState("a", tokenize("a"))
    state.apply(Action.evoke("/t/x", 1))
    state.apply(Action.embed(0, "/r/of", "/t/wrap"))
    feats = reference_step_features(state, lexicon, config.k_attention, config.k_history)
    assert feats.att_end_token[0] is None  # wrapper frame, never evoked
    assert feats.att_end_token[1] == 0
    lstm, _, _ = extract_features(state, lexicon, config.k_attention, config.k_history)
    assert lstm == [1, 2] + [0, 1, 0] + [0, 2, 0]  # the wrapper reads row 0


@pytest.mark.parametrize("k_attention, k_history", [(1, 1), (3, 2), (5, 5)])
def test_features_equal_the_reference_rows_at_every_step(k_attention, k_history):
    """`extract_features` reads the parser state's invariants where the
    reference checks bounds: the same rows and link ids at every step of
    the oracle replays of generated, long and random documents."""
    rng = random.Random(5)
    docs = generate_corpus(11, 100) + [random_document(rng) for _ in range(300)]
    examples = [(doc.text, list(doc.tokens), actions)
                for doc, actions in zip(docs, oracle_sequences(docs))]
    examples.append(long_document(20, 7))
    lexicon = Lexicon.build([], [actions for _, _, actions in examples], 4)
    steps = 0
    for text, tokens, actions in examples:
        state = ParserState(text, tokens)
        for action in actions:
            expected = reference_step_rows(
                reference_step_features(state, lexicon, k_attention, k_history),
                state.num_tokens, state.step)
            assert extract_features(state, lexicon, k_attention, k_history) == expected
            state.apply(action)
            steps += 1
    assert steps > 4000


# -- step logits ---------------------------------------------------------------

def reference_document_loss(params, doc, actions):
    """The network spelled out one token and one step at a time, with
    the feature vector concatenated part by part in its documented
    order: cursor (both LSTMs), attention end tokens (left-to-right,
    then right-to-left), created, focused and history activations, then
    the triple, source-role, role-target and source-target sums."""
    A, cfg, lex = params.arrays, params.config, params.lexicon
    L = cfg.lstm_dim

    def embed(word):
        lengths = range(1, lex.max_affix_len + 1)
        parts = [A["word_emb"][lex.words.get(word, 0)]]
        parts += [A["prefix_emb"][lex.prefixes.get(word[:k], 0) if len(word) >= k else 0]
                  for k in lengths]
        parts += [A["suffix_emb"][lex.suffixes.get(word[-k:], 0) if len(word) >= k else 0]
                  for k in lengths]
        for name, shape in (("hyphen_emb", hyphen_shape), ("caps_emb", caps_shape),
                            ("punct_emb", punct_shape), ("quote_emb", quote_shape),
                            ("digit_emb", digit_shape)):
            parts.append(A[name][shape(word)])
        return np.concatenate(parts)

    def lstm(direction, inputs):
        h = c = np.zeros(L)
        out = []
        for x in inputs:
            z = A[f"lstm_{direction}_wx"] @ x + A[f"lstm_{direction}_wh"] @ h \
                + A[f"lstm_{direction}_b"]
            i, f, o = (1.0 / (1.0 + np.exp(-z[k * L:(k + 1) * L])) for k in range(3))
            c = f * c + i * np.tanh(z[3 * L:])
            h = o * np.tanh(c)
            out.append(h)
        return out

    inputs = [embed(t.text) for t in doc.tokens]
    lr = lstm("fw", inputs)
    rl = lstm("bw", inputs[::-1])[::-1]
    state = ParserState(doc.text, list(doc.tokens))
    hidden = []
    total = 0.0
    for action in actions:
        feats = reference_step_features(state, lex, cfg.k_attention, cfg.k_history)

        def token(enc, i):
            return enc[i] if i is not None else np.zeros(L)

        def step(s):
            return hidden[s] if s is not None else np.zeros(cfg.hidden_dim)

        parts = [token(lr, feats.cursor_token), token(rl, feats.cursor_token)]
        parts += [token(lr, i) for i in feats.att_end_token]
        parts += [token(rl, i) for i in feats.att_end_token]
        parts += [step(s) for s in feats.att_created + feats.att_focused + feats.history]
        for name, ids in (("triple_emb", feats.triples),
                          ("source_role_emb", feats.source_roles),
                          ("role_target_emb", feats.role_targets),
                          ("source_target_emb", feats.source_targets)):
            parts.append(sum((A[name][j] for j in ids), np.zeros(cfg.link_dim)))
        pre = A["ff_w1"] @ np.concatenate(parts) + A["ff_b1"]
        hidden.append(np.maximum(pre, 0.0) if cfg.hidden_activation == "relu"
                      else np.tanh(pre))
        logits = A["ff_w2"] @ hidden[-1] + A["ff_b2"]
        log_z = logits.max() + math.log(np.exp(logits - logits.max()).sum())
        total += log_z - logits[lex.action_id(action)]
        state.apply(action)
    return total


@pytest.mark.parametrize("activation, sizes", [
    pytest.param("relu", {}, id="relu"), pytest.param("tanh", {}, id="tanh"),
    pytest.param("relu", dict(max_affix_len=1), id="relu-affix-1"),
    pytest.param("tanh", dict(max_affix_len=5), id="tanh-affix-5"),
    pytest.param("relu", dict(max_affix_len=5, shape_dim=1), id="relu-affix-5-shape-1"),
    pytest.param("tanh", dict(max_affix_len=1, shape_dim=3), id="tanh-affix-1-shape-3")])
def test_document_loss_matches_reference(activation, sizes):
    corpus, config, sequences, lexicon, params = setup(
        n_docs=3, corpus_seed=11, dtype="float64", hidden_activation=activation, **sizes)
    live_output_layer(params)
    for doc, actions in zip(corpus, sequences):
        loss, count, _ = document_loss(params.tensors(False), config, lexicon,
                                       doc.text, list(doc.tokens), actions)
        assert count == len(actions)
        expected = reference_document_loss(params, doc, actions)
        assert float(loss.data) == pytest.approx(expected, rel=1e-12)


def test_logits_shape_and_softmax():
    corpus, config, sequences, lexicon, params = setup()
    run = ForwardPass(params.arrays, config, lexicon, corpus[0].text, corpus[0].tokens)
    logits = run.step_logits()
    assert logits.shape == (lexicon.num_actions,)
    # The loss of a one-action sequence is -log softmax(logits)[target].
    action = sequences[0][0]
    run = planned_pass(params, corpus[0].text, corpus[0].tokens, [action])
    probs = np.exp(logits - logits.max())
    probs /= probs.sum()
    assert run.actions == 1
    assert float(run.loss) == pytest.approx(-math.log(probs[lexicon.action_id(action)]),
                                            rel=1e-5)


def test_zero_parameters_uniform_logits():
    corpus, config, _, lexicon, params = setup()
    for array in params.arrays.values():
        array[...] = 0.0
    run = ForwardPass(params.arrays, config, lexicon, corpus[0].text, corpus[0].tokens)
    logits = run.step_logits()
    assert np.all(logits == logits[0])
    assert int(np.argmax(logits)) == 0  # ties break toward the lowest index


# -- the teacher-forcing plan ---------------------------------------------------

@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("activation", ["relu", "tanh"])
def test_planned_logits_equal_step_logits(activation, dtype):
    # The planned pass runs decoder_steps over a whole batch and
    # step_logits runs it one step at a time, so teacher forcing scores
    # a gold sequence exactly as greedy decoding would.  The long
    # document (over 128 steps) regrows the decoding hidden pool.
    corpus, config, sequences, _, _ = setup(
        n_docs=3, corpus_seed=11, dtype=dtype, hidden_activation=activation)
    examples = [(doc.text, list(doc.tokens), actions)
                for doc, actions in zip(corpus, sequences)]
    examples.append(long_document(20, 7))
    assert len(examples[-1][2]) > 128
    lexicon = Lexicon.build(corpus, [actions for _, _, actions in examples],
                            config.max_affix_len)
    params = Parameters(config, lexicon, seed=1)
    live_output_layer(params)
    P = params.arrays
    plans, all_stepped = [], []
    for text, tokens, actions in examples:
        plans.append(plan_example(config, lexicon, text, tokens, actions))
        planned = PlannedPass(P, config, lexicon, plans[-1:]).scores
        run = ForwardPass(P, config, lexicon, text, tokens)
        stepped = []
        for action in actions:
            stepped.append(run.step_logits())
            run.state.apply(action)
        stepped = np.array(stepped)
        assert planned.shape == stepped.shape == (len(actions), lexicon.num_actions)
        assert planned.tobytes() == stepped.tobytes()
        all_stepped.append(stepped)
    # The same examples in one batch, in lockstep.
    together = PlannedPass(P, config, lexicon, plans).scores
    assert together.tobytes() == np.concatenate(all_stepped).tobytes()


def plan_arrays(plan):
    return {f.name: getattr(plan, f.name) for f in dataclasses.fields(ExamplePlan)
            if isinstance(getattr(plan, f.name), np.ndarray)}


def test_visits_through_one_plan_are_identical():
    corpus, config, sequences, lexicon, params = setup(n_docs=2, corpus_seed=11)
    live_output_layer(params)
    doc = corpus[1]
    plan = plan_example(config, lexicon, doc.text, list(doc.tokens), sequences[1])
    before = {name: array.copy() for name, array in plan_arrays(plan).items()}
    visits = []
    for _ in range(2):
        grads = zero_grads(params)
        run = PlannedPass(params.arrays, config, lexicon, [plan])
        run.backward(grads, 1.0)
        visits.append((run.loss.tobytes(),
                       {name: g.tobytes() for name, g in grads.items()}))
    assert visits[0] == visits[1]
    for name, array in plan_arrays(plan).items():
        assert not array.flags.writeable, name
        assert array.tobytes() == before[name].tobytes(), name


def long_document(n_sentences, seed):
    """Sentences joined into one text and their oracle sequences into
    one, every STOP but the last dropped: the long-docs benchmark
    documents."""
    sentences = generate_corpus(seed, n_sentences)
    text = " ".join(d.text for d in sentences)
    actions = [a for seq in oracle_sequences(sentences) for a in seq if a.kind != STOP]
    return text, tokenize(text), actions + [Action.stop()]


def test_plan_size_is_linear_in_steps():
    config = ModelConfig(lstm_dim=32, hidden_dim=32)

    def bytes_per_step(text, tokens, actions):
        lexicon = Lexicon.build([], [actions], config.max_affix_len)
        plan = plan_example(config, lexicon, text, tokens, actions)
        return sum(a.nbytes for a in plan_arrays(plan).values()) / len(actions)

    short_doc = generate_corpus(7, 1)[0]
    short = bytes_per_step(short_doc.text, list(short_doc.tokens),
                           oracle_sequences([short_doc])[0])
    text, tokens, actions = long_document(200, 7)
    assert len(actions) >= 500
    assert bytes_per_step(text, tokens, actions) <= 2 * short


# -- training ------------------------------------------------------------------

def test_initial_loss_is_log_vocab():
    corpus, config, sequences, lexicon, params = setup(n_docs=4)
    total = count = 0
    for doc, seq in zip(corpus, sequences):
        run = planned_pass(params, doc.text, doc.tokens, seq)
        total += float(run.loss)
        count += run.actions
    assert total / count == pytest.approx(math.log(lexicon.num_actions), abs=1e-4)


def test_training_is_deterministic():
    corpus = generate_corpus(7, 6)
    config = tiny_config()
    a = train(corpus, config, seed=3, steps=8, checkpoint_every=8)
    b = train(corpus, config, seed=3, steps=8, checkpoint_every=8)
    assert set(a.arrays) == set(b.arrays)
    for name in a.arrays:
        assert a.arrays[name].tobytes() == b.arrays[name].tobytes(), name


def replayed_document(text, actions):
    state = ParserState(text, tokenize(text))
    for action in actions:
        state.apply(action)
    return state.to_document()


def lockstep_corpus():
    """Documents of very different lengths for one batch: an empty one
    (one step), a one-token one, two with mentions but no role links,
    the long document (over 128 steps) and five generated ones."""
    person = Action.evoke("/saft/person", 1)
    shift, stop = Action.shift(), Action.stop()
    text, _, actions = long_document(20, 7)
    return [replayed_document("Rome", [Action.evoke("/t/city", 1), shift, stop]),
            replayed_document("Ann met Bob", [person, shift, shift, person, shift, stop]),
            replayed_document(text, actions),
            replayed_document("Hello there", [shift, shift, stop]),
            replayed_document("", [stop]),
            *generate_corpus(7, 5)]


def assert_train_equals_its_pieces(corpus, config, seed, steps):
    # train() is plan_example once per example, then per step the pass
    # and its backward into one zero-filled gradient dict, then
    # Adam.step, over shuffled passes from random.Random(seed).  Here
    # each document runs its own pass, in batch order, so the lockstep
    # batch must give the same sums as one document at a time.
    reported = []
    trained = train(corpus, config, seed=seed, steps=steps, checkpoint_every=1,
                    on_checkpoint=lambda p, c: reported.append(c.loss))

    sequences = oracle_sequences(corpus)
    lexicon = build_lexicon(corpus, config, sequences)
    params = Parameters(config, lexicon, seed)
    adam = Adam(params.arrays, config)
    plans = [plan_example(config, lexicon, doc.text, list(doc.tokens), actions)
             for doc, actions in zip(corpus, sequences)]
    rng = random.Random(seed)
    order = []
    losses = []
    for _ in range(steps):
        batch = []
        for _ in range(config.batch_size):
            if not order:
                order = list(range(len(corpus)))
                rng.shuffle(order)
            batch.append(order.pop())
        runs = [PlannedPass(params.arrays, config, lexicon, [plans[index]])
                for index in batch]
        total = sum((run.loss for run in runs[1:]), runs[0].loss)
        scale = total.dtype.type(1.0 / sum(run.actions for run in runs))
        losses.append(float(total * scale))
        grads = zero_grads(params)
        for run in runs:
            run.backward(grads, scale)
        adam.step(grads)

    assert losses == reported
    for name, array in trained.arrays.items():
        assert array.tobytes() == params.arrays[name].tobytes(), name


def test_train_equals_its_pieces():
    assert_train_equals_its_pieces(generate_corpus(7, 5), tiny_config(), seed=2, steps=4)


@pytest.mark.parametrize("activation", ["relu", "tanh"])
@pytest.mark.parametrize("batch_size", [1, 3, 8])
def test_train_equals_its_pieces_on_mixed_lengths(batch_size, activation):
    # One batch runs documents of 0 to over 100 tokens together.  At
    # 32 dimensions a one-row product rounds differently from a
    # many-row one, so the one-token document checks that the input
    # terms stay per document.
    corpus = lockstep_corpus()
    lengths = [len(s) for s in oracle_sequences(corpus)]
    assert lengths[:2] == [3, 6] and lengths[2] > 128
    config = ModelConfig(lstm_dim=32, hidden_dim=32, batch_size=batch_size,
                         hidden_activation=activation)
    assert_train_equals_its_pieces(corpus, config, seed=2, steps=9)


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_tape_adapter_equals_the_direct_pass(dtype):
    # The benchmark's traced training runs document_loss per document,
    # then addn, scale and backward on the tape; train runs one pass over
    # the batch and its backward into a dict.  Both must give the same
    # loss and gradients, bit for bit.
    corpus = lockstep_corpus()
    config = ModelConfig(lstm_dim=32, hidden_dim=32, dtype=dtype)
    sequences = oracle_sequences(corpus)
    params = Parameters(config, build_lexicon(corpus, config, sequences), seed=2)
    live_output_layer(params)
    lexicon = params.lexicon

    tensors = params.tensors(trainable=True)
    nodes, n_actions = [], 0
    for doc, actions in zip(corpus, sequences):
        loss, count, _ = document_loss(tensors, config, lexicon, doc.text,
                                       list(doc.tokens), actions)
        nodes.append(loss)
        n_actions += count
    total = ad.scale(ad.addn(nodes), 1.0 / n_actions)
    ad.backward(total)

    plans = [plan_example(config, lexicon, doc.text, list(doc.tokens), actions)
             for doc, actions in zip(corpus, sequences)]
    run = PlannedPass(params.arrays, config, lexicon, plans)
    assert run.actions == n_actions
    scale = run.loss.dtype.type(1.0 / run.actions)
    grads = zero_grads(params)
    run.backward(grads, scale)

    assert (run.loss * scale).tobytes() == total.data.tobytes()
    for name, tensor in tensors.items():
        assert tensor.grad.tobytes() == grads[name].tobytes(), name


def test_training_and_decoding_build_no_autodiff_node(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the autodiff tape was used")

    monkeypatch.setattr(ad, "backward", refuse)
    monkeypatch.setattr(ad.Tensor, "__init__", refuse)
    corpus = generate_corpus(7, 3)
    config = tiny_config(use_ema=True, dtype="float64")
    params = train(corpus, config, seed=1, steps=2, checkpoint_every=2)
    live_output_layer(params)
    assert grad_check(params, corpus[0]).error < 1e-4
    for use_ema in (False, True):
        parse_tokens(params, corpus[0].text, list(corpus[0].tokens), use_ema=use_ema)


def test_training_leaves_no_reference_cycles():
    # Cyclic garbage waits for the collector, and a cycle through a
    # document's loss node would keep its forward caches alive with it.
    corpus = generate_corpus(7, 3)
    gc.collect()
    gc.disable()
    try:
        params = train(corpus, tiny_config(), seed=1, steps=3, checkpoint_every=3)
        parse_tokens(params, corpus[0].text, list(corpus[0].tokens))
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_different_seeds_differ():
    corpus = generate_corpus(7, 6)
    config = tiny_config()
    a = train(corpus, config, seed=3, steps=8, checkpoint_every=8)
    b = train(corpus, config, seed=4, steps=8, checkpoint_every=8)
    assert any(a.arrays[n].tobytes() != b.arrays[n].tobytes() for n in a.arrays)


def test_loss_non_increasing_on_single_example():
    # At beta1=0.01 Adam is close to sign descent and promises no fall at
    # every step: here the loss starts a period-2 oscillation at step 100
    # while still falling overall.  Means over even-width blocks of steps
    # average the oscillation out, and must fall strictly block by block.
    corpus = generate_corpus(19, 1)
    config = tiny_config(batch_size=1)
    losses = []
    train(corpus, config, seed=1, steps=200, checkpoint_every=1,
          on_checkpoint=lambda p, c: losses.append(c.loss))
    assert len(losses) == 200
    means = [sum(losses[i:i + 10]) / 10 for i in range(0, 200, 10)]
    for previous, current in zip(means, means[1:]):
        assert current < previous


def test_adam_step_follows_documented_rule():
    config = tiny_config()
    grads = {"a": np.array([0.3, -0.02, 0.0]),
             "b": np.array([[0.1, -0.4], [0.05, 0.2]])}
    norm = math.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
    assert norm < config.gradient_clip_norm
    arrays = {k: np.ones_like(g) for k, g in grads.items()}
    assert Adam(arrays, config).step(grads) == norm
    for k, g in grads.items():
        expected = 1.0 - config.learning_rate * g / (np.abs(g) + config.adam_epsilon)
        np.testing.assert_allclose(arrays[k], expected, rtol=1e-12, atol=0)

    # Ten times the gradient is over the clip norm: it is scaled back to
    # clip/norm before it reaches the moments.
    big = {k: 10.0 * g for k, g in grads.items()}
    adam = Adam({k: np.zeros_like(g) for k, g in big.items()}, config)
    assert adam.step(big) == math.sqrt(sum(float(np.sum(g * g)) for g in big.values()))
    factor = config.gradient_clip_norm / (10.0 * norm)
    for k, g in big.items():
        clipped = g * factor
        np.testing.assert_allclose(adam.m[k], (1.0 - config.adam_beta1) * clipped,
                                   rtol=1e-12, atol=0)
        np.testing.assert_allclose(adam.v[k],
                                   (1.0 - config.adam_beta2) * clipped * clipped,
                                   rtol=1e-12, atol=0)


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("clip", [1.0, 0.0])
@pytest.mark.parametrize("own_block", [True, False], ids=["as-train", "separate-arrays"])
def test_adam_equals_the_per_array_reference(dtype, clip, own_block):
    # `train` fills the views `zero_grads` hands out; the benchmark's
    # traced training passes a dict of separate arrays.  Every third
    # step's gradients are scaled past the clip norm.
    config = tiny_config(gradient_clip_norm=clip, learning_rate=0.01)
    rng = np.random.default_rng(3)
    shapes = {"w": (7, 5), "b": (5,), "e": (0, 3), "t": (4, 2, 3)}
    start = {k: rng.normal(size=shape).astype(dtype) for k, shape in shapes.items()}
    arrays = {k: a.copy() for k, a in start.items()}
    expected = {k: a.copy() for k, a in start.items()}
    adam, reference = Adam(arrays, config), ReferenceAdam(expected, config)
    clipped = 0
    for step in range(20):
        scale = 50.0 if step % 3 == 0 else 0.02
        grads = {k: (scale * rng.normal(size=shape)).astype(dtype)
                 for k, shape in shapes.items()}
        given = grads
        if own_block:
            given = adam.zero_grads()
            for name, grad in grads.items():
                given[name] += grad
        norm = adam.step(given)
        assert norm == reference.step(grads)
        clipped += norm > config.gradient_clip_norm > 0
        for name in shapes:
            assert arrays[name].dtype == np.dtype(dtype)
            assert arrays[name].tobytes() == expected[name].tobytes(), (step, name)
            assert adam.m[name].tobytes() == reference.m[name].tobytes(), (step, name)
            assert adam.v[name].tobytes() == reference.v[name].tobytes(), (step, name)
        if not own_block:
            assert all(given[k].tobytes() == grads[k].tobytes() for k in grads)
    assert clipped == (7 if clip else 0)


def test_adam_refuses_gradients_for_other_arrays_and_mixed_dtypes():
    config = tiny_config()
    adam = Adam({"a": np.zeros(2), "b": np.zeros(3)}, config)
    with pytest.raises(KeyError, match="gradients for"):
        adam.step({"a": np.ones(2)})
    with pytest.raises(TypeError, match="one dtype"):
        Adam({"a": np.zeros(2), "b": np.zeros(3, np.float32)}, config)


@pytest.mark.parametrize("clip, rate", [(1e-9, 1.0), (1e9, 0.0), (0.0, 0.0)])
def test_checkpoints_report_mean_gradient_norm_and_clip_rate(clip, rate):
    # A checkpoint over three steps gives the mean of the three norms
    # that single-step checkpoints give; every step is clipped below
    # the smallest norm, none above the largest or with clipping off.
    corpus = generate_corpus(7, 4)
    config = tiny_config(gradient_clip_norm=clip)
    single, triple = [], []
    train(corpus, config, seed=1, steps=3, checkpoint_every=1,
          on_checkpoint=lambda p, c: single.append(c))
    train(corpus, config, seed=1, steps=3, checkpoint_every=3,
          on_checkpoint=lambda p, c: triple.append(c))
    assert [c.clip_rate for c in single] == [rate] * 3
    assert len(triple) == 1 and triple[0].clip_rate == rate
    assert triple[0].grad_norm == sum(c.grad_norm for c in single) / 3
    assert all(c.grad_norm > 0 for c in single)


def test_empty_corpus_rejected():
    with pytest.raises(TrainingError):
        train([], tiny_config(), steps=1)


@pytest.mark.parametrize("counts", [dict(steps=0), dict(steps=-1), dict(checkpoint_every=0)])
def test_step_counts_below_one_rejected(counts):
    with pytest.raises(TrainingError, match="at least 1"):
        train(generate_corpus(7, 2), tiny_config(), **counts)


def test_missing_word_vectors_rejected(tmp_path):
    config = tiny_config()
    config.word_vectors_path = str(tmp_path / "missing.vec")
    with pytest.raises(TrainingError, match=re.escape(config.word_vectors_path)):
        train(generate_corpus(7, 2), config, steps=1)


def test_checkpoint_steps_monotonic():
    corpus = generate_corpus(7, 6)
    steps = []
    train(corpus, tiny_config(), seed=1, steps=20, checkpoint_every=5,
          on_checkpoint=lambda p, c: steps.append(c.step))
    assert steps == [5, 10, 15, 20]


def test_ema_parameters_track_training():
    corpus = generate_corpus(7, 4)
    config = tiny_config(use_ema=True, ema_decay=0.5)
    params = train(corpus, config, seed=1, steps=6, checkpoint_every=6)
    assert params.ema is not None
    assert set(params.ema) == set(params.arrays)
    assert any(not np.array_equal(params.ema[n], params.arrays[n])
               for n in params.arrays)


def test_ema_after_two_steps_is_the_decayed_mean():
    corpus = generate_corpus(7, 4)
    d = 0.7
    config = tiny_config(use_ema=True, ema_decay=d)
    w0 = Parameters(config, build_lexicon(corpus, config), seed=1).arrays
    w = []
    params = train(corpus, config, seed=1, steps=2, checkpoint_every=1,
                   on_checkpoint=lambda p, c: w.append(
                       {name: array.copy() for name, array in p.arrays.items()}))
    w1, w2 = w
    for name, average in params.ema.items():
        expected = d * (d * w0[name] + (1 - d) * w1[name]) + (1 - d) * w2[name]
        assert average.tobytes() == expected.tobytes(), name


def prefer_an_evoke(arrays, lexicon):
    """Bias the output layer toward an EVOKE, so that decoding with
    `arrays` evokes frames where the initial zero layer only shifts."""
    evoke = next(a for a in lexicon.actions if a.kind == EVOKE)
    arrays["ff_b2"][lexicon.action_id(evoke)] = 5.0


def test_decoding_with_averages_reads_the_averaged_arrays():
    corpus = generate_corpus(7, 4)
    config = tiny_config()
    params = Parameters(config, build_lexicon(corpus, config), seed=1)
    params.start_ema()
    prefer_an_evoke(params.ema, params.lexicon)
    averaged = Parameters(config, params.lexicon)
    averaged.arrays = params.ema
    for doc in corpus:
        text, tokens = doc.text, list(doc.tokens)
        got = cli.format_corpus([parse_tokens(params, text, tokens, use_ema=True)])
        assert got == cli.format_corpus([parse_tokens(averaged, text, tokens)])
        assert got != cli.format_corpus([parse_tokens(params, text, tokens)])
    params.ema = None
    with pytest.raises(ValueError, match="no averaged parameters"):
        parse_tokens(params, corpus[0].text, list(corpus[0].tokens), use_ema=True)


def test_word_vector_hook(tmp_path):
    corpus = generate_corpus(7, 2)
    word = corpus[0].tokens[0].text
    config = tiny_config()
    vector = " ".join(str(float(i)) for i in range(config.word_dim))
    path = tmp_path / "vectors.txt"
    path.write_text(f"{word} {vector}\nunknownword {vector}\n")
    config.word_vectors_path = str(path)
    lexicon = build_lexicon(corpus, config)
    params = Parameters(config, lexicon, seed=1)
    row = params.arrays["word_emb"][lexicon.word_id(word)]
    assert np.allclose(row, np.arange(config.word_dim, dtype=row.dtype))


def test_word_vectors_skip_a_word2vec_header(tmp_path):
    corpus = generate_corpus(7, 2)
    word = corpus[0].tokens[0].text
    config = tiny_config()
    vector = " ".join(str(float(i)) for i in range(config.word_dim))
    path = tmp_path / "vectors.txt"
    path.write_text(f"2 {config.word_dim}\n{word} {vector}\nunknownword {vector}\n")
    config.word_vectors_path = str(path)
    lexicon = build_lexicon(corpus, config)
    row = Parameters(config, lexicon, seed=1).arrays["word_emb"][lexicon.word_id(word)]
    assert np.allclose(row, np.arange(config.word_dim, dtype=row.dtype))


@pytest.mark.parametrize("second_line, problem", [
    ("unknownword 1.0 2.0", "line 2: 2 values, expected 4"),
    ("{word} 1.0 2.0 3.0 4.0 5.0", "line 2: 5 values, expected 4"),
    ("{word} 1.0 nan 3.0 4.0", "line 2: a value is not finite"),
    ("{word} 1.0 inf 3.0 4.0", "line 2: a value is not finite"),
], ids=["narrow", "wide", "nan", "inf"])
def test_malformed_word_vectors_are_reported_with_their_line(tmp_path, capsys,
                                                            second_line, problem):
    corpus = generate_corpus(7, 2)
    word = corpus[0].tokens[0].text
    config = tiny_config()
    path = tmp_path / "vectors.txt"
    path.write_text(f"{word} 0.0 1.0 2.0 3.0\n{second_line.format(word=word)}\n")
    config.word_vectors_path = str(path)
    with pytest.raises(ValueError, match="^" + re.escape(f"{path}: {problem}")):
        Parameters(config, build_lexicon(corpus, config), seed=1)
    with pytest.raises(TrainingError, match="^" + re.escape(f"word vectors {path}: {problem}")):
        train(corpus, config, steps=1)


# -- gradient checks -----------------------------------------------------------

def live_output_layer(params, seed=0):
    """Random ff_w2: the initial zero output layer passes no gradient
    to anything below it, so a check would compare zeros with zeros."""
    w2 = params.arrays["ff_w2"]
    w2[...] = np.random.default_rng(seed).normal(0.0, 0.5, w2.shape)


def assert_every_gradient_live(params, doc, actions):
    grads = zero_grads(params)
    planned_pass(params, doc.text, doc.tokens, actions).backward(grads, 1.0)
    dead = [name for name, g in grads.items() if not np.any(g)]
    assert dead == []


def test_grad_check_output_layer_only():
    corpus = generate_corpus(7, 1)
    config = tiny_config(dtype="float64")
    sequences = oracle_sequences(corpus)
    lexicon = build_lexicon(corpus, config, sequences)
    params = Parameters(config, lexicon, seed=3)
    for name, array in params.arrays.items():
        if name not in ("ff_b2",):
            array[...] = 0.0
    rng = np.random.default_rng(0)
    params.arrays["ff_b2"][...] = rng.normal(0, 0.5, params.arrays["ff_b2"].shape)
    result = grad_check(params, corpus[0], sequences[0])
    assert result.error < 1e-8
    assert result.skipped == 0


def test_grad_check_full_cell():
    corpus = generate_corpus(51, 1)
    config = ModelConfig(lstm_dim=8, hidden_dim=8, word_dim=4, affix_dim=2,
                         shape_dim=2, link_dim=2, k_attention=3, k_history=2,
                         dtype="float64")
    sequences = oracle_sequences(corpus)
    lexicon = build_lexicon(corpus, config, sequences)
    params = Parameters(config, lexicon, seed=4)
    live_output_layer(params)
    assert_every_gradient_live(params, corpus[0], sequences[0])
    result = grad_check(params, corpus[0], sequences[0])
    assert result.error < 1e-4
    # One relu input lies within the finite-difference step of zero
    # (ff_b1[5], |pre| = 5.6e-6): its one-sided slopes disagree.
    assert result.skipped <= 1


def test_grad_check_tanh_hidden():
    corpus = generate_corpus(52, 1)
    config = tiny_config(dtype="float64", hidden_activation="tanh")
    sequences = oracle_sequences(corpus)
    lexicon = build_lexicon(corpus, config, sequences)
    params = Parameters(config, lexicon, seed=5)
    live_output_layer(params)
    assert_every_gradient_live(params, corpus[0], sequences[0])
    result = grad_check(params, corpus[0], sequences[0])
    assert result.error < 1e-6
    assert result.skipped == 0  # tanh is smooth: no kinks


def test_grad_check_counts_a_nan_as_an_infinite_error():
    corpus = generate_corpus(7, 1)
    config = tiny_config(dtype="float64")
    sequences = oracle_sequences(corpus)
    params = Parameters(config, build_lexicon(corpus, config, sequences), seed=3)
    params.arrays["ff_b2"][0] = math.nan
    assert grad_check(params, corpus[0], sequences[0]).error == math.inf


def test_grad_check_command(capsys):
    assert cli.main(["grad-check", "--configs", "2", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "worst over 2 configs" in out


# -- config ---------------------------------------------------------------------

def test_config_defaults_match_recipe():
    config = ModelConfig()
    assert config.word_dim == 32
    assert config.lstm_dim == 256
    assert config.hidden_dim == 128
    assert config.max_affix_len == 3
    assert config.k_attention == 5
    assert config.k_history == 5
    assert config.learning_rate == 0.0005
    assert config.adam_beta1 == 0.01
    assert config.adam_beta2 == 0.999
    assert config.adam_epsilon == 1e-5
    assert config.gradient_clip_norm == 1.0
    assert config.batch_size == 8


def test_config_validation():
    with pytest.raises(ValueError):
        ModelConfig(lstm_dim=0)
    config = ModelConfig()
    config.apply_override("lstm_dim", "16")
    assert config.lstm_dim == 16
    with pytest.raises(ValueError):
        config.apply_override("nonsense", "1")
    with pytest.raises(ValueError, match="unknown model option 'dropout'"):
        config.apply_override("dropout", "0")
    for bad in [dict(use_ema="no"), dict(use_ema=1), dict(use_ema=None),
                dict(word_vectors_path=5), dict(word_vectors_path=b"v.txt")]:
        with pytest.raises(ValueError, match=next(iter(bad))):
            ModelConfig(**bad)
    config.apply_override("word_vectors_path", "v.txt")
    assert config.word_vectors_path == "v.txt"


def test_rejected_override_leaves_the_field_unchanged():
    config = ModelConfig()
    for key, raw in [("learning_rate", "-1"), ("lstm_dim", "0"), ("adam_beta1", "nan"),
                     ("hidden_activation", "sigmoid"), ("dtype", "float16")]:
        before = getattr(config, key)
        with pytest.raises(ValueError, match=key):
            config.apply_override(key, raw)
        assert getattr(config, key) == before
    assert config == ModelConfig()


def test_float_options_are_bounded():
    for bad in [dict(learning_rate=0.0), dict(adam_epsilon=-1e-5), dict(adam_beta1=1.0),
                dict(adam_beta2=-0.1), dict(ema_decay=1.5), dict(gradient_clip_norm=-1.0),
                dict(learning_rate=math.nan), dict(adam_beta1=math.nan),
                dict(gradient_clip_norm=math.nan)]:
        with pytest.raises(ValueError, match=next(iter(bad))):
            ModelConfig(**bad)
    edge = ModelConfig(adam_beta1=0.0, adam_beta2=0.0, ema_decay=0.0, gradient_clip_norm=0.0)
    assert edge.gradient_clip_norm == 0.0  # clipping off


def test_bool_overrides_take_only_true_or_false_words():
    config = ModelConfig()
    for raw, value in [("TRUE", True), ("no", False), ("1", True), ("False", False),
                       ("Yes", True), ("0", False)]:
        config.apply_override("use_ema", raw)
        assert config.use_ema is value
    for raw in ("ture", "", "2", "on"):
        with pytest.raises(ValueError, match=re.escape(repr(raw))):
            config.apply_override("use_ema", raw)
        assert config.use_ema is False


# Out of vocabulary, shorter than max_affix_len, non-ASCII, punctuation.
ODD_WORDS = ["zzyzx", "a", "ab", "Xy", "café", "naïve", "東京", "Ünïcode-Wörd", ",", "...",
             "'", "--", "'s", "U.S.", "3.14", "\"Quote\""]


def test_token_table_equals_the_per_call_reference(tmp_path):
    corpus = generate_corpus(3, 200)
    config = tiny_config()
    params = Parameters(config, build_lexicon(corpus, config), seed=1)
    save_checkpoint(params, str(tmp_path / "model.ckpt"))
    loaded = load_checkpoint(str(tmp_path / "model.ckpt")).lexicon
    odd = [Token(word, 0, len(word.encode())) for word in ODD_WORDS]
    assert any(word not in params.lexicon.words for word in ODD_WORDS)
    for lexicon in (params.lexicon, loaded):
        for tokens in [list(doc.tokens) for doc in corpus] + [odd, odd, []]:
            expected = reference_token_rows(lexicon, [t.text for t in tokens])
            table = token_table(lexicon, tokens)
            assert table.dtype == np.intp
            assert table.tolist() == expected
            assert table.shape[0] == len(tokens)


def test_feature_dim_formula():
    config = tiny_config()
    expected = (2 * config.lstm_dim + 2 * config.k_attention * config.lstm_dim
                + 2 * config.k_attention * config.hidden_dim
                + config.k_history * config.hidden_dim + 4 * config.link_dim)
    assert feature_dim(config) == expected


def test_inventory_keeps_constants_whose_texts_differ(tmp_path):
    """`eagerly` and `"eagerly"`, and 1 and 1.0, are four outputs that
    decoding can each emit, though `Action` equality pairs them."""
    docs = []
    for manner, rank in ((SymbolName("eagerly"), 1), ("eagerly", 1.0)):
        store = Store()
        value = store.intern(str(manner)) if isinstance(manner, SymbolName) else manner
        frame = store.new_frame([(store.isa, store.intern("/t/go")),
                                 (store.intern("/c/manner"), value),
                                 (store.intern("/c/rank"), rank)])
        docs.append(Document("go", tokenize("go"), [Mention(0, 1, [frame])], store))
    path = tmp_path / "corpus.txt"
    cli.write_corpus(docs, str(path))
    corpus = cli.read_corpus(str(path))
    config = tiny_config(decode_action_cap=1)
    lexicon = build_lexicon(corpus, config)
    constants = [("/c/manner", "eagerly"), ("/c/manner", SymbolName("eagerly")),
                 ("/c/rank", 1), ("/c/rank", 1.0)]
    assigns = [Action.assign(0, role, value) for role, value in constants]
    assert [a.to_text() for a in lexicon.actions if a.kind == "ASSIGN"] == \
        [a.to_text() for a in assigns]
    assert len({lexicon.action_id(a) for a in assigns}) == 4

    params = Parameters(config, lexicon, seed=1)
    for (role, value), action in zip(constants, assigns):
        # Prefer the ASSIGN, then EVOKE, then SHIFT: evoke, shift, assign.
        bias = params.arrays["ff_b2"]
        bias[...] = 0
        for score, preferred in enumerate((Action.shift(), Action.evoke("/t/go", 1), action)):
            bias[lexicon.action_id(preferred)] = score + 1
        pred = parse_tokens(params, corpus[0].text, list(corpus[0].tokens))
        (frame,) = pred.mentions[0].evoked
        got = pred.store.get_role(frame, pred.store.intern(role))
        if isinstance(value, SymbolName):
            assert pred.store.symbol_name(got) == value
        else:
            assert got == value and type(got) is type(value)


def test_decoding_never_assigns_an_id():
    """An ASSIGN to `id` would bind one name to each frame it reaches;
    decoding passes over it as invalid."""
    config = tiny_config()
    assign_id = Action.assign(0, "id", SymbolName("foo"))
    lexicon = Lexicon.build([], [[Action.shift(), Action.stop(), Action.evoke("/t/x", 1),
                                  assign_id]], config.max_affix_len)
    params = Parameters(config, lexicon, seed=1)
    params.arrays["ff_b2"][lexicon.action_id(Action.evoke("/t/x", 1))] = 2.0
    params.arrays["ff_b2"][lexicon.action_id(assign_id)] = 1.0
    pred = parse_tokens(params, "a b", tokenize("a b"))
    frames = [frame for mention in pred.mentions for frame in mention.evoked]
    assert [m.span for m in pred.mentions] == [(0, 1), (1, 1)] and len(frames) == 2
    assert [pred.store.frame_id_name(frame) for frame in frames] == [None, None]
