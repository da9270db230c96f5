import random

import pytest

from framekit.corpus import generate_corpus
from framekit.document import Document, Mention, frame_graph, tokenize
from framekit.oracle import generate
from framekit.store import Handle, Store
from framekit.transitions import (Action, InvalidActionError, ParserState,
                                  SymbolName, parse_action, run_sequence,
                                  sequence_from_text, sequence_to_text)
from support import HIT_SEQUENCE, random_document


def fresh(text="John hit the ball"):
    return ParserState(text, tokenize(text))


def type_of(state, frame):
    return state.store.symbol_name(state.store.get_role(frame, state.store.isa))


# -- validity ----------------------------------------------------------------

def test_fresh_state_shift_valid_stop_invalid():
    state = fresh()
    assert state.is_valid(Action.shift())
    assert not state.is_valid(Action.stop())


def test_stop_at_end_and_repeatable():
    state = fresh("a b")
    state.apply(Action.shift()).apply(Action.shift())
    assert not state.is_valid(Action.shift())
    assert state.is_valid(Action.stop())
    state.apply(Action.stop())
    assert state.is_valid(Action.stop())  # multiple STOPs permitted
    assert not state.is_valid(Action.shift())
    assert not state.is_valid(Action.evoke("/t/x", 1))
    state.apply(Action.stop())
    assert state.done


def test_connect_requires_indices_in_buffer():
    state = fresh()
    state.apply(Action.evoke("/t/x", 1))
    assert not state.is_valid(Action.connect(0, "/r/x", 1))
    assert state.is_valid(Action.connect(0, "/r/x", 0))


def test_evoke_rejects_span_type_duplicates():
    state = fresh()
    state.apply(Action.evoke("/t/x", 1))
    assert not state.is_valid(Action.evoke("/t/x", 1))
    assert state.is_valid(Action.evoke("/t/y", 1))
    assert state.is_valid(Action.evoke("/t/x", 2))


def test_evoke_must_fit_input():
    state = fresh("a b")
    assert state.is_valid(Action.evoke("/t/x", 2))
    assert not state.is_valid(Action.evoke("/t/x", 3))
    assert not state.is_valid(Action.evoke("/t/x", 0))


def test_refer_requires_existing_frame():
    state = fresh()
    assert not state.is_valid(Action.refer(0, 1))
    state.apply(Action.evoke("/t/x", 1))
    assert state.is_valid(Action.refer(0, 1))
    assert not state.is_valid(Action.refer(1, 1))


def test_apply_rejects_invalid():
    state = fresh()
    with pytest.raises(InvalidActionError):
        state.apply(Action.stop())


def three_frames(text="a b c d"):
    """Buffer [c, b, a] with the cursor on the second of four tokens."""
    state = fresh(text)
    for name in ("/t/a", "/t/b", "/t/c"):
        state.apply(Action.evoke(name, 1))
    return state.apply(Action.shift())


# Each argument-bearing kind, built from one buffer index and one length
# (a kind with two indices varies each in turn, the other held at 0).
INDEXED = {
    "REFER": [lambda i: Action.refer(i, 1)],
    "CONNECT": [lambda i: Action.connect(i, "/r/x", 0),
                lambda i: Action.connect(0, "/r/x", i)],
    "ASSIGN": [lambda i: Action.assign(i, "/c/x", 1)],
    "EMBED": [lambda i: Action.embed(i, "/r/x", "/t/e")],
    "ELABORATE": [lambda i: Action.elaborate(i, "/r/x", "/t/e")],
}
LENGTHED = {"EVOKE": lambda n: Action.evoke("/t/new", n),
            "REFER": lambda n: Action.refer(0, n)}


@pytest.mark.parametrize("kind, make", [(kind, make) for kind, makes in INDEXED.items()
                                        for make in makes])
def test_buffer_indices_must_address_the_buffer(kind, make):
    state = three_frames()
    assert not state.is_valid(make(-1))
    assert not state.is_valid(make(3))
    assert state.is_valid(make(2))
    state.apply(make(2))


@pytest.mark.parametrize("kind", sorted(LENGTHED))
def test_lengths_must_fit_the_tokens_left(kind):
    state = three_frames()
    assert not state.is_valid(LENGTHED[kind](0))
    assert not state.is_valid(LENGTHED[kind](-1))
    assert not state.is_valid(LENGTHED[kind](4))
    assert state.is_valid(LENGTHED[kind](3))
    state.apply(LENGTHED[kind](3))


def test_unknown_kind_is_invalid_and_only_stop_follows_stop():
    state = three_frames()
    assert not state.is_valid(Action("FOO"))
    for _ in range(3):
        state.apply(Action.shift())
    state.apply(Action.stop())
    after = [Action.shift(), Action("FOO"), Action.evoke("/t/new", 1)]
    after += [make(0) for makes in INDEXED.values() for make in makes]
    assert [action for action in after if state.is_valid(action)] == []
    assert state.is_valid(Action.stop())


@pytest.mark.parametrize("action", [Action.evoke("/t/new", 1),
                                    Action.embed(1, "/r/x", "/t/e"),
                                    Action.elaborate(1, "/r/x", "/t/e")])
def test_a_created_frame_is_created_and_focused_now(action):
    state = three_frames()
    other = state.attention[1]
    focused = dict(state.focused_step)
    state.apply(action)
    frame = state.attention[0]
    assert len(state.attention) == 4 and frame not in focused
    assert state.created_step[frame] == state.focused_step[frame] == state.step - 1 == 4
    # The frame it links to or from keeps its place and its focus step.
    assert state.attention[2] == other
    assert state.focused_step == {**focused, frame: 4}


# -- application -------------------------------------------------------------

def test_worked_example_sequence():
    actions = sequence_from_text(HIT_SEQUENCE)
    state = run_sequence("John hit the ball", tokenize("John hit the ball"), actions)
    assert state.done
    assert len(state.mentions) == 3
    assert [type_of(state, f) for f in state.attention] == \
        ["/pb/hit-01", "/saft/consumer_good", "/saft/person"]
    hit = state.attention[0]
    person = state.attention[2]
    ball = state.attention[1]
    assert state.store.get_role(hit, state.store.intern("/pb/arg0")) == person
    assert state.store.get_role(hit, state.store.intern("/pb/arg1")) == ball


def test_evoke_creates_frame_and_mention():
    state = fresh()
    state.apply(Action.evoke("/saft/person", 1))
    assert len(state.attention) == 1
    assert len(state.mentions) == 1
    assert state.mentions[0].span == (0, 1)
    assert type_of(state, state.attention[0]) == "/saft/person"


def test_connect_fronts_source_only():
    # buffer [ball, hit, person]; CONNECT(1, arg1, 0) -> [hit, ball, person]
    state = fresh()
    state.apply(Action.evoke("/saft/person", 1))
    state.apply(Action.shift())
    state.apply(Action.evoke("/pb/hit-01", 1))
    state.apply(Action.shift())
    state.apply(Action.shift())
    state.apply(Action.evoke("/saft/consumer_good", 1))
    assert [type_of(state, f) for f in state.attention] == \
        ["/saft/consumer_good", "/pb/hit-01", "/saft/person"]
    state.apply(Action.connect(1, "/pb/arg1", 0))
    assert [type_of(state, f) for f in state.attention] == \
        ["/pb/hit-01", "/saft/consumer_good", "/saft/person"]
    hit = state.attention[0]
    assert state.store.get_role(hit, state.store.intern("/pb/arg1")) == state.attention[1]


def test_refer_moves_to_front_and_merges_mentions():
    state = fresh("a b")
    state.apply(Action.evoke("/t/x", 1))
    state.apply(Action.evoke("/t/y", 1))
    state.apply(Action.refer(1, 2))
    assert type_of(state, state.attention[0]) == "/t/x"
    spans = [m.span for m in state.mentions]
    assert (0, 2) in spans
    merged = [m for m in state.mentions if m.span == (0, 2)][0]
    assert len(merged.evoked) == 1


def test_assign_adds_constant():
    state = fresh()
    state.apply(Action.evoke("/t/x", 1))
    state.apply(Action.assign(0, "/c/note", "hello"))
    frame = state.attention[0]
    assert state.store.get_role(frame, state.store.intern("/c/note")) == "hello"
    state.apply(Action.assign(0, "/c/kind", SymbolName("/t/tag")))
    value = state.store.get_role(frame, state.store.intern("/c/kind"))
    assert state.store.symbol_name(value) == "/t/tag"


def test_embed_creates_pointing_frame():
    state = fresh()
    state.apply(Action.evoke("/t/x", 1))
    target = state.attention[0]
    state.apply(Action.embed(0, "/r/of", "/t/wrap"))
    wrapper = state.attention[0]
    assert type_of(state, wrapper) == "/t/wrap"
    assert state.store.get_role(wrapper, state.store.intern("/r/of")) == target
    assert len(state.mentions) == 1  # no new mention


def test_elaborate_creates_pointed_frame():
    state = fresh()
    state.apply(Action.evoke("/t/x", 1))
    source = state.attention[0]
    state.apply(Action.elaborate(0, "/r/detail", "/t/extra"))
    extra = state.attention[0]
    assert type_of(state, extra) == "/t/extra"
    assert state.store.get_role(source, state.store.intern("/r/detail")) == extra


def test_to_document_lists_embedded_frames_not_elaborated_ones():
    state = fresh()
    state.apply(Action.evoke("/t/x", 1))
    evoked = state.attention[0]
    state.apply(Action.embed(0, "/r/of", "/t/wrap"))
    wrapper = state.attention[0]
    state.apply(Action.elaborate(1, "/r/detail", "/t/extra"))
    extra = state.attention[0]
    state.apply(Action.embed(0, "/r/on", "/t/note"))
    note = state.attention[0]
    # A later link reaches the wrapper; it stays listed all the same.
    state.apply(Action.connect(3, "/r/back", 2))
    assert state.store.get_role(evoked, state.store.intern("/r/back")) == wrapper
    doc = state.to_document()
    assert doc.themes == [wrapper, note]
    assert set(frame_graph(doc)) == {evoked, wrapper, extra, note}


def test_move_to_front_discipline():
    state = fresh()
    sequence = [Action.evoke("/t/a", 1), Action.shift(), Action.evoke("/t/b", 1),
                Action.connect(1, "/r/x", 0), Action.assign(0, "/c/n", 1),
                Action.embed(1, "/r/y", "/t/c"), Action.elaborate(0, "/r/z", "/t/d")]
    before = None
    for action in sequence:
        size = len(state.attention)
        state.apply(action)
        if action.kind in ("EVOKE", "EMBED", "ELABORATE"):
            assert len(state.attention) == size + 1
        else:
            assert len(state.attention) == size
        if action.kind not in ("SHIFT", "STOP"):
            front = state.attention[0]
            assert state.focused_step[front] == state.step - 1
        before = action


def test_step_counts_every_action():
    state = fresh("a b")
    state.apply(Action.shift())
    state.apply(Action.evoke("/t/x", 1))
    state.apply(Action.shift())
    state.apply(Action.stop())
    assert state.step == 4
    assert state.cursor == 2


def test_apply_deterministic():
    actions = sequence_from_text(HIT_SEQUENCE)
    a = run_sequence("John hit the ball", tokenize("John hit the ball"), actions)
    b = run_sequence("John hit the ball", tokenize("John hit the ball"), actions)

    def signature(state):
        frames = []
        for frame in state.store.frames():
            frames.append([(state.store.symbol_name(s.role),
                            s.value.index if isinstance(s.value, Handle)
                            and s.value.is_frame() else
                            state.store.symbol_name(s.value)
                            if isinstance(s.value, Handle) else s.value)
                           for s in state.store.slots(frame)])
        return (state.cursor, state.step, state.done,
                [f.index for f in state.attention],
                [(m.begin, m.length, [f.index for f in m.evoked])
                 for m in state.mentions], frames)

    assert signature(a) == signature(b)


# -- serialization -----------------------------------------------------------

def test_sequence_text_roundtrip():
    actions = sequence_from_text(HIT_SEQUENCE)
    assert sequence_to_text(actions) == HIT_SEQUENCE


def test_action_text_forms():
    cases = [
        (Action.shift(), "SHIFT"),
        (Action.stop(), "STOP"),
        (Action.evoke("/saft/person", 1), "EVOKE(/saft/person, 1)"),
        (Action.refer(2, 1), "REFER(2, 1)"),
        (Action.connect(0, "/pb/arg0", 1), "CONNECT(0, /pb/arg0, 1)"),
        (Action.assign(0, "/c/x", "a, b"), 'ASSIGN(0, /c/x, "a, b")'),
        (Action.assign(1, "/c/y", 3), "ASSIGN(1, /c/y, 3)"),
        (Action.assign(1, "/c/z", SymbolName("/t/k")), "ASSIGN(1, /c/z, /t/k)"),
        (Action.embed(0, "/r/of", "/t/wrap"), "EMBED(0, /r/of, /t/wrap)"),
        (Action.elaborate(1, "/r/d", "/t/e"), "ELABORATE(1, /r/d, /t/e)"),
    ]
    for action, text in cases:
        assert action.to_text() == text
        assert parse_action(text) == action
    assert isinstance(parse_action("ASSIGN(0, /c/z, /t/k)").value, SymbolName)
    assert not isinstance(parse_action('ASSIGN(0, /c/x, "s")').value, SymbolName)


# Names outside the notation's bare-symbol rule, each beside its text.
ODD_NAMES = [("arg0, agent", '"arg0, agent"'), ("f(x)", '"f(x)"'), ("x)", '"x)"'),
             ('say "hi"', '"say \\"hi\\""'), ("a b", '"a b"'), ("café", '"café"'),
             ("nil", '"nil"'), ("12", '"12"')]


@pytest.mark.parametrize("name, text", ODD_NAMES)
def test_names_outside_the_bare_rule_are_quoted_and_read_back(name, text):
    actions = [(Action.evoke(name, 2), f"EVOKE({text}, 2)"),
               (Action.connect(0, name, 1), f"CONNECT(0, {text}, 1)"),
               (Action.assign(1, name, "v"), f'ASSIGN(1, {text}, "v")'),
               (Action.embed(0, name, name), f"EMBED(0, {text}, {text})"),
               (Action.elaborate(1, name, "/t/e"), f"ELABORATE(1, {text}, /t/e)")]
    for action, written in actions:
        assert action.to_text() == written
        assert parse_action(written) == action


def test_older_bare_names_still_read():
    # Texts written before names outside the bare rule were quoted.
    assert parse_action("CONNECT(0, a b, 1)") == Action.connect(0, "a b", 1)
    assert parse_action("EVOKE(café, 1)") == Action.evoke("café", 1)
    assert parse_action("ASSIGN(0, r, a b)").value == SymbolName("a b")


@pytest.mark.parametrize("text", ["EVOKE(a, b)", "CONNECT(0, a, b, 1)", "SHIFT(1)",
                                  "FOO(1, 2)", 'ASSIGN(0, r, "\\x")', "REFER(1)", ""])
def test_malformed_action_text_is_rejected(text):
    with pytest.raises(ValueError, match="malformed action"):
        parse_action(text)


def odd_name_document(name):
    store = Store()
    role = store.intern(name)
    first = store.new_frame([(store.isa, store.intern("/t/x")), (role, "line\u2028break")])
    second = store.new_frame([(store.isa, store.intern("/t/y")), (role, first)])
    return Document("a b", tokenize("a b"), [Mention(0, 1, [first]), Mention(1, 1, [second])],
                    store)


def test_oracle_actions_read_back_exactly():
    docs = generate_corpus(5, 150) + [odd_name_document(name) for name, _ in ODD_NAMES]
    for seed in range(40):
        rng = random.Random(seed)
        docs.extend(random_document(rng) for _ in range(10))
    for doc in docs:
        actions = generate(doc)
        for action in actions:
            back = parse_action(action.to_text())
            assert back == action
            assert type(back.value) is type(action.value)
        assert sequence_from_text(sequence_to_text(actions)) == actions
