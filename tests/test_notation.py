import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from framekit.notation import (NotationError, parse_notation, parse_or_raise,
                               print_notation, print_with_labels)
from framekit.store import Handle, Store, StoreError
from support import HIT_DOC_TEXT, graphs_isomorphic, random_store_graph


def test_worked_example_structure():
    store = Store()
    top = parse_or_raise(HIT_DOC_TEXT, store)
    assert len(top) == 1
    doc = top[0]
    slots = store.slots(doc)
    text_role = store.intern("/s/document/text")
    tokens_role = store.intern("/s/document/tokens")
    mention_role = store.intern("/s/document/mention")
    assert sum(1 for s in slots if s.role == text_role) == 1
    token_array = store.get_role(doc, tokens_role)
    assert isinstance(token_array, list) and len(token_array) == 4
    mentions = [s.value for s in slots if s.role == mention_role]
    assert len(mentions) == 3

    evokes = store.intern("/s/phrase/evokes")
    person = store.get_role(mentions[0], evokes)
    hit = store.get_role(mentions[1], evokes)
    ball = store.get_role(mentions[2], evokes)
    # the #1 reference in the hit frame resolves to the person frame
    assert store.get_role(hit, store.intern("/pb/arg0")) == person
    assert store.get_role(hit, store.intern("/pb/arg1")) == ball
    isa_value = store.get_role(person, store.isa)
    assert store.symbol_name(isa_value) == "/saft/person"


def test_empty_frame():
    store = Store()
    top = parse_or_raise("{}", store)
    assert len(top) == 1
    assert len(store.slots(top[0])) == 0


def test_two_frame_cycle():
    store = Store()
    top = parse_or_raise("{=#1 :a f: #2} {=#2 g: #1}", store)
    assert len(top) == 2
    first, second = top
    f_role, g_role = store.intern("f"), store.intern("g")
    assert store.get_role(first, f_role) == second
    assert store.get_role(second, g_role) == first


def test_forward_named_reference():
    store = Store()
    top = parse_or_raise("{link: target} {=target :t}", store)
    assert store.get_role(top[0], store.intern("link")) == top[1]


def test_literals_and_arrays():
    store = Store()
    (frame,) = parse_or_raise(
        '{a: 1 b: -2.5 c: "x\\ny" d: [1 2 {e: nil}] f: null}', store)
    assert store.get_role(frame, store.intern("a")) == 1
    assert store.get_role(frame, store.intern("b")) == -2.5
    assert store.get_role(frame, store.intern("c")) == "x\ny"
    array = store.get_role(frame, store.intern("d"))
    assert array[:2] == [1, 2]
    assert store.get_role(array[2], store.intern("e")) is None
    assert store.get_role(frame, store.intern("f")) is None


def test_json_object_accepted():
    store = Store()
    (frame,) = parse_or_raise('{"a": 1, "b": [true, false]}', store)
    assert store.get_role(frame, store.intern("a")) == 1
    values = store.get_role(frame, store.intern("b"))
    assert [store.symbol_name(v) for v in values] == ["true", "false"]


def test_shorthand_roles():
    store = Store()
    (frame,) = parse_or_raise("{:t +u =v}", store)
    assert store.symbol_name(store.get_role(frame, store.isa)) == "t"
    assert store.symbol_name(store.get_role(frame, store.is_)) == "u"
    assert store.symbol_name(store.get_role(frame, store.id)) == "v"
    assert store.resolve("v") == frame


def test_syntax_error_diagnostic_offset():
    store = Store()
    result = parse_notation("{a: }", store)
    assert not result.ok
    offset, message = result.diagnostics[0]
    assert offset == 4
    assert message


def test_unresolved_reference():
    store = Store()
    result = parse_notation("{x: #7}", store)
    assert not result.ok
    assert any("#7" in msg for _, msg in result.diagnostics)


def test_duplicate_label():
    store = Store()
    result = parse_notation("{=#1} {=#1}", store)
    assert not result.ok
    assert any("duplicate" in msg for _, msg in result.diagnostics)


def test_frozen_store_rejected():
    store = Store()
    store.freeze()
    with pytest.raises(StoreError):
        parse_notation("{}", store)


def test_parse_or_raise_raises():
    store = Store()
    with pytest.raises(NotationError):
        parse_or_raise("{", store)


def test_print_empty_frame_fixed_point():
    store = Store()
    (frame,) = parse_or_raise("{}", store)
    assert print_notation([frame], store) == "{}"


def test_shared_frame_printed_once():
    store = Store()
    shared = store.new_frame([(store.isa, store.intern("/t/x"))])
    role = store.intern("/r/x")
    a = store.new_frame([(role, shared), (store.intern("/r/y"), shared)])
    text = print_notation([a], store)
    assert text.count("=#1") == 1
    assert text.count("#1") == 2  # one definition, one back-reference


def test_label_iff_shared_or_named():
    store = Store()
    single = store.new_frame()
    parent = store.new_frame([(store.intern("/r/x"), single)])
    text = print_notation([parent], store)
    assert "=#" not in text  # single reference, inline

    named = store.new_frame([(store.id, store.intern("myname"))])
    text = print_notation([named], store)
    assert "=myname" in text


def test_named_frame_roundtrip():
    store = Store()
    name = store.intern("boston")
    frame = store.new_frame([(store.id, name), (store.isa, store.intern("/t/loc"))])
    out = print_notation([frame], store)
    other = Store()
    (back,) = parse_or_raise(out, other)
    assert other.resolve("boston") == back
    assert graphs_isomorphic(store, [frame], other, [back])


def test_worked_example_roundtrip_isomorphic():
    store = Store()
    top = parse_or_raise(HIT_DOC_TEXT, store)
    text = print_notation(top, store)
    second = Store()
    top2 = parse_or_raise(text, second)
    assert graphs_isomorphic(store, top, second, top2)
    # and print(parse(print(...))) is stable under one more round
    third = Store()
    top3 = parse_or_raise(print_notation(top2, second), third)
    assert graphs_isomorphic(second, top2, third, top3)


def test_float_roundtrip_shortest_repr():
    store = Store()
    values = [0.1, 1.0, -2.5e-7, 3.141592653589793, 1e30]
    frame = store.new_frame([(store.intern("/r/x"), v) for v in values])
    out = print_notation([frame], store)
    other = Store()
    (back,) = parse_or_raise(out, other)
    got = [s.value for s in other.slots(back)]
    assert got == values


def test_cycle_roundtrip():
    store = Store()
    top = parse_or_raise("{=#1 :a f: #2} {=#2 g: #1}", store)
    out = print_notation(top, store)
    other = Store()
    top2 = parse_or_raise(out, other)
    assert graphs_isomorphic(store, top, other, top2)


def test_random_graph_roundtrips():
    rng = random.Random(99)
    for index in range(60):
        store, roots = random_store_graph(rng, ensure_cycle=index % 5 == 0)
        text, _ = print_with_labels(roots, store)
        other = Store()
        result = parse_notation(text, other)
        assert result.ok, (text, result.diagnostics)
        assert graphs_isomorphic(store, roots, other, result.top), text


@given(st.binary(max_size=64))
@settings(max_examples=300)
def test_reader_survives_random_bytes(data):
    text = data.decode("utf-8", errors="replace")
    store = Store()
    result = parse_notation(text, store)
    assert isinstance(result.top, list)
    assert isinstance(result.diagnostics, list)


@given(st.text(max_size=64))
@example(",")
@settings(max_examples=300)
def test_reader_survives_random_text(text):
    store = Store()
    result = parse_notation(text, store)
    # Blank in the notation: commas separate values as spaces do.
    if result.ok and text.strip(" \t\r\n,"):
        assert result.top or not result.ok


def test_deep_nesting_reports_diagnostic():
    store = Store()
    result = parse_notation("{a: " * 500 + "1" + "}" * 500, store)
    assert not result.ok
    assert any("deep" in msg for _, msg in result.diagnostics)
