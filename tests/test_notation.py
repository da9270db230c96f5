import json
import math
import random
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from framekit.notation import (NotationError, UnprintableValueError, parse_notation,
                               parse_or_raise, print_notation)
from framekit.store import Handle, Store
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


def _store_dump(store: Store) -> list:
    """Each frame's slots in allocation order: a frame shows as ``@i``,
    a symbol as its name, a string as its JSON text."""
    def show(value):
        if isinstance(value, list):
            return [show(item) for item in value]
        if isinstance(value, Handle):
            return f"@{value.index}" if value.is_frame() else store.symbol_name(value)
        return json.dumps(value) if isinstance(value, str) else value
    return [[(show(role), show(value)) for role, value in store.slots(frame)]
            for frame in store.frames()]


# What the reader leaves in the store, well-formed or not, with the
# top-level frame indices and the diagnostics: frames are allocated in
# the order of their opening braces, labels and names bind in that order
# (the first binding wins), and a slot whose reference does not resolve
# holds nil.
READ_STORES = [
    ("forward-labels", "{a: {=#1 b: #2} =#2 c: [#1 {d: x} x]} {=x e: #1}",
     [[("a", "@1"), ("c", ["@1", "@2", "@3"])], [("b", "@0")], [("d", "@3")],
      [("id", "x"), ("e", "@1")]], [0, 3], []),
    ("label-role", "{#1: 1} {=#1 :t}", [[("@1", 1)], [("isa", "t")]], [0, 1], []),
    ("frame-role", "{{:r}: {+s}}", [[("@1", "@2")], [("isa", "r")], [("is", "s")]], [0], []),
    ("nested-arrays", "{a: [[#3] {=#3}]}", [[("a", [["@1"], "@1"])], []], [0], []),
    ("names-and-tops", "{=y id: z a: y} #3 y {=#3}",
     [[("id", "y"), ("id", "z"), ("a", "@0")], []], [0, 1, 0, 1], []),
    ("inner-label-taken", "{a: {=#1} =#1}", [[("a", "@1")], []], [],
     [(5, "duplicate label #1")]),
    ("name-and-label-taken", "{=b =#1}{=b =#1}", [[("id", "b")], []], [],
     [(9, "symbol 'b' already names another frame"), (12, "duplicate label #1")]),
    ("empty-json-key", '{"id": x "isa": y "": 1}', [], [],
     [(18, "slot role must be a symbol or frame")]),
    ("string-id", '{"id": "s" r: nil}', [[("id", '"s"'), ("r", None)]], [0], []),
]


@pytest.mark.parametrize("text,frames,top,diagnostics", [case[1:] for case in READ_STORES],
                         ids=[case[0] for case in READ_STORES])
def test_reader_fills_the_store_frame_by_frame(text, frames, top, diagnostics):
    store = Store()
    result = parse_notation(text, store)
    assert _store_dump(store) == frames
    assert [handle.index for handle in result.top] == top
    assert sorted(result.diagnostics) == diagnostics


def test_diagnostics_come_out_in_offset_order():
    store = Store()
    result = parse_notation("{x: #7 y: {z: #8}} {=#1} {=#1}", store)
    assert result.diagnostics == [(4, "unresolved reference #7"),
                                  (14, "unresolved reference #8"),
                                  (26, "duplicate label #1")]
    assert _store_dump(store) == [[("x", None), ("y", "@1")], [("z", None)], [], []]


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
        text = print_notation(roots, store)
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


@pytest.mark.parametrize("leaf,depth", [("1", 200), ("{}", 200), ("{=x}", 200),
                                        ("[]", 200), ("{:t}", 199), ("[1]", 199)])
def test_the_printer_refuses_exactly_what_nests_too_deep_to_read(leaf, depth):
    """`leaf` is at `depth`, the deepest at which the reader accepts it;
    one frame more around it is refused."""
    text = "{a: " * depth + leaf + "}" * depth
    store = Store()
    (frame,) = parse_or_raise(text, store)
    assert print_notation([frame], store) == text
    outer = store.new_frame([(store.intern("a"), frame)])
    with pytest.raises(UnprintableValueError, match="nesting deeper than 200 levels"):
        print_notation([outer], store)


# Every malformed input maps to an exact (byte offset, message) list.
# The "é" prefix is two bytes in UTF-8, so offsets after it are byte
# offsets, not character indices.
MALFORMED = [
    ("unterminated-frame", "{a: 1", [(0, "unterminated frame")]),
    ("unterminated-array", "{a: [1 2", [(4, "unterminated array")]),
    ("unterminated-string", '{a: "abc', [(4, "unterminated string")]),
    ("unterminated-after-u-escape", '{a: "\\u1234', [(4, "unterminated string")]),
    ("unterminated-after-pair", '{a: "\\ud83d\\udc00', [(4, "unterminated string")]),
    ("unterminated-escape", '{a: "\\', [(4, "unterminated string escape")]),
    ("bad-escape", '{a: "x\\qy"}', [(7, "invalid string escape \\q")]),
    ("short-u-escape", '{a: "\\u12"}', [(6, "invalid \\u escape")]),
    ("short-u-escape-at-end", '{a: "\\u12', [(6, "invalid \\u escape")]),
    ("utf8-unterminated-string", '{t: "é" a: "abc', [(12, "unterminated string")]),
    ("utf8-unterminated-escape", '{t: "é" a: "\\', [(12, "unterminated string escape")]),
    ("utf8-bad-escape", '{t: "é" a: "x\\qy"}', [(15, "invalid string escape \\q")]),
    ("utf8-short-u-escape", '{t: "é" a: "\\u12"}', [(14, "invalid \\u escape")]),
    ("hash-without-digits", "{a: #}", [(4, "expected digits after '#'")]),
    ("label-without-digits", "{=# a: 1}", [(2, "expected digits after '#'")]),
    ("label-without-digits-at-end", "{=#", [(2, "expected digits after '#'")]),
    ("equals-without-label", "{=}", [(1, "expected label after '='")]),
    ("equals-nil", "{=nil}", [(1, "expected label after '='")]),
    ("lone-minus", "{a: -}", [(4, "malformed number")]),
    ("dangling-dot", "{a: 1.}", [(5, "unexpected character '.'")]),
    ("close-brace", "}", [(0, "unexpected character '}'")]),
    ("colon-as-value", "{a: :}", [(4, "unexpected character ':'")]),
    ("missing-colon", "{a 1}", [(3, "expected ':' after slot role")]),
    ("missing-colon-json-key", '{"a" 1}', [(5, "expected ':' after slot role")]),
    ("exponent-without-digits", "{a: 1.5e}", [(8, "expected ':' after slot role")]),
    ("non-symbol-role", "{1: 2}", [(1, "slot role must be a symbol or frame")]),
    ("end-after-colon", "{a:", [(3, "unexpected end of input")]),
    ("deep-frames", "{a: " * 500 + "1" + "}" * 500, [(801, "nesting too deep")]),
    ("deep-arrays", "[" * 500, [(201, "nesting too deep")]),
]

# Well-formed syntax whose labels, names or tops do not resolve.
UNRESOLVED = [
    ("unresolved-ref", "{x: #7}", [(4, "unresolved reference #7")]),
    ("duplicate-label", "{=#1} {=#1}", [(7, "duplicate label #1")]),
    ("duplicate-name", "{=b} {=b}", [(6, "symbol 'b' already names another frame")]),
    ("top-number", "1", [(0, "top-level object must be a frame")]),
    ("top-string", '"s"', [(0, "top-level object must be a frame")]),
    ("top-array", "[{}]", [(0, "top-level object must be a frame")]),
    ("top-nil", "nil", [(0, "top-level object must be a frame")]),
    ("top-symbol", "{} foo", [(3, "top-level name 'foo' is not a frame")]),
    ("top-ref", "#3", [(0, "unresolved reference #3")]),
]


@pytest.mark.parametrize("text,expected", [case[1:] for case in MALFORMED + UNRESOLVED],
                         ids=[case[0] for case in MALFORMED + UNRESOLVED])
def test_malformed_input_diagnostics(text, expected):
    result = parse_notation(text, Store())
    assert result.top == []
    assert result.diagnostics == expected


@pytest.mark.parametrize("text", [case[1] for case in MALFORMED],
                         ids=[case[0] for case in MALFORMED])
def test_syntax_error_leaves_store_untouched(text):
    store = Store()
    parse_notation(text, store)
    assert store.num_frames() == 0


def test_surrogate_pair_escape_is_one_character():
    store = Store()
    (frame,) = parse_or_raise('{a: "\\ud83d\\ude00" b: "\\uD83D\\uDE00"}', store)
    assert [slot.value for slot in store.slots(frame)] == ["😀", "😀"]
    assert print_notation([frame], store) == '{a: "😀" b: "😀"}'


@pytest.mark.parametrize("text,expected", [
    ('{a: "\\ud83d"}', [(6, "lone surrogate in string")]),
    ('{a: "\\ude00\\ud83d"}', [(6, "lone surrogate in string")]),
    ('{a: "\\ud83d\\ud83d\\ude00"}', [(6, "lone surrogate in string")]),
    ('{t: "é" a: "x\\ud83dx"}', [(15, "lone surrogate in string")]),
    ('{a: "\\\\ud83d"}', []),  # an escaped backslash, then plain text
    ('{a: "\ud800" b: }', [(5, "lone surrogate in string")]),  # raw, in a caller's str
], ids=["high", "low-then-high", "high-then-pair", "utf8-prefix", "escaped-backslash", "raw"])
def test_lone_surrogates_are_diagnosed(text, expected):
    store = Store()
    result = parse_notation(text, store)
    assert result.diagnostics == expected
    assert store.num_frames() == (0 if expected else 1)


@pytest.mark.parametrize("literal", ["1e999", "-1e999", "1" * 5000, "-" + "1" * 5000],
                         ids=["1e999", "-1e999", "5000-digits", "-5000-digits"])
def test_numbers_out_of_range_are_diagnosed(literal):
    store = Store()
    result = parse_notation("{a: %s}" % literal, store)
    assert result.diagnostics == [(4, "number out of range")]
    assert store.num_frames() == 0


def test_labels_out_of_range_are_diagnosed():
    digits = "1" * 5000
    assert parse_notation("{=#%s}" % digits, Store()).diagnostics == \
        [(2, "number out of range")]
    assert parse_notation("{a: #%s}" % digits, Store()).diagnostics == \
        [(4, "number out of range")]


def test_large_finite_numbers_read_back():
    store = Store()
    (frame,) = parse_or_raise("{a: 1e308 b: -1e-999 c: %s}" % ("9" * 400), store)
    assert [slot.value for slot in store.slots(frame)] == [1e308, -0.0, int("9" * 400)]


ROLE_NAMES = ["a", "/s/x.y-z", "a b", "nil", "null", "1x", "é", "#1", "x:y", 'say "hi"',
              "tab\there", "-", "_", "😀", "true"]


@pytest.mark.parametrize("name", ROLE_NAMES)
def test_role_names_round_trip(name):
    store = Store()
    frame = store.new_frame([(store.intern(name), 1)])
    text = print_notation([frame], store)
    other = Store()
    (back,) = parse_or_raise(text, other)
    (slot,) = other.slots(back)
    assert other.symbol_name(slot.role) == name
    assert print_notation([back], other) == text
    # A JSON object with that key reads as the same role.
    json_key = Store()
    (keyed,) = parse_or_raise("{%s: 1}" % json.dumps(name), json_key)
    assert print_notation([keyed], json_key) == text


@pytest.mark.parametrize("text,printed", [
    ("{=a =x}", "{=a =x}"),  # every name prints as =name
    ("{b: 1 id: x}", "{=x b: 1}"),  # id: name is the long form of =name
    ('{"id": x} {r: x}', "{=x}\n{r: x}"),
    ("{id: #1} {=#1 =x}", "{id: {=#1 =x}}\nx"),  # a name after id: would read as =name
    ("{=#1 =isa} {#1: 2}", "{=#1 =isa}\n{#1: 2}"),  # a name as a role reads as a symbol
    ("{{=#1 =r}: 1 s: #1}", "{{=#1 =r}: 1 s: r}"),
])
def test_names_print_as_they_read_back(text, printed):
    store = Store()
    result = parse_notation(text, store)
    assert result.ok, result.diagnostics
    assert print_notation(result.top, store) == printed
    other = Store()
    assert print_notation(parse_or_raise(printed, other), other) == printed


def test_long_form_name_binds_like_the_short_one():
    assert parse_notation("{=x} {id: x}", Store()).diagnostics == \
        [(6, "symbol 'x' already names another frame")]
    store = Store()
    first, second = parse_or_raise("{r: x} {id: x}", store)
    assert store.get_role(first, store.intern("r")) == second


def test_empty_json_key_is_diagnosed():
    store = Store()
    assert parse_notation('{"": 1}', store).diagnostics == \
        [(1, "slot role must be a symbol or frame")]
    assert store.num_frames() == 0


# Structured notation: frames, arrays, labels, names, shorthand slots and
# JSON-key roles drawn from a small grammar rather than from arbitrary
# text, so that many draws parse and exercise the printer.
_SEPARATORS = st.sampled_from([" ", ",", "\n", " , "])
_NAMES = st.sampled_from(["x", "y", "b/c"])
_LABELS = st.integers(1, 3).map(lambda n: f"#{n}")
_JSON_KEYS = st.sampled_from(["a b", "nil", "1x", "é", "#1", "id", "isa", "is", "x", "",
                              "😀", "\\ud83d\\ude00", "\\ud83d", "q\\\""]).map(lambda s: f'"{s}"')
_STRINGS = st.one_of(st.text(max_size=6).map(json.dumps),
                     st.text(max_size=6).map(lambda s: json.dumps(s, ensure_ascii=False)),
                     st.sampled_from(['"\\ud83d\\ude00"', '"\\udc00"', '"\\u00e9"', '"\\q"']))
_NUMBERS = st.one_of(st.integers(-10**20, 10**20).map(str),
                     st.floats(allow_nan=False, allow_infinity=False).map(repr),
                     st.sampled_from(["1e999", "-1e999", "1e-999", "-0.0", "-", "01"]))
_ATOMS = st.one_of(_STRINGS, _NUMBERS, _NAMES, _LABELS,
                   st.sampled_from(["nil", "null", "true", "a", "#"]))


def _frames(values):
    role = st.one_of(st.sampled_from(["a", "b", "/r/x", "id"]), _JSON_KEYS, _LABELS)
    slot = st.one_of(
        st.tuples(role, values).map(lambda rv: f"{rv[0]}: {rv[1]}"),
        values.map(lambda v: f":{v}"),
        values.map(lambda v: f"+{v}"),
        _LABELS.map(lambda label: f"={label}"),
        _NAMES.map(lambda name: f"={name}"),
    )
    return st.tuples(st.lists(slot, max_size=4), _SEPARATORS).map(
        lambda parts: "{" + parts[1].join(parts[0]) + "}")


_VALUES = st.recursive(
    _ATOMS,
    lambda values: st.one_of(
        _frames(values),
        st.tuples(st.lists(values, max_size=3), _SEPARATORS).map(
            lambda parts: "[" + parts[1].join(parts[0]) + "]")),
    max_leaves=12)
_DOCUMENTS = st.tuples(st.lists(st.one_of(_frames(_VALUES), _NAMES, _LABELS), max_size=3),
                       _SEPARATORS).map(lambda parts: parts[1].join(parts[0]))


@given(_DOCUMENTS)
@settings(max_examples=400, deadline=None)
def test_accepted_notation_prints_what_reads_back(text):
    store = Store()
    result = parse_notation(text, store)
    if not result.ok:
        assert result.top == []
        return
    printed = print_notation(result.top, store)
    printed.encode("utf-8")
    other = Store()
    again = parse_notation(printed, other)
    assert again.ok, (printed, again.diagnostics)
    assert print_notation(again.top, other) == printed


@pytest.mark.parametrize("role", ["r", "isa", "id"])
@pytest.mark.parametrize("name", ["a b", "nil", "null", "12", "é", "a,b"])
def test_symbol_values_without_notation_are_refused(role, name):
    store = Store()
    frame = store.new_frame([(store.intern(role), store.intern(name))])
    with pytest.raises(UnprintableValueError, match=re.escape(repr(name))):
        print_notation([frame], store)


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_floats_without_notation_are_refused(value):
    store = Store()
    frame = store.new_frame([(store.intern("r"), [1, value])])
    with pytest.raises(UnprintableValueError, match=repr(value)):
        print_notation([frame], store)


@pytest.mark.parametrize("role, value, problem", [
    ("r", "x\ud800y", "string 'x\\ud800y' has no UTF-8 form"),
    ("r", ["ok", "\udfff"], "string '\\udfff' has no UTF-8 form"),
    ("x\ud800", 1, "string 'x\\ud800' has no UTF-8 form"),
    ("r", 10 ** 5000, "int past the digit limit has no notation"),
    ("r", -(10 ** 5000), "int past the digit limit has no notation"),
], ids=["string", "string-in-array", "quoted-role", "5000-digits", "-5000-digits"])
def test_values_the_reader_refuses_are_refused(role, value, problem):
    """A string or role name with no UTF-8 form, or an int whose decimal
    form is past the interpreter's digit limit, would not read back."""
    store = Store()
    frame = store.new_frame([(store.intern(role), value)])
    with pytest.raises(UnprintableValueError, match="^" + re.escape(problem) + "$"):
        print_notation([frame], store)


@pytest.mark.parametrize("role", ["r", "isa", "is"])
def test_a_symbol_value_that_names_a_frame_is_refused(role):
    """`{=x}` then `{r: x}` would read back with `r` holding the frame."""
    store = Store()
    named = store.new_frame([(store.intern("id"), store.intern("x"))])
    frame = store.new_frame([(store.intern(role), store.intern("x"))])
    with pytest.raises(UnprintableValueError, match="'x'"):
        print_notation([named, frame], store)
    assert print_notation([named], store) == "{=x}"
