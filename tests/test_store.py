import pytest
from hypothesis import given
from hypothesis import strategies as st

from framekit.store import (MAX_DEPTH, DanglingHandleError, DuplicateIdError,
                            ForeignHandleError, Handle,
                            Store, StoreError)


def test_intern_idempotent():
    store = Store()
    a = store.intern("/pb/arg0")
    b = store.intern("/pb/arg0")
    assert a == b


def test_intern_distinct_names():
    store = Store()
    assert store.intern("/saft/person") != store.intern("/saft/location")


def test_intern_empty_name_rejected():
    store = Store()
    with pytest.raises(ValueError):
        store.intern("")


def test_builtins_preinterned():
    store = Store()
    assert store.symbol_name(store.id) == "id"
    assert store.symbol_name(store.isa) == "isa"
    assert store.symbol_name(store.is_) == "is"
    # fixed well-known handles in every store
    other = Store()
    assert store.isa.index == other.isa.index


def test_new_frame_with_type():
    store = Store()
    person = store.intern("/saft/person")
    frame = store.new_frame([(store.isa, person)])
    assert store.get_role(frame, store.isa) == person


def test_new_frame_empty():
    store = Store()
    frame = store.new_frame()
    assert len(store.slots(frame)) == 0


def test_cyclic_frames_permitted():
    store = Store()
    role = store.intern("/r/next")
    a = store.new_frame()
    b = store.new_frame()
    store.add_slot(a, role, b)
    store.add_slot(b, role, a)
    assert store.get_role(a, role) == b
    assert store.get_role(b, role) == a


def test_new_frame_foreign_handle_rejected():
    store = Store()
    other = Store()
    sym = other.intern("/x")
    with pytest.raises(ForeignHandleError):
        store.new_frame([(store.isa, sym)])


def test_handle_of_unknown_kind_rejected():
    store = Store()
    frame = store.new_frame()
    for bogus in (Handle("nil", 0, 0), Handle("nil", 0, store.uid)):
        with pytest.raises(StoreError):
            store.new_frame([(bogus, 1)])
        with pytest.raises(StoreError):
            store.add_slot(frame, bogus, 1)
        with pytest.raises(StoreError):
            store.add_slot(frame, store.isa, bogus)
    assert store.num_frames() == 1 and store.slots(frame) == ()


def test_duplicate_id_rejected():
    store = Store()
    name = store.intern("shared")
    store.new_frame([(store.id, name)])
    with pytest.raises(DuplicateIdError):
        store.new_frame([(store.id, name)])


def test_new_frame_with_a_clashing_id_allocates_nothing():
    # A clashing id fails the call before anything is allocated: no
    # frame, no link, no binding of the call's other ids.
    store = Store()
    name = store.intern("taken")
    store.new_frame([(store.id, name)])
    target = store.new_frame()
    before = store.num_frames()
    fresh = store.intern("fresh")
    with pytest.raises(DuplicateIdError):
        store.new_frame([(store.id, fresh), (store.id, name),
                         (store.intern("/r/x"), target)])
    assert store.num_frames() == before
    assert store.resolve("fresh") == fresh  # a symbol, bound to no frame


def test_named_frame_resolves():
    store = Store()
    name = store.intern("thing")
    frame = store.new_frame([(store.id, name)])
    assert store.resolve("thing") == frame
    assert store.frame_id_name(frame) == "thing"


def test_add_slot_appends_in_order():
    store = Store()
    frame = store.new_frame()
    arg0 = store.intern("/pb/arg0")
    arg1 = store.intern("/pb/arg1")
    store.add_slot(frame, arg0, 1)
    store.add_slot(frame, arg1, 2)
    assert [s.role for s in store.slots(frame)] == [arg0, arg1]


def test_duplicate_slots_permitted():
    store = Store()
    frame = store.new_frame()
    role = store.intern("/r/x")
    store.add_slot(frame, role, 1)
    store.add_slot(frame, role, 1)
    assert len(store.slots(frame)) == 2


def test_get_role_first_match():
    store = Store()
    frame = store.new_frame()
    role = store.intern("/r/x")
    store.add_slot(frame, role, "first")
    store.add_slot(frame, role, "second")
    assert store.get_role(frame, role) == "first"


def test_get_role_absent_is_nil():
    store = Store()
    frame = store.new_frame()
    assert store.get_role(frame, store.isa) is None


def test_dangling_handle_rejected():
    store = Store()
    bogus = Handle("frame", 99, store.uid)
    with pytest.raises(DanglingHandleError):
        store.slots(bogus)


def test_bool_values_rejected():
    store = Store()
    frame = store.new_frame()
    with pytest.raises(TypeError):
        store.add_slot(frame, store.isa, True)


def nested(depth, innermost=None):
    """A list nested `depth` levels deep around `innermost`'s items."""
    value = list(innermost or [])
    for _ in range(depth - 1):
        value = [value]
    return value


def test_lists_nested_past_the_notation_limit_are_refused():
    # 5,000 levels is past the interpreter's recursion limit, so the
    # check must not recurse; the notation reads at most MAX_DEPTH.
    store = Store()
    frame = store.new_frame()
    for depth in (MAX_DEPTH + 1, 5000):
        with pytest.raises(StoreError, match=f"nested deeper than {MAX_DEPTH} levels"):
            store.new_frame([(store.isa, nested(depth))])
        with pytest.raises(StoreError, match=f"nested deeper than {MAX_DEPTH} levels"):
            store.add_slot(frame, store.isa, nested(depth))
    assert store.slots(frame) == ()
    store.add_slot(frame, store.isa, nested(MAX_DEPTH, [1, "x"]))
    assert store.slots(frame)[0].value == nested(MAX_DEPTH, [1, "x"])


def test_items_of_nested_lists_are_checked_in_order():
    store = Store()
    with pytest.raises(TypeError, match="boolean"):
        store.new_frame([(store.isa, [1, [2.0, ["s", [True]]], object()])])
    with pytest.raises(TypeError, match="unsupported slot value type: object"):
        store.new_frame([(store.isa, [1, [object(), [True]]])])
    with pytest.raises(ForeignHandleError):
        store.new_frame([(store.isa, [[], [[Store().intern("x")]]])])


@given(st.lists(st.text(min_size=1, max_size=8), min_size=1, max_size=30))
def test_intern_bijection(names):
    store = Store()
    handles = {}
    for name in names:
        handle = store.intern(name)
        if name in handles:
            assert handles[name] == handle
        handles[name] = handle
        assert store.symbol_name(handle) == name
    assert len(set(handles.values())) == len(handles)


@given(st.lists(st.integers(0, 4), max_size=40), st.integers(0, 5))
def test_handles_never_invalidate(ops, seed):
    store = Store()
    frames = [store.new_frame()]
    issued = list(frames)
    role = store.intern("/r/x")
    for op in ops:
        if op == 0:
            frames.append(store.new_frame())
            issued.append(frames[-1])
        else:
            target = frames[(op + seed) % len(frames)]
            store.add_slot(frames[-1], role, target)
    for handle in issued:
        store.slots(handle)  # still resolves


def test_reachability_stays_in_store():
    store = Store()
    frames = [store.new_frame() for _ in range(5)]
    role = store.intern("/r/x")
    for a, b in zip(frames, frames[1:]):
        store.add_slot(a, role, b)
    seen = set()
    stack = [frames[0]]
    while stack:
        frame = stack.pop()
        if frame in seen:
            continue
        seen.add(frame)
        for slot in store.slots(frame):
            assert slot.role.store_uid == store.uid
            if isinstance(slot.value, Handle) and slot.value.is_frame():
                assert slot.value.store_uid == store.uid
                stack.append(slot.value)


def test_a_plain_tuple_is_not_a_handle():
    # A handle compares equal to the tuple of its fields, but the store
    # takes only handles it could have issued.
    store = Store()
    role = store.intern("/r/x")
    frame = store.new_frame([(role, 1)])
    for live in (frame, role):
        assert tuple(live) == live
    with pytest.raises(TypeError):
        store.slots(tuple(frame))
    with pytest.raises(TypeError):
        store.get_role(tuple(frame), role)
    with pytest.raises(TypeError):
        store.get_role(frame, tuple(role))
    with pytest.raises(TypeError):
        store.add_slot(tuple(frame), role, 2)
    with pytest.raises(TypeError):
        store.add_slot(frame, tuple(role), 2)
    with pytest.raises(TypeError):
        store.add_slot(frame, role, tuple(frame))
    with pytest.raises(TypeError):
        store.new_frame([(role, tuple(frame))])
    with pytest.raises(TypeError):
        store.symbol_name(tuple(role))
    assert store.num_frames() == 1 and len(store.slots(frame)) == 1


def test_an_in_range_handle_of_another_store_is_foreign():
    store, other = Store(), Store()
    frame = store.new_frame()
    role = store.intern("/r/x")
    foreign_frame = other.new_frame()
    foreign_role = other.intern("/r/x")
    assert (foreign_frame.index, foreign_role.index) == (frame.index, role.index)
    with pytest.raises(ForeignHandleError):
        store.slots(foreign_frame)
    with pytest.raises(ForeignHandleError):
        store.get_role(frame, foreign_role)
    with pytest.raises(ForeignHandleError):
        store.add_slot(frame, role, foreign_frame)
    with pytest.raises(ForeignHandleError):
        store.symbol_name(foreign_role)


def test_a_negative_or_wrong_kind_index_dangles():
    store = Store()
    frame = store.new_frame()
    role = store.intern("/r/x")
    for bogus in (Handle("frame", -1, store.uid), Handle("symbol", -1, store.uid)):
        with pytest.raises(DanglingHandleError):
            store.slots(bogus)
        with pytest.raises(DanglingHandleError):
            store.get_role(frame, bogus)
        with pytest.raises(DanglingHandleError):
            store.add_slot(frame, role, bogus)
    with pytest.raises(DanglingHandleError):
        store.symbol_name(Handle("symbol", -1, store.uid))
    with pytest.raises(DanglingHandleError):
        store.slots(role)  # a symbol is not a frame
    with pytest.raises(DanglingHandleError):
        store.symbol_name(frame)


def test_slots_are_immutable_and_not_copied():
    store = Store()
    role = store.intern("/r/x")
    frame = store.new_frame([(role, 1)])
    slots = store.slots(frame)
    assert store.slots(frame) is slots
    with pytest.raises(TypeError):
        slots[0] = slots[0]._replace(value=2)  # a tuple: no item assignment
    assert not hasattr(slots, "append")
    store.add_slot(frame, role, 2)
    assert [s.value for s in slots] == [1]  # what was read stays as read
    assert [s.value for s in store.slots(frame)] == [1, 2]
    assert store.slots(frame) is store.slots(frame)
