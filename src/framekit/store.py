"""Arena-style container for frames and interned symbols.

A store owns every frame allocated in it and a bidirectional symbol
table.  Frames are ordered sequences of (role, value) slots; slot values
may be literals, arrays, or handles to other frames, so a store can hold
arbitrary graphs, including cycles.  Handles stay valid for the lifetime
of the store.  Unlike SLING's global store, a store is never frozen: it
stays writable for its whole life.

A handle is a tuple, so it hashes and compares in C; it compares equal
to a plain tuple of its fields, but a store accepts only `Handle`s.
`slots()` hands out a frame's own immutable tuple of slots, not a copy.

Links are followed forward only: a store keeps no index of the frames
that refer to a frame.  A document lists the frames that only link into
its graph (`document.Document.themes`), as SLING's documents do.
"""

from __future__ import annotations

import itertools
from typing import Iterable, NamedTuple, Optional, Union

FRAME = "frame"
SYMBOL = "symbol"

# Built-in roles, pre-interned in every store at these symbol indices.
ID_INDEX = 0
ISA_INDEX = 1
IS_INDEX = 2


# The deepest nesting the notation reads and writes; a store refuses a
# list nested deeper, which no text could hold.
MAX_DEPTH = 200


class StoreError(Exception):
    """Base class for frame store contract violations."""


class ForeignHandleError(StoreError):
    """A handle issued by a different store was passed in."""


class DanglingHandleError(StoreError):
    """A handle does not resolve to a live object in this store."""


class DuplicateIdError(StoreError):
    """A symbol is already bound as the id of a different frame."""


class Handle(NamedTuple):
    """Store-scoped reference to one frame or interned symbol."""

    kind: str
    index: int
    store_uid: int

    def is_frame(self) -> bool:
        return self.kind == FRAME

    def is_symbol(self) -> bool:
        return self.kind == SYMBOL

    def __repr__(self) -> str:
        return f"Handle({self.kind} {self.index}@{self.store_uid})"


# A slot value: nil, a literal, an array of values, or a handle.
Value = Union[None, int, float, str, list, Handle]


class Slot(NamedTuple):
    role: Handle
    value: Value


class Store:
    """Allocation arena for frames plus an interned symbol table.

    Frames live until the store is dropped; there is no per-frame
    garbage collection.  Symbol names are unique and interning is
    idempotent.  The roles ``id``, ``isa`` and ``is`` are pre-interned
    at fixed well-known handles.
    """

    _uids = itertools.count(1)

    def __init__(self) -> None:
        self._uid = next(Store._uids)
        # A frame's slots: a list while it gains slots (appends stay
        # cheap on large frames), a tuple once read.
        self._frames: list[Union[list[Slot], tuple[Slot, ...]]] = []
        self._symbol_names: list[str] = []
        self._symbols: dict[str, Handle] = {}
        self._bindings: dict[int, Handle] = {}  # symbol index -> named frame
        self.id = self.intern("id")
        self.isa = self.intern("isa")
        self.is_ = self.intern("is")

    # -- basic queries ---------------------------------------------------

    @property
    def uid(self) -> int:
        return self._uid

    def num_frames(self) -> int:
        return len(self._frames)

    def frames(self) -> Iterable[Handle]:
        """All frame handles in allocation order."""
        for i in range(len(self._frames)):
            yield Handle(FRAME, i, self._uid)

    # -- symbols ---------------------------------------------------------

    def intern(self, name: str) -> Handle:
        """Return the symbol handle for `name`, creating it if needed."""
        if name in self._symbols:
            return self._symbols[name]
        if not name:
            raise ValueError("symbol name must be non-empty")
        handle = Handle(SYMBOL, len(self._symbol_names), self._uid)
        self._symbol_names.append(name)
        self._symbols[name] = handle
        return handle

    def symbol_name(self, handle: Handle) -> str:
        if not (handle.__class__ is Handle and handle.store_uid == self._uid and
                handle.kind == SYMBOL and 0 <= handle.index < len(self._symbol_names)):
            self._check_handle(handle, SYMBOL)
        return self._symbol_names[handle.index]

    def binding(self, symbol: Handle) -> Optional[Handle]:
        """Frame bound to `symbol` as its id, else None."""
        self._check_handle(symbol, SYMBOL)
        return self._bindings.get(symbol.index)

    def resolve(self, name: str) -> Optional[Handle]:
        """Frame named `name` if one exists, else the symbol, else None."""
        sym = self._symbols.get(name)
        if sym is None:
            return None
        return self._bindings.get(sym.index, sym)

    # -- frames ----------------------------------------------------------

    def new_frame(self, slots: Iterable[tuple[Handle, Value]] = ()) -> Handle:
        """Allocate a frame with the given (role, value) slots.

        An ``id`` slot with a symbol value registers this frame under
        that name; re-binding a name already attached to another frame
        is a DuplicateIdError.
        """
        pending = [Slot(role, value) for role, value in slots]
        for slot in pending:
            self._check_handle(slot.role)
            self._check_value(slot.value)
        ids = [slot.value for slot in pending
               if slot.role.index == ID_INDEX and slot.role.kind == SYMBOL
               and isinstance(slot.value, Handle) and slot.value.is_symbol()]
        handle = Handle(FRAME, len(self._frames), self._uid)
        # Check every binding first, so a clash allocates nothing.
        for symbol in ids:
            self._check_unbound(symbol, handle)
        self._frames.append(pending)
        for symbol in ids:
            self._bindings[symbol.index] = handle
        return handle

    def add_slot(self, frame: Handle, role: Handle, value: Value) -> None:
        """Append one slot to a frame; duplicates are permitted."""
        self._check_handle(frame, FRAME)
        self._check_handle(role)
        self._check_value(value)
        if role.index == ID_INDEX and role.kind == SYMBOL:
            if isinstance(value, Handle) and value.is_symbol():
                self._check_unbound(value, frame)
                self._bindings[value.index] = frame
        slots = self._frames[frame.index]
        if slots.__class__ is tuple:  # read since its last append
            slots = self._frames[frame.index] = list(slots)
        slots.append(Slot(role, value))

    def slots(self, frame: Handle) -> tuple[Slot, ...]:
        """The frame's slots in order: the store's own tuple, the same
        object on every read until the frame gains a slot."""
        if not (frame.__class__ is Handle and frame.store_uid == self._uid and
                frame.kind == FRAME and 0 <= frame.index < len(self._frames)):
            self._check_handle(frame, FRAME)
        slots = self._frames[frame.index]
        if slots.__class__ is list:
            slots = self._frames[frame.index] = tuple(slots)
        return slots

    def get_role(self, frame: Handle, role: Handle) -> Value:
        """Value of the first slot with this role, or None if absent."""
        slots = self.slots(frame)
        if not (role.__class__ is Handle and role.store_uid == self._uid and
                role.kind == SYMBOL and 0 <= role.index < len(self._symbol_names)):
            self._check_handle(role)
        for slot_role, value in slots:
            if slot_role == role:
                return value
        return None

    def frame_type(self, frame: Handle) -> Optional[Handle]:
        """First ``isa`` value of the frame, if it is a handle."""
        value = self.get_role(frame, self.isa)
        return value if isinstance(value, Handle) else None

    def frame_id_name(self, frame: Handle) -> Optional[str]:
        """Name bound to this frame through its first ``id`` slot."""
        value = self.get_role(frame, self.id)
        if isinstance(value, Handle) and value.is_symbol():
            if self._bindings.get(value.index) == frame:
                return self._symbol_names[value.index]
        return None

    # -- internals -------------------------------------------------------

    def _check_unbound(self, symbol: Handle, frame: Handle) -> None:
        existing = self._bindings.get(symbol.index)
        if existing is not None and existing != frame:
            name = self._symbol_names[symbol.index]
            raise DuplicateIdError(f"symbol {name!r} already names another frame")

    def _check_handle(self, handle: Handle, kind: Optional[str] = None) -> None:
        """Raise unless `handle` is live here and of `kind`; the readers
        test the passing case inline and call this when that test fails."""
        if not isinstance(handle, Handle):
            raise TypeError(f"expected Handle, got {type(handle).__name__}")
        if handle.store_uid != self._uid:
            raise ForeignHandleError("handle belongs to a different store")
        limit = (len(self._frames) if handle.kind == FRAME
                 else len(self._symbol_names) if handle.kind == SYMBOL else 0)
        if not 0 <= handle.index < limit:
            raise DanglingHandleError(f"handle {handle!r} does not resolve")
        if kind is not None and handle.kind != kind:
            raise DanglingHandleError(f"expected a {kind} handle, got {handle!r}")

    def _check_value(self, value: Value) -> None:
        if isinstance(value, bool):
            raise TypeError("boolean slot values are not supported")
        if value is None or isinstance(value, (int, float, str)):
            return
        if isinstance(value, Handle):
            self._check_handle(value)
            return
        if isinstance(value, list):
            self._check_list(value)
            return
        raise TypeError(f"unsupported slot value type: {type(value).__name__}")

    def _check_list(self, value: list) -> None:
        """Check a list's items in order, depth first, without recursion;
        a list nested deeper than `MAX_DEPTH` levels is refused."""
        stack = [iter(value)]
        while stack:
            for item in stack[-1]:
                if isinstance(item, list):
                    if len(stack) == MAX_DEPTH:
                        raise StoreError(f"a list nested deeper than {MAX_DEPTH} levels "
                                         "has no notation")
                    stack.append(iter(item))
                    break
                self._check_value(item)
            else:
                stack.pop()
