"""Oracle: converts annotated documents into canonical transition
sequences and checks that replaying them rebuilds the document, scoring
the replay against it with the evaluator.

Canonical order, per token position left to right: evoke (or refer to)
each mention beginning there, longer spans first; immediately after each
evocation emit every link whose endpoints are now both evoked, ordered
by (source first-evocation order, slot order), then the fronted frame's
constant slots, then creations for its non-evoked neighbors; then shift.
One stop closes the sequence.  Buffer indices are computed against a
simulated attention buffer at emission time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .document import (Document, frame_graph, incoming_links, semantic_slots,
                       type_name)
from .evaluation import evaluate
from .notation import is_bare_name
from .store import Handle, Store
from .transitions import (ACTION_KINDS, Action, InvalidActionError, ParserState,
                          SymbolName, run_sequence)


class UnrepresentableDocumentError(Exception):
    """The document's frame graph cannot be expressed by the transition
    system (for example a frame that is neither evoked nor attached to
    an evoked frame by exactly one role, or a span evoking two frames of
    one type)."""


def _constant_of(store: Store, value) -> object:
    """The ASSIGN constant for a slot value that the notation can write."""
    if isinstance(value, Handle) and value.is_symbol():
        name = store.symbol_name(value)
        if is_bare_name(name):
            return SymbolName(name)
        raise UnrepresentableDocumentError(f"symbol value {name!r} has no notation")
    if isinstance(value, float) and not math.isfinite(value):
        raise UnrepresentableDocumentError(f"slot value {value!r} has no notation")
    if isinstance(value, (int, float, str)) and not isinstance(value, bool):
        return value
    raise UnrepresentableDocumentError(
        f"slot value {value!r} cannot be expressed as an action constant")


class _Generator:
    def __init__(self, doc: Document):
        self.doc = doc
        self.store = doc.store
        self.frames = frame_graph(doc)
        self.evoked: set[Handle] = set()
        for mention in doc.mentions:
            self.evoked.update(mention.evoked)
        self.state = ParserState(doc.text, doc.tokens)
        self.replay_of: dict[Handle, Handle] = {}
        self.evocation_order: dict[Handle, int] = {}
        self.connected_slots: set[tuple[Handle, int]] = set()
        self.actions: list[Action] = []
        self.incoming = incoming_links(self.store, self.frames)

    def run(self) -> list[Action]:
        self._validate()
        by_begin: dict[int, list] = {}
        for mention in self.doc.mentions:  # already (begin, -length) sorted
            by_begin.setdefault(mention.begin, []).append(mention)
        for i in range(len(self.doc.tokens)):
            for mention in by_begin.get(i, ()):
                for frame in mention.evoked:
                    self._evoke(frame, mention.length)
            self._emit(Action.shift())
        self._emit(Action.stop())
        return self.actions

    def _validate(self) -> None:
        for frame in self.frames:
            slots = self.store.slots(frame)
            for slot in slots:
                if not slot.role.is_symbol():
                    raise UnrepresentableDocumentError("slot role is not a symbol")
            if type_name(self.store, frame) is None:
                raise UnrepresentableDocumentError("frame has no symbol-valued isa slot")
            if frame in self.evoked:
                continue
            # A non-evoked frame must hang off the evoked graph by
            # exactly one role, in either direction.
            edges = 0
            for slot in slots:
                if isinstance(slot.value, Handle) and slot.value.is_frame():
                    edges += 1
                    if slot.value not in self.evoked:
                        raise UnrepresentableDocumentError(
                            "non-evoked frame links to another non-evoked frame")
            for source, _, _ in self.incoming.get(frame, ()):
                edges += 1
                if source not in self.evoked:
                    raise UnrepresentableDocumentError(
                        "non-evoked frame reached only through non-evoked frames")
            if edges != 1:
                raise UnrepresentableDocumentError(
                    f"non-evoked frame has {edges} connecting roles, expected 1")

    def _emit(self, action: Action) -> None:
        try:
            self.state.apply(action)
        except InvalidActionError as exc:
            # For example a span evoking two frames of one type, the
            # second first evoked there: EVOKE would repeat the type.
            raise UnrepresentableDocumentError(str(exc)) from None
        self.actions.append(action)

    def _index(self, gold_frame: Handle) -> int:
        return self.state.attention.index(self.replay_of[gold_frame])

    def _evoke(self, frame: Handle, length: int) -> None:
        store = self.store
        if frame not in self.replay_of:
            self._emit(Action.evoke(type_name(store, frame), length))
            self.replay_of[frame] = self.state.attention[0]
            self.evocation_order[frame] = len(self.evocation_order)
            first = True
        else:
            self._emit(Action.refer(self._index(frame), length))
            first = False
        self._emit_connects()
        if first:
            self._emit_assigns(frame)
            self._emit_creations(frame)

    def _emit_connects(self) -> None:
        pending = []
        for frame, order in sorted(self.evocation_order.items(), key=lambda kv: kv[1]):
            for i, slot in enumerate(self.store.slots(frame)):
                if (frame, i) in self.connected_slots:
                    continue
                value = slot.value
                if isinstance(value, Handle) and value.is_frame() \
                        and value in self.replay_of and value in self.evoked:
                    pending.append((order, i, frame, slot.role, value))
        for _, i, frame, role, value in sorted(pending, key=lambda p: (p[0], p[1])):
            self.connected_slots.add((frame, i))
            self._emit(Action.connect(self._index(frame),
                                      self.store.symbol_name(role),
                                      self._index(value)))

    def _emit_assigns(self, frame: Handle) -> None:
        for _, role, value in semantic_slots(self.store, frame):
            if isinstance(value, Handle) and value.is_frame():
                continue  # link slot, handled by connect/creation emission
            self._emit(Action.assign(self._index(frame), role,
                                     _constant_of(self.store, value)))

    def _emit_creations(self, frame: Handle) -> None:
        """EMBED/ELABORATE the non-evoked neighbors of a just-evoked frame."""
        store = self.store
        for slot in store.slots(frame):
            value = slot.value
            if not (isinstance(value, Handle) and value.is_frame()):
                continue
            if value in self.evoked or value in self.replay_of:
                continue
            self._emit(Action.elaborate(self._index(frame),
                                        store.symbol_name(slot.role),
                                        type_name(store, value)))
            self.replay_of[value] = self.state.attention[0]
            self._emit_assigns(value)
        for source, _, role in self.incoming.get(frame, ()):
            if source in self.evoked or source in self.replay_of:
                continue
            self._emit(Action.embed(self._index(frame), role, type_name(store, source)))
            self.replay_of[source] = self.state.attention[0]
            self._emit_assigns(source)


def generate(doc: Document) -> list[Action]:
    """Canonical transition sequence reconstructing `doc`'s annotations."""
    return _Generator(doc).run()


def replay(doc: Document, sequence: list[Action]) -> Document:
    """Apply a sequence over the document's tokens in a fresh store."""
    state = run_sequence(doc.text, doc.tokens, sequence)
    return state.to_document()


def roundtrip_check(doc: Document) -> bool:
    """True iff replaying the generated sequence reproduces the document:
    scored against it by `evaluation.evaluate`, every span, frame, type,
    role and label is matched on both sides."""
    report = evaluate(doc, replay(doc, generate(doc)))
    return all(counts.matched_pred == counts.total_pred
               and counts.matched_gold == counts.total_gold
               for counts in (report.span, report.frame, report.type,
                              report.role, report.label))


@dataclass
class ActionStats:
    """Raw and unique-argument counts per action kind."""

    raw: dict[str, int]
    unique: dict[str, set[str]]

    def rows(self) -> list[tuple[str, int, int]]:
        return [(kind, len(self.unique.get(kind, ())), self.raw.get(kind, 0))
                for kind in ACTION_KINDS]

    @property
    def total_raw(self) -> int:
        return sum(self.raw.values())

    @property
    def total_unique(self) -> int:
        return sum(len(v) for v in self.unique.values())

    def format_table(self) -> str:
        lines = [f"{'Action Type':<12} {'# Unique Args':>14} {'Raw Count':>12}"]
        for kind, uniq, raw in self.rows():
            lines.append(f"{kind:<12} {uniq:>14,} {raw:>12,}")
        lines.append(f"{'Total':<12} {self.total_unique:>14,} {self.total_raw:>12,}")
        return "\n".join(lines)


def action_stats(sequences: list[list[Action]]) -> ActionStats:
    """Tally action sequences, such as the oracle's for a corpus."""
    raw: dict[str, int] = {}
    unique: dict[str, set[str]] = {}
    for sequence in sequences:
        for action in sequence:
            raw[action.kind] = raw.get(action.kind, 0) + 1
            unique.setdefault(action.kind, set()).add(action.to_text())
    return ActionStats(raw, unique)
