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

The oracle reads the table `document.frame_graph` builds, which also
covers the evoked frames of a schema type: validation, EVOKE types,
ASSIGN constants and EMBED/ELABORATE creations read it, so a non-evoked
frame is counted, and created, through the links the evaluator scores.
CONNECT still rescans the evoked frames' store slots (ROADMAP item 6),
but emits only the links the table holds: none through ``id`` and none
of a frame of a schema type.
"""

from __future__ import annotations

import math
from collections import Counter

from .document import STRUCTURAL_TYPES, Document, frame_graph
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
        self.evoked = {frame for mention in doc.mentions for frame in mention.evoked}
        self.graph = frame_graph(doc)
        self.state = ParserState(doc.text, doc.tokens)
        self.replay_of: dict[Handle, Handle] = {}
        self.evocation_order: dict[Handle, int] = {}
        self.connected_slots: set[tuple[Handle, int]] = set()
        self.actions: list[Action] = []

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
        graph = self.graph
        for frame in graph.types:  # the graph and the evoked frames of a schema type
            if not all(slot.role.is_symbol() for slot in self.store.slots(frame)):
                raise UnrepresentableDocumentError("slot role is not a symbol")
            if graph.types[frame] is None:
                raise UnrepresentableDocumentError("frame has no symbol-valued isa slot")
            if frame in self.evoked:
                continue
            # A non-evoked frame must hang off the evoked graph by
            # exactly one role, in either direction: the link that
            # creates it.
            links, incoming = graph.links[frame], graph.incoming.get(frame, [])
            if any(target not in self.evoked for _, target in links):
                raise UnrepresentableDocumentError(
                    "non-evoked frame links to another non-evoked frame")
            if any(source not in self.evoked for _, source in incoming):
                raise UnrepresentableDocumentError(
                    "non-evoked frame reached only through non-evoked frames")
            edges = len(links) + len(incoming)
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
        if frame not in self.replay_of:
            self._emit(Action.evoke(self.graph.types[frame], length))
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
        types = self.graph.types
        for frame, order in sorted(self.evocation_order.items(), key=lambda kv: kv[1]):
            for i, slot in enumerate(self.store.slots(frame)):
                if (frame, i) in self.connected_slots:
                    continue
                value = slot.value
                if isinstance(value, Handle) and value.is_frame() \
                        and value in self.replay_of and value in self.evoked:
                    self.connected_slots.add((frame, i))
                    # The table holds no link through `id` or of a schema-typed frame.
                    if slot.role != self.store.id and types[frame] not in STRUCTURAL_TYPES \
                            and types[value] not in STRUCTURAL_TYPES:
                        pending.append((order, i, frame, slot.role, value))
        for _, i, frame, role, value in sorted(pending, key=lambda p: (p[0], p[1])):
            self._emit(Action.connect(self._index(frame),
                                      self.store.symbol_name(role),
                                      self._index(value)))

    def _emit_assigns(self, frame: Handle) -> None:
        for role, value in self.graph.constants[frame]:
            self._emit(Action.assign(self._index(frame), role, _constant_of(self.store, value)))

    def _emit_creations(self, frame: Handle) -> None:
        """EMBED/ELABORATE the non-evoked neighbors of a just-evoked frame."""
        graph = self.graph
        for make, links in ((Action.elaborate, graph.links[frame]),
                            (Action.embed, graph.incoming.get(frame, ()))):
            for role, other in links:
                if other in self.evoked or other in self.replay_of:
                    continue
                self._emit(make(self._index(frame), role, graph.types[other]))
                self.replay_of[other] = self.state.attention[0]
                self._emit_assigns(other)


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


def action_table(sequences: list[list[Action]]) -> str:
    """The table of action sequences, such as the oracle's for a corpus:
    per kind, the number of distinct action texts and of actions, then
    the totals."""
    texts = {kind: Counter() for kind in ACTION_KINDS}
    for sequence in sequences:
        for action in sequence:
            texts[action.kind][action.to_text()] += 1
    rows = [(kind, len(counts), counts.total()) for kind, counts in texts.items()]
    rows.append(("Total", sum(row[1] for row in rows), sum(row[2] for row in rows)))
    return "\n".join([f"{'Action Type':<12} {'# Unique Args':>14} {'Raw Count':>12}"]
                     + [f"{kind:<12} {unique:>14,} {raw:>12,}" for kind, unique, raw in rows])
