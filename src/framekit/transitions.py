"""Transition system: parser state with an attention buffer plus the
eight actions that build frame graphs as a side effect.

The attention buffer is an ordered list of every frame created so far;
index 0 is the center of attention.  Each action that creates or
touches a frame moves it to the front.  The buffer itself is unbounded;
only feature extraction truncates it.

An action's text is its kind, then the fields `ARGUMENTS` lists for it,
in order: ``CONNECT(source, role, target)``.  Indices and lengths print
as integers.  A type or role prints as a notation role does
(`notation.name_text`): bare if it reads back bare, else as a JSON
string, ``CONNECT(0, "arg0, agent", 1)``, and not at all without a UTF-8
form.  An ASSIGN value prints as a JSON string, a number, or a bare
`SymbolName`; strings and numbers follow the printer's rule
(`notation.quoted`, `notation.number_text`).  `parse_action` reads
with one pattern per kind, built from the same table; it also reads
the bare names outside the rule, such as ``a b``, that older
checkpoints hold.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import Optional, Union

from .document import Document, Mention, Token, type_name
from .notation import name_text, number_text, quoted
from .store import Handle, Store

SHIFT = "SHIFT"
STOP = "STOP"
EVOKE = "EVOKE"
REFER = "REFER"
CONNECT = "CONNECT"
ASSIGN = "ASSIGN"
EMBED = "EMBED"
ELABORATE = "ELABORATE"

# Each kind's argument fields, in the order its text writes them.
ARGUMENTS = {
    SHIFT: (),
    STOP: (),
    EVOKE: ("type", "length"),
    REFER: ("target", "length"),
    CONNECT: ("source", "role", "target"),
    ASSIGN: ("source", "role", "value"),
    EMBED: ("target", "role", "type"),
    ELABORATE: ("source", "role", "type"),
}
ACTION_KINDS = tuple(ARGUMENTS)


class SymbolName(str):
    """Marks an ASSIGN constant as a bare symbol rather than a string."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SymbolName({str.__repr__(self)})"


Constant = Union[int, float, str, SymbolName]


class InvalidActionError(Exception):
    """An action was applied in a state where it is not valid."""


@dataclass(frozen=True)
class Action:
    """One transition, with symbol arguments held by name so actions are
    meaningful independent of any particular store."""

    kind: str
    type: Optional[str] = None      # EVOKE/EMBED/ELABORATE frame type
    length: Optional[int] = None    # EVOKE/REFER token count
    source: Optional[int] = None    # CONNECT/ASSIGN/ELABORATE buffer index
    target: Optional[int] = None    # CONNECT/EMBED/REFER buffer index
    role: Optional[str] = None
    value: Optional[Constant] = None

    @staticmethod
    def shift() -> "Action":
        return Action(SHIFT)

    @staticmethod
    def stop() -> "Action":
        return Action(STOP)

    @staticmethod
    def evoke(type_name: str, length: int) -> "Action":
        return Action(EVOKE, type=type_name, length=length)

    @staticmethod
    def refer(frame: int, length: int) -> "Action":
        return Action(REFER, target=frame, length=length)

    @staticmethod
    def connect(source: int, role: str, target: int) -> "Action":
        return Action(CONNECT, source=source, role=role, target=target)

    @staticmethod
    def assign(source: int, role: str, value: Constant) -> "Action":
        return Action(ASSIGN, source=source, role=role, value=value)

    @staticmethod
    def embed(target: int, role: str, type_name: str) -> "Action":
        return Action(EMBED, target=target, role=role, type=type_name)

    @staticmethod
    def elaborate(source: int, role: str, type_name: str) -> "Action":
        return Action(ELABORATE, source=source, role=role, type=type_name)

    def to_text(self) -> str:
        fields = ARGUMENTS[self.kind]
        if not fields:
            return self.kind
        args = ", ".join(_FORMS[name][0](getattr(self, name)) for name in fields)
        return f"{self.kind}({args})"


def _constant_text(value: Constant) -> str:
    if isinstance(value, SymbolName):
        return str(value)
    if isinstance(value, str):
        return quoted(value)
    return number_text(value)


_NUMBER_ARG = re.compile(r"-?\d+(\.\d+)?([eE][+-]?\d+)?$")


def _parse_name(text: str) -> str:
    return json.loads(text) if text.startswith('"') else text


def _parse_constant(text: str) -> Constant:
    if text.startswith('"'):
        return json.loads(text)
    if _NUMBER_ARG.match(text):
        return int(text) if re.fullmatch(r"-?\d+", text) else float(text)
    return SymbolName(text)


# A JSON string, else a bare run of characters that holds no quote or comma.
_WORD = r'"(?:[^"\\]|\\.)*"|[^",]*?'
_INDEX = (str, r"-?\d+", int)
# How each argument field is written, matched and read back.
_FORMS = {"length": _INDEX, "source": _INDEX, "target": _INDEX,
          "type": (name_text, _WORD, _parse_name),
          "role": (name_text, _WORD, _parse_name),
          "value": (_constant_text, _WORD, _parse_constant)}


def _pattern(kind: str, fields: tuple[str, ...]) -> re.Pattern:
    """Matches the text of a `kind` action, one group per field."""
    args = r"\s*,\s*".join(f"({_FORMS[name][1]})" for name in fields)
    return re.compile(rf"{kind}\(\s*{args}\s*\)" if fields else kind)


_PATTERNS = {kind: _pattern(kind, fields) for kind, fields in ARGUMENTS.items()}


def parse_action(text: str) -> Action:
    """Inverse of Action.to_text."""
    text = text.strip()
    kind = text.partition("(")[0]
    match = _PATTERNS[kind].fullmatch(text) if kind in _PATTERNS else None
    if match is None:
        raise ValueError(f"malformed action: {text!r}")
    try:
        return Action(kind, **{name: _FORMS[name][2](arg)
                               for name, arg in zip(ARGUMENTS[kind], match.groups())})
    except ValueError as exc:
        raise ValueError(f"malformed action: {text!r}") from exc


def sequence_to_text(actions: list[Action]) -> str:
    return "\n".join(action.to_text() for action in actions)


def sequence_from_text(text: str) -> list[Action]:
    return [parse_action(line) for line in text.split("\n") if line.strip()]


class ParserState:
    """Mutable parse state: cursor, attention buffer, graph under
    construction, and per-frame step bookkeeping."""

    def __init__(self, text: str, tokens: list[Token]):
        self.store = Store()
        self.text = text
        self.tokens = tokens
        self.cursor = 0
        self.step = 0
        self.done = False
        self.attention: list[Handle] = []
        self.created_step: dict[Handle, int] = {}
        self.focused_step: dict[Handle, int] = {}
        self.mentions: list[Mention] = []
        self.themes: list[Handle] = []  # frames EMBED created
        # Per frame, the (role, frame) slots that CONNECT, EMBED and
        # ELABORATE gave it, in slot order: every slot of the store
        # whose value is a frame.
        self.links: dict[Handle, list[tuple[str, Handle]]] = {}
        self._mention_by_span: dict[tuple[int, int], Mention] = {}
        self.phrases: dict[Handle, tuple[int, int]] = {}  # per frame, its latest evoking span

    # -- queries ---------------------------------------------------------

    @property
    def num_tokens(self) -> int:
        return len(self.tokens)

    def is_valid(self, action: Action) -> bool:
        """Whether `action`, with the fields `ARGUMENTS` lists set, is valid
        now: `source` and `target` address the buffer, a `length` fits the
        tokens left, ASSIGN sets no id, and EVOKE repeats no type in its span's mention."""
        kind = action.kind
        if self.done:
            return kind == STOP
        if kind == SHIFT:
            return self.cursor < self.num_tokens
        if kind == STOP:
            return self.cursor == self.num_tokens
        fields = ARGUMENTS.get(kind)
        if fields is None:
            return False
        size = len(self.attention)
        if "source" in fields and not 0 <= action.source < size:
            return False
        if "target" in fields and not 0 <= action.target < size:
            return False
        if "length" in fields and not 0 < action.length <= self.num_tokens - self.cursor:
            return False
        if kind != EVOKE:
            return kind != ASSIGN or action.role != "id"
        mention = self._mention_by_span.get((self.cursor, action.length))
        return mention is None or all(type_name(self.store, frame) != action.type
                                      for frame in mention.evoked)

    # -- mutation ----------------------------------------------------------

    def apply(self, action: Action) -> "ParserState":
        """Apply a valid action in place; returns self for chaining."""
        if not self.is_valid(action):
            raise InvalidActionError(f"invalid action {action.to_text()} at "
                                     f"cursor={self.cursor} step={self.step}")
        kind = action.kind
        fields = ARGUMENTS[kind]
        source = self.attention[action.source] if "source" in fields else None
        target = self.attention[action.target] if "target" in fields else None
        store = self.store
        if kind == SHIFT:
            self.cursor += 1
        elif kind == STOP:
            self.done = True
        elif kind == REFER:
            self._evoke(target, action.length)
            self._front(target)
        elif kind in (CONNECT, ASSIGN):
            # A slot on the source, which comes to the front.
            value = action.value if target is None else target
            if isinstance(value, SymbolName):
                value = store.intern(str(value))
            store.add_slot(source, store.intern(action.role), value)
            if kind == CONNECT:
                self.links.setdefault(source, []).append((action.role, target))
            self._front(source)
        else:
            # EVOKE, EMBED, ELABORATE: a new frame at the front.
            slots = [(store.isa, store.intern(action.type))]
            if kind == EMBED:
                slots.append((store.intern(action.role), target))
            frame = store.new_frame(slots)
            self.attention.insert(0, frame)
            self.created_step[frame] = self.focused_step[frame] = self.step
            if kind == EVOKE:
                self._evoke(frame, action.length)
            elif kind == EMBED:
                self.themes.append(frame)
                self.links[frame] = [(action.role, target)]
            else:
                store.add_slot(source, store.intern(action.role), frame)
                self.links.setdefault(source, []).append((action.role, frame))
        self.step += 1
        return self

    def _evoke(self, frame: Handle, length: int) -> None:
        span = (self.cursor, length)
        mention = self._mention_by_span.get(span)
        if mention is None:
            mention = Mention(self.cursor, length, [])
            self.mentions.append(mention)
            self._mention_by_span[span] = mention
        if frame not in mention.evoked:
            mention.evoked.append(frame)
        self.phrases[frame] = span
        self.focused_step[frame] = self.step

    def _front(self, frame: Handle) -> None:
        self.attention.remove(frame)
        self.attention.insert(0, frame)
        self.focused_step[frame] = self.step

    # -- output ------------------------------------------------------------

    def to_document(self) -> Document:
        """Snapshot the constructed annotations as a Document."""
        doc = Document(self.text, list(self.tokens),
                       [Mention(m.begin, m.length, list(m.evoked)) for m in self.mentions],
                       self.store, list(self.themes))
        doc.sort_mentions()
        return doc


def run_sequence(text: str, tokens: list[Token], actions: list[Action]) -> ParserState:
    """Replay a full action sequence from a fresh state."""
    state = ParserState(text, tokens)
    for action in actions:
        state.apply(action)
    return state
