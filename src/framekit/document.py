"""Typed view over document frames: tokens, mentions, evoked frames.

A document frame follows a fixed schema: an ``isa: /s/document`` type,
a ``/s/document/text`` string, a ``/s/document/tokens`` array of token
frames (text, byte start, byte length), and one ``/s/document/mention``
slot per phrase frame.  Phrase frames carry ``/s/phrase/begin``, an
optional ``/s/phrase/length`` (default 1), and one ``/s/phrase/evokes``
slot per evoked frame.  One ``/s/document/frame`` slot per theme holds
the graph frames that no mention evokes and no outgoing link from an
evoked frame reaches (an embedded frame, which only links into the
graph), so that printing the document frame prints the whole graph.
`doc_from_frame` reads the schema from a store; `print_document` writes
it straight from a `Document`'s fields, so writing allocates no frame.
`frame_graph` is the one walk over a document's semantic slots: the
`FrameGraph` it returns is the table the evaluator scores and the
oracle sequences; only the oracle's CONNECT rescan and symbol-role
check read a document's slots besides it.
"""

from __future__ import annotations

import re
import string
from dataclasses import dataclass, field
from typing import Optional

from .notation import Printer
from .store import Handle, Store, Value

DOCUMENT_TYPE = "/s/document"
DOCUMENT_TEXT = "/s/document/text"
DOCUMENT_TOKENS = "/s/document/tokens"
DOCUMENT_MENTION = "/s/document/mention"
DOCUMENT_FRAME = "/s/document/frame"
TOKEN_TEXT = "/s/token/text"
TOKEN_START = "/s/token/start"
TOKEN_LENGTH = "/s/token/length"
PHRASE_TYPE = "/s/phrase"
PHRASE_BEGIN = "/s/phrase/begin"
PHRASE_LENGTH = "/s/phrase/length"
PHRASE_EVOKES = "/s/phrase/evokes"

# Frame types that belong to the document schema rather than to the
# semantic graph itself.
STRUCTURAL_TYPES = frozenset([DOCUMENT_TYPE, PHRASE_TYPE])

_PUNCT = frozenset(string.punctuation)
# A run of characters that are neither whitespace nor ASCII punctuation,
# or one punctuation character.
_TOKEN = re.compile(r"[^\s%s]+|[%s]" % ((re.escape(string.punctuation),) * 2))


class SchemaError(Exception):
    """A frame does not follow the document schema."""


@dataclass(frozen=True)
class Token:
    """One token: its text plus byte offsets into the document text."""

    text: str
    start: int
    length: int


@dataclass
class Mention:
    """A token span evoking one or more frames."""

    begin: int
    length: int
    evoked: list[Handle]

    @property
    def span(self) -> tuple[int, int]:
        return (self.begin, self.length)


@dataclass
class Document:
    """Token sequence plus mentions over frames living in `store`, and
    the themes: the graph frames that no mention evokes and no link from
    an evoked frame reaches.  A document built through the API must list
    each embedded frame (one that only links into the graph) there."""

    text: str
    tokens: list[Token]
    mentions: list[Mention]
    store: Store
    themes: list[Handle] = field(default_factory=list)

    def sort_mentions(self) -> None:
        """Normalize mention order: by begin, longer spans first."""
        self.mentions.sort(key=lambda m: (m.begin, -m.length))

    def check(self) -> None:
        """Assert the document invariants; raises SchemaError."""
        data = _utf8(self.text)
        pos = 0
        for token in self.tokens:
            if token.start < pos:
                raise SchemaError("tokens overlap or are out of order")
            # Bytes, not decoded text: offsets that split a character
            # are a mismatch, not a UnicodeDecodeError.
            if data[token.start:token.start + token.length] != _utf8(token.text):
                raise SchemaError(f"token text mismatch at byte {token.start}")
            pos = token.start + token.length
        previous = None
        for mention in self.mentions:
            if mention.length < 1 or mention.begin < 0:
                raise SchemaError("mention span out of range")
            if mention.begin + mention.length > len(self.tokens):
                raise SchemaError("mention extends past the last token")
            if not mention.evoked:
                raise SchemaError("mention evokes no frame")
            for frame in mention.evoked:
                self.store.slots(frame)  # resolves, raises otherwise
            key = (mention.begin, -mention.length)
            if previous is not None and key < previous:
                raise SchemaError("mentions are not sorted")
            previous = key
        for frame in self.themes:
            self.store.slots(frame)  # resolves, raises otherwise


def _utf8(text: str) -> bytes:
    try:
        return text.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise SchemaError(f"text has no UTF-8 form: {exc.reason}") from None


def tokenize(text: str) -> list[Token]:
    """Split text on whitespace, with each ASCII punctuation character
    forming its own token; offsets are byte offsets into UTF-8."""
    tokens: list[Token] = []
    byte_pos = char_pos = 0
    for match in _TOKEN.finditer(text):
        byte_pos += len(text[char_pos:match.start()].encode("utf-8"))
        width = len(match.group().encode("utf-8"))
        tokens.append(Token(match.group(), byte_pos, width))
        byte_pos += width
        char_pos = match.end()
    return tokens


def print_document(doc: Document, first_label: int = 1) -> tuple[str, int]:
    """The notation of `doc` as its schema frame, printed from its fields
    without allocating, and the next unused =#n label (labels are
    file-scoped, so a corpus writer threads it across documents)."""
    printer = Printer(doc.store, [f for m in doc.mentions for f in m.evoked] + doc.themes,
                      first_label)
    # Each value at the depth the reader meets it in the document frame.
    emit, intern = printer.emit, doc.store.intern
    pieces = [":" + emit(intern(DOCUMENT_TYPE), 1), f"{DOCUMENT_TEXT}: {emit(doc.text, 1)}"]
    tokens = " ".join(f"{{{TOKEN_TEXT}: {emit(t.text, 3)} {TOKEN_START}: {emit(t.start, 3)} "
                      f"{TOKEN_LENGTH}: {emit(t.length, 3)}}}" for t in doc.tokens)
    pieces.append(f"{DOCUMENT_TOKENS}: [{tokens}]")
    for mention in doc.mentions:
        phrase = [":" + emit(intern(PHRASE_TYPE), 2), f"{PHRASE_BEGIN}: {emit(mention.begin, 2)}"]
        if mention.length != 1:
            phrase.append(f"{PHRASE_LENGTH}: {emit(mention.length, 2)}")
        phrase += [f"{PHRASE_EVOKES}: {emit(frame, 2)}" for frame in mention.evoked]
        pieces.append(f"{DOCUMENT_MENTION}: {{{' '.join(phrase)}}}")
    pieces += [f"{DOCUMENT_FRAME}: {emit(frame, 1)}" for frame in doc.themes]
    return "{" + " ".join(pieces) + "}", printer.next_number


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise SchemaError(message)


def doc_from_frame(handle: Handle, store: Store) -> Document:
    """Read a schema frame back into a Document view."""
    _require(type_name(store, handle) == DOCUMENT_TYPE,
             "frame is not a document (missing isa /s/document)")

    text = store.get_role(handle, store.intern(DOCUMENT_TEXT))
    _require(isinstance(text, str), "missing /s/document/text")

    tokens: list[Token] = []
    token_array = store.get_role(handle, store.intern(DOCUMENT_TOKENS))
    if token_array is None:
        token_array = []
    _require(isinstance(token_array, list), "/s/document/tokens must be an array")
    text_role = store.intern(TOKEN_TEXT)
    start_role = store.intern(TOKEN_START)
    length_role = store.intern(TOKEN_LENGTH)
    for item in token_array:
        _require(isinstance(item, Handle) and item.is_frame(), "malformed token frame")
        token_text = store.get_role(item, text_role)
        start = store.get_role(item, start_role)
        length = store.get_role(item, length_role)
        _require(isinstance(token_text, str) and isinstance(start, int)
                 and isinstance(length, int), "malformed token frame")
        tokens.append(Token(token_text, start, length))

    mentions: list[Mention] = []
    begin_role = store.intern(PHRASE_BEGIN)
    len_role = store.intern(PHRASE_LENGTH)
    evokes_role = store.intern(PHRASE_EVOKES)
    for slot in store.slots(handle):
        if slot.role != store.intern(DOCUMENT_MENTION):
            continue
        phrase = slot.value
        _require(isinstance(phrase, Handle) and phrase.is_frame(), "malformed mention")
        begin = store.get_role(phrase, begin_role)
        _require(isinstance(begin, int), "phrase missing /s/phrase/begin")
        length = store.get_role(phrase, len_role)
        if length is None:
            length = 1
        _require(isinstance(length, int), "bad /s/phrase/length")
        evoked = [s.value for s in store.slots(phrase) if s.role == evokes_role]
        _require(all(isinstance(e, Handle) and e.is_frame() for e in evoked),
                 "phrase evokes a non-frame")
        mentions.append(Mention(begin, length, list(evoked)))

    frame_role = store.intern(DOCUMENT_FRAME)
    themes = [s.value for s in store.slots(handle) if s.role == frame_role]
    _require(all(isinstance(t, Handle) and t.is_frame() for t in themes),
             "/s/document/frame holds a non-frame")
    doc = Document(text, tokens, mentions, store, themes)
    doc.sort_mentions()
    doc.check()
    return doc


@dataclass
class FrameGraph:
    """The table the oracle and the evaluator read a document from, as
    `frame_graph` builds it.  `frames` lists the graph in canonical
    order.  Per frame: its type, its links (role, target), its incoming
    links (role, source) and its constants (role, value), the semantic
    slots whose value is not a frame; these also cover the evoked frames
    of a schema type, which the oracle evokes and assigns to but which
    hold no link and are not in `frames`.  Per span: its graph frames,
    merged across same-span mentions in order without repeats."""

    frames: list[Handle] = field(default_factory=list)
    types: dict[Handle, Optional[str]] = field(default_factory=dict)
    links: dict[Handle, list[tuple[str, Handle]]] = field(default_factory=dict)
    incoming: dict[Handle, list[tuple[str, Handle]]] = field(default_factory=dict)
    constants: dict[Handle, list[tuple[str, Value]]] = field(default_factory=dict)
    spans: dict[tuple[int, int], list[Handle]] = field(default_factory=dict)


def frame_graph(doc: Document) -> FrameGraph:
    """The table of a document's frames, built in one breadth-first walk.

    The walk starts from the evoked frames in mention order, then the
    themes, and follows each link: a slot whose role is a symbol other
    than ``id``, not the frame's first ``isa`` (its type), and whose value
    is a frame, joining two frames that are not of a schema type.  A
    frame that only links into the graph belongs to it only if it is
    listed in `doc.themes`.
    """
    store = doc.store
    graph = FrameGraph()
    types, order = graph.types, []

    def admit(frame: Handle, evoked: bool = False) -> bool:
        """Whether `frame` is a graph frame, entering it on first sight;
        a frame of a schema type enters the table only if evoked."""
        if frame not in types:
            kind = type_name(store, frame)
            if kind in STRUCTURAL_TYPES and not evoked:
                return False
            types[frame] = kind
            order.append(frame)
        return types[frame] not in STRUCTURAL_TYPES

    for mention in doc.mentions:
        spanned = graph.spans.setdefault(mention.span, [])
        for frame in mention.evoked:
            if admit(frame, evoked=True) and frame not in spanned:
                spanned.append(frame)
    for frame in doc.themes:
        admit(frame)

    for frame in order:  # grows as the walk admits frames
        links, constants = graph.links[frame], graph.constants[frame] = [], []
        linked = types[frame] not in STRUCTURAL_TYPES
        typed = False
        for role, value in store.slots(frame):
            if role == store.isa and not typed:
                typed = True
            elif role != store.id and role.is_symbol():
                name = store.symbol_name(role)
                if not (isinstance(value, Handle) and value.is_frame()):
                    constants.append((name, value))
                elif linked and admit(value):
                    links.append((name, value))
                    graph.incoming.setdefault(value, []).append((name, frame))
    graph.frames = [frame for frame in order if types[frame] not in STRUCTURAL_TYPES]
    return graph


def type_name(store: Store, frame: Handle) -> Optional[str]:
    """Name of the frame's type, its first ``isa`` value, if that is a
    symbol."""
    value = store.frame_type(frame)
    return store.symbol_name(value) if value is not None and value.is_symbol() else None
