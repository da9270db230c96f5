"""Reader and printer for the frame text notation.

The notation is a superset of JSON.  Objects in braces are frames whose
slots are written ``role: value``; commas are treated as whitespace.
``=#n`` attaches a file-scoped numeric label to a frame and ``=name``
(long form ``id: name``) gives it a named id; ``#n`` or ``name``
elsewhere refers to the labeled frame, forward references included.
``:x`` is shorthand for an ``isa`` slot and ``+x`` for an ``is`` slot.
Arrays, strings, integers and floats are supported; ``nil``/``null``
denote the nil value.  Symbols in role position always stay symbols; in
value position a name resolves to the frame it ids, if any, else to the
symbol.

The reader takes one `_TOKEN` match at a time: blanks and commas, then
a symbol (`_SYMBOL`), number, ``#n``, opening quote, one of ``{}[]=:+``,
end of input, or any other character, which is always an error.
Strings are JSON strings decoded by `json.decoder.scanstring`: a
``\\u`` surrogate pair is one character, a lone surrogate is an error,
and raw control characters are allowed.  A number too large for a float
is an error.  The parser records one entry per frame, in the order of
the opening braces: its labels, names and slots.  Only a text that
parses is allocated, one frame per entry; then labels and names bind
frame by frame (the first binding wins), and then the slots are added.
The reader never raises on malformed input: it returns a ParseResult
whose diagnostics carry (byte offset, message) pairs, sorted by offset.

The printer is deterministic and labels a frame if and only if it is
referenced at least twice (or cyclically) or carries a named id.  A
name is bare if `_SYMBOL` matches it and it is not ``nil`` or ``null``
(`is_bare_name`); roles that are not bare print as JSON string keys
(`name_text`, which action texts share).  Symbol values and ids have no
quoted form, so the printer refuses one that is not bare, a string or
name with no UTF-8 form, an int past the interpreter's digit limit, a
float that is not finite, and nesting deeper than the reader accepts,
with `UnprintableValueError`.  So the output re-parses to an isomorphic graph.
`print_notation` prints store roots; `document.print_document` prints a
document's schema frame through the same `Printer`.
"""
from __future__ import annotations

import json
import math
import re
import sys
from dataclasses import dataclass, field
from json.decoder import JSONDecodeError, scanstring
from typing import Optional, Union

from .store import FRAME, MAX_DEPTH, Handle, Store, StoreError, Value

_SYMBOL = re.compile(r"[A-Za-z_/][A-Za-z0-9_/.\-]*")
_KEYWORDS = ("nil", "null")
# One token after blanks; the group that matched names its kind.
_TOKEN = re.compile(r"""[ \t\r\n,]*(?:
    (?P<symbol>%s)
  | (?P<number>-?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)
  | (?P<ref>\#\d*)
  | (?P<string>")
  | (?P<mark>[{}\[\]=:+])
  | (?P<end>\Z)
  | (?P<other>.))""" % _SYMBOL.pattern, re.VERBOSE | re.DOTALL)
# In a decoded string's source: a surrogate pair escape, a lone
# surrogate escape (group 1), any other escape, or a raw surrogate
# (group 2).
_SURROGATE = re.compile(r"\\ud[89ab]..\\ud[c-f]|\\(u)d[89a-f]|\\.|([\ud800-\udfff])",
                        re.IGNORECASE | re.DOTALL)
_HEX4 = re.compile(r"[0-9a-fA-F]{4}")
_NO_UTF8 = re.compile("[\ud800-\udfff]")  # a surrogate code point


def is_bare_name(name: str) -> bool:
    """Whether `name` reads back as the symbol it names when written
    bare; any other name needs a quoted form."""
    return name not in _KEYWORDS and _SYMBOL.fullmatch(name) is not None


class UnprintableValueError(StoreError):
    """A value the notation has no text for."""


def quoted(text: str) -> str:
    """`text` as a JSON string; refused if it has no UTF-8 form."""
    if not text.isascii() and _NO_UTF8.search(text):
        raise UnprintableValueError(f"string {text!r} has no UTF-8 form")
    return json.dumps(text, ensure_ascii=False)


def number_text(value: Union[int, float]) -> str:
    """An int or float as the notation writes it; refused if it is not
    finite or past the interpreter's digit limit."""
    if isinstance(value, float) and not math.isfinite(value):
        raise UnprintableValueError(f"float value {value!r} has no notation")
    try:
        return repr(value)
    except ValueError:  # an int past the interpreter's digit limit
        raise UnprintableValueError("int past the digit limit has no notation") from None


def name_text(name: str) -> str:
    """A name bare where it reads back bare, else quoted."""
    return name if is_bare_name(name) else quoted(name)


class NotationError(Exception):
    """Raised by the raising wrappers around the diagnostic-based reader."""

    def __init__(self, diagnostics: list[tuple[int, str]]):
        self.diagnostics = diagnostics
        head = "; ".join(f"@{off}: {msg}" for off, msg in diagnostics[:3])
        super().__init__(head or "notation error")


@dataclass
class ParseResult:
    """Top-level frames in input order plus reader diagnostics."""

    top: list[Handle] = field(default_factory=list)
    diagnostics: list[tuple[int, str]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.diagnostics


# --------------------------------------------------------------------------
# Reader
# --------------------------------------------------------------------------

# The parser's record.  Literal values stand for themselves (None, int,
# float, str) and an array is a list; these placeholders stand for what
# resolves only once every frame is allocated.  A slot's role is the
# name of a symbol (a JSON-style string key too), a `_Ref` or a `_Frame`.


@dataclass(slots=True)
class _Sym:
    name: str
    offset: int


@dataclass(slots=True)
class _Ref:
    label: int
    offset: int


@dataclass(slots=True)
class _Frame:
    index: int  # of the frame's entry in `_Parser.frames`


# ``:x`` and ``+x`` are slots with these roles.
_SHORTHAND = {":": "isa", "+": "is"}


class _SyntaxError(Exception):
    """Carries the (offset, message) of the first syntax error."""


class _Parser:
    """Recursive descent over tokens, each one `_TOKEN` match, recording
    in `frames`, in the order of the opening braces, each frame's labels
    and names (with the offset of their ``=`` or role) and its slots."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.frames: list[tuple[list[tuple[int, int]], list[tuple[str, int]], list]] = []

    def token(self) -> tuple[str, int, str]:
        """Read the next token: its kind, offset and text."""
        match = _TOKEN.match(self.text, self.pos)
        self.pos = match.end()
        kind = match.lastgroup
        return kind, match.start(kind), match[kind]

    def parse_top(self) -> list:
        tops = []
        while (token := self.token())[0] != "end":
            tops.append(self.parse_value(0, token))
        return tops

    def parse_value(self, depth: int, token: Optional[tuple] = None):
        """Parse the value that starts with `token`, else with the next one."""
        if depth > MAX_DEPTH:
            raise _SyntaxError(self.pos if token is None else token[1], "nesting too deep")
        kind, start, text = token or self.token()
        if kind == "symbol":
            return None if text in _KEYWORDS else _Sym(text, start)
        if kind == "string":
            return self.parse_string(start)
        if kind == "number":
            return _number(start, text)
        if kind == "ref":
            return _ref(start, text)
        if text == "{":
            return self.parse_frame(depth, start)
        if text == "[":
            return self.parse_array(depth, start)
        if kind == "end":
            raise _SyntaxError(start, "unexpected end of input")
        if text == "-" or text.isdigit():
            raise _SyntaxError(start, "malformed number")
        raise _SyntaxError(start, f"unexpected character {text!r}")

    def parse_frame(self, depth: int, start: int) -> _Frame:
        frame = _Frame(len(self.frames))
        labels, names, slots = entry = [], [], []
        self.frames.append(entry)
        while True:
            token = kind, off, text = self.token()
            if kind == "end":
                raise _SyntaxError(start, "unterminated frame")
            if text == "}":
                return frame
            if text == "=":
                kind, label_start, label = self.token()
                if kind == "ref":
                    labels.append((_ref(label_start, label).label, off))
                elif kind == "symbol" and label not in _KEYWORDS:
                    names.append((label, off))
                else:
                    raise _SyntaxError(off, "expected label after '='")
            elif text in _SHORTHAND:
                slots.append((_SHORTHAND[text], self.parse_value(depth + 1)))
            else:
                role = self.parse_value(depth + 1, token)
                if isinstance(role, _Sym):
                    role = role.name
                if not (role and isinstance(role, (str, _Ref, _Frame))):
                    raise _SyntaxError(off, "slot role must be a symbol or frame")
                _, colon, text = self.token()
                if text != ":":
                    raise _SyntaxError(colon, "expected ':' after slot role")
                value = self.parse_value(depth + 1)
                if role == "id" and isinstance(value, _Sym):
                    names.append((value.name, off))  # the long form of =name
                else:
                    slots.append((role, value))

    def parse_array(self, depth: int, start: int) -> list:
        items = []
        while (token := self.token())[2] != "]":
            if token[0] == "end":
                raise _SyntaxError(start, "unterminated array")
            items.append(self.parse_value(depth + 1, token))
        return items

    def parse_string(self, quote: int) -> str:
        """Decode the JSON string whose opening quote is at `quote`."""
        text = self.text
        try:
            value, self.pos = scanstring(text, quote + 1, False)
        except JSONDecodeError as exc:
            if exc.msg.startswith("Invalid \\escape"):
                raise _SyntaxError(exc.pos + 1, f"invalid string escape \\{text[exc.pos + 1]}")
            # The scanner says the same of a whole \uXXXX that ends the text.
            if exc.msg.startswith("Invalid \\u") and not _HEX4.fullmatch(text, exc.pos + 1):
                raise _SyntaxError(exc.pos, "invalid \\u escape")
            dangling = (len(text) - len(text.rstrip("\\"))) % 2
            raise _SyntaxError(quote, "unterminated string escape" if dangling
                               else "unterminated string")
        if not value.isascii():
            for match in _SURROGATE.finditer(text, quote, self.pos):
                if match.lastindex:
                    raise _SyntaxError(match.start(match.lastindex), "lone surrogate in string")
        # One object per distinct string value, across files too: a
        # corpus repeats its token texts, and its documents keep them.
        return sys.intern(value)


def _number(start: int, text: str) -> Union[int, float]:
    try:
        value = int(text)
    except ValueError:  # a float, or past int's digit limit
        value = float(text)
    if abs(value) == math.inf:
        raise _SyntaxError(start, "number out of range")
    return value


def _ref(start: int, text: str) -> _Ref:
    if text == "#":
        raise _SyntaxError(start, "expected digits after '#'")
    return _Ref(_number(start, text[1:]), start)


def _byte_offsets(text: str, diagnostics: list[tuple[int, str]]) -> list[tuple[int, str]]:
    """Sort diagnostics by offset and turn character offsets into UTF-8
    byte offsets in one pass; a lone surrogate counts three bytes."""
    out = []
    prev = nbytes = 0
    for pos, message in sorted(diagnostics, key=lambda diagnostic: diagnostic[0]):
        nbytes += len(text[prev:pos].encode("utf-8", "surrogatepass"))
        prev = pos
        out.append((nbytes, message))
    return out


def _resolve(value, store: Store, handles: list[Handle], labels: dict[int, Handle],
             diagnostics: list[tuple[int, str]]) -> Value:
    """The store value of a parsed value: each placeholder becomes the
    handle it stands for, and a reference that does not resolve nil."""
    cls = value.__class__
    if cls is _Frame:
        return handles[value.index]
    if cls is _Sym:  # a name ids a frame, else it is a symbol
        return store.resolve(value.name) or store.intern(value.name)
    if cls is _Ref:
        handle = labels.get(value.label)
        if handle is None:
            diagnostics.append((value.offset, f"unresolved reference #{value.label}"))
        return handle
    if cls is list:
        return [_resolve(item, store, handles, labels, diagnostics) for item in value]
    return value


def parse_notation(text: str, store: Store) -> ParseResult:
    """Parse notation text into `store`, returning tops and diagnostics;
    malformed input is reported through diagnostics, never by raising."""
    parser = _Parser(text)
    try:
        tops = parser.parse_top()
    except _SyntaxError as exc:
        return ParseResult([], _byte_offsets(text, [exc.args]))
    except RecursionError:
        return ParseResult([], [(0, "nesting too deep")])

    # Only a text that parses allocates; the first binding of a label or name wins.
    handles = [store.new_frame() for _ in parser.frames]
    labels: dict[int, Handle] = {}
    diagnostics: list[tuple[int, str]] = []
    for handle, (frame_labels, names, _) in zip(handles, parser.frames):
        for label, off in frame_labels:
            if label in labels:
                diagnostics.append((off, f"duplicate label #{label}"))
            else:
                labels[label] = handle
        for name, off in names:
            try:
                store.add_slot(handle, store.id, store.intern(name))
            except StoreError as exc:
                diagnostics.append((off, str(exc)))

    for handle, (_, _, slots) in zip(handles, parser.frames):
        for role, value in slots:
            # A role symbol stays a symbol even if it ids a frame.
            role = (store.intern(role) if role.__class__ is str
                    else _resolve(role, store, handles, labels, diagnostics))
            value = _resolve(value, store, handles, labels, diagnostics)
            if role is not None:
                store.add_slot(handle, role, value)

    top = []
    for value in tops:
        if value.__class__ not in (_Frame, _Ref, _Sym):
            diagnostics.append((0, "top-level object must be a frame"))
            continue
        resolved = _resolve(value, store, handles, labels, diagnostics)
        if isinstance(resolved, Handle) and resolved.is_frame():
            top.append(resolved)
        elif value.__class__ is _Sym:
            diagnostics.append((value.offset, f"top-level name {value.name!r} is not a frame"))

    if diagnostics:
        return ParseResult([], _byte_offsets(text, diagnostics))
    return ParseResult(top, [])


def parse_or_raise(text: str, store: Store) -> list[Handle]:
    """Like parse_notation but raises NotationError on any diagnostic."""
    result = parse_notation(text, store)
    if not result.ok:
        raise NotationError(result.diagnostics)
    return result.top


# --------------------------------------------------------------------------
# Printer
# --------------------------------------------------------------------------


class Printer:
    """Prints frames reachable from `roots`, labelling shared ones =#n
    from `first_label` on; `next_number` is the next unused label."""

    def __init__(self, store: Store, roots: list[Value], first_label: int = 1):
        self.store = store
        self.counts: dict[int, int] = {}
        self.names: dict[int, str] = {}
        self.numbers: dict[int, int] = {}
        # Frames used where a bare name would not read back as the frame
        # (as a role, or as the value of an id slot): referenced as #n.
        self.by_number: set[int] = set()
        self.printed: set[int] = set()
        self.role_texts: dict[int, str] = {}  # symbol index -> role as printed
        self.next_number = first_label
        self.count_refs(roots)

    def count_refs(self, roots: list[Handle]) -> None:
        stack = list(reversed(roots))
        while stack:
            value = stack.pop()
            if isinstance(value, list):
                stack.extend(reversed(value))
                continue
            if not isinstance(value, Handle) or not value.is_frame():
                continue
            idx = value.index
            self.counts[idx] = self.counts.get(idx, 0) + 1
            if self.counts[idx] > 1:
                continue
            name = self.store.frame_id_name(value)
            if name is not None:
                self.names[idx] = name
            for role, slot_value in self.store.slots(value):
                if isinstance(role, Handle) and role.is_frame():
                    self.by_number.add(role.index)
                    stack.append(role)
                elif isinstance(slot_value, Handle) and slot_value.is_frame() \
                        and role == self.store.id:
                    self.by_number.add(slot_value.index)
                stack.append(slot_value)

    def emit(self, value: Value, depth: int, by_number: bool = False) -> str:
        """The text of `value`, which the reader meets at nesting `depth`
        (as `_Parser.parse_value` counts it); `by_number` refers to a frame
        printed before by its number even if it has a name."""
        if depth > MAX_DEPTH:
            raise UnprintableValueError(
                f"nesting deeper than {MAX_DEPTH} levels does not read back")
        if value is None:
            return "nil"
        if isinstance(value, (int, float)):
            return number_text(value)
        if isinstance(value, str):
            return quoted(value)
        if isinstance(value, list):
            return "[" + " ".join(self.emit(item, depth + 1) for item in value) + "]"
        if value.is_symbol():
            if self.store.binding(value) is not None:
                raise UnprintableValueError(
                    f"symbol {self.store.symbol_name(value)!r} names a frame; "
                    "as a value it would read back as that frame")
            return self.symbol_text(value)
        return self.emit_frame(value, depth, by_number)

    def symbol_text(self, symbol: Handle) -> str:
        name = self.store.symbol_name(symbol)
        if not is_bare_name(name):
            raise UnprintableValueError(f"symbol {name!r} has no notation as a value")
        return name

    def emit_frame(self, frame: Handle, depth: int, by_number: bool) -> str:
        idx = frame.index
        name = self.names.get(idx)
        if idx in self.printed:
            return f"#{self.numbers[idx]}" if by_number or name is None else name
        self.printed.add(idx)
        pieces = []
        if self.counts[idx] >= 2 and (name is None or idx in self.by_number):
            self.numbers[idx] = self.next_number
            self.next_number += 1
            pieces.append(f"=#{self.numbers[idx]}")
        for role, value in self.store.slots(frame):
            if role == self.store.id and isinstance(value, Handle):
                # A symbol id binds this frame; a frame id is referenced by number.
                pieces.append("=" + self.symbol_text(value) if value.is_symbol()
                              else "id: " + self.emit(value, depth + 1, by_number=True))
            elif role == self.store.isa:
                pieces.append(":" + self.emit(value, depth + 1))
            elif role == self.store.is_:
                pieces.append("+" + self.emit(value, depth + 1))
            else:
                if isinstance(role, Handle) and role.is_frame():
                    role_text = self.emit(role, depth + 1, by_number=True)
                elif role.index in self.role_texts:
                    role_text = self.role_texts[role.index]
                else:
                    role_text = name_text(self.store.symbol_name(role))
                    self.role_texts[role.index] = role_text
                pieces.append(role_text + ": " + self.emit(value, depth + 1))
        return "{" + " ".join(pieces) + "}"


def print_notation(roots: list[Handle], store: Store) -> str:
    """Print frames deterministically; shared frames get =#n labels."""
    for root in roots:
        if not isinstance(root, Handle) or root.kind != FRAME:
            raise StoreError(f"root {root!r} is not a frame handle")
        store.slots(root)  # validates ownership and liveness
    printer = Printer(store, roots)
    return "\n".join(printer.emit(root, 0) for root in roots)
