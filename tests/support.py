"""Shared test utilities: the worked-example document, an exact
backtracking graph-isomorphism oracle, a brute-force metric counter,
seeded random generators for stores, documents, and perturbations, a
checkpoint header editor, and a reference of the decoder's step
features."""

from __future__ import annotations

import json
import math
import random
import string
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from framekit.document import (DOCUMENT_FRAME, DOCUMENT_MENTION, DOCUMENT_TEXT,
                               DOCUMENT_TOKENS, DOCUMENT_TYPE, PHRASE_BEGIN, PHRASE_EVOKES,
                               PHRASE_LENGTH, PHRASE_TYPE, TOKEN_LENGTH, TOKEN_START,
                               TOKEN_TEXT, Document, Mention, frame_graph, tokenize)
from framekit.evaluation import align
from framekit.model.checkpoint import MAGIC
from framekit.model.config import ModelConfig
from framekit.model.lexicon import Lexicon
from framekit.store import Handle, Slot, Store, Value
from framekit.transitions import ParserState

HIT_DOC_TEXT = """{
  :/s/document
  /s/document/text: "John hit the ball"
  /s/document/tokens: [
    {/s/token/text: "John" /s/token/start: 0  /s/token/length: 4},
    {/s/token/text: "hit"  /s/token/start: 5  /s/token/length: 3},
    {/s/token/text: "the"  /s/token/start: 9  /s/token/length: 3},
    {/s/token/text: "ball" /s/token/start: 13 /s/token/length: 4}
  ]
  /s/document/mention: {
    :/s/phrase /s/phrase/begin: 0
    /s/phrase/evokes: {=#1 :/saft/person }
  }
  /s/document/mention: {
    :/s/phrase /s/phrase/begin: 1
    /s/phrase/evokes: {
      :/pb/hit-01
      /pb/arg0: #1
      /pb/arg1: #2
    }
  }
  /s/document/mention: {
    :/s/phrase /s/phrase/begin: 3
    /s/phrase/evokes: {=#2 :/saft/consumer_good }
  }
}
"""

HIT_SEQUENCE = """EVOKE(/saft/person, 1)
SHIFT
EVOKE(/pb/hit-01, 1)
CONNECT(0, /pb/arg0, 1)
SHIFT
SHIFT
EVOKE(/saft/consumer_good, 1)
CONNECT(1, /pb/arg1, 0)
SHIFT
STOP"""


def hit_document() -> Document:
    from framekit.document import doc_from_frame
    from framekit.notation import parse_or_raise
    store = Store()
    top = parse_or_raise(HIT_DOC_TEXT, store)
    return doc_from_frame(top[0], store)


# ---------------------------------------------------------------------------
# Exact graph isomorphism (backtracking); the independent oracle for
# notation round-trips.
# ---------------------------------------------------------------------------


def _reachable(store: Store, roots: list[Handle]) -> list[Handle]:
    seen: list[Handle] = []
    seen_set: set[Handle] = set()
    stack = list(reversed(roots))
    while stack:
        value = stack.pop()
        if isinstance(value, list):
            stack.extend(reversed(value))
            continue
        if not (isinstance(value, Handle) and value.is_frame()):
            continue
        if value in seen_set:
            continue
        seen_set.add(value)
        seen.append(value)
        for slot in store.slots(value):
            if slot.role.is_frame():
                stack.append(slot.role)
            stack.append(slot.value)
    return seen


def _local_signature(store: Store, frame: Handle):
    """Frame content with link endpoints abstracted away."""
    parts = []
    for slot in store.slots(frame):
        role = ("frame" if slot.role.is_frame() else store.symbol_name(slot.role))
        parts.append((role, _value_shape(store, slot.value)))
    return tuple(sorted(parts, key=repr))


def _value_shape(store: Store, value):
    if isinstance(value, Handle):
        if value.is_frame():
            return ("frame",)
        return ("sym", store.symbol_name(value))
    if isinstance(value, list):
        return ("array", tuple(_value_shape(store, v) for v in value))
    if value is None:
        return ("nil",)
    return ("lit", type(value).__name__, value)


def _mapped_value(store: Store, value, assignment):
    if isinstance(value, Handle):
        if value.is_frame():
            return ("frame", assignment[value])
        return ("sym", store.symbol_name(value))
    if isinstance(value, list):
        return ("array", tuple(_mapped_value(store, v, assignment) for v in value))
    if value is None:
        return ("nil",)
    return ("lit", type(value).__name__, value)


def _identity_value(store: Store, value):
    return _mapped_value(store, value, _Identity())


class _Identity(dict):
    def __missing__(self, key):
        return key


def graphs_isomorphic(store_a: Store, roots_a: list[Handle],
                      store_b: Store, roots_b: list[Handle]) -> bool:
    """Exact isomorphism: a bijection over reachable frames preserving
    slot multisets, symbol names, and literals, matching roots by
    position."""
    if len(roots_a) != len(roots_b):
        return False
    frames_a = _reachable(store_a, roots_a)
    frames_b = _reachable(store_b, roots_b)
    if len(frames_a) != len(frames_b):
        return False

    sig_b: dict = {}
    for frame in frames_b:
        sig_b.setdefault(_local_signature(store_b, frame), []).append(frame)
    candidates = {}
    for frame in frames_a:
        candidates[frame] = sig_b.get(_local_signature(store_a, frame), [])
        if not candidates[frame]:
            return False

    assignment: dict[Handle, Handle] = {}
    used: set[Handle] = set()
    for a, b in zip(roots_a, roots_b):
        if assignment.get(a, b) != b:
            return False
        if a not in assignment and b in used:
            return False
        assignment[a] = b
        used.add(b)

    def full_check() -> bool:
        for frame in frames_a:
            partner = assignment[frame]
            keys_a = sorted(
                ((("frame" if s.role.is_frame() else store_a.symbol_name(s.role)),
                  _mapped_value(store_a, s.value, assignment))
                 for s in store_a.slots(frame)), key=repr)
            keys_b = sorted(
                ((("frame" if s.role.is_frame() else store_b.symbol_name(s.role)),
                  _identity_value(store_b, s.value))
                 for s in store_b.slots(partner)), key=repr)
            mapped_roles_a = []
            for s in store_a.slots(frame):
                if s.role.is_frame():
                    mapped_roles_a.append(assignment[s.role])
            roles_b = [s.role for s in store_b.slots(partner) if s.role.is_frame()]
            if sorted(mapped_roles_a, key=repr) != sorted(roles_b, key=repr):
                return False
            if keys_a != keys_b:
                return False
        return True

    unassigned = [f for f in frames_a if f not in assignment]

    def backtrack(index: int) -> bool:
        if index == len(unassigned):
            return full_check()
        frame = unassigned[index]
        for option in candidates[frame]:
            if option in used:
                continue
            assignment[frame] = option
            used.add(option)
            if backtrack(index + 1):
                return True
            del assignment[frame]
            used.discard(option)
        return False

    return backtrack(0)


def reference_doc_to_frame(doc: Document) -> Handle:
    """Build `doc`'s schema frame in its own store, the way documents
    were once written: a reference for `print_document`, which prints
    the same text without allocating.  Adds a document frame, a phrase
    frame per mention and a frame per token on every call."""
    store = doc.store
    isa = store.isa
    token_frames = [store.new_frame([(store.intern(TOKEN_TEXT), token.text),
                                     (store.intern(TOKEN_START), token.start),
                                     (store.intern(TOKEN_LENGTH), token.length)])
                    for token in doc.tokens]
    slots: list[tuple[Handle, Value]] = [
        (isa, store.intern(DOCUMENT_TYPE)),
        (store.intern(DOCUMENT_TEXT), doc.text),
        (store.intern(DOCUMENT_TOKENS), token_frames),
    ]
    for mention in doc.mentions:
        phrase_slots: list[tuple[Handle, Value]] = [
            (isa, store.intern(PHRASE_TYPE)),
            (store.intern(PHRASE_BEGIN), mention.begin),
        ]
        if mention.length != 1:
            phrase_slots.append((store.intern(PHRASE_LENGTH), mention.length))
        phrase_slots += [(store.intern(PHRASE_EVOKES), frame) for frame in mention.evoked]
        slots.append((store.intern(DOCUMENT_MENTION), store.new_frame(phrase_slots)))
    slots += [(store.intern(DOCUMENT_FRAME), frame) for frame in doc.themes]
    return store.new_frame(slots)


def documents_isomorphic(gold: Document, pred: Document) -> bool:
    """Document-level isomorphism via the store-level oracle applied to
    the documents' schema frames."""
    a = reference_doc_to_frame(gold)
    b = reference_doc_to_frame(pred)
    return graphs_isomorphic(gold.store, [a], pred.store, [b])


# ---------------------------------------------------------------------------
# Brute-force metric counter: an independent recount of every metric
# given the alignment, using explicit scans with used-flags instead of
# counter intersections.
# ---------------------------------------------------------------------------


def brute_force_counts(gold: Document, pred: Document) -> dict[str, tuple[int, int, int, int]]:
    mapping = align(frame_graph(gold), frame_graph(pred))
    out: dict[str, tuple[int, int, int, int]] = {}

    gold_spans = []
    for mention in gold.mentions:
        if mention.span not in gold_spans:
            gold_spans.append(mention.span)
    pred_spans = []
    for mention in pred.mentions:
        if mention.span not in pred_spans:
            pred_spans.append(mention.span)
    span_hits = sum(1 for span in gold_spans if span in pred_spans)
    out["Span"] = (span_hits, len(pred_spans), span_hits, len(gold_spans))

    gold_frames = frame_graph(gold).frames
    pred_frames = frame_graph(pred).frames
    aligned_gold = [f for f in gold_frames if f in mapping]
    out["Frame"] = (len(aligned_gold), len(pred_frames),
                    len(aligned_gold), len(gold_frames))

    def first_type(store, frame):
        for slot in store.slots(frame):
            if slot.role == store.isa:
                if isinstance(slot.value, Handle) and slot.value.is_symbol():
                    return store.symbol_name(slot.value)
                return None
        return None

    def scored_slots(store, frame):
        """Every slot but `id`, the first `isa` (the type) and those with
        a non-symbol role; a later `isa` is scored like any other role."""
        isa_slots = [i for i, s in enumerate(store.slots(frame)) if s.role == store.isa]
        return [s for i, s in enumerate(store.slots(frame))
                if s.role != store.id and s.role.is_symbol() and i not in isa_slots[:1]]

    gold_typed = [f for f in gold_frames if first_type(gold.store, f) is not None]
    pred_typed = [f for f in pred_frames if first_type(pred.store, f) is not None]
    type_hits = 0
    for frame in gold_typed:
        partner = mapping.get(frame)
        if partner is not None and \
                first_type(gold.store, frame) == first_type(pred.store, partner):
            type_hits += 1
    out["Type"] = (type_hits, len(pred_typed), type_hits, len(gold_typed))

    def link_slots(store, frame):
        slots = []
        for slot in scored_slots(store, frame):
            if isinstance(slot.value, Handle) and slot.value.is_frame():
                slots.append((store.symbol_name(slot.role), slot.value))
        return slots

    def constant_slots(store, frame):
        slots = []
        for slot in scored_slots(store, frame):
            value = slot.value
            if isinstance(value, Handle):
                if value.is_symbol():
                    slots.append((store.symbol_name(slot.role),
                                  ("sym", store.symbol_name(value))))
                continue
            if value is None:
                slots.append((store.symbol_name(slot.role), ("nil",)))
            elif isinstance(value, list):
                slots.append((store.symbol_name(slot.role),
                              ("lit", "list", _freeze(store, value))))
            else:
                slots.append((store.symbol_name(slot.role),
                              ("lit", type(value).__name__, value)))
        return slots

    role_total_gold = sum(len(link_slots(gold.store, f)) for f in gold_frames)
    role_total_pred = sum(len(link_slots(pred.store, f)) for f in pred_frames)
    role_hits = 0
    for frame in gold_frames:
        partner = mapping.get(frame)
        if partner is None:
            continue
        remaining = link_slots(pred.store, partner)
        used = [False] * len(remaining)
        for role_name, target in link_slots(gold.store, frame):
            wanted = mapping.get(target)
            if wanted is None:
                continue
            for index, (p_role, p_target) in enumerate(remaining):
                if used[index]:
                    continue
                if p_role == role_name and p_target == wanted:
                    used[index] = True
                    role_hits += 1
                    break
    out["Role"] = (role_hits, role_total_pred, role_hits, role_total_gold)

    label_total_gold = sum(len(constant_slots(gold.store, f)) for f in gold_frames)
    label_total_pred = sum(len(constant_slots(pred.store, f)) for f in pred_frames)
    label_hits = 0
    for frame in gold_frames:
        partner = mapping.get(frame)
        if partner is None:
            continue
        remaining = constant_slots(pred.store, partner)
        used = [False] * len(remaining)
        for role_name, key in constant_slots(gold.store, frame):
            for index, (p_role, p_key) in enumerate(remaining):
                if used[index]:
                    continue
                if p_role == role_name and p_key == key:
                    used[index] = True
                    label_hits += 1
                    break
    out["Label"] = (label_hits, label_total_pred, label_hits, label_total_gold)

    def summed(names):
        return tuple(sum(out[n][i] for n in names) for i in range(4))

    out["Slot"] = summed(("Type", "Role", "Label"))
    out["Combined"] = summed(("Span", "Frame", "Type", "Role", "Label"))
    return out


def _freeze(store, value):
    """A list constant as nested tuples, a symbol by its name and a frame
    as any frame, so that lists compare across stores."""
    if isinstance(value, list):
        return tuple(_freeze(store, v) for v in value)
    if isinstance(value, Handle):
        return store.symbol_name(value) if value.is_symbol() else "frame"
    return value


# ---------------------------------------------------------------------------
# Random generators
# ---------------------------------------------------------------------------

TYPE_POOL = ["/t/alpha", "/t/beta", "/t/gamma", "/t/delta"]
ROLE_POOL = ["/r/zero", "/r/one", "/r/two"]
CONST_ROLE_POOL = ["/c/note", "/c/rank"]


def random_store_graph(rng: random.Random, ensure_cycle: bool = False
                       ) -> tuple[Store, list[Handle]]:
    """A random frame graph: literals, arrays, symbols, shared frames,
    named ids, and (optionally) a guaranteed cycle."""
    store = Store()
    count = rng.randint(1, 8)
    frames = [store.new_frame() for _ in range(count)]

    def random_value(depth=0):
        choice = rng.random()
        if choice < 0.25:
            return rng.randint(-100, 100)
        if choice < 0.4:
            return round(rng.uniform(-5, 5), 3)
        if choice < 0.55:
            alphabet = string.ascii_letters + ' \\"\n\t\u00e9'
            return "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 6)))
        if choice < 0.7:
            return store.intern(rng.choice(TYPE_POOL + ROLE_POOL))
        if choice < 0.8 and depth == 0:
            return [random_value(1) for _ in range(rng.randint(0, 3))]
        if choice < 0.9:
            return None
        return rng.choice(frames)

    for frame in frames:
        if rng.random() < 0.7:
            store.add_slot(frame, store.isa, store.intern(rng.choice(TYPE_POOL)))
        for _ in range(rng.randint(0, 4)):
            store.add_slot(frame, store.intern(rng.choice(ROLE_POOL)), random_value())
        if rng.random() < 0.15:
            name = f"/name/n{rng.randrange(1 << 20)}"
            try:
                store.add_slot(frame, store.id, store.intern(name))
            except Exception:
                pass

    if ensure_cycle and len(frames) >= 2:
        store.add_slot(frames[0], store.intern("/r/loop"), frames[1])
        store.add_slot(frames[1], store.intern("/r/loop"), frames[0])
    elif ensure_cycle:
        store.add_slot(frames[0], store.intern("/r/loop"), frames[0])

    roots = [f for f in frames if rng.random() < 0.7] or [frames[0]]
    return store, roots


def random_document(rng: random.Random) -> Document:
    """A random oracle-representable document: multi-evoke mentions,
    re-evoked frames (REFER), cross links, constants, and non-evoked
    frames attached by one role in either direction."""
    store = Store()
    n_tokens = rng.randint(0, 8)
    words = ["".join(rng.choice(string.ascii_lowercase)
                     for _ in range(rng.randint(1, 5)))
             for _ in range(n_tokens)]
    text = " ".join(words)
    tokens = tokenize(text)
    assert len(tokens) == n_tokens

    mentions: list[Mention] = []
    evoked: list[Handle] = []
    span_types: dict[tuple[int, int], set[str]] = {}
    if n_tokens:
        for _ in range(rng.randint(0, 6)):
            begin = rng.randrange(n_tokens)
            length = min(rng.randint(1, 2), n_tokens - begin)
            span = (begin, length)
            # A span never evokes two frames of one type: the second
            # EVOKE there would be invalid, whichever frame came first.
            if evoked and rng.random() < 0.3:
                frame = rng.choice(evoked)  # re-evocation -> REFER
                type_name = store.symbol_name(store.get_role(frame, store.isa))
                if type_name in span_types.get(span, set()):
                    continue
            else:
                type_name = rng.choice(TYPE_POOL)
                if type_name in span_types.get(span, set()):
                    continue
                frame = store.new_frame([(store.isa, store.intern(type_name))])
                if rng.random() < 0.4:
                    store.add_slot(frame, store.intern(rng.choice(CONST_ROLE_POOL)),
                                   rng.choice([7, "tag", 2.5]))
                evoked.append(frame)
            span_types.setdefault(span, set()).add(type_name)
            for mention in mentions:
                if mention.span == span:
                    if frame not in mention.evoked:
                        mention.evoked.append(frame)
                    break
            else:
                mentions.append(Mention(begin, length, [frame]))

    # Links between evoked frames (duplicates and self-loops allowed).
    for _ in range(rng.randint(0, 4)):
        if not evoked:
            break
        source = rng.choice(evoked)
        target = rng.choice(evoked)
        store.add_slot(source, store.intern(rng.choice(ROLE_POOL)), target)

    # Non-evoked frames, one connecting role each; an embedded one, which
    # only links into the graph, is listed as a theme.
    themes: list[Handle] = []
    for _ in range(rng.randint(0, 2)):
        if not evoked:
            break
        other = store.new_frame([(store.isa, store.intern(rng.choice(TYPE_POOL)))])
        if rng.random() < 0.5:
            store.add_slot(other, store.intern(rng.choice(CONST_ROLE_POOL)), "extra")
        anchor = rng.choice(evoked)
        if rng.random() < 0.5:
            store.add_slot(anchor, store.intern(rng.choice(ROLE_POOL)), other)
        else:
            store.add_slot(other, store.intern(rng.choice(ROLE_POOL)), anchor)
            themes.append(other)

    doc = Document(text, tokens, mentions, store, themes)
    doc.sort_mentions()
    doc.check()
    return doc


def random_unruly_document(rng: random.Random) -> Document:
    """A random document the oracle may refuse: frames of the schema types
    (`/s/phrase`, `/s/document`) or of none, links between any two frames,
    some through `id` or a later `isa`, constants, and random themes."""
    store = Store()
    text = " ".join(f"w{i}" for i in range(rng.randint(1, 5)))
    tokens = tokenize(text)
    types = TYPE_POOL[:3] + [PHRASE_TYPE, DOCUMENT_TYPE]
    frames = [store.new_frame([(store.isa, store.intern(rng.choice(types)))]
                              if rng.random() < 0.95 else []) for _ in range(rng.randint(1, 6))]
    for _ in range(rng.randint(0, 6)):
        if rng.random() < 0.8:
            role, value = rng.choice(ROLE_POOL[:2] + ["id", "isa"]), rng.choice(frames)
        else:
            role, value = rng.choice(["/c/note", "isa"]), rng.choice([7, "tag", store.intern("/v/x")])
        store.add_slot(rng.choice(frames), store.intern(role), value)
    spans: dict[int, list[Handle]] = {}
    for frame in rng.sample(frames, rng.randint(0, len(frames))):
        spans.setdefault(rng.randrange(len(tokens)), []).append(frame)
    evoked = {frame for group in spans.values() for frame in group}
    themes = [f for f in frames if f not in evoked and rng.random() < 0.4]
    doc = Document(text, tokens, [Mention(b, 1, group) for b, group in sorted(spans.items())],
                   store, themes)
    doc.check()
    return doc


def copy_document(doc: Document) -> Document:
    """Deep copy into a fresh store (same annotations, new handles)."""
    store = Store()
    frames = frame_graph(doc).frames
    clones = {frame: store.new_frame() for frame in frames}
    for frame in frames:
        for slot in doc.store.slots(frame):
            role = store.intern(doc.store.symbol_name(slot.role))
            value = slot.value
            if isinstance(value, Handle):
                value = (clones[value] if value.is_frame()
                         else store.intern(doc.store.symbol_name(value)))
            store.add_slot(clones[frame], role, value)
    mentions = [Mention(m.begin, m.length, [clones[f] for f in m.evoked])
                for m in doc.mentions]
    out = Document(doc.text, list(doc.tokens), mentions, store,
                   [clones[f] for f in doc.themes])
    out.sort_mentions()
    return out


def rebuild_document(doc: Document, edited: dict[Handle, list[Slot]]) -> Document:
    """Copy every frame of `doc.store`, in allocation order, into a fresh
    store through `new_frame` and `add_slot`, taking a frame's slots from
    `edited` where it has an entry.  Frames keep their indices and the
    mentions and themes are remapped.  Tests alter a store this way
    rather than by writing its arena, so every edit passes the store's
    own checks and the original document stays as it was."""
    old = doc.store
    store = Store()
    clones = [store.new_frame() for _ in old.frames()]

    def copied(value):
        if isinstance(value, list):
            return [copied(item) for item in value]
        if isinstance(value, Handle):
            return (clones[value.index] if value.is_frame()
                    else store.intern(old.symbol_name(value)))
        return value

    for frame, clone in zip(old.frames(), clones):
        for slot in edited[frame] if frame in edited else old.slots(frame):
            store.add_slot(clone, copied(slot.role), copied(slot.value))
    mentions = [Mention(m.begin, m.length, [clones[f.index] for f in m.evoked])
                for m in doc.mentions]
    return Document(doc.text, list(doc.tokens), mentions, store,
                    [clones[f.index] for f in doc.themes])


def perturb_document(doc: Document, rng: random.Random) -> Document:
    """A structurally altered copy: retyped frames, dropped/added
    mentions, dropped slots, changed constants or roles."""
    out = copy_document(doc)
    store = out.store
    frames = frame_graph(out).frames
    edited: dict[Handle, list[Slot]] = {}

    def slots_of(frame: Handle) -> list[Slot]:
        if frame not in edited:
            edited[frame] = list(store.slots(frame))
        return edited[frame]

    for _ in range(rng.randint(1, 3)):
        op = rng.choice(["retype", "drop_mention", "add_mention",
                         "drop_slot", "change_constant", "rename_role"])
        if op == "retype" and frames:
            frame = rng.choice(frames)
            slots = slots_of(frame)
            for index, slot in enumerate(slots):
                if slot.role == store.isa:
                    slots[index] = slot._replace(
                        value=store.intern(rng.choice(TYPE_POOL)))
                    break
        elif op == "drop_mention" and len(out.mentions) > 1:
            out.mentions.pop(rng.randrange(len(out.mentions)))
        elif op == "add_mention" and out.tokens:
            begin = rng.randrange(len(out.tokens))
            frame = store.new_frame([(store.isa, store.intern(rng.choice(TYPE_POOL)))])
            out.mentions.append(Mention(begin, 1, [frame]))
        elif op == "drop_slot" and frames:
            frame = rng.choice(frames)
            slots = slots_of(frame)
            if len(slots) > 1:
                slots.pop(rng.randrange(1, len(slots)))
        elif op == "change_constant" and frames:
            frame = rng.choice(frames)
            slots = slots_of(frame)
            for index, slot in enumerate(slots):
                if isinstance(slot.value, (int, str)) and slot.role != store.isa:
                    slots[index] = slot._replace(value="changed!")
                    break
        elif op == "rename_role" and frames:
            frame = rng.choice(frames)
            slots = slots_of(frame)
            for index, slot in enumerate(slots):
                if slot.role not in (store.isa, store.id):
                    slots[index] = slot._replace(role=store.intern("/r/renamed"))
                    break
    out = rebuild_document(out, edited)
    out.sort_mentions()
    return out


def edit_checkpoint_header(path: Path, edit: Callable[[dict], None]) -> None:
    """Apply `edit` to the JSON header of the checkpoint file at `path`,
    keeping its version and tensor bytes."""
    data = path.read_bytes()
    start = len(MAGIC) + 12
    version, header_len = struct.unpack_from("<IQ", data, len(MAGIC))
    header = json.loads(data[start:start + header_len])
    edit(header)
    raw = json.dumps(header).encode("utf-8")
    path.write_bytes(MAGIC + struct.pack("<IQ", version, len(raw)) + raw
                     + data[start + header_len:])


# -- decoder step features, spelled out ------------------------------------

@dataclass
class StepFeatures:
    """One decoder step's features as tokens, steps and link ids, with
    None where a feature is absent."""
    cursor_token: Optional[int]
    att_end_token: list[Optional[int]]
    att_created: list[Optional[int]]
    att_focused: list[Optional[int]]
    history: list[Optional[int]]
    triples: list[int]
    source_roles: list[int]
    role_targets: list[int]
    source_targets: list[int]


def reference_step_features(state: ParserState, lexicon: Lexicon,
                            k_attention: int, k_history: int) -> StepFeatures:
    """For the top-k attention frames: the last token of the most recent
    evoking phrase (absent for frames created by EMBED/ELABORATE), and
    the steps that created and last fronted them.  The previous k steps
    form the history feature.  Role links between top-k frames become
    (source, role, target) triple ids with (source, role), (role,
    target) and (source, target) back-offs."""
    k = k_attention
    attention = state.attention[:k]

    att_end: list[Optional[int]] = []
    att_created: list[Optional[int]] = []
    att_focused: list[Optional[int]] = []
    for frame in attention:
        span = state.phrases.get(frame)
        att_end.append(span[0] + span[1] - 1 if span is not None else None)
        att_created.append(state.created_step.get(frame))
        att_focused.append(state.focused_step.get(frame))
    padding = k - len(attention)
    att_end.extend([None] * padding)
    att_created.extend([None] * padding)
    att_focused.extend([None] * padding)

    history = [state.step - 1 - j if state.step - 1 - j >= 0 else None
               for j in range(k_history)]

    positions = {frame: i for i, frame in enumerate(attention)}
    num_roles = lexicon.num_roles
    triples: list[int] = []
    source_roles: list[int] = []
    role_targets: list[int] = []
    source_targets: list[int] = []
    for s_pos, frame in enumerate(attention):
        for slot in state.store.slots(frame):
            value = slot.value
            if not (isinstance(value, Handle) and value.is_frame()):
                continue
            t_pos = positions.get(value)
            if t_pos is None:
                continue
            role_id = (lexicon.role_id(state.store.symbol_name(slot.role))
                       if slot.role.is_symbol() else 0)
            triples.append((s_pos * num_roles + role_id) * k + t_pos)
            source_roles.append(s_pos * num_roles + role_id)
            role_targets.append(role_id * k + t_pos)
            source_targets.append(s_pos * k + t_pos)

    cursor = state.cursor if state.cursor < state.num_tokens else None
    return StepFeatures(cursor, att_end, att_created, att_focused, history,
                        triples, source_roles, role_targets, source_targets)


def reference_step_rows(feats: StepFeatures, num_tokens: int, step: int):
    """`feats` as rows of the decoder's pools (0 where a feature is
    absent or out of range): the LSTM rows of the cursor and attention
    tokens, left-to-right then right-to-left, the hidden rows of the
    created, focused and history steps, and the link ids, one list per
    link table."""
    fw = [i + 1 if i is not None and 0 <= i < num_tokens else 0
          for i in [feats.cursor_token] + feats.att_end_token]
    bw = [row + num_tokens if row else 0 for row in fw]
    lstm = fw[:1] + bw[:1] + fw[1:] + bw[1:]
    hidden = [s + 1 if s is not None and 0 <= s < step else 0
              for s in feats.att_created + feats.att_focused + feats.history]
    links = (feats.triples, feats.source_roles, feats.role_targets, feats.source_targets)
    return lstm, hidden, links


# -- per-array Adam and per-call token rows, spelled out ---------------------

class ReferenceAdam:
    """`training.Adam` as it ran array by array, allocating its
    temporaries: the reference its block version must equal bit for bit."""

    def __init__(self, arrays: dict[str, np.ndarray], config: ModelConfig):
        self.arrays = arrays
        self.config = config
        self.m = {k: np.zeros_like(v) for k, v in arrays.items()}
        self.v = {k: np.zeros_like(v) for k, v in arrays.items()}
        self.t = 0

    def step(self, grads: dict[str, np.ndarray]) -> float:
        cfg = self.config
        norm = math.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
        if norm > cfg.gradient_clip_norm > 0:
            factor = cfg.gradient_clip_norm / norm
            grads = {k: g * factor for k, g in grads.items()}
        self.t += 1
        b1, b2 = cfg.adam_beta1, cfg.adam_beta2
        bias1 = 1.0 - b1 ** self.t
        bias2 = 1.0 - b2 ** self.t
        for name, grad in grads.items():
            m = self.m[name]
            v = self.v[name]
            m *= b1
            m += (1.0 - b1) * grad
            v *= b2
            v += (1.0 - b2) * grad * grad
            update = (cfg.learning_rate * (m / bias1)
                      / (np.sqrt(v / bias2) + cfg.adam_epsilon))
            self.arrays[name] -= update.astype(self.arrays[name].dtype)
        return norm


def reference_token_rows(lexicon: Lexicon, words: list[str]) -> list[list[int]]:
    """Each word's row ids, table by table in `input_tables` order, read
    afresh on every call."""
    reads = [table.read for table in lexicon.input_tables()]
    return [[i for read in reads for i in read(w)] for w in words]
