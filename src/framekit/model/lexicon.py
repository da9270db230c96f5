"""Vocabularies built from the training corpus: words, affixes, roles,
and the action inventory that defines the logit layer.

Id 0 is reserved in every table for out-of-vocabulary / absent values.
Word shape features (hyphenation, capitalization, punctuation, quotes,
digits) are closed categorical sets and need no vocabulary.
`Lexicon.input_tables` lists the embedding tables a token is read
through, in input-vector order; the weight shapes, the token rows and
the encoder all read that one list.  A lexicon's tables are fixed once
it is made: it builds that list once, and works out each distinct
word's rows the first time it reads the word.

A `Lexicon` that builds is one a checkpoint can hold, load back equal,
and decoding can run: it raises ValueError for a table that is not a
dict, whose keys are not all strings or whose ids are not exactly the
ints 1..n, a `max_affix_len` that is not an int >= 1, actions that are
not a list of `Action`s, two actions with one text, and an inventory
without SHIFT or STOP.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

from ..document import _PUNCT, Document
from ..transitions import SHIFT, STOP, Action

RESERVED = 0

_QUOTES = set("\"'`")


def hyphen_shape(word: str) -> int:
    return 1 if "-" in word else 0


def caps_shape(word: str) -> int:
    letters = [c for c in word if c.isalpha()]
    if not letters or all(c.islower() for c in letters):
        return 0
    if all(c.isupper() for c in letters):
        return 2
    if word[0].isupper() and all(c.islower() for c in letters[1:]):
        return 1
    return 3


def punct_shape(word: str) -> int:
    flags = [c in _PUNCT for c in word]
    if not any(flags):
        return 0
    return 2 if all(flags) else 1


def quote_shape(word: str) -> int:
    return 1 if any(c in _QUOTES for c in word) else 0


def digit_shape(word: str) -> int:
    flags = [c.isdigit() for c in word]
    if not any(flags):
        return 0
    return 2 if all(flags) else 1


def _affixes(word: str, max_len: int, suffix: bool) -> list[str | None]:
    """The word's affixes of 1 .. max_len characters; None, which no
    vocabulary holds, where the word is shorter."""
    return [None if n > len(word) else word[-n:] if suffix else word[:n]
            for n in range(1, max_len + 1)]


class InputTable(NamedTuple):
    """An embedding table each token is read through."""

    name: str                         # the weight's name
    rows: int
    per_token: int                    # row ids a token reads
    read: Callable[[str], list[int]]  # a word's row ids
    dim: str                          # the `ModelConfig` field of its width


@dataclass
class Lexicon:
    words: dict[str, int]
    prefixes: dict[str, int]
    suffixes: dict[str, int]
    roles: dict[str, int]
    actions: list[Action]
    max_affix_len: int

    def __post_init__(self) -> None:
        for name in ("words", "prefixes", "suffixes", "roles"):
            table = getattr(self, name)
            if not isinstance(table, dict):
                raise ValueError(f"lexicon {name} is not an object")
            if not all(isinstance(key, str) for key in table):  # as a JSON header's are
                raise ValueError(f"lexicon {name} keys are not all strings")
            ids = table.values()  # `type`, not `isinstance`: True is no id
            if {type(i) for i in ids} - {int} or sorted(ids) != list(range(1, len(ids) + 1)):
                raise ValueError(f"lexicon {name} ids are not exactly 1..{len(table)}")
        if not (type(self.max_affix_len) is int and self.max_affix_len >= 1):
            raise ValueError(f"lexicon max_affix_len {self.max_affix_len!r} is not an int >= 1")
        if not isinstance(self.actions, list) or not all(isinstance(a, Action) for a in self.actions):
            raise ValueError("lexicon actions is not a list of actions")
        # Keyed by text: actions whose texts differ are different outputs,
        # even where `Action` equality counts 1 and 1.0 as one.
        self.action_ids = {a.to_text(): i for i, a in enumerate(self.actions)}
        if len(self.action_ids) != len(self.actions):
            raise ValueError("lexicon actions repeat an action")
        for kind in (SHIFT, STOP):  # decoding needs both
            if all(action.kind != kind for action in self.actions):
                raise ValueError(f"lexicon actions lack {kind}")
        self._tables = self._input_tables()
        self._word_rows: dict[str, tuple[int, ...]] = {}  # filled as words are read

    @classmethod
    def build(cls, corpus: list[Document], sequences: list[list[Action]],
              max_affix_len: int) -> "Lexicon":
        words = {token.text for doc in corpus for token in doc.tokens}
        prefixes = {a for w in words for a in _affixes(w, max_affix_len, False)} - {None}
        suffixes = {a for w in words for a in _affixes(w, max_affix_len, True)} - {None}
        roles: set[str] = set()
        actions: dict[str, Action] = {}
        for sequence in sequences:
            for action in sequence:
                actions.setdefault(action.to_text(), action)
                if action.role is not None:
                    roles.add(action.role)
        return cls(
            words={w: i for i, w in enumerate(sorted(words), start=1)},
            prefixes={p: i for i, p in enumerate(sorted(prefixes), start=1)},
            suffixes={s: i for i, s in enumerate(sorted(suffixes), start=1)},
            roles={r: i for i, r in enumerate(sorted(roles), start=1)},
            actions=[actions[text] for text in sorted(actions)],
            max_affix_len=max_affix_len,
        )

    # -- sizes -----------------------------------------------------------

    @property
    def num_roles(self) -> int:
        return len(self.roles) + 1

    @property
    def num_actions(self) -> int:
        return len(self.actions)

    # -- lookups ---------------------------------------------------------

    def word_id(self, word: str) -> int:
        return self.words.get(word, RESERVED)

    def input_tables(self) -> list[InputTable]:
        """The tables of a token's lexical features, in input-vector order,
        the order initialisation draws their weights in: the word, its
        `max_affix_len` prefixes and suffixes, then the hyphen, caps,
        punct, quote and digit shapes, a row per category."""
        return self._tables

    def _input_tables(self) -> list[InputTable]:
        m = self.max_affix_len

        def affixes(table: dict[str, int], suffix: bool) -> Callable[[str], list[int]]:
            return lambda w: [table.get(a, RESERVED) for a in _affixes(w, m, suffix)]

        shapes = (("hyphen_emb", hyphen_shape, 2), ("caps_emb", caps_shape, 4),
                  ("punct_emb", punct_shape, 3), ("quote_emb", quote_shape, 2),
                  ("digit_emb", digit_shape, 3))
        return [InputTable("word_emb", len(self.words) + 1, 1, lambda w: [self.word_id(w)],
                           "word_dim"),
                InputTable("prefix_emb", len(self.prefixes) + 1, m,
                           affixes(self.prefixes, False), "affix_dim"),
                InputTable("suffix_emb", len(self.suffixes) + 1, m,
                           affixes(self.suffixes, True), "affix_dim"),
                *(InputTable(name, categories, 1, lambda w, f=feature: [f(w)], "shape_dim")
                  for name, feature, categories in shapes)]

    def token_rows(self, words: list[str]) -> list[tuple[int, ...]]:
        """Each word's row ids, table by table in `input_tables` order,
        worked out once per distinct word."""
        known = self._word_rows
        for w in words:
            if w not in known:
                known[w] = tuple(i for table in self._tables for i in table.read(w))
        return [known[w] for w in words]

    def role_id(self, role: str) -> int:
        return self.roles.get(role, RESERVED)

    def action_id(self, action: Action) -> int:
        return self.action_ids[action.to_text()]
