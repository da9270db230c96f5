"""Vocabularies built from the training corpus: words, affixes, roles,
and the action inventory that defines the logit layer.

Id 0 is reserved in every table for out-of-vocabulary / absent values.
Word shape features (hyphenation, capitalization, punctuation, quotes,
digits) are closed categorical sets and need no vocabulary.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..document import _PUNCT, Document
from ..transitions import Action

RESERVED = 0

HYPHEN_SHAPES = 2
CAPS_SHAPES = 4
PUNCT_SHAPES = 3
QUOTE_SHAPES = 2
DIGIT_SHAPES = 3

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


def _affixes(word: str, max_len: int, suffix: bool) -> list[str]:
    out = []
    for n in range(1, max_len + 1):
        if len(word) >= n:
            out.append(word[-n:] if suffix else word[:n])
    return out


@dataclass
class Lexicon:
    words: dict[str, int]
    prefixes: dict[str, int]
    suffixes: dict[str, int]
    roles: dict[str, int]
    actions: list[Action]
    max_affix_len: int

    def __post_init__(self) -> None:
        # Keyed by text: actions whose texts differ are different outputs,
        # even where `Action` equality counts 1 and 1.0 as one.
        self.action_ids = {a.to_text(): i for i, a in enumerate(self.actions)}

    @classmethod
    def build(cls, corpus: list[Document], sequences: list[list[Action]],
              max_affix_len: int) -> "Lexicon":
        words: set[str] = set()
        prefixes: set[str] = set()
        suffixes: set[str] = set()
        for doc in corpus:
            for token in doc.tokens:
                words.add(token.text)
                prefixes.update(_affixes(token.text, max_affix_len, suffix=False))
                suffixes.update(_affixes(token.text, max_affix_len, suffix=True))
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
    def num_words(self) -> int:
        return len(self.words) + 1

    @property
    def num_prefixes(self) -> int:
        return len(self.prefixes) + 1

    @property
    def num_suffixes(self) -> int:
        return len(self.suffixes) + 1

    @property
    def num_roles(self) -> int:
        return len(self.roles) + 1

    @property
    def num_actions(self) -> int:
        return len(self.actions)

    # -- lookups ---------------------------------------------------------

    def word_id(self, word: str) -> int:
        return self.words.get(word, RESERVED)

    def token_rows(self, word: str) -> tuple[int, ...]:
        """Row ids of a token's lexical features, in input-vector order:
        the word, `max_affix_len` prefixes and suffixes (RESERVED where
        the word is shorter), then the hyphen, caps, punct, quote and
        digit shapes."""
        m = self.max_affix_len
        pad = [RESERVED] * (m - min(m, len(word)))
        return (self.word_id(word),
                *[self.prefixes.get(p, RESERVED) for p in _affixes(word, m, False)], *pad,
                *[self.suffixes.get(s, RESERVED) for s in _affixes(word, m, True)], *pad,
                hyphen_shape(word), caps_shape(word), punct_shape(word),
                quote_shape(word), digit_shape(word))

    def role_id(self, role: str) -> int:
        return self.roles.get(role, RESERVED)

    def action_id(self, action: Action) -> int:
        return self.action_ids[action.to_text()]
