"""Synthetic annotated corpus drawn from a small template grammar.

Sentences follow `agent verb [determiner] patient [adjunct]`.  Every
content word maps to a fixed frame type or predicate, so the mapping is
fully learnable from the text alone.  Adjuncts exercise the rarer
actions: manner adverbs become constant-valued slots, locative phrases
attach a third argument, time words yield an elaborated (non-evoked)
frame, and hedge adverbs yield an embedded (non-evoked) frame.
"""

from __future__ import annotations

import random

from .document import Document, Mention, tokenize
from .store import Store

PERSON = "/saft/person"
LOCATION = "/saft/location"
ORGANIZATION = "/saft/organization"
CONSUMER_GOOD = "/saft/consumer_good"
ART = "/saft/art"
EVENT = "/saft/event"

ARG0 = "/pb/arg0"
ARG1 = "/pb/arg1"
ARG2 = "/pb/arg2"
MANNER = "/pb/argm-mnr"
TEMPORAL = "/pb/argm-tmp"
WHEN = "/s/str/when"
TIME_TYPE = "/s/time"
ASSERTION_TYPE = "/s/assertion"
ASSERTED = "/pb/arg1"

AGENTS = [
    (("John",), PERSON), (("Mary",), PERSON), (("Bob",), PERSON),
    (("Alice",), PERSON), (("Henry",), PERSON), (("Sue",), PERSON),
    (("Google",), ORGANIZATION), (("Acme",), ORGANIZATION), (("NASA",), ORGANIZATION),
]

PATIENTS = [
    (("ball",), CONSUMER_GOOD, True), (("bat",), CONSUMER_GOOD, True),
    (("car",), CONSUMER_GOOD, True), (("guitar",), CONSUMER_GOOD, True),
    (("pizza",), CONSUMER_GOOD, True), (("book",), CONSUMER_GOOD, True),
    (("movie",), ART, True), (("song",), ART, True), (("painting",), ART, True),
    (("meeting",), EVENT, True), (("party",), EVENT, True),
    (("Mary",), PERSON, False), (("Bob",), PERSON, False), (("Alice",), PERSON, False),
]

LOCATIONS = [
    (("Paris",), LOCATION), (("London",), LOCATION), (("Boston",), LOCATION),
    (("Tokyo",), LOCATION), (("New", "York"), LOCATION), (("Los", "Angeles"), LOCATION),
]

VERBS = ["hit", "buy", "sell", "see", "like", "find",
         "take", "throw", "kick", "break", "push", "pull"]

ADVERBS = ["quickly", "slowly", "carefully", "eagerly"]
TIME_WORDS = ["yesterday", "today", "tomorrow"]
HEDGES = ["allegedly", "reportedly"]
DETERMINERS = ["the", "a"]


def generate_corpus(seed: int, n_docs: int) -> list[Document]:
    """Deterministically generate `n_docs` annotated documents."""
    if n_docs < 0:
        raise ValueError("n_docs must be non-negative")
    rng = random.Random(seed)
    return [_generate_document(rng) for _ in range(n_docs)]


def _generate_document(rng: random.Random) -> Document:
    store = Store()
    words: list[str] = []
    plan = []  # (first token index, token count, type name) per mention

    agent_words, agent_type = rng.choice(AGENTS)
    plan.append((0, len(agent_words), agent_type))
    words.extend(agent_words)

    verb = rng.choice(VERBS)
    verb_index = len(words)
    words.append(verb)

    patient_words, patient_type, needs_det = rng.choice(
        [p for p in PATIENTS if p[0] != agent_words])
    if needs_det:
        words.append(rng.choice(DETERMINERS))
    plan.append((len(words), len(patient_words), patient_type))
    words.extend(patient_words)

    adjunct = rng.choices(
        ["adverb", "locative", "time", "hedge", "none"],
        weights=[3, 3, 2, 1, 3])[0]

    location_plan = None
    adjunct_word = None
    if adjunct == "locative":
        loc_words, loc_type = rng.choice(LOCATIONS)
        words.append("in")
        location_plan = (len(words), len(loc_words), loc_type)
        words.extend(loc_words)
    elif adjunct in ("adverb", "time", "hedge"):
        pool = {"adverb": ADVERBS, "time": TIME_WORDS, "hedge": HEDGES}[adjunct]
        adjunct_word = rng.choice(pool)
        words.append(adjunct_word)

    text = " ".join(words)
    if rng.random() < 0.3:
        text += "."
    tokens = tokenize(text)

    isa = store.isa
    agent = store.new_frame([(isa, store.intern(agent_type))])
    patient = store.new_frame([(isa, store.intern(patient_type))])
    verb_slots = [
        (isa, store.intern("/pb/" + verb + "-01")),
        (store.intern(ARG0), agent),
        (store.intern(ARG1), patient),
    ]
    if adjunct == "adverb":
        verb_slots.append((store.intern(MANNER), adjunct_word))
    verb_frame = store.new_frame(verb_slots)

    mentions = [
        Mention(plan[0][0], plan[0][1], [agent]),
        Mention(verb_index, 1, [verb_frame]),
        Mention(plan[1][0], plan[1][1], [patient]),
    ]

    themes = []
    if location_plan is not None:
        location = store.new_frame([(isa, store.intern(location_plan[2]))])
        store.add_slot(verb_frame, store.intern(ARG2), location)
        mentions.append(Mention(location_plan[0], location_plan[1], [location]))
    elif adjunct == "time":
        time_frame = store.new_frame([
            (isa, store.intern(TIME_TYPE)),
            (store.intern(WHEN), adjunct_word),
        ])
        store.add_slot(verb_frame, store.intern(TEMPORAL), time_frame)
    elif adjunct == "hedge":
        themes.append(store.new_frame([
            (isa, store.intern(ASSERTION_TYPE)),
            (store.intern(ASSERTED), verb_frame),
        ]))

    doc = Document(text, tokens, mentions, store, themes)
    doc.sort_mentions()
    doc.check()
    return doc
