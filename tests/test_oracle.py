import math
import random

import pytest

from framekit import cli
from framekit.cli import read_corpus, write_corpus
from framekit.corpus import generate_corpus
from framekit.document import (DOCUMENT_TYPE, PHRASE_TYPE, Document, Mention, frame_graph,
                               tokenize)
from framekit.evaluation import evaluate
from framekit.oracle import (UnrepresentableDocumentError, action_table,
                             generate, replay, roundtrip_check)
from framekit.store import Store
from framekit.transitions import (ACTION_KINDS, CONNECT, ELABORATE, EMBED, run_sequence,
                                  sequence_to_text)
from support import HIT_SEQUENCE, random_document, random_unruly_document


def test_worked_example_exact_sequence(hit_doc):
    assert sequence_to_text(generate(hit_doc)) == HIT_SEQUENCE


def test_no_mentions_yields_shifts_then_stop():
    store = Store()
    doc = Document("a b c", tokenize("a b c"), [], store)
    actions = generate(doc)
    assert [a.kind for a in actions] == ["SHIFT"] * 3 + ["STOP"]


def test_empty_document():
    store = Store()
    doc = Document("", [], [], store)
    assert [a.kind for a in generate(doc)] == ["STOP"]
    assert roundtrip_check(doc)


def test_second_evocation_is_refer():
    store = Store()
    doc = Document("a b", tokenize("a b"), [], store)
    frame = store.new_frame([(store.isa, store.intern("/t/x"))])
    doc.mentions = [Mention(0, 1, [frame]), Mention(1, 1, [frame])]
    actions = list(generate(doc))
    kinds = [a.kind for a in actions]
    assert kinds == ["EVOKE", "SHIFT", "REFER", "SHIFT", "STOP"]
    assert roundtrip_check(doc)


def test_longer_spans_first():
    store = Store()
    doc = Document("a b", tokenize("a b"), [], store)
    short = store.new_frame([(store.isa, store.intern("/t/s"))])
    long = store.new_frame([(store.isa, store.intern("/t/l"))])
    doc.mentions = [Mention(0, 1, [short]), Mention(0, 2, [long])]
    doc.sort_mentions()
    actions = list(generate(doc))
    assert actions[0].type == "/t/l" and actions[0].length == 2
    assert actions[1].type == "/t/s"
    assert roundtrip_check(doc)


def test_worked_example_roundtrip(hit_doc):
    assert roundtrip_check(hit_doc)


def test_replay_rebuilds_graph(hit_doc):
    pred = replay(hit_doc, generate(hit_doc))
    assert [m.span for m in pred.mentions] == [(0, 1), (1, 1), (3, 1)]
    # replaying the replayed document gives the same canonical sequence
    assert sequence_to_text(generate(pred)) == HIT_SEQUENCE


def test_unrepresentable_two_hop_chain():
    store = Store()
    doc = Document("a", tokenize("a"), [], store)
    evoked = store.new_frame([(store.isa, store.intern("/t/a"))])
    doc.mentions = [Mention(0, 1, [evoked])]
    middle = store.new_frame([(store.isa, store.intern("/t/b"))])
    far = store.new_frame([(store.isa, store.intern("/t/c"))])
    store.add_slot(evoked, store.intern("/r/x"), middle)
    store.add_slot(middle, store.intern("/r/x"), far)
    with pytest.raises(UnrepresentableDocumentError):
        generate(doc)


def test_unrepresentable_untyped_frame():
    store = Store()
    doc = Document("a", tokenize("a"), [], store)
    doc.mentions = [Mention(0, 1, [store.new_frame()])]
    with pytest.raises(UnrepresentableDocumentError):
        generate(doc)


def test_unrepresentable_multiply_attached():
    store = Store()
    doc = Document("a b", tokenize("a b"), [], store)
    first = store.new_frame([(store.isa, store.intern("/t/a"))])
    second = store.new_frame([(store.isa, store.intern("/t/b"))])
    doc.mentions = [Mention(0, 1, [first]), Mention(1, 1, [second])]
    hidden = store.new_frame([(store.isa, store.intern("/t/c"))])
    store.add_slot(first, store.intern("/r/x"), hidden)
    store.add_slot(second, store.intern("/r/y"), hidden)
    with pytest.raises(UnrepresentableDocumentError):
        generate(doc)


def test_span_evoking_two_frames_of_one_type(tmp_path, capsys):
    """At span (1,1), REFER A records /t/alpha there, so evoking B (first
    evoked at that span) with the same type is no valid action."""
    store = Store()
    doc = Document("a b c d e", tokenize("a b c d e"), [], store)
    alpha = store.intern("/t/alpha")
    a = store.new_frame([(store.isa, alpha)])
    b = store.new_frame([(store.isa, alpha)])
    doc.mentions = [Mention(0, 1, [a]), Mention(1, 1, [a, b]), Mention(4, 1, [b])]
    with pytest.raises(UnrepresentableDocumentError) as error:
        generate(doc)
    path, model = tmp_path / "doc.txt", tmp_path / "model.ckpt"
    write_corpus([doc], str(path))
    assert cli.main(["oracle", "--in", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {path}: document 0: {error.value}\n"
    assert cli.main(["train", "--in", str(path), "--out", str(model), "--steps", "1"]) == 1
    assert capsys.readouterr().err == f"error: {path}: document 0: {error.value}\n"
    assert not model.exists()


ID_THEME = ('{:/s/document /s/document/text: "a" /s/document/tokens: [{/s/token/text: "a" '
            '/s/token/start: 0 /s/token/length: 1}] /s/document/mention: {:/s/phrase '
            '/s/phrase/begin: 0 /s/phrase/evokes: {=#1 :/t/e}} '
            '/s/document/frame: {:/t/theme id: #1}}\n')


def test_a_theme_linked_only_through_id_is_unrepresentable(tmp_path, capsys):
    """`id` is no role, so no link creates the theme: the oracle refuses
    the document rather than leave the theme out of its sequence."""
    store = Store()
    evoked = store.new_frame([(store.isa, store.intern("/t/e"))])
    theme = store.new_frame([(store.isa, store.intern("/t/theme")), (store.id, evoked)])
    doc = Document("a", tokenize("a"), [Mention(0, 1, [evoked])], store, [theme])
    path = tmp_path / "doc.txt"
    write_corpus([doc], str(path))
    assert path.read_text(encoding="utf-8") == ID_THEME
    problem = "non-evoked frame has 0 connecting roles, expected 1"
    for document in (doc, read_corpus(str(path))[0]):
        with pytest.raises(UnrepresentableDocumentError, match=f"^{problem}$"):
            generate(document)
    assert cli.main(["oracle", "--in", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {path}: document 0: {problem}\n"


def _given_unruly_documents() -> list[Document]:
    """The documents of 2,000 `random_unruly_document`s (seed 5) that the
    oracle gives a sequence for."""
    rng = random.Random(5)
    given = []
    for _ in range(2000):
        doc = random_unruly_document(rng)
        try:
            generate(doc)
        except UnrepresentableDocumentError:
            continue
        given.append(doc)
    return given


def test_the_links_sequenced_are_the_links_scored():
    """CONNECT, ELABORATE and EMBED each build one link, and the evaluator
    scores each link once, so their count is the gold Role total of a
    document scored against itself.  No link runs through `id`."""
    rng = random.Random(2021)
    docs = [doc for seed in (1, 11, 17) for doc in generate_corpus(seed, 200)]
    for doc in docs + [random_document(rng) for _ in range(2000)] + _given_unruly_documents():
        actions = generate(doc)
        built = sum(action.kind in (CONNECT, ELABORATE, EMBED) for action in actions)
        assert built == evaluate(doc, doc).role.total_gold
        assert not any(action.kind == CONNECT and action.role == "id" for action in actions)


def test_an_evoked_frame_of_a_schema_type_keeps_its_evoke_and_assign():
    store = Store()
    phrase = store.new_frame([(store.isa, store.intern(PHRASE_TYPE)),
                              (store.intern("/r/c"), 7)])
    doc = Document("a", tokenize("a"), [Mention(0, 1, [phrase])], store)
    assert [action.to_text() for action in generate(doc)] == \
        ["EVOKE(/s/phrase, 1)", "ASSIGN(0, /r/c, 7)", "SHIFT", "STOP"]
    assert roundtrip_check(doc)


def test_a_frame_is_created_through_its_role_not_an_id_slot():
    """The first evoked frame names the embedded one in an `id` slot,
    which is no link; the frame, listed as a theme, is embedded where its
    own link leads."""
    store = Store()
    first = store.new_frame([(store.isa, store.intern("/t/a"))])
    second = store.new_frame([(store.isa, store.intern("/t/b"))])
    embedded = store.new_frame([(store.isa, store.intern("/t/c")),
                                (store.intern("/r/x"), second)])
    store.add_slot(first, store.id, embedded)
    doc = Document("a b", tokenize("a b"), [Mention(0, 1, [first]), Mention(1, 1, [second])],
                   store, [embedded])
    assert [action.to_text() for action in generate(doc)] == \
        ["EVOKE(/t/a, 1)", "SHIFT", "EVOKE(/t/b, 1)", "EMBED(0, /r/x, /t/c)", "SHIFT", "STOP"]
    assert roundtrip_check(doc)


def test_a_frame_reached_only_through_an_id_slot_is_outside_the_graph():
    """An unlisted frame that only an `id` slot names is no graph frame:
    the oracle leaves it out and the evaluator does not count it."""
    store = Store()
    evoked = store.new_frame([(store.isa, store.intern("/t/a"))])
    store.add_slot(evoked, store.id, store.new_frame([(store.isa, store.intern("/t/c"))]))
    doc = Document("a", tokenize("a"), [Mention(0, 1, [evoked])], store)
    assert frame_graph(doc).frames == [evoked]
    assert [action.to_text() for action in generate(doc)] == ["EVOKE(/t/a, 1)", "SHIFT", "STOP"]
    assert evaluate(doc, doc).frame.total_gold == 1
    assert roundtrip_check(doc)


def _schema_link_document(case: str) -> Document:
    """One token evoking one frame, and a link that touches a frame of a
    schema type, which the evaluator neither aligns nor counts."""
    store = Store()
    typed = lambda name, *slots: store.new_frame([(store.isa, store.intern(name)), *slots])
    role = store.intern
    if case == "from-evoked-phrase":
        evoked = typed(PHRASE_TYPE, (role("/r/x"), typed("/t/a", (role("/c/k"), "s"))))
        themes = []
    elif case == "to-document-frame":
        evoked = typed("/t/a", (role("/r/y"), typed(DOCUMENT_TYPE)))
        themes = []
    elif case == "theme-to-phrase":
        evoked = typed("/t/a")
        themes = [typed("/t/b", (role("/r/x"), evoked), (role("/r/y"), typed(PHRASE_TYPE)))]
    else:  # "theme-into-evoked-phrase"
        evoked = typed(PHRASE_TYPE)
        themes = [typed("/t/a", (role("/r/y"), evoked))]
    return Document("a", tokenize("a"), [Mention(0, 1, [evoked])], store, themes)


SCHEMA_LINK_SEQUENCES = {
    "from-evoked-phrase": ["EVOKE(/s/phrase, 1)", "SHIFT", "STOP"],
    "to-document-frame": ["EVOKE(/t/a, 1)", "SHIFT", "STOP"],
    "theme-to-phrase": ["EVOKE(/t/a, 1)", "EMBED(0, /r/x, /t/b)", "SHIFT", "STOP"],
}


@pytest.mark.parametrize("case", sorted(SCHEMA_LINK_SEQUENCES))
def test_a_link_to_or_from_a_schema_frame_is_not_sequenced(case):
    """No link of a schema-typed frame is scored, so none creates a frame
    or counts as a non-evoked frame's one connecting role."""
    doc = _schema_link_document(case)
    assert [action.to_text() for action in generate(doc)] == SCHEMA_LINK_SEQUENCES[case]
    assert roundtrip_check(doc)


def test_a_theme_linked_only_into_an_evoked_phrase_is_unrepresentable():
    """Its one link ends at a frame the evaluator does not align, so the
    theme could never be matched."""
    with pytest.raises(UnrepresentableDocumentError, match="has 0 connecting roles"):
        generate(_schema_link_document("theme-into-evoked-phrase"))


def test_an_evoked_phrase_with_a_frame_role_is_unrepresentable():
    store = Store()
    phrase = store.new_frame([(store.isa, store.intern(PHRASE_TYPE))])
    store.add_slot(phrase, phrase, 3)
    doc = Document("a", tokenize("a"), [Mention(0, 1, [phrase])], store)
    with pytest.raises(UnrepresentableDocumentError, match="^slot role is not a symbol$"):
        generate(doc)


def test_every_sequence_the_oracle_gives_rebuilds_its_document():
    """Over documents with schema-typed and untyped frames, `id` and later
    `isa` links and random themes, the oracle refuses a document or
    gives a sequence whose replay scores as the document itself."""
    given = _given_unruly_documents()
    assert all(roundtrip_check(doc) for doc in given)
    assert len(given) == 999  # the oracle refuses the other 1,001


@pytest.mark.parametrize("value", ["a b", "nil", "12", "é", math.inf, math.nan])
def test_constants_without_notation_are_unrepresentable(value):
    store = Store()
    if isinstance(value, str):
        value = store.intern(value)
    frame = store.new_frame([(store.isa, store.intern("/t/a")), (store.intern("/c/x"), value)])
    doc = Document("a", tokenize("a"), [Mention(0, 1, [frame])], store)
    with pytest.raises(UnrepresentableDocumentError, match="has no notation"):
        generate(doc)


def test_random_documents_stay_representable():
    for seed in (1, 2, 7, 202):
        rng = random.Random(seed)
        for _ in range(300):
            assert roundtrip_check(random_document(rng))


def test_generate_is_deterministic():
    doc = generate_corpus(21, 1)[0]
    assert sequence_to_text(generate(doc)) == sequence_to_text(generate(doc))


def test_sequence_replays_validly():
    for doc in generate_corpus(31, 60):
        state = run_sequence(doc.text, doc.tokens, generate(doc))
        assert state.done
        assert state.cursor == len(doc.tokens)


def test_fuzz_documents_roundtrip():
    rng = random.Random(202)
    for _ in range(150):
        doc = random_document(rng)
        assert roundtrip_check(doc)


def table_rows(table: str) -> dict[str, tuple[int, int]]:
    """kind (or Total) -> (distinct texts, actions) read from an
    `action_table`."""
    rows = {}
    for line in table.splitlines()[1:]:
        kind, unique, raw = line.split()
        rows[kind] = (int(unique.replace(",", "")), int(raw.replace(",", "")))
    return rows


def test_stats_counts():
    docs = [Document("a b c", tokenize("a b c"), [], Store()),
            Document("x y z w", tokenize("x y z w"), [], Store())]
    rows = table_rows(action_table([generate(d) for d in docs]))
    assert rows["SHIFT"] == (1, 7)
    assert rows["STOP"] == (1, 2)
    assert rows["Total"] == (2, 9)


def test_stats_shift_equals_tokens_stop_equals_docs():
    docs = generate_corpus(41, 80)
    rows = table_rows(action_table([generate(d) for d in docs]))
    assert rows["SHIFT"][1] == sum(len(d.tokens) for d in docs)
    assert rows["STOP"][1] == len(docs)


def test_stats_match_independent_recount():
    docs = generate_corpus(1, 100)
    rows = table_rows(action_table([generate(d) for d in docs]))
    raw: dict[str, int] = {}
    unique: dict[str, set] = {}
    for doc in docs:
        for action in generate(doc):
            raw[action.kind] = raw.get(action.kind, 0) + 1
            unique.setdefault(action.kind, set()).add(action.to_text())
    for kind in ACTION_KINDS:
        assert rows[kind] == (len(unique.get(kind, ())), raw.get(kind, 0))
    assert rows["Total"] == (sum(map(len, unique.values())), sum(raw.values()))


def test_stats_table_layout():
    docs = generate_corpus(1, 10)
    table = action_table([generate(d) for d in docs])
    lines = table.splitlines()
    assert lines[0].split() == ["Action", "Type", "#", "Unique", "Args", "Raw", "Count"]
    assert lines[1].startswith("SHIFT")
    assert lines[-1].startswith("Total")
    assert len(lines) == 10  # header + 8 kinds + total
