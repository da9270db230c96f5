import math
import random

import pytest

from framekit import cli
from framekit.cli import write_corpus
from framekit.corpus import generate_corpus
from framekit.document import Document, Mention, tokenize
from framekit.oracle import (UnrepresentableDocumentError, action_table,
                             generate, replay, roundtrip_check)
from framekit.store import Store
from framekit.transitions import ACTION_KINDS, run_sequence, sequence_to_text
from support import HIT_SEQUENCE, random_document


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
    assert capsys.readouterr().err == f"error: document 0: {error.value}\n"
    assert cli.main(["train", "--in", str(path), "--out", str(model), "--steps", "1"]) == 1
    assert capsys.readouterr().err == f"error: document 0: {error.value}\n"
    assert not model.exists()


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
