import random

import pytest

from framekit import cli
from framekit.corpus import generate_corpus
from framekit.document import Document, Mention, frame_graph, tokenize
from framekit.evaluation import (EvalReport, MetricCounts, METRICS,
                                 TokenMismatchError, align, evaluate,
                                 evaluate_corpus)
from framekit.store import Store
from support import (brute_force_counts, copy_document, hit_document,
                     perturb_document, rebuild_document)


def assert_identity(report):
    """Self-evaluation identity: nothing unmatched on either side, and
    F1 = 1 for every metric that has anything to score (a metric with
    zero totals is pinned to 0 by the 0/0 rule)."""
    for name in METRICS:
        counts = report.metric(name)
        assert counts.matched_pred == counts.total_pred
        assert counts.matched_gold == counts.total_gold
        if counts.total_gold or counts.total_pred:
            assert counts.f1 == 1.0, name


def test_self_evaluation_identity(hit_doc):
    assert_identity(evaluate(hit_doc, hit_doc))


def test_identity_on_synthetic_corpus():
    docs = generate_corpus(17, 100)
    for doc in docs:
        assert_identity(evaluate(doc, copy_document(doc)))


def test_alignment_identity(hit_doc):
    clone = copy_document(hit_doc)
    mapping = align(frame_graph(hit_doc), frame_graph(clone))
    assert len(mapping) == 3  # every gold frame aligned


def test_missing_mention_unaligns_one(hit_doc):
    pred = copy_document(hit_doc)
    # drop the ball mention; its frame stays linked via arg1 and is
    # still aligned through link extension, so only the span suffers
    pred.mentions = [m for m in pred.mentions if m.begin != 3]
    mapping = align(frame_graph(hit_doc), frame_graph(pred))
    assert len(mapping) == 3
    report = evaluate(hit_doc, pred)
    assert report.span.matched_gold == 2
    assert report.span.total_gold == 3
    assert report.span.total_pred == 2


def test_dropped_frame_unaligned(hit_doc):
    pred = copy_document(hit_doc)
    dropped = pred.mentions[2].evoked[0]
    pred.mentions = pred.mentions[:2]
    store = pred.store
    pred = rebuild_document(pred, {
        frame: [s for s in store.slots(frame)
                if not (isinstance(s.value, type(dropped)) and s.value == dropped)]
        for frame in store.frames()})
    report = evaluate(hit_doc, pred)
    assert report.frame.matched_gold == 2
    assert report.frame.total_gold == 3
    assert report.frame.total_pred == 2


def test_link_extension_fixpoint():
    # span-evoked A -> r -> non-evoked B on both sides: B aligned via links
    def build():
        store = Store()
        doc = Document("a", tokenize("a"), [], store)
        a = store.new_frame([(store.isa, store.intern("/t/a"))])
        b = store.new_frame([(store.isa, store.intern("/t/b"))])
        store.add_slot(a, store.intern("/r/x"), b)
        doc.mentions = [Mention(0, 1, [a])]
        return doc

    gold, pred = build(), build()
    mapping = align(frame_graph(gold), frame_graph(pred))
    assert len(mapping) == 2
    assert_identity(evaluate(gold, pred))


def test_embedded_frame_aligned_via_incoming_link():
    def build():
        store = Store()
        doc = Document("a", tokenize("a"), [], store)
        a = store.new_frame([(store.isa, store.intern("/t/a"))])
        wrapper = store.new_frame([(store.isa, store.intern("/t/w")),
                                   (store.intern("/r/of"), a)])
        doc.mentions = [Mention(0, 1, [a])]
        doc.themes = [wrapper]
        return doc

    gold, pred = build(), build()
    assert len(align(frame_graph(gold), frame_graph(pred))) == 2
    assert_identity(evaluate(gold, pred))


def test_retyped_frame_counts(hit_doc):
    pred = copy_document(hit_doc)
    store = pred.store
    ball = pred.mentions[2].evoked[0]
    slots = list(store.slots(ball))
    slots[0] = slots[0]._replace(value=store.intern("/saft/other"))
    pred = rebuild_document(pred, {ball: slots})
    report = evaluate(hit_doc, pred)
    assert report.span.f1 == 1.0
    assert report.frame.f1 == 1.0
    assert report.type.precision == pytest.approx(2 / 3)
    assert report.type.recall == pytest.approx(2 / 3)
    assert report.role.f1 == 1.0


def test_second_isa_is_a_label(monkeypatch):
    """A frame's first `isa` is its type; a later one is scored as a
    Label, and a replay that drops it is no round trip."""
    from framekit import oracle

    def build(types):
        store = Store()
        doc = Document("a", tokenize("a"), [], store)
        frame = store.new_frame([(store.isa, store.intern(t)) for t in types])
        doc.mentions = [Mention(0, 1, [frame])]
        return doc

    gold, pred = build(["/t/a", "/t/b"]), build(["/t/a"])
    report = evaluate(gold, pred)
    assert report.type.f1 == 1.0
    assert (report.label.matched_gold, report.label.total_gold) == (0, 1)
    assert report.label.recall < 1
    expected = brute_force_counts(gold, pred)
    for name in METRICS:
        counts = report.metric(name)
        assert (counts.matched_pred, counts.total_pred,
                counts.matched_gold, counts.total_gold) == expected[name], name

    assert oracle.roundtrip_check(gold)
    full = oracle.generate

    def without_second_isa(doc):
        return [a for a in full(doc) if not (a.kind == "ASSIGN" and a.role == "isa")]

    monkeypatch.setattr(oracle, "generate", without_second_isa)
    assert len(oracle.generate(gold)) == len(full(gold)) - 1
    assert not oracle.roundtrip_check(gold)


def phrase_typed_document() -> Document:
    """"John hit": "John" evokes a /saft/person frame and a frame typed
    /s/phrase, which `frame_graph` leaves out; "hit" evokes a /pb/hit-01
    frame linking to both."""
    store = Store()
    person = store.new_frame([(store.isa, store.intern("/saft/person"))])
    phrase = store.new_frame([(store.isa, store.intern("/s/phrase"))])
    hit = store.new_frame([(store.isa, store.intern("/pb/hit-01")),
                           (store.intern("/pb/arg0"), person),
                           (store.intern("/pb/arg1"), phrase)])
    mentions = [Mention(0, 1, [person, phrase]), Mention(1, 1, [hit])]
    return Document("John hit", tokenize("John hit"), mentions, store)


def test_frames_outside_the_graph_are_neither_aligned_nor_counted(tmp_path, capsys):
    from framekit import oracle

    doc = phrase_typed_document()
    report = evaluate(doc, doc)
    assert_identity(report)
    assert (report.frame.total_gold, report.role.total_gold) == (2, 1)
    assert len(align(frame_graph(doc), frame_graph(doc))) == 2
    assert oracle.roundtrip_check(doc)

    path = tmp_path / "doc.txt"
    cli.write_corpus([doc], str(path))
    assert cli.main(["eval", "--gold", str(path), "--pred", str(path)]) == 0
    fields = dict(line.split("=") for line in capsys.readouterr().out.splitlines()
                  if "=" in line)
    for name in METRICS:
        key = name.lower()
        for side in ("pred", "gold"):
            assert int(fields[f"{key}.matched_{side}"]) <= int(fields[f"{key}.total_{side}"])
    for key in ("frame", "type", "slot", "combined"):
        assert fields[f"{key}.f1"] == "100.00", key


def _one_frame_document(case: str) -> Document:
    """"a" evoking one frame that holds, by case, a frame in its `id` slot,
    a frame under a frame-valued role, or a list constant holding a
    symbol or a frame."""
    store = Store()
    frame = store.new_frame([(store.isa, store.intern("/t/e"))])
    other = store.new_frame([(store.isa, store.intern("/t/c"))])
    if case == "id-slot":
        store.add_slot(frame, store.id, other)
    elif case == "frame-role":
        store.add_slot(frame, store.new_frame([(store.isa, store.intern("/t/r"))]), other)
    elif case == "symbol-list":
        store.add_slot(frame, store.intern("/r/c"), [store.intern("/v/x"), 1])
    else:  # "frame-list"
        store.add_slot(frame, store.intern("/r/c"), [other])
    return Document("a", tokenize("a"), [Mention(0, 1, [frame])], store)


@pytest.mark.parametrize("case, metric", [("id-slot", "frame"), ("frame-role", "frame"),
                                          ("symbol-list", "label"), ("frame-list", "label")])
def test_a_file_scored_against_itself_reads_100(tmp_path, capsys, case, metric):
    """Each read of the file has its own store: the frame graph leaves out
    frames that no link reaches, and a list constant is keyed by its
    items' names, not by handles of one store."""
    path = tmp_path / "doc.txt"
    cli.write_corpus([_one_frame_document(case)], str(path))
    assert cli.main(["eval", "--gold", str(path), "--pred", str(path)]) == 0
    fields = dict(line.split("=") for line in capsys.readouterr().out.splitlines()
                  if "=" in line)
    assert fields[f"{metric}.f1"] == "100.00"
    assert fields[f"{metric}.total_gold"] == "1"


@pytest.mark.parametrize("gold_value, pred_value", [
    ([1, "x"], [1, "x"]),
    ([1, "x"], ["x", 1]),
    ([[1, "x"], [2.5]], [[1, "x"], [2.5]]),
    ([[1, "x"], [2.5]], [[1, "x"], [2.5, None]]),
], ids=["flat-equal", "flat-different", "nested-equal", "nested-different"])
def test_array_valued_labels_match_only_when_equal(gold_value, pred_value):
    def build(value):
        store = Store()
        frame = store.new_frame([(store.isa, store.intern("/t/a")),
                                 (store.intern("/r/list"), value)])
        return Document("a", tokenize("a"), [Mention(0, 1, [frame])], store)

    report = evaluate(build(gold_value), build(pred_value))
    matched = int(gold_value == pred_value)
    assert (report.label.matched_pred, report.label.total_pred,
            report.label.matched_gold, report.label.total_gold) == (matched, 1, matched, 1)


def test_token_mismatch_rejected(hit_doc, tmp_path, capsys):
    store = Store()
    other = Document("John hit a wall", tokenize("John hit a wall"), [], store)
    with pytest.raises(TokenMismatchError):
        evaluate(hit_doc, other)
    message = "document 1: gold and predicted token sequences differ"
    with pytest.raises(TokenMismatchError, match=f"^{message}$"):
        evaluate_corpus([hit_doc, hit_doc], [hit_doc, other])
    gold, pred = tmp_path / "gold.txt", tmp_path / "pred.txt"
    cli.write_corpus([hit_doc, hit_doc], str(gold))
    cli.write_corpus([hit_doc, other], str(pred))
    assert cli.main(["eval", "--gold", str(gold), "--pred", str(pred)]) == 1
    assert capsys.readouterr().err == f"error: {gold}, {pred}: {message}\n"


def test_counts_match_brute_force_on_perturbed_pairs():
    rng = random.Random(77)
    docs = generate_corpus(23, 60)
    for doc in docs:
        pred = perturb_document(doc, rng)
        report = evaluate(doc, pred)
        expected = brute_force_counts(doc, pred)
        for name in METRICS:
            counts = report.metric(name)
            assert (counts.matched_pred, counts.total_pred,
                    counts.matched_gold, counts.total_gold) == expected[name], \
                (name, doc.text)


def test_swap_symmetry():
    rng = random.Random(13)
    docs = generate_corpus(29, 30)
    for doc in docs:
        pred = perturb_document(doc, rng)
        forward = evaluate(doc, pred)
        backward = evaluate(pred, doc)
        for name in METRICS:
            f, b = forward.metric(name), backward.metric(name)
            assert f.precision == pytest.approx(b.recall)
            assert f.recall == pytest.approx(b.precision)
            assert f.f1 == pytest.approx(b.f1)


def test_deleting_prediction_never_raises_recall():
    docs = generate_corpus(37, 30)
    for doc in docs:
        pred = copy_document(doc)
        base = evaluate(doc, pred)
        while len(pred.mentions) > 1:
            pred.mentions.pop()
            smaller = evaluate(doc, pred)
            for name in METRICS:
                assert smaller.metric(name).recall <= base.metric(name).recall + 1e-12
            base = smaller


def test_aggregate_consistency():
    rng = random.Random(5)
    docs = generate_corpus(43, 40)
    for doc in docs:
        report = evaluate(doc, perturb_document(doc, rng))
        slot = report.slot
        parts = [report.type, report.role, report.label]
        assert slot.matched_pred == sum(p.matched_pred for p in parts)
        assert slot.total_pred == sum(p.total_pred for p in parts)
        assert slot.matched_gold == sum(p.matched_gold for p in parts)
        assert slot.total_gold == sum(p.total_gold for p in parts)
        combined = report.combined
        parts = [report.span, report.frame, report.type, report.role, report.label]
        assert combined.total_pred == sum(p.total_pred for p in parts)
        assert combined.total_gold == sum(p.total_gold for p in parts)


def test_corpus_micro_average():
    docs = generate_corpus(47, 10)
    preds = [copy_document(d) for d in docs]
    preds[0].mentions = preds[0].mentions[:1]
    report = evaluate_corpus(docs, preds)
    total = EvalReport()
    for doc, pred in zip(docs, preds):
        total = total + evaluate(doc, pred)
    for name in METRICS:
        assert report.metric(name).f1 == total.metric(name).f1


def test_empty_corpus_defined_zero():
    report = evaluate_corpus([], [])
    for name in METRICS:
        counts = report.metric(name)
        assert counts.precision == 0.0
        assert counts.recall == 0.0
        assert counts.f1 == 0.0


def test_length_mismatch():
    docs = generate_corpus(3, 2)
    message = "^corpus length mismatch: 2 gold vs 1 predicted documents$"
    with pytest.raises(TokenMismatchError, match=message) as info:
        evaluate_corpus(docs, docs[:1])
    assert isinstance(info.value, ValueError)


def test_zero_over_zero_is_zero():
    counts = MetricCounts(0, 0, 0, 0)
    assert counts.precision == 0.0 and counts.recall == 0.0 and counts.f1 == 0.0


def test_report_formats(hit_doc):
    report = evaluate(hit_doc, hit_doc)
    table = report.format_table()
    lines = table.splitlines()
    assert len(lines) == 21  # 7 metrics x P/R/F1
    assert lines[0].startswith("Span") and "Precision" in lines[0]
    assert lines[-1].strip().startswith("F1")
    machine = report.format_machine()
    assert "slot.f1=100.00" in machine
    assert "combined.precision=100.00" in machine


@pytest.fixture
def hit_doc():
    return hit_document()
