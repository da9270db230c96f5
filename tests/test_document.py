import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framekit import cli
from framekit.cli import CliError, read_corpus, write_corpus
from framekit.corpus import generate_corpus
from framekit.document import (Document, Mention, SchemaError, doc_from_frame,
                               frame_graph, print_document, tokenize)
from framekit.evaluation import METRICS, evaluate, evaluate_corpus
from framekit.notation import (Printer, UnprintableValueError, parse_or_raise,
                               print_notation)
from framekit.oracle import UnrepresentableDocumentError, generate
from framekit.store import DanglingHandleError, Handle, Store
from support import documents_isomorphic, hit_document, reference_doc_to_frame

GOLDEN_TOKEN_CASES = Path(__file__).parent / "data" / "tokenizer_cases.txt"


def test_tokenize_worked_example():
    tokens = tokenize("John hit the ball")
    assert [t.text for t in tokens] == ["John", "hit", "the", "ball"]
    assert [t.start for t in tokens] == [0, 5, 9, 13]
    assert [t.length for t in tokens] == [4, 3, 3, 4]


def test_tokenize_empty():
    assert tokenize("") == []


@pytest.mark.parametrize("space", ["\x1c", "\x85", "\xa0", "\u2003", "\u3000"],
                         ids=lambda space: f"U+{ord(space):04X}")
def test_tokenize_splits_on_non_ascii_whitespace(space):
    tokens = tokenize(f"a{space}b")
    assert [t.text for t in tokens] == ["a", "b"]
    assert [t.start for t in tokens] == [0, 1 + len(space.encode("utf-8"))]


def test_tokenize_golden_table():
    for line in GOLDEN_TOKEN_CASES.read_text(encoding="utf-8").splitlines():
        if not line or line.startswith("#"):
            continue
        text, expected = line.split("\t")
        got = [t.text for t in tokenize(text.replace("\\t", "\t"))]
        assert got == (expected.split(" ") if expected else []), line


@given(st.text(max_size=40))
@settings(max_examples=200)
def test_tokenize_offsets_reslice(text):
    data = text.encode("utf-8")
    pos = 0
    for token in tokenize(text):
        assert data[token.start:token.start + token.length].decode("utf-8") == token.text
        assert token.start >= pos
        pos = token.start + token.length


def reread(doc: Document) -> tuple[Handle, Store]:
    """Print `doc` and read the text back into a fresh store."""
    store = Store()
    (top,) = parse_or_raise(print_document(doc)[0], store)
    return top, store


def test_worked_example_frame_structure(hit_doc):
    handle, store = reread(hit_doc)
    token_array = store.get_role(handle, store.intern("/s/document/tokens"))
    assert len(token_array) == 4
    mention_role = store.intern("/s/document/mention")
    mentions = [s for s in store.slots(handle) if s.role == mention_role]
    assert len(mentions) == 3
    assert store.get_role(handle, store.intern("/s/document/text")) == "John hit the ball"


def test_document_roundtrip(hit_doc):
    back = doc_from_frame(*reread(hit_doc))
    assert back.text == hit_doc.text
    assert back.tokens == hit_doc.tokens
    assert [(m.begin, m.length) for m in back.mentions] == \
        [(m.begin, m.length) for m in hit_doc.mentions]
    assert documents_isomorphic(hit_doc, back)


def test_empty_document_roundtrip():
    doc = Document("", [], [], Store())
    back = doc_from_frame(*reread(doc))
    assert back.text == "" and back.tokens == [] and back.mentions == []


def test_multi_evoke_roundtrip():
    store = Store()
    doc = Document("x", tokenize("x"), [], store)
    a = store.new_frame([(store.isa, store.intern("/t/a"))])
    b = store.new_frame([(store.isa, store.intern("/t/b"))])
    doc.mentions.append(Mention(0, 1, [a, b]))
    back = doc_from_frame(*reread(doc))
    assert [back.store.symbol_name(back.store.frame_type(frame))
            for frame in back.mentions[0].evoked] == ["/t/a", "/t/b"]
    assert documents_isomorphic(doc, back)


def _shared_frames_document() -> Document:
    """A frame evoked by two mentions, a named frame and a theme that
    links into the graph."""
    store = Store()
    shared = store.new_frame([(store.isa, store.intern("/t/a"))])
    named = store.new_frame([(store.isa, store.intern("/t/b")), (store.id, store.intern("/n/x")),
                             (store.intern("/r/to"), shared)])
    theme = store.new_frame([(store.isa, store.intern("/t/c")), (store.intern("/r/of"), named)])
    store.add_slot(shared, store.intern("/r/back"), named)
    mentions = [Mention(0, 2, [shared]), Mention(1, 1, [named, shared]), Mention(2, 1, [shared])]
    return Document("a b c", tokenize("a b c"), mentions, store, [theme])


def _schema_type_names_a_frame(name: str) -> Document:
    doc = _shared_frames_document()
    doc.store.new_frame([(doc.store.id, doc.store.intern(name))])
    return doc


def _chain(n_frames: int, evoked: bool) -> Document:
    """A chain headed by a theme, whose k-th frame is at depth k, or by
    an evoked frame, whose k-th frame is at depth k + 1."""
    store = Store()
    frames = [store.new_frame([(store.isa, store.intern("/t"))]) for _ in range(n_frames)]
    for frame, successor in zip(frames, frames[1:]):
        store.add_slot(frame, store.intern("next"), successor)
    if evoked:
        return Document("w", tokenize("w"), [Mention(0, 1, frames[:1])], store)
    return Document("", [], [], store, frames[:1])


HAND_BUILT = {
    "shared": _shared_frames_document,
    "phrase-type-names-a-frame": lambda: _schema_type_names_a_frame("/s/phrase"),
    "document-type-names-a-frame": lambda: _schema_type_names_a_frame("/s/document"),
    "deepest-theme-chain": lambda: _chain(199, evoked=False),
    "theme-chain-too-deep": lambda: _chain(200, evoked=False),
    "deepest-evoked-chain": lambda: _chain(198, evoked=True),
    "evoked-chain-too-deep": lambda: _chain(199, evoked=True),
    "worked-example": hit_document,
}


def _printed(print_it) -> tuple[str, object]:
    try:
        return "printed", print_it()
    except UnprintableValueError as exc:
        return "refused", str(exc)


@pytest.mark.parametrize("seed", [1, 11, 17])
def test_print_document_prints_the_reference_frame(seed):
    for doc in generate_corpus(seed, 100):
        text = print_document(doc)[0]  # first: the reference allocates
        assert text == print_notation([reference_doc_to_frame(doc)], doc.store)


@pytest.mark.parametrize("label", [1, 7])
@pytest.mark.parametrize("case", sorted(HAND_BUILT))
def test_print_document_prints_the_reference_frame_by_hand(case, label):
    """The same text, next label or refusal as the printer gives for the
    reference frame."""
    doc = HAND_BUILT[case]()
    got = _printed(lambda: print_document(doc, label))
    frame = reference_doc_to_frame(doc)
    printer = Printer(doc.store, [frame], label)
    assert got == _printed(lambda: (printer.emit(frame, 0), printer.next_number))


def test_print_document_numbers_shared_frames_from_the_first_label():
    text, next_label = print_document(_shared_frames_document(), 5)
    assert re.findall(r"=#(\d+)", text) == ["5"]
    assert next_label == 6
    assert print_document(Document("", [], [], Store()), 5)[1] == 5


def test_print_document_refuses_a_schema_type_that_names_a_frame():
    with pytest.raises(UnprintableValueError, match="symbol '/s/phrase' names a frame"):
        print_document(_schema_type_names_a_frame("/s/phrase"))


def test_writing_a_document_allocates_no_frame(tmp_path):
    doc = generate_corpus(1, 1)[0]
    frames = doc.store.num_frames()
    path = tmp_path / "doc.txt"
    written = []
    for _ in range(3):
        write_corpus([doc], str(path))
        written.append(path.read_bytes())
        assert doc.store.num_frames() == frames
    assert written[0] == written[1] == written[2]


def test_phrase_length_defaults_to_one():
    store = Store()
    text = """{:/s/document /s/document/text: "a b"
               /s/document/tokens: [
                 {/s/token/text: "a" /s/token/start: 0 /s/token/length: 1}
                 {/s/token/text: "b" /s/token/start: 2 /s/token/length: 1}]
               /s/document/mention: {:/s/phrase /s/phrase/begin: 1
                                     /s/phrase/evokes: {:/t/x}}}"""
    (top,) = parse_or_raise(text, store)
    doc = doc_from_frame(top, store)
    assert doc.mentions[0].length == 1


def test_schema_error_missing_text():
    store = Store()
    frame = store.new_frame([(store.isa, store.intern("/s/document"))])
    with pytest.raises(SchemaError):
        doc_from_frame(frame, store)


def test_schema_error_not_a_document():
    store = Store()
    frame = store.new_frame([(store.isa, store.intern("/t/other"))])
    with pytest.raises(SchemaError):
        doc_from_frame(frame, store)


SPLIT_CHARACTER_DOC = """{:/s/document /s/document/text: "h\u00e9llo"
  /s/document/tokens: [{/s/token/text: "h" /s/token/start: 1 /s/token/length: 1}]}"""


def test_schema_error_token_splits_character(tmp_path):
    store = Store()
    (top,) = parse_or_raise(SPLIT_CHARACTER_DOC, store)
    with pytest.raises(SchemaError):
        doc_from_frame(top, store)
    path = tmp_path / "split.txt"
    path.write_text(SPLIT_CHARACTER_DOC, encoding="utf-8")
    with pytest.raises(CliError, match="document 0"):
        read_corpus(str(path))


def test_schema_error_text_without_utf8_form():
    with pytest.raises(SchemaError):
        Document("\ud800", [], [], Store()).check()


def test_mentions_sorted_by_begin_then_longest():
    store = Store()
    doc = Document("a b c", tokenize("a b c"), [], store)
    t = store.intern("/t/x")
    f1 = store.new_frame([(store.isa, t)])
    f2 = store.new_frame([(store.isa, t)])
    f3 = store.new_frame([(store.isa, t)])
    doc.mentions.extend([Mention(1, 1, [f1]), Mention(0, 1, [f2]), Mention(0, 2, [f3])])
    doc.sort_mentions()
    assert [(m.begin, m.length) for m in doc.mentions] == [(0, 2), (0, 1), (1, 1)]


def test_frame_graph_includes_embedded(hit_doc):
    store = hit_doc.store
    evoked = hit_doc.mentions[0].evoked[0]
    embed = store.new_frame([(store.isa, store.intern("/t/wrap")),
                             (store.intern("/r/of"), evoked)])
    hit_doc.themes.append(embed)
    frames = frame_graph(hit_doc).frames
    assert embed in frames
    assert len(frames) == 4  # person, hit, ball, wrapper


def test_frame_graph_holds_listed_themes_only(hit_doc):
    store = hit_doc.store
    person = hit_doc.mentions[0].evoked[0]
    unlisted = store.new_frame([(store.isa, store.intern("/t/wrap")),
                                (store.intern("/r/of"), person)])
    loose = store.new_frame([(store.isa, store.intern("/t/loose"))])
    assert unlisted not in frame_graph(hit_doc).frames
    hit_doc.themes.append(loose)
    frames = frame_graph(hit_doc).frames
    assert len(frames) == 4 and frames[-1] == loose
    # A theme with no link is in the graph: counted, though nothing can
    # align it, and refused by the oracle.
    report = evaluate(hit_doc, hit_doc)
    assert (report.frame.total_gold, report.frame.matched_gold) == (4, 3)
    with pytest.raises(UnrepresentableDocumentError, match="0 connecting roles"):
        generate(hit_doc)


def test_check_resolves_themes():
    store = Store()
    doc = Document("", [], [], store, [Handle("frame", 99, store.uid)])
    with pytest.raises(DanglingHandleError):
        doc.check()


def test_themes_keep_their_order_through_a_file(tmp_path):
    store = Store()
    evoked = store.new_frame([(store.isa, store.intern("/t/a"))])
    of = store.intern("/r/of")
    first = store.new_frame([(store.isa, store.intern("/t/first")), (of, evoked)])
    second = store.new_frame([(store.isa, store.intern("/t/second")), (of, evoked)])
    doc = Document("a", tokenize("a"), [Mention(0, 1, [evoked])], store, [second, first])
    path = tmp_path / "doc.txt"
    write_corpus([doc], str(path))
    (back,) = read_corpus(str(path))
    assert [back.store.symbol_name(back.store.frame_type(frame)) for frame in back.themes] \
        == ["/t/second", "/t/first"]
    assert _type_names(back) == _type_names(doc) == ["/t/a", "/t/second", "/t/first"]


def test_a_theme_that_is_not_a_frame_is_reported(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text('{:/s/document /s/document/text: ""}\n'
                    '{:/s/document /s/document/text: "" /s/document/frame: 5}\n',
                    encoding="utf-8")
    assert cli.main(["oracle", "--in", str(path)]) == 1
    assert capsys.readouterr().err == \
        f"error: {path}: document 1: /s/document/frame holds a non-frame\n"


def test_frame_graph_excludes_schema_frames(hit_doc):
    # The store holds the document, phrase and token frames it was read from.
    frames = frame_graph(hit_doc).frames
    assert len(frames) == 3
    for frame in frames:
        type_name = hit_doc.store.symbol_name(
            hit_doc.store.get_role(frame, hit_doc.store.isa))
        assert type_name not in ("/s/document", "/s/phrase")


def _type_names(doc):
    store = doc.store
    return [store.symbol_name(store.frame_type(frame)) for frame in frame_graph(doc).frames]


def _embedded(doc):
    """Graph frames neither evoked nor the value of any graph frame's slot:
    only an incoming link reaches them."""
    frames = frame_graph(doc).frames
    reached = {f for m in doc.mentions for f in m.evoked}
    reached.update(s.value for f in frames for s in doc.store.slots(f))
    return [frame for frame in frames if frame not in reached]


def test_frame_graph_reads_no_arena_of_shared_store(tmp_path, monkeypatch):
    # Many documents in one store, as read from a file: each graph is
    # found from its own frames, the same as when read into a store alone.
    docs = generate_corpus(11, 20)
    write_corpus(docs, str(tmp_path / "all.txt"))
    shared = read_corpus(str(tmp_path / "all.txt"))
    alone = []
    for index, doc in enumerate(docs):
        path = tmp_path / f"{index}.txt"
        write_corpus([doc], str(path))
        (single,) = read_corpus(str(path))
        alone.append(single)
    assert all(doc.store is shared[0].store for doc in shared)
    assert any(_embedded(doc) for doc in shared)
    expected = [_type_names(doc) for doc in alone]

    def no_scan(self):
        raise AssertionError("frame_graph scanned the arena")

    monkeypatch.setattr(Store, "frames", no_scan)
    assert [_type_names(doc) for doc in shared] == expected


def test_embedded_frames_survive_a_notation_file(tmp_path):
    # The document frame links each frame that only links into the
    # graph, so the file keeps it and the oracle of the file embeds it.
    docs = generate_corpus(11, 200)
    path = tmp_path / "corpus.txt"
    write_corpus(docs, str(path))
    back = read_corpus(str(path))
    assert sum(len(frame_graph(doc).frames) for doc in docs) == 698
    assert sum(len(frame_graph(doc).frames) for doc in back) == 698
    report = evaluate_corpus(docs, back)
    for name in METRICS:
        counts = report.metric(name)
        assert counts.matched_gold == counts.total_gold == counts.total_pred, name
    out = tmp_path / "oracle.txt"
    assert cli.main(["oracle", "--in", str(path), "--out", str(out)]) == 0
    assert "EMBED(" in out.read_text(encoding="utf-8")
