from framekit.corpus import generate_corpus
from framekit.document import frame_graph
from framekit.oracle import generate, roundtrip_check
from framekit.store import Handle


def test_zero_documents():
    assert generate_corpus(1, 0) == []


def test_deterministic():
    def fingerprint(docs):
        out = []
        for doc in docs:
            frames = []
            for frame in frame_graph(doc).frames:
                frames.append(sorted(
                    (doc.store.symbol_name(s.role),
                     str(s.value.index if isinstance(s.value, Handle)
                         and s.value.is_frame()
                         else doc.store.symbol_name(s.value)
                         if isinstance(s.value, Handle) else s.value))
                    for s in doc.store.slots(frame)))
            out.append((doc.text, [(m.begin, m.length) for m in doc.mentions], frames))
        return out

    assert fingerprint(generate_corpus(1, 100)) == fingerprint(generate_corpus(1, 100))


def test_documents_check_out():
    for doc in generate_corpus(5, 200):
        doc.check()


def test_inventory_breadth():
    docs = generate_corpus(2, 400)
    types = set()
    predicates = set()
    kinds = set()
    for doc in docs:
        for action in generate(doc):
            kinds.add(action.kind)
            if action.kind == "EVOKE":
                (types if not action.type.startswith("/pb/") else predicates).add(action.type)
    assert len(types) >= 3
    assert len(predicates) >= 10
    assert {"ASSIGN", "EMBED", "ELABORATE", "SHIFT", "STOP", "EVOKE", "CONNECT"} <= kinds


def test_nonevoked_frame_rate():
    docs = generate_corpus(3, 600)
    created = sum(action.kind in ("EMBED", "ELABORATE")
                  for doc in docs for action in generate(doc))
    # roughly one non-evoked frame per ~10 documents
    assert 0.03 * len(docs) <= created <= 0.35 * len(docs)


def test_all_documents_roundtrip():
    for doc in generate_corpus(11, 150):
        assert roundtrip_check(doc)
