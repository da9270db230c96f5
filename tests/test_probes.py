"""The benchmark's probes (`perfbench/workloads.py`'s `PROBES`) wrap
functions the program still has.  A probe whose target is renamed is
skipped at run time, and its per-layer figures read zero without an
error; here it fails instead."""

import sys
from pathlib import Path

from framekit import document, evaluation, oracle
from framekit.corpus import generate_corpus

sys.path.append(str(Path(__file__).resolve().parent.parent / "perfbench"))

import workloads  # noqa: E402

# Targets that `cli.print_document` replaced; the benchmark still lists
# them (ROADMAP item 2).
KNOWN_DEAD = {"framekit.cli.print_with_labels", "framekit.cli.doc_to_frame"}


def test_every_probe_target_resolves():
    missing = {f"{owner.__name__}.{attribute}" for owner, attribute, _ in workloads.PROBES
               if getattr(owner, attribute, None) is None}
    assert missing <= KNOWN_DEAD


def test_frame_graph_probes_see_every_call(monkeypatch):
    """`document.frame_graph.calls` counts the calls made through the
    oracle's and the evaluator's own names: one per `generate`, one per
    side of `evaluate`, none in `align`, which takes the two tables."""
    calls = {"oracle": 0, "evaluation": 0}
    for module in (oracle, evaluation):
        def counted(doc, name=module.__name__.split(".")[-1], inner=module.frame_graph):
            calls[name] += 1
            return inner(doc)
        monkeypatch.setattr(module, "frame_graph", counted)
    doc = generate_corpus(3, 1)[0]
    oracle.generate(doc)
    assert calls == {"oracle": 1, "evaluation": 0}
    evaluation.evaluate(doc, doc)
    assert calls == {"oracle": 1, "evaluation": 2}
    evaluation.align(document.frame_graph(doc), document.frame_graph(doc))
    assert calls == {"oracle": 1, "evaluation": 2}
    oracle.roundtrip_check(doc)
    assert calls == {"oracle": 2, "evaluation": 4}
