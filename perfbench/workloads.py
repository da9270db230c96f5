"""The benchmark workloads, the inputs they are built from, and the
correctness checks they run.

A repetition of a workload has a set-up phase, which builds its inputs
in memory from the workload seed, and a timed phase, which calls into
framekit the way the command line does.  Every call goes through the
module attribute that `PROBES` may wrap, so the same code serves the
untraced repetitions (end-to-end figures) and the traced ones
(per-layer figures).  Two public functions bundle several layers:
`cli.read_corpus` and `model.train`.  Traced repetitions call their
public pieces in the same order instead, and the run checks that the
pieces give the same documents and the same step-1 loss.

Workloads (BENCHMARK.json gates pipeline and long-docs and says why;
train-paper and corpus-files are kept for studies of one layer):

- pipeline: notation files -> oracle -> train -> checkpoint -> parse the
  dev set -> prediction files -> evaluation; the only workload that
  reports quality (dev Slot F1).  Its gold round trips, like those of
  train-paper, are checked once per run, outside the timed phase.
- train-paper: oracle, then training at the published configuration
  on short in-memory documents, one store per document; no files, no
  evaluation.
- corpus-files: many short documents in one notation file, read back
  into one shared store as the command line does; oracle, round trip
  and evaluation against a corrupted copy.
- long-docs: a few documents of about 200 sentences each, one store
  per document; oracle, round trip and evaluation against a corrupted
  copy.
"""

from __future__ import annotations

import math
import random
import statistics
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

from framekit import cli, corpus, document, evaluation, notation, oracle, transitions
from framekit.model import (Adam, ModelConfig, Parameters, autodiff, build_lexicon,
                            checkpoint, decode, network, train)
from framekit.store import Store

from spans import Tracer

# Public functions that framekit also calls from inside other public
# functions.  The benchmark calls them through the same attributes, so
# one probe covers both kinds of call.
PROBES = [
    (oracle, "frame_graph", "document.frame_graph"),
    (evaluation, "frame_graph", "document.frame_graph"),
    (oracle, "generate", "oracle.generate"),
    (evaluation, "evaluate", "evaluation.evaluate"),
    (evaluation, "align", "evaluation.align"),
    (cli, "print_with_labels", "notation.print"),
    (cli, "doc_to_frame", "document.to_frame"),
    (network, "encode_tokens", "model.network.encode"),
    (network, "extract_features", "model.features"),
    (network.ForwardPass, "step_logits", "model.network.decoder_step"),
]

# Share of EVOKE actions whose frame type the corrupted copies swap.
CORRUPT_FRACTION = 0.2

# The end-to-end training budget of the pipeline workload.  At the
# published learning rate (5e-4) a budget this short leaves the model
# predicting SHIFT only, and every F1 is zero.
PIPELINE_CONFIG = dict(lstm_dim=32, hidden_dim=32, learning_rate=0.005)

SIZES = {
    "pipeline": {"full": dict(train_docs=100, dev_docs=100, steps=80),
                 "tiny": dict(train_docs=8, dev_docs=6, steps=3)},
    "train-paper": {"full": dict(docs=192, steps=24),
                    "tiny": dict(docs=8, steps=2)},
    "corpus-files": {"full": dict(docs=100),
                     "tiny": dict(docs=10)},
    "long-docs": {"full": dict(docs=3, sentences=200),
                  "tiny": dict(docs=2, sentences=5)},
}


class Checks:
    """Correctness checks: every one is counted, none is skipped."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def __call__(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


class Rep:
    """One repetition of a workload's timed phase."""

    def __init__(self, index: int, tracer: Tracer, checks: Checks, workdir: Path):
        self.index = index
        self.tr = tracer
        self.checks = checks
        self.workdir = workdir
        self.stage_s: Counter[str] = Counter()
        self.out: dict = {}  # figures and results compared across repetitions
        self.wall_s = 0.0

    @contextmanager
    def stage(self, name: str):
        start = perf_counter()
        with self.tr.span("stage." + name):
            yield
        self.stage_s[name] += perf_counter() - start


# -- inputs ------------------------------------------------------------------


def _shape(doc: document.Document) -> tuple:
    """What a document must keep through a notation file: its text,
    tokens and mention spans with their evoked-frame counts."""
    return (doc.text, tuple((t.text, t.start, t.length) for t in doc.tokens),
            tuple((m.begin, m.length, len(m.evoked)) for m in doc.mentions))


def _signature(doc: document.Document) -> tuple:
    """`_shape` plus the store layout, to compare two readers of a file."""
    return _shape(doc) + (tuple(tuple(h.index for h in m.evoked) for m in doc.mentions),
                          doc.store.num_frames())


def _corrupted(text: str, tokens: list, actions: list, types: list[str],
               rng: random.Random, checks: Checks) -> document.Document:
    """Replay `actions` with a seeded share of EVOKE types swapped."""
    swapped = []
    for action in actions:
        if action.kind == transitions.EVOKE and rng.random() < CORRUPT_FRACTION:
            others = [t for t in types if t != action.type]
            action = transitions.Action.evoke(rng.choice(others), action.length)
        swapped.append(action)
    try:
        doc = transitions.run_sequence(text, tokens, swapped).to_document()
        doc.check()
    except (transitions.InvalidActionError, document.SchemaError) as exc:
        checks(False, f"corrupted replay is invalid: {exc}")
        return transitions.run_sequence(text, tokens, actions).to_document()
    checks(True, "corrupted replay")
    return doc


def _evoked_types(sequences) -> list[str]:
    return sorted({a.type for seq in sequences for a in seq
                   if a.kind == transitions.EVOKE})


def _corrupted_corpus(golds, sequences, rng, checks) -> list[document.Document]:
    types = _evoked_types(sequences)
    return [_corrupted(doc.text, list(doc.tokens), list(seq), types, rng, checks)
            for doc, seq in zip(golds, sequences)]


def _long_document(sentences: list[document.Document]):
    """Join short documents into one text and join their oracle
    sequences, dropping every STOP but the last."""
    text = " ".join(d.text for d in sentences)
    tokens = document.tokenize(text)
    if len(tokens) != sum(len(d.tokens) for d in sentences):
        raise ValueError("joined sentences tokenize differently")
    actions = [a for d in sentences for a in oracle.generate(d)
               if a.kind != transitions.STOP]
    actions.append(transitions.Action.stop())
    return text, tokens, actions


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def setup_pipeline(seed: int, size: dict, checks: Checks) -> dict:
    rng = _rng("pipeline", seed)
    return {"train": corpus.generate_corpus(rng.randrange(1 << 30), size["train_docs"]),
            "dev": corpus.generate_corpus(rng.randrange(1 << 30), size["dev_docs"]),
            "config": ModelConfig(**PIPELINE_CONFIG), "seed": seed,
            "steps": size["steps"]}


def setup_train_paper(seed: int, size: dict, checks: Checks) -> dict:
    rng = _rng("train-paper", seed)
    return {"docs": corpus.generate_corpus(rng.randrange(1 << 30), size["docs"]),
            "config": ModelConfig(), "seed": seed, "steps": size["steps"]}


def setup_corpus_files(seed: int, size: dict, checks: Checks) -> dict:
    rng = _rng("corpus-files", seed)
    gold = corpus.generate_corpus(rng.randrange(1 << 30), size["docs"])
    sequences = [oracle.generate(doc) for doc in gold]
    return {"gold": gold, "corrupt": _corrupted_corpus(gold, sequences, rng, checks)}


def setup_long_docs(seed: int, size: dict, checks: Checks) -> dict:
    rng = _rng("long-docs", seed)
    gold, corrupt = [], []
    for _ in range(size["docs"]):
        sentences = corpus.generate_corpus(rng.randrange(1 << 30), size["sentences"])
        text, tokens, actions = _long_document(sentences)
        doc = transitions.run_sequence(text, tokens, actions).to_document()
        doc.check()
        gold.append(doc)
        types = _evoked_types([actions])
        corrupt.append(_corrupted(text, tokens, actions, types, rng, checks))
    return {"gold": gold, "corrupt": corrupt}


# -- checks run once per run, outside the timed phase ------------------------


def check_gold(checks: Checks, golds: list[document.Document],
               roundtrip: list[document.Document]) -> None:
    """Gold scored against itself gives F1 = 1 on all seven metrics,
    and the oracle round trip holds on every listed gold document."""
    report = evaluation.evaluate_corpus(golds, golds)
    for name in evaluation.METRICS:
        f1 = report.metric(name).f1
        checks(f1 == 1.0, f"gold-vs-gold {name} F1 is {f1}, not 1")
    for index, doc in enumerate(roundtrip):
        checks(oracle.roundtrip_check(doc), f"roundtrip_check failed on gold {index}")


# -- stages ------------------------------------------------------------------


def read_docs(rep: Rep, path: Path) -> list[document.Document]:
    """`cli.read_corpus`, or in a traced repetition its public pieces:
    notation read into one store, then `doc_from_frame` per document."""
    tr = rep.tr
    tr.count("notation.read.bytes", path.stat().st_size)
    if not tr.enabled:
        docs = cli.read_corpus(str(path))
    else:
        with tr.span("cli.read_corpus"):
            text = path.read_text(encoding="utf-8")
            store = Store()
            with tr.span("notation.read"):
                result = notation.parse_notation(text, store)
            if not result.ok:
                raise cli.CliError(f"{path}: parse failed: {result.diagnostics[:5]}")
            docs = []
            for handle in result.top:
                with tr.span("document.from_frame"):
                    docs.append(document.doc_from_frame(handle, store))
    rep.out.setdefault("read_signatures", []).append([_signature(d) for d in docs])
    return docs


def through_file(rep: Rep, docs: list[document.Document], path: Path):
    """Write documents to a notation file and read them back."""
    with rep.stage("write"):
        with rep.tr.span("cli.write_corpus"):
            cli.write_corpus(docs, str(path))
    rep.tr.count("notation.print.bytes", path.stat().st_size)
    with rep.stage("read"):
        back = read_docs(rep, path)
    rep.checks([_shape(d) for d in back] == [_shape(d) for d in docs],
               f"{path.name}: documents read back differ from those written")
    return back


def oracle_stage(rep: Rep, docs: list[document.Document], roundtrip: bool = True) -> list[int]:
    """Oracle sequence, and unless told otherwise the round trip, for
    every gold document; returns the sequence lengths."""
    lengths = []
    with rep.stage("oracle"):
        for doc in docs:
            try:
                lengths.append(len(oracle.generate(doc)))
            except oracle.UnrepresentableDocumentError:
                lengths.append(0)
                rep.tr.count("oracle.unrepresentable")
                rep.checks(False, "oracle: gold document is unrepresentable")
    rep.tr.count("oracle.actions", sum(lengths))
    rep.out.update(oracle_actions=sum(lengths),
                   oracle_actions_per_s=sum(lengths) / rep.stage_s["oracle"],
                   arena_frames_per_doc=statistics.fmean(
                       d.store.num_frames() for d in docs))
    if roundtrip:
        passed = 0
        with rep.stage("roundtrip"):
            for doc in docs:
                with rep.tr.span("oracle.roundtrip"):
                    try:
                        passed += oracle.roundtrip_check(doc)
                    except oracle.UnrepresentableDocumentError:
                        pass
        rep.checks(passed == len(docs), f"roundtrip_check failed on "
                   f"{len(docs) - passed} of {len(docs)} gold documents")
        rep.out["roundtrip_ok_ratio"] = passed / len(docs)
    return lengths


def eval_stage(rep: Rep, gold, pred) -> evaluation.EvalReport:
    with rep.stage("eval"):
        with rep.tr.span("evaluation.evaluate_corpus"):
            report = evaluation.evaluate_corpus(gold, pred)
    rep.tr.count("evaluation.frames", report.frame.total_gold)
    tokens = sum(len(d.tokens) for d in gold)
    rep.out.update(eval_tokens_per_s=tokens / rep.stage_s["eval"],
                   eval_counts=report.format_machine())
    return report


def batches(n_docs: int, seed: int, batch_size: int, steps: int):
    """The document order of `model.train`: shuffled passes drawn from
    one `random.Random(seed)`."""
    rng = random.Random(seed)
    order: list[int] = []
    for _ in range(steps):
        batch = []
        for _ in range(batch_size):
            if not order:
                order = list(range(n_docs))
                rng.shuffle(order)
            batch.append(order.pop())
        yield batch


def _train_in_pieces(tr: Tracer, docs, config: ModelConfig, seed: int, steps: int):
    """`model.train` spelled out in the public pieces it calls, in the
    same order, with a span around each."""
    stamps = [perf_counter()]
    losses = []
    with tr.span("model.train"):
        sequences = [list(oracle.generate(doc)) for doc in docs]
        with tr.span("model.lexicon.build"):
            lexicon = build_lexicon(docs, config, sequences)
        params = Parameters(config, lexicon, seed)
        tensors = params.tensors(trainable=True)
        adam = Adam(params.arrays, config)
        examples = [(doc.text, list(doc.tokens), actions)
                    for doc, actions in zip(docs, sequences)]
        for batch in batches(len(docs), seed, config.batch_size, steps):
            with tr.span("model.train.step"):
                for tensor in tensors.values():
                    tensor.zero_grad()
                step_losses = []
                n_actions = 0
                for index in batch:
                    text, tokens, actions = examples[index]
                    tr.count("model.network.encode.tokens", len(tokens))
                    loss, count, _ = network.document_loss(
                        tensors, config, lexicon, text, tokens, actions)
                    step_losses.append(loss)
                    n_actions += count
                total = autodiff.scale(autodiff.addn(step_losses), 1.0 / n_actions)
                losses.append(float(total.data))
                with tr.span("model.autodiff.backward"):
                    autodiff.backward(total)
                grads = {name: (tensor.grad if tensor.grad is not None
                                else np.zeros_like(tensor.data))
                         for name, tensor in tensors.items()}
                with tr.span("model.train.adam"):
                    adam.step(grads)
                tr.count("model.train.adam.floats", sum(g.size for g in grads.values()))
            stamps.append(perf_counter())
    return params, losses, stamps


def fit(rep: Rep, docs, lengths: list[int], config: ModelConfig, seed: int,
        steps: int) -> Parameters:
    with rep.stage("train"):
        if rep.tr.enabled:
            params, losses, stamps = _train_in_pieces(rep.tr, docs, config, seed, steps)
        else:
            losses = []
            stamps = [perf_counter()]

            def on_checkpoint(_params, report) -> None:
                stamps.append(perf_counter())
                losses.append(report.loss)

            params = train(docs, config, seed=seed, steps=steps, checkpoint_every=1,
                           on_checkpoint=on_checkpoint)
    rep.checks(len(losses) == steps and all(math.isfinite(x) for x in losses),
               "training loss is missing or not finite")
    actions = sum(lengths[i] for batch in batches(len(docs), seed, config.batch_size, steps)
                  for i in batch)
    # Step 1 also pays for the oracle, lexicon and initialisation.
    step_ms = [1e3 * (b - a) for a, b in zip(stamps[1:], stamps[2:])]
    rep.out.update(train_actions_per_s=actions / rep.stage_s["train"],
                   train_step_ms_p50=statistics.median(step_ms),
                   step1_loss=losses[0] if losses else None,
                   lexicon_actions=params.lexicon.num_actions)
    return params


def checkpoint_stage(rep: Rep, params: Parameters) -> Parameters:
    path = rep.workdir / "model.ckpt"
    with rep.stage("checkpoint"):
        with rep.tr.span("model.checkpoint.save"):
            checkpoint.save_checkpoint(params, str(path))
        with rep.tr.span("model.checkpoint.load"):
            loaded = checkpoint.load_checkpoint(str(path))
    rep.tr.count("model.checkpoint.bytes",
                 sum(p.stat().st_size for p in rep.workdir.glob(path.name + "*")))
    same = (loaded.arrays.keys() == params.arrays.keys()
            and all(loaded.arrays[k].dtype == v.dtype and np.array_equal(loaded.arrays[k], v)
                    for k, v in params.arrays.items()))
    rep.checks(same, "checkpoint load differs from the parameters saved")
    return loaded


def decode_stage(rep: Rep, params: Parameters, docs) -> list[document.Document]:
    preds = []
    doc_ms = []
    with rep.stage("decode"):
        for doc in docs:
            start = perf_counter()
            with rep.tr.span("model.decode"):
                preds.append(decode.parse_tokens(params, doc.text, list(doc.tokens)))
            doc_ms.append(1e3 * (perf_counter() - start))
            rep.tr.count("model.network.encode.tokens", len(doc.tokens))
    rep.tr.count("model.decode.docs", len(docs))
    p50, p90 = np.percentile(doc_ms, [50, 90])
    rep.out.update(parse_tokens_per_s=sum(len(d.tokens) for d in docs) / rep.stage_s["decode"],
                   parse_doc_ms_p50=float(p50), parse_doc_ms_p90=float(p90),
                   parse_docs=len(docs))
    return preds


# -- workloads ---------------------------------------------------------------


def run_pipeline(inputs: dict, rep: Rep) -> None:
    w = rep.workdir
    train_docs = through_file(rep, inputs["train"], w / "train.txt")
    dev_docs = through_file(rep, inputs["dev"], w / "dev.txt")
    lengths = oracle_stage(rep, train_docs, roundtrip=False)
    params = fit(rep, train_docs, lengths, inputs["config"], inputs["seed"], inputs["steps"])
    params = checkpoint_stage(rep, params)
    preds = through_file(rep, decode_stage(rep, params, dev_docs), w / "pred.txt")
    report = eval_stage(rep, dev_docs, preds)
    rep.out["dev_slot_f1"] = 100 * report.slot.f1


def run_train_paper(inputs: dict, rep: Rep) -> None:
    docs = inputs["docs"]
    lengths = oracle_stage(rep, docs, roundtrip=False)
    fit(rep, docs, lengths, inputs["config"], inputs["seed"], inputs["steps"])


def run_corpus_files(inputs: dict, rep: Rep) -> None:
    gold = through_file(rep, inputs["gold"], rep.workdir / "gold.txt")
    corrupt = through_file(rep, inputs["corrupt"], rep.workdir / "corrupt.txt")
    oracle_stage(rep, gold)
    eval_stage(rep, gold, corrupt)


def run_long_docs(inputs: dict, rep: Rep) -> None:
    w = rep.workdir
    gold = [through_file(rep, [doc], w / f"gold{i}.txt")[0]
            for i, doc in enumerate(inputs["gold"])]
    corrupt = [through_file(rep, [doc], w / f"corrupt{i}.txt")[0]
               for i, doc in enumerate(inputs["corrupt"])]
    oracle_stage(rep, gold)
    eval_stage(rep, gold, corrupt)


@dataclass(frozen=True)
class Workload:
    setup: Callable[[int, dict, Checks], dict]
    run: Callable[[dict, Rep], None]
    # Gold documents for the once-per-run checks, and those whose round
    # trip the timed phase does not already check.
    golds: Callable[[dict], tuple[list, list]]


WORKLOADS = {
    "pipeline": Workload(setup_pipeline, run_pipeline,
                         lambda i: (i["train"] + i["dev"], i["train"] + i["dev"])),
    "train-paper": Workload(setup_train_paper, run_train_paper,
                            lambda i: (i["docs"], i["docs"])),
    "corpus-files": Workload(setup_corpus_files, run_corpus_files,
                             lambda i: (i["gold"], [])),
    "long-docs": Workload(setup_long_docs, run_long_docs,
                          lambda i: (i["gold"], [])),
}
