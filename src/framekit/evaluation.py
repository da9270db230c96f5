"""Graph-alignment scoring of predicted against gold documents.

Each document is read from the one table `document.frame_graph` builds,
and only its `frames` are aligned and counted; a span keeps only its
graph frames, though every span counts for Span.  Spans are matched on
exact (begin, length).  Evoked frames of matched spans are aligned
greedily in mention order, and the alignment is extended to a fixpoint
over role links: whenever both sides of an aligned pair carry a
same-role link to or from unaligned frames, those frames become
aligned.  Precision/recall/F1 are computed for Span, Frame, Type (a
frame's first ``isa``), Role (the table's links) and Label (its
constants, keyed alike in every store), plus the Slot (Type+Role+Label)
and Combined (all five) aggregates.  A later ``isa`` is a Role or a
Label like any other slot.  The oracle sequences from the same table.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from .document import Document, FrameGraph, frame_graph
from .store import Handle, Store

METRICS = ("Span", "Frame", "Type", "Role", "Label", "Slot", "Combined")


class TokenMismatchError(ValueError):
    """Gold and predicted corpora differ in length, or a document pair is
    over different token sequences."""


@dataclass
class MetricCounts:
    matched_pred: int = 0
    total_pred: int = 0
    matched_gold: int = 0
    total_gold: int = 0

    def __add__(self, other: "MetricCounts") -> "MetricCounts":
        return MetricCounts(self.matched_pred + other.matched_pred,
                            self.total_pred + other.total_pred,
                            self.matched_gold + other.matched_gold,
                            self.total_gold + other.total_gold)

    @property
    def precision(self) -> float:
        return self.matched_pred / self.total_pred if self.total_pred else 0.0

    @property
    def recall(self) -> float:
        return self.matched_gold / self.total_gold if self.total_gold else 0.0

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        return 2 * p * r / (p + r) if p + r else 0.0


@dataclass
class EvalReport:
    """Per-metric counts; Slot and Combined are derived aggregates."""

    span: MetricCounts = field(default_factory=MetricCounts)
    frame: MetricCounts = field(default_factory=MetricCounts)
    type: MetricCounts = field(default_factory=MetricCounts)
    role: MetricCounts = field(default_factory=MetricCounts)
    label: MetricCounts = field(default_factory=MetricCounts)

    @property
    def slot(self) -> MetricCounts:
        return self.type + self.role + self.label

    @property
    def combined(self) -> MetricCounts:
        return self.span + self.frame + self.type + self.role + self.label

    def metric(self, name: str) -> MetricCounts:
        return getattr(self, name.lower())

    def __add__(self, other: "EvalReport") -> "EvalReport":
        return EvalReport(self.span + other.span, self.frame + other.frame,
                          self.type + other.type, self.role + other.role,
                          self.label + other.label)

    def format_table(self) -> str:
        lines = []
        for name in METRICS:
            counts = self.metric(name)
            lines.append(f"{name:<10} Precision {100 * counts.precision:>8.2f}")
            lines.append(f"{'':<10} Recall    {100 * counts.recall:>8.2f}")
            lines.append(f"{'':<10} F1        {100 * counts.f1:>8.2f}")
        return "\n".join(lines)

    def format_machine(self) -> str:
        lines = []
        for name in METRICS:
            counts = self.metric(name)
            key = name.lower()
            lines.append(f"{key}.precision={100 * counts.precision:.2f}")
            lines.append(f"{key}.recall={100 * counts.recall:.2f}")
            lines.append(f"{key}.f1={100 * counts.f1:.2f}")
            lines.append(f"{key}.matched_pred={counts.matched_pred}")
            lines.append(f"{key}.total_pred={counts.total_pred}")
            lines.append(f"{key}.matched_gold={counts.matched_gold}")
            lines.append(f"{key}.total_gold={counts.total_gold}")
        return "\n".join(lines)


def _check_tokens(gold: Document, pred: Document) -> None:
    gold_tokens = [(t.text, t.start, t.length) for t in gold.tokens]
    pred_tokens = [(t.text, t.start, t.length) for t in pred.tokens]
    if gold_tokens != pred_tokens:
        raise TokenMismatchError("gold and predicted token sequences differ")


def align(g_graph: FrameGraph, p_graph: FrameGraph) -> dict[Handle, Handle]:
    """Partial bijection from gold frames to predicted frames, given the
    two documents' `frame_graph` tables."""
    gold_spans, pred_spans = g_graph.spans, p_graph.spans

    mapping: dict[Handle, Handle] = {}
    taken: set[Handle] = set()
    for span in sorted(set(gold_spans) & set(pred_spans)):
        unaligned_gold = [g for g in gold_spans[span] if g not in mapping]
        unaligned_pred = [p for p in pred_spans[span] if p not in taken]
        for g, p in zip(unaligned_gold, unaligned_pred):
            mapping[g] = p
            taken.add(p)

    # Extend over same-role links until nothing changes.  Links are
    # followed in both directions: embedded frames point into the
    # aligned graph and are only reachable through incoming edges.
    changed = True
    while changed:
        changed = False
        for g in list(mapping):
            p = mapping[g]
            pairs = [
                (_grouped(g_graph.links[g], mapping.keys()),
                 _grouped(p_graph.links[p], taken)),
                (_grouped(g_graph.incoming.get(g, ()), mapping.keys()),
                 _grouped(p_graph.incoming.get(p, ()), taken)),
            ]
            for gold_by_role, pred_by_role in pairs:
                for role_name, g_list in gold_by_role.items():
                    p_list = pred_by_role.get(role_name, [])
                    for gv, pv in zip(g_list, p_list):
                        if gv in mapping or pv in taken:
                            continue
                        mapping[gv] = pv
                        taken.add(pv)
                        changed = True
    return mapping


def _grouped(entries, aligned) -> dict[str, list[Handle]]:
    """Unaligned frames of (role, frame) entries grouped by role, in
    entry order, without repeats."""
    out: dict[str, list[Handle]] = {}
    seen: set[tuple[str, Handle]] = set()
    for role_name, frame in entries:
        if frame in aligned or (role_name, frame) in seen:
            continue
        seen.add((role_name, frame))
        out.setdefault(role_name, []).append(frame)
    return out


def _labels(store: Store, constants: list) -> Counter:
    """A frame's labels: (role, constant key) of each of its constants."""
    return Counter((role, _constant_key(store, value)) for role, value in constants)


def _constant_key(store: Store, value):
    """A constant's key, the same in every store: a symbol by its name, a
    list by its items' keys.  A frame is a constant only inside a list,
    and no alignment reaches it there, so it keys as any frame."""
    if isinstance(value, Handle):
        return ("sym", store.symbol_name(value)) if value.is_symbol() else ("frame",)
    if value is None:
        return ("nil",)
    if isinstance(value, list):
        return ("lit", "list", tuple(_constant_key(store, item) for item in value))
    return ("lit", type(value).__name__, value)


def _total(graph: FrameGraph, table: dict[Handle, list]) -> int:
    """The entries of `table` that the graph's frames hold."""
    return sum(len(table[frame]) for frame in graph.frames)


def evaluate(gold: Document, pred: Document) -> EvalReport:
    """Score one predicted document against its gold annotation."""
    _check_tokens(gold, pred)
    g_graph, p_graph = frame_graph(gold), frame_graph(pred)
    mapping = align(g_graph, p_graph)

    span_matched = len(g_graph.spans.keys() & p_graph.spans.keys())
    span = MetricCounts(span_matched, len(p_graph.spans),
                        span_matched, len(g_graph.spans))
    frame = MetricCounts(len(mapping), len(p_graph.frames),
                         len(mapping), len(g_graph.frames))

    type_matched = sum(1 for g, p in mapping.items()
                       if g_graph.types[g] is not None
                       and g_graph.types[g] == p_graph.types[p])
    type_counts = MetricCounts(
        type_matched, sum(p_graph.types[p] is not None for p in p_graph.frames),
        type_matched, sum(g_graph.types[g] is not None for g in g_graph.frames))

    role_matched = 0
    label_matched = 0
    aligned_pred = set(mapping.values())
    for g, p in mapping.items():
        gold_links = Counter((role, mapping[t]) for role, t in g_graph.links[g] if t in mapping)
        pred_links = Counter((role, t) for role, t in p_graph.links[p] if t in aligned_pred)
        role_matched += sum((gold_links & pred_links).values())
        label_matched += sum((_labels(gold.store, g_graph.constants[g])
                              & _labels(pred.store, p_graph.constants[p])).values())

    role = MetricCounts(role_matched, _total(p_graph, p_graph.links),
                        role_matched, _total(g_graph, g_graph.links))
    label = MetricCounts(label_matched, _total(p_graph, p_graph.constants),
                         label_matched, _total(g_graph, g_graph.constants))
    return EvalReport(span, frame, type_counts, role, label)


def evaluate_corpus(gold: list[Document], pred: list[Document]) -> EvalReport:
    """Micro-averaged report: counts are summed before deriving P/R/F1.
    A `TokenMismatchError` names the document by its index."""
    if len(gold) != len(pred):
        raise TokenMismatchError(f"corpus length mismatch: {len(gold)} gold vs "
                                 f"{len(pred)} predicted documents")
    report = EvalReport()
    for index, (g, p) in enumerate(zip(gold, pred)):
        try:
            report = report + evaluate(g, p)
        except TokenMismatchError as exc:
            raise TokenMismatchError(f"document {index}: {exc}") from None
    return report
