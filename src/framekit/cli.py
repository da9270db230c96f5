"""Command line surface: corpus generation, oracle inspection, training,
parsing, and evaluation.

All file I/O uses the frame notation corpus format (a sequence of
top-level document frames), so any file written by one subcommand is
readable by the others.  Every subcommand is deterministic given its
flags; seeds default to 1.  Each runs in one process; numpy's BLAS
takes its thread count from the user's environment
(`OPENBLAS_NUM_THREADS` and the like).
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .corpus import generate_corpus
from .document import (Document, SchemaError, doc_from_frame, print_document,
                       tokenize)
from .evaluation import TokenMismatchError, evaluate, evaluate_corpus
from .model import (ModelConfig, Parameters, grad_check, load_checkpoint,
                    parse_tokens, save_checkpoint, train)
from .model.checkpoint import CheckpointError
from .model.training import TrainingError, oracle_sequences
from .notation import UnprintableValueError, parse_notation
from .oracle import UnrepresentableDocumentError, action_stats
from .store import Store, StoreError
from .transitions import sequence_to_text


class CliError(Exception):
    pass


def read_corpus(path: str) -> list[Document]:
    store = Store()
    try:
        result = parse_notation(Path(path).read_bytes().decode("utf-8"), store)
    except UnicodeDecodeError as exc:
        raise CliError(f"{path}: byte {exc.start}: not valid UTF-8")
    if not result.ok:
        details = "; ".join(f"byte {off}: {msg}" for off, msg in result.diagnostics[:5])
        raise CliError(f"{path}: parse failed: {details}")
    docs = []
    for index, handle in enumerate(result.top):
        try:
            docs.append(doc_from_frame(handle, store))
        except (SchemaError, StoreError) as exc:
            raise CliError(f"{path}: document {index}: {exc}")
    return docs


def format_corpus(docs: list[Document]) -> str:
    blocks = []
    label = 1
    for index, doc in enumerate(docs):
        try:
            text, label = print_document(doc, label)
        except UnprintableValueError as exc:
            raise CliError(f"document {index}: {exc}")
        blocks.append(text)
    return "\n".join(blocks)


def write_corpus(docs: list[Document], path: str) -> None:
    body = format_corpus(docs)
    Path(path).write_text(body + "\n" if body else "", encoding="utf-8")


# -- gen-corpus --------------------------------------------------------------


def cmd_gen_corpus(args: argparse.Namespace) -> int:
    if args.n_docs < 0:
        raise CliError("--n-docs must be non-negative")
    docs = generate_corpus(args.seed, args.n_docs)
    write_corpus(docs, args.out)
    print(f"wrote {len(docs)} documents to {args.out}")
    return 0


# -- oracle ------------------------------------------------------------------


def cmd_oracle(args: argparse.Namespace) -> int:
    sequences = oracle_sequences(read_corpus(args.input))
    output = "\n\n".join(sequence_to_text(sequence) for sequence in sequences)
    if args.out:
        Path(args.out).write_text(output + "\n" if output else "", encoding="utf-8")
    else:
        if output:
            print(output)
    print(action_stats(sequences).format_table())
    return 0


# -- train -------------------------------------------------------------------


def _apply_overrides(config: ModelConfig, overrides: list[str]) -> None:
    for item in overrides:
        if "=" not in item:
            raise CliError(f"--hparam expects key=value, got {item!r}")
        key, value = item.split("=", 1)
        try:
            config.apply_override(key, value)
        except ValueError as exc:
            raise CliError(f"--hparam {exc}")


def _check_writable(path: str) -> None:
    """Report now, not after the work that fills it, an output path whose
    directory is missing or read-only, or that names a directory."""
    directory = Path(path).parent
    if not directory.is_dir():
        raise CliError(f"{path}: no such directory: {directory}")
    if Path(path).is_dir() or not os.access(directory, os.W_OK):
        raise CliError(f"{path}: cannot be written")


def cmd_train(args: argparse.Namespace) -> int:
    for path in filter(None, (args.out, args.out + ".best", args.metrics_out)):
        _check_writable(path)
    corpus = read_corpus(args.input)
    config = ModelConfig()
    _apply_overrides(config, args.hparam)
    if args.ema:
        config.use_ema = True
    dev = read_corpus(args.dev) if args.dev else None

    metric_lines: list[str] = []
    best = {"f1": None, "step": None}

    def on_checkpoint(params: Parameters, ckpt) -> None:
        line = f"step={ckpt.step} loss={ckpt.loss:.6f} accuracy={ckpt.accuracy:.4f}"
        if dev is not None:
            preds = [parse_tokens(params, d.text, list(d.tokens)) for d in dev]
            f1 = evaluate_corpus(dev, preds).slot.f1
            line += f" dev_slot_f1={100 * f1:.2f}"
            if best["f1"] is None or f1 > best["f1"]:
                best["f1"] = f1
                best["step"] = ckpt.step
                save_checkpoint(params, args.out + ".best")
        line += f" grad_norm={ckpt.grad_norm:.4f} clip_rate={ckpt.clip_rate:.3f}"
        print(line)
        metric_lines.append(line)

    params = train(corpus, config, seed=args.seed, steps=args.steps,
                   checkpoint_every=args.checkpoint_every, on_checkpoint=on_checkpoint)
    save_checkpoint(params, args.out)
    if best["step"] is not None:
        print(f"best checkpoint: step={best['step']} "
              f"dev_slot_f1={100 * best['f1']:.2f}")
    else:
        save_checkpoint(params, args.out + ".best")
    if args.metrics_out:
        Path(args.metrics_out).write_text(
            "\n".join(metric_lines) + "\n", encoding="utf-8")
    return 0


# -- parse -------------------------------------------------------------------


def cmd_parse(args: argparse.Namespace) -> int:
    if bool(args.input) == bool(args.text is not None):
        raise CliError("exactly one of --in or --text is required")
    try:
        (args.text or "").encode("utf-8")
    except UnicodeEncodeError:
        raise CliError("--text: not valid UTF-8") from None
    params = load_checkpoint(args.model)
    if args.text is not None:
        inputs = [(args.text, tokenize(args.text))]
    else:
        inputs = [(d.text, list(d.tokens)) for d in read_corpus(args.input)]

    if args.ema and params.ema is None:
        raise CliError("checkpoint holds no averaged parameters")
    docs = [parse_tokens(params, text, tokens, use_ema=args.ema)
            for text, tokens in inputs]
    if args.out:
        write_corpus(docs, args.out)
    else:
        print(format_corpus(docs))
    return 0


# -- eval --------------------------------------------------------------------


def cmd_eval(args: argparse.Namespace) -> int:
    gold = read_corpus(args.gold)
    pred = read_corpus(args.pred)
    if len(gold) != len(pred):
        raise CliError(f"corpus length mismatch: {len(gold)} gold vs {len(pred)} predicted")
    report = evaluate_corpus(gold, pred)
    print(report.format_table())
    print(report.format_machine())
    if args.metrics_out:
        Path(args.metrics_out).write_text(report.format_machine() + "\n",
                                          encoding="utf-8")
    return 0


# -- grad-check --------------------------------------------------------------


def cmd_grad_check(args: argparse.Namespace) -> int:
    import random

    import numpy as np

    from .model import build_lexicon
    if args.configs < 1:
        raise CliError("--configs must be at least 1")
    if not args.threshold > 0:
        raise CliError("--threshold must be > 0")
    rng = random.Random(args.seed)
    worst = 0.0
    skipped_total = 0
    for index in range(args.configs):
        corpus = generate_corpus(rng.randrange(1 << 30), 1)
        config = ModelConfig(
            lstm_dim=rng.randint(3, 6), hidden_dim=rng.randint(3, 6),
            word_dim=rng.randint(2, 4), affix_dim=2, shape_dim=2,
            link_dim=rng.randint(2, 3), k_attention=rng.randint(2, 4),
            k_history=rng.randint(1, 3), dtype="float64")
        sequences = oracle_sequences(corpus)
        lexicon = build_lexicon(corpus, config, sequences)
        params = Parameters(config, lexicon, seed=rng.randrange(1 << 30))
        # A live output layer: with the initial zero ff_w2 no gradient
        # reaches anything below it.
        w2 = params.arrays["ff_w2"]
        w2[...] = np.random.default_rng(rng.randrange(1 << 30)).normal(0.0, 0.5, w2.shape)
        error, skipped = grad_check(params, corpus[0], sequences[0])
        worst = max(worst, error)
        skipped_total += skipped
        print(f"config {index}: max relative error {error:.3e}, {skipped} kinks skipped")
    print(f"worst over {args.configs} configs: {worst:.3e}, {skipped_total} kinks skipped")
    if worst >= args.threshold:
        print(f"FAIL: {worst:.3e} >= {args.threshold:.0e}", file=sys.stderr)
        return 1
    return 0


# -- entry point -------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="framekit",
        description="Frame-semantic parsing toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-corpus", help="generate a synthetic annotated corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--n-docs", type=int, required=True)
    p.add_argument("--seed", type=int, default=1)
    p.set_defaults(func=cmd_gen_corpus)

    p = sub.add_parser("oracle", help="emit canonical transition sequences")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("train", help="train the action predictor")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", required=True, help="checkpoint path")
    p.add_argument("--dev", help="dev corpus for checkpoint selection")
    p.add_argument("--steps", type=int, default=1000)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--checkpoint-every", type=int, default=200)
    p.add_argument("--metrics-out")
    p.add_argument("--ema", action="store_true",
                   help="also keep an exponential moving average of parameters")
    p.add_argument("--hparam", action="append", default=[], metavar="KEY=VALUE",
                   help="model configuration override (repeatable)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("parse", help="parse text into predicted documents")
    p.add_argument("--model", required=True)
    p.add_argument("--in", dest="input", help="gold corpus (tokens are reused)")
    p.add_argument("--text", help="raw text for a single document")
    p.add_argument("--out")
    p.add_argument("--ema", action="store_true", help="decode with averaged parameters")
    p.set_defaults(func=cmd_parse)

    p = sub.add_parser("eval", help="score predicted documents against gold")
    p.add_argument("--gold", required=True)
    p.add_argument("--pred", required=True)
    p.add_argument("--metrics-out")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("grad-check", help="verify gradients by finite differences")
    p.add_argument("--configs", type=int, default=20)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--threshold", type=float, default=1e-4)
    p.set_defaults(func=cmd_grad_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CliError, OSError, CheckpointError, TrainingError,
            UnrepresentableDocumentError, TokenMismatchError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
