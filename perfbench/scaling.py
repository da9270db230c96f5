"""Scaling curves, outside the gated workloads: how `frame_graph`, oracle
and evaluation time grow with corpus size on notation files, and how
oracle and evaluation time grow with document length.

    python3 perfbench/scaling.py [--seed 1] [--corpus-sizes 100,200,400]
                                 [--lengths 25,100,200]

Each curve carries the least-squares slope of log(seconds) over
log(size): about 1 for linear growth, 2 for quadratic.  The result is
printed and written to `.bench_build/perfbench/scaling-seed<seed>.json`.
"""

from __future__ import annotations

import argparse
import json
import sys
from time import perf_counter

from run import OUT, environment, import_framekit


def _slope(sizes, seconds) -> float:
    import numpy as np
    return float(np.polyfit(np.log(sizes), np.log(seconds), 1)[0])


def _timed(function, *args) -> float:
    start = perf_counter()
    function(*args)
    return perf_counter() - start


def corpus_curve(seed: int, sizes: list[int], workdir) -> dict:
    """Corpora read from files into one shared store, as the CLI does."""
    from framekit import cli, document, evaluation, oracle
    from workloads import Checks, setup_corpus_files

    curve = {"docs": sizes, "frame_graph_s": [], "oracle_s": [], "eval_s": []}
    for n in sizes:
        inputs = setup_corpus_files(seed, {"docs": n}, Checks())
        for name in ("gold", "corrupt"):
            cli.write_corpus(inputs[name], str(workdir / f"{name}.txt"))
        gold = cli.read_corpus(str(workdir / "gold.txt"))
        corrupt = cli.read_corpus(str(workdir / "corrupt.txt"))
        curve["frame_graph_s"].append(
            _timed(lambda: [document.frame_graph(d) for d in gold]))
        curve["oracle_s"].append(_timed(lambda: [oracle.generate(d) for d in gold]))
        curve["eval_s"].append(_timed(evaluation.evaluate_corpus, gold, corrupt))
    return curve


def length_curve(seed: int, lengths: list[int], docs: int = 2) -> dict:
    """Documents of growing length, one store per document."""
    from framekit import evaluation, oracle
    from workloads import Checks, setup_long_docs

    curve = {"sentences": lengths, "tokens_per_doc": [], "oracle_s": [], "eval_s": []}
    for length in lengths:
        inputs = setup_long_docs(seed, {"docs": docs, "sentences": length}, Checks())
        gold = inputs["gold"]
        curve["tokens_per_doc"].append(sum(len(d.tokens) for d in gold) / docs)
        curve["oracle_s"].append(_timed(lambda: [oracle.generate(d) for d in gold]) / docs)
        curve["eval_s"].append(
            _timed(evaluation.evaluate_corpus, gold, inputs["corrupt"]) / docs)
    return curve


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--corpus-sizes", default="100,200,400")
    parser.add_argument("--lengths", default="25,100,200")
    args = parser.parse_args(argv)
    sizes = [int(n) for n in args.corpus_sizes.split(",")]
    lengths = [int(n) for n in args.lengths.split(",")]

    import_framekit()
    workdir = OUT / "scaling"
    workdir.mkdir(parents=True, exist_ok=True)
    result = {"environment": environment(), "seed": args.seed,
              "corpus_size": corpus_curve(args.seed, sizes, workdir),
              "doc_length": length_curve(args.seed, lengths)}
    for curve, x in (("corpus_size", "docs"), ("doc_length", "sentences")):
        data = result[curve]
        data["slopes"] = {key: _slope(data[x], data[key])
                          for key in data if key.endswith("_s")}
    text = json.dumps(result, indent=1)
    (OUT / f"scaling-seed{args.seed}.json").write_text(text + "\n", encoding="utf-8")
    for name in ("gold.txt", "corrupt.txt"):
        (workdir / name).unlink()
    workdir.rmdir()
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
