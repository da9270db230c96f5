"""framekit benchmark: one workload, measured from outside the program.

    python3 perfbench/run.py --workload pipeline --seed 1 --seconds 55 --trace 0

Run from the root of a framekit checkout; framekit is imported from
its `src/` directory and nowhere else.  The workload's inputs are made
from `--seed`.  Repetitions (set-up, then the timed phase) run until
`--seconds` is used up, in one process, with BLAS held to one thread.

`--trace 0` prints the end-to-end metrics: medians over the untraced
repetitions.  `--trace 1` alternates untraced and traced repetitions
and prints the per-layer metrics, taken from the traced repetitions,
plus the tracing overhead (traced minus untraced wall time); the spans
of the last traced repetition are written to
`.bench_build/perfbench/trace-<workload>-seed<seed>.json`.

Standard output holds an environment record, the per-repetition
samples, and as its last line one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  `--size tiny` runs the same code
on inputs small enough for a smoke test.
"""

from __future__ import annotations

import os

# Before numpy loads: BLAS gets one thread, so timings do not depend on
# how many cores the machine has free.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import gc
import json
import platform
import resource
import shutil
import statistics
import sys
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "perfbench"

# Metric name -> unit.  With --trace 0 the run prints END_TO_END, with
# --trace 1 PER_LAYER; a workload that does not run a layer reports 0.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
}
# Per-layer metric -> (unit, where the value comes from): the traced
# repetitions' spans ("s" for inclusive seconds, "calls"), counters, or
# figures ("out") the workload records; "untraced" figures come from
# the untraced repetitions of the same run.
PER_LAYER = {
    "store.arena_frames_per_doc": ("count", "out", "arena_frames_per_doc"),
    "document.frame_graph.s": ("s", "s", "document.frame_graph"),
    "document.frame_graph.calls": ("count", "calls", "document.frame_graph"),
    "document.from_frame.s": ("s", "s", "document.from_frame"),
    "oracle.generate.s": ("s", "s", "oracle.generate"),
    "oracle.actions": ("count", "counter", "oracle.actions"),
    "oracle.unrepresentable": ("count", "counter", "oracle.unrepresentable"),
    "oracle.roundtrip.s": ("s", "s", "oracle.roundtrip"),
    "oracle.roundtrip.ok_ratio": ("ratio", "out", "roundtrip_ok_ratio"),
    "evaluation.align.s": ("s", "s", "evaluation.align"),
    "evaluation.evaluate.s": ("s", "s", "evaluation.evaluate"),
    "evaluation.frames": ("count", "counter", "evaluation.frames"),
    "notation.read.s": ("s", "s", "notation.read"),
    "notation.read.bytes": ("bytes", "counter", "notation.read.bytes"),
    "notation.print.s": ("s", "s", "notation.print"),
    "notation.print.bytes": ("bytes", "counter", "notation.print.bytes"),
    "cli.read_corpus.s": ("s", "s", "cli.read_corpus"),
    "cli.write_corpus.s": ("s", "s", "cli.write_corpus"),
    "model.lexicon.build.s": ("s", "s", "model.lexicon.build"),
    "model.lexicon.actions": ("count", "out", "lexicon_actions"),
    "model.network.encode.s": ("s", "s", "model.network.encode"),
    "model.network.encode.tokens": ("count", "counter", "model.network.encode.tokens"),
    "model.features.s": ("s", "s", "model.features"),
    "model.features.calls": ("count", "calls", "model.features"),
    "model.network.decoder_step.s": ("s", "s", "model.network.decoder_step"),
    "model.network.decoder_step.calls": ("count", "calls", "model.network.decoder_step"),
    "model.autodiff.backward.s": ("s", "s", "model.autodiff.backward"),
    "model.train.adam.s": ("s", "s", "model.train.adam"),
    "model.train.adam.floats": ("count", "counter", "model.train.adam.floats"),
    "model.decode.s": ("s", "s", "model.decode"),
    "model.decode.docs": ("count", "counter", "model.decode.docs"),
    "model.checkpoint.save.s": ("s", "s", "model.checkpoint.save"),
    "model.checkpoint.load.s": ("s", "s", "model.checkpoint.load"),
    "model.checkpoint.bytes": ("bytes", "counter", "model.checkpoint.bytes"),
    "oracle_actions_per_s": ("actions/s", "untraced", "oracle_actions_per_s"),
    "eval_tokens_per_s": ("tokens/s", "untraced", "eval_tokens_per_s"),
    "dev_slot_f1": ("%", "untraced", "dev_slot_f1"),
    "train_actions_per_s": ("actions/s", "untraced", "train_actions_per_s"),
    "train_step_ms_p50": ("ms", "untraced", "train_step_ms_p50"),
    "parse_tokens_per_s": ("tokens/s", "untraced", "parse_tokens_per_s"),
    "parse_doc_ms_p50": ("ms", "untraced", "parse_doc_ms_p50"),
    "parse_doc_ms_p90": ("ms", "untraced", "parse_doc_ms_p90"),
    "trace.overhead_s": ("s", "overhead", None),
}
MIN_SETUPS = 10
# BENCHMARK.json gates the first two.  The others stay runnable for
# studies of one layer (training at the published size, a shared
# arena); gating all four would leave each run too short to be steady
# on a small shared host.
WORKLOAD_NAMES = ("pipeline", "long-docs", "train-paper", "corpus-files")


def import_framekit():
    """Load framekit from this checkout's `src/`; exit if it is absent."""
    if not (SRC / "framekit" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'framekit'} not found; run from a framekit checkout")
    sys.path.insert(0, str(SRC))
    import framekit
    if Path(framekit.__file__).resolve().parent != SRC / "framekit":
        sys.exit(f"error: framekit was imported from {framekit.__file__}, not {SRC}")
    return framekit


def environment() -> dict:
    """The machine and software the figures were measured on."""
    import numpy as np
    import framekit
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "blas_threads": BLAS_THREADS, "nproc": os.cpu_count(),
            "cpu": cpu, "framekit": framekit.__version__}


@contextmanager
def gc_paused():
    """Collect, then keep the cyclic collector off while timing, as
    `timeit` does: when a collection lands depends on everything the
    process holds, the benchmark's own objects included, so it would
    add noise that is no property of framekit."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def measure(args) -> dict:
    from spans import Tracer, probes
    from workloads import PROBES, SIZES, WORKLOADS, Checks, Rep, check_gold

    workload = WORKLOADS[args.workload]
    size = SIZES[args.workload][args.size]
    checks = Checks()
    setup_s: list[float] = []

    def fresh_inputs() -> dict:
        with gc_paused():
            start = perf_counter()
            inputs = workload.setup(args.seed, size, checks)
            setup_s.append(perf_counter() - start)
        return inputs

    workdir = OUT / f"run-{os.getpid()}"
    kinds = [False, True] if args.trace else [False]
    reps = []
    cycles = []  # seconds per repetition, set-up included
    deadline = perf_counter() + args.seconds
    try:
        check_gold(checks, *workload.golds(fresh_inputs()))
        while True:
            started = perf_counter()
            inputs = fresh_inputs()
            rep = Rep(len(reps), Tracer(kinds[len(reps) % len(kinds)], request=len(reps)),
                      checks, workdir / f"rep{len(reps)}")
            rep.workdir.mkdir(parents=True)
            with gc_paused(), probes(rep.tr, PROBES):
                start = perf_counter()
                workload.run(inputs, rep)
                rep.wall_s = perf_counter() - start
            shutil.rmtree(rep.workdir)
            reps.append(rep)
            cycles.append(perf_counter() - started)
            if (len(reps) >= len(kinds)
                    and perf_counter() + statistics.median(cycles) > deadline):
                break
        while len(setup_s) < MIN_SETUPS:
            fresh_inputs()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    untraced = [r for r in reps if not r.tr.enabled]
    traced = [r for r in reps if r.tr.enabled]
    first = untraced[0]
    for rep in reps[1:]:
        kind = "traced" if rep.tr.enabled else "untraced"
        for key in ("eval_counts", "oracle_actions", "dev_slot_f1", "read_signatures",
                    "step1_loss"):
            checks(rep.out.get(key) == first.out.get(key),
                   f"{kind} repetition {rep.index} gives a different {key} "
                   f"from repetition 0")

    median = statistics.median
    if not args.trace:
        metrics = {
            "setup_s": median(setup_s),
            "wall_s": median(r.wall_s for r in untraced),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END
    else:
        metrics = {}
        for name, (_, source, key) in PER_LAYER.items():
            if source == "s":
                values = [r.tr.total_s.get(key, 0.0) for r in traced]
            elif source == "calls":
                values = [r.tr.calls.get(key, 0) for r in traced]
            elif source == "counter":
                values = [r.tr.counters.get(key, 0) for r in traced]
            elif source == "out":
                values = [r.out.get(key, 0) for r in traced]
            elif source == "untraced":
                values = [r.out.get(key, 0) for r in untraced]
            else:
                values = [median(r.wall_s for r in traced)
                          - median(r.wall_s for r in untraced)]
            metrics[name] = median(values)
        units = {name: unit for name, (unit, _, _) in PER_LAYER.items()}
        traced[-1].tr.write(OUT / f"trace-{args.workload}-seed{args.seed}.json",
                            {"workload": args.workload, "seed": args.seed})

    samples = {
        "setup_s": setup_s,
        "repetitions": [{"traced": r.tr.enabled, "wall_s": r.wall_s,
                         "stages_s": dict(r.stage_s),
                         "figures": {k: v for k, v in r.out.items()
                                     if isinstance(v, (int, float))}} for r in reps],
    }
    print(json.dumps({"samples": samples}))
    for failure in checks.failures:
        print(f"check failed: {failure}", file=sys.stderr)
    return {
        "correct": not checks.failures,
        "attempted": checks.attempted,
        "failed": len(checks.failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    parser.add_argument("--size", choices=["full", "tiny"], default="full")
    args = parser.parse_args(argv)

    import_framekit()
    from workloads import PIPELINE_CONFIG, SIZES
    record = environment()
    record.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                  size=args.size, sizes=SIZES[args.workload][args.size],
                  pipeline_training=PIPELINE_CONFIG)
    print(json.dumps({"environment": record}), flush=True)
    result = measure(args)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
