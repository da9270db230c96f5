"""The benchmark's probes (`perfbench/workloads.py`'s `PROBES`) wrap
functions the program still has.  A probe whose target is renamed is
skipped at run time, and its per-layer figures read zero without an
error; here it fails instead."""

import sys
from pathlib import Path

sys.path.append(str(Path(__file__).resolve().parent.parent / "perfbench"))

import workloads  # noqa: E402

# Targets that `cli.print_document` replaced; the benchmark still lists
# them (ROADMAP item 2).
KNOWN_DEAD = {"framekit.cli.print_with_labels", "framekit.cli.doc_to_frame"}


def test_every_probe_target_resolves():
    missing = {f"{owner.__name__}.{attribute}" for owner, attribute, _ in workloads.PROBES
               if getattr(owner, attribute, None) is None}
    assert missing <= KNOWN_DEAD
