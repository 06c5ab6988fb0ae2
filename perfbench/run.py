#!/usr/bin/env python3
"""Layered benchmark of the truediff reproduction.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``BENCHMARK.json`` for why each exists and its sizes):

* ``session-replay`` -- in-process ``DiffSession`` replay of file histories;
* ``corpus-batch``   -- ``repro.batch.run_batch`` over changed-file pairs;
* ``daemon-read``    -- fingerprint-addressed ``/diff`` + ``/lint`` against
  ``repro serve``;
* ``daemon-write``   -- ``/trees``, ``/apply`` and ``/apply-batch`` against
  ``repro serve --data-dir``.

Inputs come from ``--seed``.  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` times the public calls into each layer and
prints the per-layer metrics.  The last line of stdout is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  Progress
and input sizes go to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("session-replay", "corpus-batch", "daemon-read", "daemon-write")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no program sources at {ROOT / 'src' / 'repro'}; "
            "run from the root of a repository checkout",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from benchlib import corpus_batch, daemon, session_replay

    run = {
        "session-replay": session_replay.run,
        "corpus-batch": corpus_batch.run,
        "daemon-read": daemon.run_read,
        "daemon-write": daemon.run_write,
    }[args.workload]
    print(json.dumps(run(args.seed, args.seconds, bool(args.trace)), sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
