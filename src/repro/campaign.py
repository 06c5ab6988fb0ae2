"""One runner for the seeded gate suites.

The paper's guarantees — emitted scripts are well-typed (Conjecture
4.2), patching yields the target (Conjecture 4.3), rolled-back patches
leave the tree byte-identical (Theorems 3.6–3.8) — are checked beyond
the unit tests by five suites, each living next to the code it attacks:

* ``fault`` (:mod:`repro.robustness.harness`) — corrupted and crashed
  applications roll back fingerprint-identical, applied ones verify;
* ``lint`` (:mod:`repro.analysis.campaign`) — valid scripts lint clean,
  every corruption class is flagged statically, minimized scripts stay
  patch-equivalent;
* ``race`` (:mod:`repro.analysis.race.campaign`) — zero false
  "independent" verdicts, wave schedules equal the sequential fold;
* ``chaos`` (:mod:`repro.server.chaos`) — live daemons recover from
  SIGKILL, journal damage, dead workers, slow clients and overload;
* ``smoke`` (:mod:`repro.server.smoke`) — daemon answers byte-identical
  to the one-shot CLI, on an in-memory and on a durable store.

A suite is a function ``checks(seed, workdir)`` that yields one row per
check: a dict with ``check`` (its name), ``problems`` (empty when the
check held) and the detail the check reports.  Cases come from
:func:`repro.corpus.seeded_cases`.  A row may carry a lint or race
``report``; the runner renders those with the suite module's
``render_sarif``.

The runner writes every row to ``OUT/<suite>.jsonl``, then one
``{"summary": ...}`` line (plus ``OUT/<suite>.sarif`` for lint and
race).  An exception escaping the suite becomes a last ``crashed`` row
carrying its traceback.  The runner prints a one-line verdict and up to
20 problems, and exits 0 when every check held, 1 on any problem, 2 on
bad arguments::

    PYTHONPATH=src python -m repro.campaign fault --seed 20260806 --out campaign-out
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
import tempfile
import time
import traceback
from pathlib import Path
from types import ModuleType
from typing import Any, Iterator, Optional

#: suite name -> the module whose ``checks(seed, workdir)`` it runs
SUITES = {
    "fault": "repro.robustness.harness",
    "lint": "repro.analysis.campaign",
    "race": "repro.analysis.race.campaign",
    "chaos": "repro.server.chaos",
    "smoke": "repro.server.smoke",
}

#: problems echoed to stderr; the report holds them all
SHOWN = 20


def _rows(module: ModuleType, seed: int, workdir: Path) -> Iterator[dict[str, Any]]:
    """The suite's rows; an exception escaping it ends them with a
    ``crashed`` row (the checks after it do not run)."""
    try:
        yield from module.checks(seed, workdir)
    except Exception as exc:  # noqa: BLE001 - a crashed check is a failed check
        yield {
            "check": "crashed",
            "problems": [f"{type(exc).__name__}: {exc}"],
            "traceback": traceback.format_exc(),
        }


def run(suite: str, seed: int, out: Path) -> dict[str, Any]:
    """Run one suite and write its reports under ``out``; returns the
    summary."""
    module = importlib.import_module(SUITES[suite])
    out.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    checks = failed = 0
    problems: list[str] = []
    reports: list[Any] = []
    with open(out / f"{suite}.jsonl", "w", encoding="utf8") as fh:
        with tempfile.TemporaryDirectory(prefix=f"repro-{suite}-") as tmp:
            for row in _rows(module, seed, Path(tmp)):
                report = row.pop("report", None)
                if report is not None:
                    reports.append(report)
                checks += 1
                failed += bool(row["problems"])
                where = "".join(f" {k} {row[k]}" for k in ("store", "case") if k in row)
                problems += [f"{row['check']}{where}: {p}" for p in row["problems"]]
                print(json.dumps(row, default=str), file=fh, flush=True)
        summary = {
            "suite": suite,
            "seed": seed,
            "checks": checks,
            "failed": failed,
            "problems": len(problems),
            "ok": checks > 0 and not problems,
            "elapsed_s": round(time.perf_counter() - t0, 1),
        }
        print(json.dumps({"summary": summary}), file=fh)
    render_sarif = getattr(module, "render_sarif", None)
    if render_sarif is not None:
        (out / f"{suite}.sarif").write_text(render_sarif(reports) + "\n", "utf8")

    verdict = "ok" if summary["ok"] else "FAILED"
    print(
        f"{suite} (seed {seed}): {verdict}: {checks} check(s), {failed} failed, "
        f"{len(problems)} problem(s) in {summary['elapsed_s']}s",
        file=sys.stderr,
    )
    for line in problems[:SHOWN]:
        print(f"  PROBLEM {line}", file=sys.stderr)
    return summary


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.campaign",
        description="run one seeded gate suite",
    )
    parser.add_argument("suite", choices=SUITES)
    parser.add_argument(
        "--seed", type=int, default=0, help="the seed every case derives from"
    )
    parser.add_argument(
        "--out", type=Path, default=Path("campaign-out"),
        help="directory for <suite>.jsonl (and <suite>.sarif)",
    )
    args = parser.parse_args(argv)
    return 0 if run(args.suite, args.seed, args.out)["ok"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
