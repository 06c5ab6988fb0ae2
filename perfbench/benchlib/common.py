"""Shared helpers: percentiles, metric records, work directories, RSS."""

from __future__ import annotations

import contextlib
import math
import os
import shutil
import tempfile
from pathlib import Path
from typing import Iterable, Optional

#: The checkout root (the directory holding ``src/`` and ``perfbench/``).
ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
#: Scratch space for generated files, data dirs and daemon logs.
WORK_ROOT = ROOT / ".perfbench-work"


def percentile(values: Iterable[float], q: float) -> float:
    """The ``q``-th percentile (0-100) by linear interpolation between
    closest ranks (numpy's default, ``statistics.quantiles``'
    ``inclusive`` method)."""
    data = sorted(values)
    if not data:
        raise ValueError("percentile of no values")
    if not 0 <= q <= 100:
        raise ValueError(f"percentile {q} outside 0..100")
    pos = (len(data) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def median(values: Iterable[float]) -> float:
    return percentile(values, 50)


def mean(values: Iterable[float]) -> float:
    data = list(values)
    if not data:
        raise ValueError("mean of no values")
    return sum(data) / len(data)


def geometric_mean(values: Iterable[float]) -> float:
    """``exp(mean(ln(1 + v))) - 1``: every value counts, a long tail is
    damped, and a zero is allowed (an empty edit script)."""
    data = list(values)
    if not data:
        raise ValueError("geometric mean of no values")
    return math.expm1(sum(math.log1p(v) for v in data) / len(data))


def to_ms(seconds: float) -> float:
    return seconds * 1000.0


def metric(value: float, unit: str) -> dict:
    """One metric record as the result line carries it."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"metric value must be a number, got {value!r}")
    if not math.isfinite(value):
        raise ValueError(f"metric value must be finite, got {value!r}")
    return {"value": value, "unit": unit}


def result_line(attempted: int, failed: int, metrics: dict) -> dict:
    """The final JSON object of a run: correct when no op failed."""
    return {
        "correct": failed == 0,
        "attempted": max(1, int(attempted)),
        "failed": int(failed),
        "metrics": metrics,
    }


class WorkDir:
    """A per-run scratch directory under ``.perfbench-work/``, removed on close."""

    def __init__(self, tag: str) -> None:
        WORK_ROOT.mkdir(exist_ok=True)
        self.path = Path(tempfile.mkdtemp(prefix=f"{tag}-", dir=WORK_ROOT))

    def sub(self, name: str) -> Path:
        p = self.path / name
        p.mkdir(parents=True, exist_ok=True)
        return p

    def close(self) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()  # only succeeds when no other run uses it
        except OSError:
            pass

    def __enter__(self) -> "WorkDir":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


@contextlib.contextmanager
def one_cpu():
    """Run this process, and the processes it starts meanwhile, on one CPU.

    For workloads whose processes hand each request on to the next and
    never compute at once.  Spread over the two vCPUs of a shared VM,
    such a chain slowed down after its first second of load: a daemon's
    p50 went from 4 to 10 ms and its p90 from 6 to 20 ms within one run
    (a toy asyncio server whose worker threads allocate did the same).
    On one CPU the same requests ran at a steady 4 and 6 ms.  The CPU
    is the highest one this process may use; the old set is restored
    on exit.
    """
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(allowed)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


def child_env() -> dict:
    """Environment for subprocesses that run the program from source."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env.pop("OBS_SAMPLE", None)
    return env


def peak_rss_kb(pid: int) -> Optional[int]:
    """The process's resident-set high-water mark (``VmHWM``), in KiB."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except (OSError, ValueError):
        return None
    return None


def children(pid: int) -> list[int]:
    """Direct child pids of ``pid`` (every thread's children list)."""
    out: list[int] = []
    try:
        tids = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return out
    for tid in tids:
        try:
            with open(f"/proc/{pid}/task/{tid}/children", encoding="ascii") as fh:
                out.extend(int(x) for x in fh.read().split())
        except (OSError, ValueError):
            continue
    return sorted(set(out))


class RssWatch:
    """Peak RSS of a process tree: the sum of each member's ``VmHWM``.

    ``VmHWM`` only grows, so the last reading of a process is its peak;
    :meth:`poll` refreshes every live member and remembers the readings
    of members that have since exited.
    """

    def __init__(self, root_pid: int) -> None:
        self.root_pid = root_pid
        self.peaks: dict[int, int] = {}

    def poll(self) -> None:
        for pid in [self.root_pid, *children(self.root_pid)]:
            kb = peak_rss_kb(pid)
            if kb is not None:
                self.peaks[pid] = max(self.peaks.get(pid, 0), kb)

    def total_mb(self) -> float:
        return sum(self.peaks.values()) / 1024.0
