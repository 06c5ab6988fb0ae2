"""The worker-process pool shared by ``repro batch`` and the daemon.

:class:`DiffPool` is a ``ProcessPoolExecutor`` that carries the obs
**envelope** of a :class:`~repro.observability.aggregate.TelemetryCollector`
on every task and absorbs the workers' span/metric deltas when a task
is resolved, so the caller's registry and trace buffer cover the whole
pool.  It owns the one deadline mechanism: a task that outlives its
deadline has every pool process SIGKILL'd and the pool rebuilt, which
stops a task stuck in C code or with its signals masked as surely as
one in a Python loop.

This module sits outside :mod:`repro.server` on purpose: the batch
driver and every worker it forks import only what a pair diff needs,
not the daemon's asyncio/HTTP stack.  Tasks are supplied by the caller
(:func:`repro.batch.worker.pair_task`,
:func:`repro.server.pool.pool_diff_task`, ...); each is a picklable
top-level ``task(payload, obs_envelope)`` returning
``{"result": ..., "telemetry": ...}``.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Optional

from repro.observability import OBS, metrics as _metrics


def _worker_init() -> None:
    """Pool-worker initializer: shed fork-inherited parent state.

    Two hazards, both from the ``fork`` start method:

    * **Signal state.**  The daemon's asyncio loop registers
      SIGTERM/SIGINT via ``add_signal_handler``, which installs a noop
      C-level handler plus a self-pipe wakeup fd — and a forked worker
      inherits both.  Left in place, a SIGTERM aimed at the *worker*
      (e.g. by ``ProcessPoolExecutor``'s own ``terminate_broken``)
      (a) does not kill it, leaving an immortal child that 3.11's
      ``shutdown_workers`` busy-spins on forever, and (b) is *relayed
      to the daemon*: the worker's handler writes the signal byte into
      the shared wakeup socketpair, the daemon's loop reads it and runs
      its own SIGTERM callback — a graceful shutdown nobody asked for.
      Restoring the default dispositions and detaching the wakeup fd
      makes a worker signal mean exactly what the sender intended.

    * **Parent death.**  A SIGKILL'd daemon cannot shut its pool down,
      and forked workers inherit every parent fd — including the
      ``flock`` on a durable store's data dir — so an orphaned worker
      blocked on the call queue would hold the lock forever and wedge
      the *next* daemon's startup.  A tiny daemon thread watches for
      re-parenting (``getppid`` changes once the real parent is gone)
      and hard-exits the worker.
    """
    import os
    import signal
    import threading

    try:
        signal.set_wakeup_fd(-1)
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        signal.signal(signal.SIGINT, signal.SIG_DFL)
    except (ValueError, OSError):
        pass  # non-main thread or exotic platform: keep what we have

    parent = os.getppid()

    def watch() -> None:
        while os.getppid() == parent:
            time.sleep(0.5)
        os._exit(2)

    threading.Thread(target=watch, name="repro-parent-watchdog", daemon=True).start()


class DiffPool:
    """A ``ProcessPoolExecutor`` carrying the obs envelope on every task.

    ``submit`` returns the executor's future (awaitable via
    ``asyncio.wrap_future``); :meth:`finish` normalizes the two-part
    result, absorbing worker telemetry through ``collector`` so the
    caller's registry and trace buffer stay the single pane of glass.
    A broken pool (a worker died mid-task) is rebuilt transparently; the
    in-flight task gets a structured error instead of a hung future.
    """

    def __init__(self, workers: int, collector=None) -> None:
        import threading
        from concurrent.futures import ProcessPoolExecutor

        if workers < 1:
            raise ValueError(f"pool needs >= 1 worker, got {workers}")
        self.workers = workers
        self.collector = collector
        self._executor = ProcessPoolExecutor(
            max_workers=workers, initializer=_worker_init
        )
        self._rebuild_lock = threading.Lock()
        self._closed = False

    def submit(self, payload: dict[str, Any], task: Callable[..., dict[str, Any]]):
        """Submit ``task(payload, obs_envelope)`` to a worker; ``task``
        must be a picklable top-level function."""
        from concurrent.futures import Future
        from concurrent.futures.process import BrokenProcessPool

        obs_env = self.collector.envelope() if self.collector is not None else None
        for _attempt in range(2):
            executor = self._executor
            try:
                future = executor.submit(task, payload, obs_env)
            except (BrokenProcessPool, RuntimeError):
                # the pool broke (or closed) before this task entered
                # it; rebuild once and retry on the fresh executor
                self._rebuild(executor)
                continue
            # remember which executor generation answered this submit so a
            # burst of concurrent failures rebuilds the pool exactly once
            future.repro_pool_executor = executor
            return future
        # still broken: hand finish() a pre-failed future so the caller
        # gets the same structured unavailable answer, never a raw raise
        future = Future()
        future.repro_pool_executor = self._executor
        future.set_exception(BrokenProcessPool("process pool unavailable"))
        return future

    def finish(self, future, timeout_s: Optional[float] = None) -> dict[str, Any]:
        """Resolve one submitted future into its ``result`` dict.

        With ``timeout_s``, a worker that has not answered by the
        deadline is treated as wedged: every pool process is killed, the
        pool is rebuilt, and the task gets a structured ``Timeout``
        error instead of waiting forever.
        """
        from concurrent.futures import CancelledError
        from concurrent.futures import TimeoutError as FutureTimeout
        from concurrent.futures.process import BrokenProcessPool

        submitted_to = getattr(future, "repro_pool_executor", None)
        try:
            out = future.result(timeout=timeout_s)
        except FutureTimeout:
            if OBS.enabled:
                _metrics().counter("repro.server.pool.timeouts").inc()
            self._kill_workers(submitted_to)
            self._rebuild(submitted_to)
            return {
                "ok": False,
                "error": (
                    f"diff exceeded its {timeout_s:g}s deadline "
                    "(worker killed, pool rebuilt)"
                ),
                "error_type": "Timeout",
            }
        except BrokenProcessPool:
            self._rebuild(submitted_to)
            return {
                "ok": False,
                "error": "diff worker died (process pool rebuilt)",
                "error_type": "BrokenProcessPool",
            }
        except CancelledError:
            # our own rebuild cancelled this queued task; same structured
            # answer as the broken pool that caused the rebuild
            return {
                "ok": False,
                "error": "diff cancelled while the process pool was rebuilt",
                "error_type": "BrokenProcessPool",
            }
        if self.collector is not None:
            self.collector.absorb(out.get("telemetry"))
        return out["result"]

    def _kill_workers(self, executor=None) -> None:
        """SIGKILL every live pool process (the wedged one included) —
        ``shutdown`` alone would join a worker stuck in C code forever."""
        for proc in list(getattr(executor or self._executor, "_processes", {}).values()):
            try:
                proc.kill()
            except (OSError, AttributeError, ValueError):
                pass

    def _rebuild(self, broken=None) -> None:
        """Replace the executor — once per broken generation, however
        many concurrent callers observed the same failure."""
        from concurrent.futures import ProcessPoolExecutor

        with self._rebuild_lock:
            if broken is not None and broken is not self._executor:
                return  # another caller already swapped this generation out
            if OBS.enabled:
                _metrics().counter("repro.server.pool.rebuilds").inc()
            # SIGKILL the generation's remaining workers before shutdown.
            # CPython 3.11's terminate_broken() only SIGTERMs them and (on
            # POSIX, gh-107219) never closes the call-queue writer, so a
            # feeder thread stuck in send_bytes() keeps the queue full and
            # shutdown_workers() busy-spins on put_nowait() for as long as
            # any child is alive — a 100%-CPU wedge that starves the whole
            # daemon.  Killing the workers drops get_n_children_alive() to
            # zero (ending the spin) and EPIPEs the feeder loose.
            self._kill_workers(self._executor)
            self._executor.shutdown(wait=False, cancel_futures=True)
            if not self._closed:
                self._executor = ProcessPoolExecutor(
                    max_workers=self.workers, initializer=_worker_init
                )

    def shutdown(self, wait: bool = True) -> None:
        self._closed = True
        self._executor.shutdown(wait=wait, cancel_futures=not wait)
