"""Diff-as-a-service: a long-lived daemon over a content-addressed tree store.

The library → system step the ROADMAP names: instead of one-shot CLI
invocations that re-parse everything, a persistent asyncio daemon holds
parsed trees in a :class:`~repro.server.store.TreeStore` keyed by the
sha256 tree fingerprint, and serves ``diff`` / ``apply`` / ``lint`` /
``verify`` / ``merge`` requests against the cached trees — clients
submit sources once, then address them by fingerprint.

* :mod:`repro.server.store` — the content-addressed store (parse once,
  LRU-bounded, atomic-patch mutation semantics);
* :mod:`repro.server.pool` — the diff and apply tasks the daemon runs
  on :class:`repro.pool.DiffPool`, the worker pool ``repro batch``
  shares;
* :mod:`repro.server.service` — the transport-independent operation
  table (one ``repro.server.request`` trace per request);
* :mod:`repro.server.httpd` / :mod:`repro.server.stdio` — the HTTP and
  JSONL-over-stdio front ends, both with graceful drain-on-shutdown;
* :mod:`repro.server.client` — a stdlib blocking client (the CLI's
  ``--server`` mode and the smoke and chaos suites);
* :mod:`repro.server.durable` — the crash-safe store behind
  ``--data-dir``: content-addressed snapshots plus a CRC-framed,
  fsync'd write-ahead journal of applied scripts, with verified
  replay-based recovery on startup;
* :mod:`repro.server.smoke` — the ``smoke`` suite of
  :mod:`repro.campaign` (``python -m repro.campaign smoke``), the
  end-to-end differential gate on an in-memory and a durable store:
  server output byte-identical to the one-shot CLI, cache hits visible
  in ``/metrics``, 32 concurrent requests, graceful shutdown drain —
  plus the :class:`~repro.server.smoke.Daemon` subprocess helper;
* :mod:`repro.server.chaos` — the seeded ``chaos`` suite
  (``python -m repro.campaign chaos --seed N``): kill -9 mid-apply,
  torn/flipped journal bytes, wedged workers, slow-loris clients,
  overload — each scenario asserting recovery to a verified store and
  byte-identical diff answers.

Start one with ``python -m repro serve`` (see the CLI docs).
"""

from .client import ClientError, ServerClient
from .durable import (
    DataDirLocked,
    DurableTreeStore,
    RecoveryStats,
    frame_record,
    read_segment,
)
from .httpd import ReproHTTPServer, run_http_daemon
from .pool import DiffPool, diff_trees, pool_diff_task
from .service import ERROR_STATUS, ReproService, ServiceError
from .stdio import ReproStdioServer, run_stdio_daemon
from .store import (
    StoredTree,
    StoreError,
    TreeStore,
    UnknownFingerprint,
    fingerprint_tree,
)

__all__ = [
    "ClientError",
    "DataDirLocked",
    "DiffPool",
    "DurableTreeStore",
    "ERROR_STATUS",
    "RecoveryStats",
    "ReproHTTPServer",
    "ReproService",
    "ReproStdioServer",
    "ServerClient",
    "ServiceError",
    "StoreError",
    "StoredTree",
    "TreeStore",
    "UnknownFingerprint",
    "diff_trees",
    "fingerprint_tree",
    "frame_record",
    "pool_diff_task",
    "read_segment",
    "run_http_daemon",
    "run_stdio_daemon",
]
