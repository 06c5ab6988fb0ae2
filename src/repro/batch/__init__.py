"""Corpus-scale parallel batch diffing with per-pair fault isolation.

:func:`run_batch` fans file pairs out over :class:`repro.pool.DiffPool`
(one task per pair, per-pair deadline, bounded retry of transient
failures) and streams one structured result row per pair;
``python -m repro batch`` is the CLI front end, writing rows as JSON
Lines.
"""

from .driver import (
    BatchConfig,
    BatchSummary,
    DEFAULT_CONFIG,
    discover_pairs,
    read_pairs_file,
    run_batch,
)
from .worker import RETRYABLE_KINDS, diff_pair, diff_pair_degrading

__all__ = [
    "BatchConfig",
    "BatchSummary",
    "DEFAULT_CONFIG",
    "RETRYABLE_KINDS",
    "diff_pair",
    "diff_pair_degrading",
    "discover_pairs",
    "read_pairs_file",
    "run_batch",
]
