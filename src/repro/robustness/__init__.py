"""Robustness layer: transactional patching, integrity verification,
and fault injection.

The paper's metatheory (Theorems 3.6–3.8) guarantees that *well-typed,
syntactically compliant* scripts patch safely.  This package covers the
complement — scripts and trees that arrive damaged:

* :mod:`repro.robustness.transaction` — atomic application: pre-flight
  linear typecheck against the tree's actual state, exact-inverse undo
  journal, rollback to a fingerprint-identical tree on any failure;
* :mod:`repro.robustness.integrity` — an unconditional whole-tree
  verifier (index consistency, link bidirectionality, no empty slots,
  no leaks, signature conformance) plus canonical tree fingerprints;
* :mod:`repro.robustness.faults` — deterministic script corruption and
  crash injection;
* :mod:`repro.robustness.harness` — the ``fault`` suite of
  :mod:`repro.campaign`, asserting that no fault, however delivered,
  can leave a tree in an intermediate state;
* :mod:`repro.robustness.fallback` — the trivial replace-root script
  used for graceful degradation in batch runs.
"""

from .fallback import replace_root_script
from .faults import (
    CORRUPTION_KINDS,
    Corruption,
    InjectedFault,
    corrupt_script,
    flip_byte,
    inject_fault_at,
    seeded_corruptions,
    truncate_tail,
)
from .integrity import (
    IntegrityError,
    check_tree,
    tree_fingerprint,
    tree_state,
    verify_tree,
)
from .transaction import (
    PatchAbortedError,
    PreflightError,
    RollbackError,
    linear_state_of,
    patch_atomic,
    preflight_check,
    preflight_check_static,
)

__all__ = [
    "CORRUPTION_KINDS",
    "Corruption",
    "InjectedFault",
    "IntegrityError",
    "PatchAbortedError",
    "PreflightError",
    "RollbackError",
    "check_tree",
    "corrupt_script",
    "flip_byte",
    "inject_fault_at",
    "seeded_corruptions",
    "truncate_tail",
    "linear_state_of",
    "patch_atomic",
    "preflight_check",
    "preflight_check_static",
    "replace_root_script",
    "tree_fingerprint",
    "tree_state",
    "verify_tree",
]
