"""Benchmark corpora: synthetic Python modules, commit-like mutations,
real stdlib sources, a simulated commit history (the paper's keras
corpus stand-in; see DESIGN.md for the substitution rationale), and the
seeded cases the gate suites of :mod:`repro.campaign` draw from."""

from .cases import seeded_cases
from .generator import GeneratorConfig, PythonGenerator, generate_module
from .history import CommitSimulator, CorpusConfig, FileChange, default_corpus
from .mutations import MUTATIONS, mutate_source
from .stdlib import iter_stdlib_sources, load_stdlib_corpus, stdlib_root

__all__ = [
    "CommitSimulator",
    "CorpusConfig",
    "FileChange",
    "GeneratorConfig",
    "MUTATIONS",
    "PythonGenerator",
    "default_corpus",
    "generate_module",
    "iter_stdlib_sources",
    "load_stdlib_corpus",
    "mutate_source",
    "seeded_cases",
    "stdlib_root",
]
