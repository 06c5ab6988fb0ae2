"""Seeded inputs: a commit history over a size-banded mix of files.

Every workload derives its inputs from one ``--seed`` through the
repository's own corpus recipe, :class:`repro.corpus.CommitSimulator`:
a set of files (real standard-library modules plus synthetic modules)
evolves through seeded commits that each change one to five files.

Three departures from the recipe's defaults keep one seed's run
comparable with another's, so that a run measures the program rather
than its seed:

* the file mix: the default samples stdlib files of any size from 1 KB
  to 120 KB, so two seeds can differ tenfold in nodes per operation.
  Here the stdlib sample and the synthetic modules are drawn from a
  band of ``ast`` node counts (:func:`banded_files`);
* keystroke-sized changes for the interactive workloads: a change of
  more than :data:`KEYSTROKE_LINES` lines is not diffed there;
* a fixed mix of mutation kinds where a workload makes its own
  versions (:func:`variants`, :func:`kind_mutants`): drawn at random,
  a few renames more or less decide a seed's mean script length.

The files, their content, the commits and the edits still come from
the seed.
"""

from __future__ import annotations

import ast
import difflib
import random
from dataclasses import dataclass, field

from repro.corpus import CommitSimulator, CorpusConfig
from repro.corpus.generator import GeneratorConfig, generate_module
from repro.corpus.mutations import MUTATIONS
from repro.corpus.stdlib import iter_stdlib_sources


_MUTATION = dict(MUTATIONS)


def ast_nodes(source: str) -> int:
    """Node count of the CPython ``ast`` of ``source`` (the size proxy
    used for banding; independent of the program's own parser)."""
    return sum(1 for _ in ast.walk(ast.parse(source)))


@dataclass(frozen=True)
class Band:
    """A size band: files whose ``ast`` has ``lo..hi`` nodes, found in
    stdlib files of ``min_bytes..max_bytes`` and generated with
    ``generator`` (the recipe's own knob; a band far below the default
    module size would otherwise reject almost every synthetic module)."""

    lo: int
    hi: int
    min_bytes: int
    max_bytes: int
    generator: GeneratorConfig = field(default_factory=GeneratorConfig)


#: ~2k program nodes per file: ``session-replay``.
MEDIUM = Band(1700, 2100, 10_000, 20_000)
#: ~0.9k program nodes per file: the workloads whose per-file set-up
#: (parse, upload, oracle) would otherwise bound how many files or pairs
#: a run can hold.
SMALL = Band(700, 950, 4_000, 16_000)
#: ~300 program nodes per file: ``daemon-write``, whose every request
#: makes several whole-tree passes, and the self-tests' smoke runs.
TINY = Band(150, 400, 1_000, 2_500, GeneratorConfig(n_functions=(1, 3), n_classes=(0, 1), n_methods=(1, 3)))


def banded_files(seed: int, n_files: int, band: Band) -> dict[str, str]:
    """``n_files`` sources, half stdlib and half synthetic, all in ``band``.

    The stdlib half is a seeded sample of the installed stdlib modules
    in the band; the synthetic half is generated from the seed and kept
    when it lands in the band.  Sources come back in ``ast.unparse``
    form, the form every mutated version has, so a version's first
    change is its mutation and not a reformatting of the whole file.
    """
    rng = random.Random(seed)
    n_stdlib = n_files // 2
    pool = [
        (rel, src)
        for rel, src in iter_stdlib_sources(band.min_bytes, band.max_bytes)
        if band.lo <= ast_nodes(src) <= band.hi
    ]
    if len(pool) < n_stdlib:
        raise RuntimeError(
            f"only {len(pool)} stdlib files in band {band}; need {n_stdlib}"
        )
    files = {f"stdlib/{rel}": ast.unparse(ast.parse(src)) for rel, src in rng.sample(pool, n_stdlib)}
    attempt = 0
    while len(files) < n_files:
        attempt += 1
        if attempt > 2000:
            raise RuntimeError(f"synthetic modules never landed in band {band}")
        src = generate_module(seed=seed * 100_003 + attempt, config=band.generator)
        if band.lo <= ast_nodes(src) <= band.hi:
            files[f"synthetic/mod_{len(files):03d}.py"] = ast.unparse(ast.parse(src))
    return files


#: The largest change the keystroke-sized workloads diff, in changed
#: lines.  Most commits of the recipe touch a few lines and yield scripts
#: of 2-80 edits; about a quarter touch more (a copied function, a rename
#: of a common name) and yield up to ~1000 edits and 250 KB of script
#: JSON.  Mixed in at that share, those few ops decide p90 and the mean
#: rate of a run from seed to seed, so the per-keystroke workloads start
#: a new chain at a larger change instead of diffing it.
KEYSTROKE_LINES = 10


def changed_lines(before: str, after: str) -> int:
    """Lines a change replaces, inserts or deletes (``difflib``)."""
    sm = difflib.SequenceMatcher(None, before.splitlines(), after.splitlines(), autojunk=False)
    return sum(
        max(i2 - i1, j2 - j1) for tag, i1, i2, j1, j2 in sm.get_opcodes() if tag != "equal"
    )


def history(seed: int, files: dict[str, str], n_changes: int, keystrokes: bool = False) -> dict[str, list[str]]:
    """Version chains ``{key: [v0, v1, ...]}`` of the recipe's commit
    history over ``files``, whole commits until at least ``n_changes``
    file changes were made.

    Keys are file paths.  With ``keystrokes``, a change larger than
    :data:`KEYSTROKE_LINES` ends its file's chain and the changed file
    starts a new chain (key ``path#n``), so every chain step is
    keystroke-sized.
    """
    sim = CommitSimulator(
        CorpusConfig(n_synthetic_files=0, n_stdlib_files=0, n_commits=10**9, seed=seed)
    )
    sim.files = dict(files)
    commits = sim.commits()
    chains: dict[str, list[str]] = {}
    key: dict[str, str] = {}
    made = 0
    while made < n_changes:
        for change in next(commits):
            made += 1
            k = key.setdefault(change.path, change.path)
            if keystrokes and changed_lines(change.before, change.after) > KEYSTROKE_LINES:
                k = key[change.path] = f"{change.path}#{made}"
                chains[k] = [change.after]
                continue
            chains.setdefault(k, [change.before]).append(change.after)
    return {k: c for k, c in sorted(chains.items()) if len(c) > 1}


#: One variant per kind: the recipe's common small edits, in a fixed mix.
VARIANT_KINDS = ("rename", "change_constant", "insert_statement", "delete_statement", "add_parameter")
#: Substitutes, in order, for a kind a file offers nothing to (no
#: function to add a parameter to, no constant to change, ...).
_SUBSTITUTES = ("swap_operands", "wrap_in_if", "reorder_statements")


def variants(seed: int, source: str) -> list[str]:
    """One keystroke-sized variant of ``source`` per :data:`VARIANT_KINDS`
    entry, each a single mutation of that kind.

    Drawing the kinds at random (as commits do) makes the script-size
    mix of a small working set differ by 20% from seed to seed; a fixed
    mix keeps seeds comparable while the edits themselves still come
    from the seed.
    """
    return kind_mutants(seed, source, VARIANT_KINDS, set())


def kind_mutants(seed: int, source: str, kinds, avoid: set[str]) -> list[str]:
    """One keystroke-sized single mutation of ``source`` per entry of
    ``kinds``, or of the first of :data:`_SUBSTITUTES` the file offers
    when it offers nothing to that kind.

    ``avoid`` holds the ``ast.dump`` of every version handed out so far
    (the caller's set is updated), so no two versions share content.
    """
    rng = random.Random(seed)
    out: list[str] = []
    for kind in kinds:
        for _ in range(10):
            for k in (kind, *_SUBSTITUTES):
                after = _mutation(rng, source, k, out)
                if after is not None:
                    break
            else:
                raise RuntimeError(f"no keystroke-sized variant of kind {kind} or a substitute")
            key = ast.dump(ast.parse(after))
            if key not in avoid:
                avoid.add(key)
                out.append(after)
                break
        else:
            raise RuntimeError(f"mutations of kind {kind} keep producing known content")
    return out


def _mutation(rng: random.Random, source: str, kind: str, taken: list[str]):
    """A new keystroke-sized single mutation of ``kind``, or None."""
    for _ in range(40):
        tree = ast.parse(source)
        if not _MUTATION[kind](tree, rng):
            continue
        after = ast.unparse(ast.fix_missing_locations(tree))
        if after != source and after not in taken and changed_lines(source, after) <= KEYSTROKE_LINES:
            return after
    return None
