"""The seeded case source of the gate suites (:mod:`repro.campaign`).

Case ``i`` of seed ``s`` is the generated module ``generate_module(s + i)``
plus commit-like mutations of it, all drawn from one
``random.Random(s * 1_000_003 + i)``.  The derivation is arithmetic:
string hashes are randomized per process and would make a campaign
unreplayable.
"""

from __future__ import annotations

import random

from .generator import GeneratorConfig, generate_module
from .mutations import mutate_source

#: module sizes the suites draw from, by name
CASE_SIZES = {
    "small": GeneratorConfig(n_functions=(2, 4), n_classes=(0, 1)),
    "medium": GeneratorConfig(n_functions=(3, 6), n_classes=(0, 2)),
    "big": GeneratorConfig(n_functions=(14, 18), n_classes=(2, 3)),
}


def seeded_cases(
    seed: int,
    n: int,
    size: str = "small",
    *,
    variants: int = 1,
    edits: tuple[int, int] = (2, 6),
) -> list[tuple[str, list[str]]]:
    """``n`` reproducible ``(before, afters)`` source cases: a generated
    module of ``size`` and ``variants`` mutations of it, each applying
    between ``edits[0]`` and ``edits[1]`` mutation ops."""
    config = CASE_SIZES[size]
    cases = []
    for i in range(n):
        before = generate_module(seed + i, config)
        rng = random.Random(seed * 1_000_003 + i)
        afters = [
            mutate_source(before, rng, n_edits=rng.randint(*edits))[0]
            for _ in range(variants)
        ]
        cases.append((before, afters))
    return cases
