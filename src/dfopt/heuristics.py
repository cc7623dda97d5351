"""Baseline assortment heuristics: local search, restarts, nested sets, swaps.

All heuristics use best-improvement moves with deterministic scan order
(ascending product id, first winner on value ties) and recompute the returned
value from the model, so results are reproducible per seed and directly
comparable with the exact solvers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .model import (
    AssortmentVector,
    DecisionForest,
    Number,
    ProductCatalog,
    expected_revenue,
)


@dataclass(frozen=True)
class HeuristicResult:
    assortment: AssortmentVector
    value: Number
    iterations: int
    restarts: int
    seed: int | None


def _value(catalog, forest, members: set[int]) -> Number:
    x = AssortmentVector.from_set(catalog.n, members)
    return expected_revenue(catalog, forest, x)


def local_search(
    catalog: ProductCatalog,
    forest: DecisionForest,
    start: AssortmentVector | None = None,
) -> HeuristicResult:
    """Best-improvement add/remove search from ``start`` (default: empty set).

    Each step applies the single add or remove that raises expected revenue
    the most; stops at a local optimum.  Values increase strictly, so no
    assortment repeats.
    """
    n = catalog.n
    members = set() if start is None else set(start.support())
    value = _value(catalog, forest, members)
    moves = 0
    while True:
        best_delta_set = None
        best_value = value
        for i in range(1, n + 1):
            candidate = members - {i} if i in members else members | {i}
            cand_value = _value(catalog, forest, candidate)
            if cand_value > best_value:
                best_value = cand_value
                best_delta_set = candidate
        if best_delta_set is None:
            break
        members = best_delta_set
        value = best_value
        moves += 1
    return HeuristicResult(
        assortment=AssortmentVector.from_set(n, members),
        value=value,
        iterations=moves,
        restarts=0,
        seed=None,
    )


def ls10(
    catalog: ProductCatalog,
    forest: DecisionForest,
    seed: int,
    restarts: int = 10,
    include_empty_start: bool = False,
) -> HeuristicResult:
    """Best of ``restarts`` local searches from uniform-random assortments.

    ``include_empty_start`` replaces the first random start with the empty
    assortment, which makes the result dominate a plain empty-start search
    pointwise (used by controlled comparisons).
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    n = catalog.n
    best = None
    total_moves = 0
    for r in range(restarts):
        bits = rng.integers(0, 2, size=n)
        if r == 0 and include_empty_start:
            bits = np.zeros(n, dtype=int)
        start = AssortmentVector(tuple(int(b) for b in bits))
        run = local_search(catalog, forest, start)
        total_moves += run.iterations
        if best is None or run.value > best.value:
            best = run
    return HeuristicResult(
        assortment=best.assortment,
        value=best.value,
        iterations=total_moves,
        restarts=restarts,
        seed=seed,
    )


def revenue_ordered(
    catalog: ProductCatalog, forest: DecisionForest
) -> HeuristicResult:
    """Best among the n nested top-revenue assortments.

    Products are ranked by nonincreasing revenue (ties by ascending id); the
    candidates are the prefixes S_1..S_n of that ranking.  The empty set is
    not a candidate.
    """
    n = catalog.n
    ranked = sorted(range(1, n + 1), key=lambda i: (-catalog.revenues[i - 1], i))
    best_members: set[int] = set()
    best_value = None
    members: set[int] = set()
    for k, i in enumerate(ranked, start=1):
        members = members | {i}
        value = _value(catalog, forest, members)
        if best_value is None or value > best_value:
            best_value = value
            best_members = set(members)
    return HeuristicResult(
        assortment=AssortmentVector.from_set(n, best_members),
        value=best_value,
        iterations=n,
        restarts=0,
        seed=None,
    )


def divide_and_conquer(
    catalog: ProductCatalog,
    forest: DecisionForest,
    b: int,
    restarts: int = 10,
    seed: int = 0,
) -> HeuristicResult:
    """Fixed-size swap search: best of ``restarts`` runs from random b-sets.

    Each step swaps one offered product for the outside product that improves
    expected revenue the most (scan ascending ids, inside then outside);
    cardinality b is preserved throughout.
    """
    n = catalog.n
    if not 1 <= b <= n:
        raise DomainError(f"cardinality {b} out of range 1..{n}")
    rng = np.random.Generator(np.random.PCG64(seed))
    best = None
    total_moves = 0
    for _ in range(restarts):
        pool = list(range(1, n + 1))
        for i in range(b):
            j = int(rng.integers(i, n))
            pool[i], pool[j] = pool[j], pool[i]
        members = set(pool[:b])
        value = _value(catalog, forest, members)
        moves = 0
        while True:
            best_swap = None
            best_value = value
            for i in sorted(members):
                for j in range(1, n + 1):
                    if j in members:
                        continue
                    candidate = (members - {i}) | {j}
                    cand_value = _value(catalog, forest, candidate)
                    if cand_value > best_value:
                        best_value = cand_value
                        best_swap = candidate
            if best_swap is None:
                break
            members = best_swap
            value = best_value
            moves += 1
        total_moves += moves
        if best is None or value > best[1]:
            best = (members, value)
    return HeuristicResult(
        assortment=AssortmentVector.from_set(n, best[0]),
        value=best[1],
        iterations=total_moves,
        restarts=restarts,
        seed=seed,
    )
