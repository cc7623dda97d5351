"""Full-rescan reference heuristics for the differential tests.

Each candidate move is scored by ``expected_revenue`` of the whole candidate
assortment, the direct reading of the heuristics' definitions.  The scan
order and the first-winner tie rule are those of ``dfopt.heuristics``, so
both must return the same assortment, value and move count.
``divide_and_conquer`` does not check ``b``.
"""

import numpy as np

from dfopt.heuristics import HeuristicResult
from dfopt.model import AssortmentVector, expected_revenue


def _value(catalog, forest, members):
    return expected_revenue(catalog, forest, AssortmentVector.from_set(catalog.n, members))


def _result(catalog, members, value, iterations, restarts=0, seed=None):
    return HeuristicResult(
        assortment=AssortmentVector.from_set(catalog.n, members),
        value=value,
        iterations=iterations,
        restarts=restarts,
        seed=seed,
    )


def local_search(catalog, forest, start=None):
    members = set() if start is None else set(start.support())
    value = _value(catalog, forest, members)
    moves = 0
    while True:
        best_set = None
        best_value = value
        for i in range(1, catalog.n + 1):
            candidate = members ^ {i}
            cand_value = _value(catalog, forest, candidate)
            if cand_value > best_value:
                best_value = cand_value
                best_set = candidate
        if best_set is None:
            return _result(catalog, members, value, moves)
        members, value = best_set, best_value
        moves += 1


def revenue_ordered(catalog, forest):
    n = catalog.n
    ranked = sorted(range(1, n + 1), key=lambda i: (-catalog.revenues[i - 1], i))
    best_members, best_value = None, None
    for k in range(1, n + 1):
        value = _value(catalog, forest, ranked[:k])
        if best_value is None or value > best_value:
            best_members, best_value = ranked[:k], value
    return _result(catalog, best_members, best_value, n)


def divide_and_conquer(catalog, forest, b, restarts=10, seed=0):
    n = catalog.n
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
            members, value = best_swap, best_value
            total_moves += 1
        if best is None or value > best[1]:
            best = (members, value)
    return _result(catalog, best[0], best[1], total_moves, restarts, seed)
