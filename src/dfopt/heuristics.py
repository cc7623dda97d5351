"""Baseline assortment heuristics: local search, restarts, nested sets, swaps.

All heuristics use best-improvement moves with deterministic scan order
(ascending product id, first winner on value ties) and recompute the returned
value from the model, so results are reproducible per seed and directly
comparable with the exact solvers.

Moves are scored incrementally on a walk state (``_Walks``) that holds every
tree's current leaf and, for each product, the trees whose current
root-to-leaf path tests it.  Flipping product i changes only those trees:
tree t's new contribution is the leaf reached down the other branch of the
split k that tests i, cached as ``alt[t][k]`` when first asked for.  That walk
reads the assortment only at the split's own product and at the splits below
it, so a dependency index (product -> every ``(t, k)`` whose walk read it)
drops exactly the entries a flip makes stale, including walks down branches
no current path takes.  Trees are walked through their dense per-node arrays
(``PurchaseTree.arrays``), one list lookup per step.

The cost of a scan is what the last flip changed, not the number of
candidates.  Each product's flip delta, the sum of ``alt[t][k] - contrib[t]``
over the trees that test it, is cached, and a flip drops only the deltas it
can change: those of the products on the old or new path of a re-walked tree,
and of the product at the split of each dropped alternative.  A scan scores
every candidate as ``value + delta`` from that cache, then runs the exact sum
over the trees in order, ``total = 0; total += w_t * revenue_t``, that
``expected_revenue`` computes, only for the candidates within twice a
summation error bound (zero for ints and Fractions) of the top score, in scan
order against the best so far.  No candidate below that cut can hold the
largest exact total, so a score equals ``expected_revenue`` of its assortment
bit for bit, with the same type (int, float or Fraction), and every move
accepted is the one a full rescan would accept.  A swap (i out, j in) is
scored as "apply flip i, score flip j, undo"; an accepted move re-walks and
re-indexes only the trees it changes.
"""

from __future__ import annotations

import numbers
from collections import defaultdict
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .errors import DomainError
from .instancegen import sample_without_replacement
from .model import (
    AssortmentVector,
    DecisionForest,
    Number,
    ProductCatalog,
    check_cardinality,
    check_size,
    expected_revenue,
)


@dataclass(frozen=True)
class HeuristicResult:
    assortment: AssortmentVector
    value: Number
    iterations: int


def _total(contrib) -> Number:
    """``expected_revenue``'s sum: from int 0, tree by tree, left to right."""
    total = 0
    for c in contrib:
        total += c
    return total


# ``_Walks.best_flip`` scores candidate i as s_i = value + delta_i and needs
# |E_i - s_i| < margin / 2, E_i being the exact total it would compute.
# Let u = 2**-53 and M = sum|w_t| * max|r|; every term |c_t| is at most
# |w_t| max|r| (1 + u), so each sum of T absolute terms is <= M (1 + u).
# Recursive summation of n terms errs by at most gamma_{n-1} times the sum
# of their absolute values (Higham 2002, Accuracy and Stability of Numerical
# Algorithms, sec. 4.2), gamma_n = n u / (1 - n u).  An int term or int
# partial sum that meets a float is rounded once more, so:
#   - value and E_i are each within gamma_T M (1 + u) of their real sums;
#   - delta, at most T differences each rounded (and converted) at most
#     twice, of absolute size <= 2 M (1 + u) in all, is within
#     gamma_{T+2} 2 M (1 + u) of the real change;
#   - the addition value + delta rounds once more, by at most u M (1 + 2 T u).
# So |E_i - s_i| < (4 T + 6) u M times (1 + 2 T u) <= 1.001 for T < 2**40,
# and margin = 8 (T + 8) u M is more than twice that.  The cut top - 2 margin
# rounds by at most u (2 M + 2 margin) < margin, so a candidate with s_i
# under it has s_i < top - margin and E_i < top - margin / 2 < E_j for the
# candidate j that scored top: it cannot hold the largest exact total.  For
# the same reason a candidate with s_i + margin <= best has E_i <= best.
# With only ints and Fractions every step is exact, and margin is 0.
def _margin(revenues, weights) -> Number:
    if all(isinstance(v, (int, Fraction)) for v in (*revenues, *weights)):
        return 0
    bound = float(sum(abs(w) for w in weights)) * float(max(abs(r) for r in revenues))
    return 8 * (len(weights) + 8) * 2.0**-53 * bound


class _Walks:
    """Every tree's path at one binary assortment, indexed by product.

    ``x[i]`` is 1 when product i is offered (``x[0]`` is unused);
    ``contrib[t]`` is tree t's leaf contribution; ``tested[i]`` maps each
    tree whose path tests product i to the split that tests it; ``value`` is
    ``expected_revenue`` at ``x``.  Splits are node positions in
    ``trees[t]``, tree t's ``PurchaseTree.arrays``.  ``alt[t][k]`` caches the
    contribution tree t makes when the product at split k flips, and
    ``deps[i]`` holds every ``(t, k)`` whose cached walk read product i.
    ``deltas[i]`` caches the change in ``value`` that flipping i makes.
    """

    def __init__(self, catalog: ProductCatalog, forest: DecisionForest, members):
        self.x = [0] * (catalog.n + 1)
        for i in members:
            self.x[i] = 1
        self.catalog = catalog
        self.trees = [tree.arrays() for tree in forest.trees]
        self.weights = forest.weights
        self.paths: list[list[int]] = [[] for _ in self.trees]
        self.contrib: list[Number] = [0] * len(self.trees)
        self.tested: list[dict[int, int]] = [{} for _ in self.x]
        self.alt: list[dict[int, Number]] = [{} for _ in self.trees]
        self.deps: defaultdict[int, set[tuple[int, int]]] = defaultdict(set)
        self.deltas: dict[int, Number] = {}
        for t, arrays in enumerate(self.trees):
            self._descend(t, arrays[4])
        self.value = _total(self.contrib)
        self.margin = _margin(catalog.revenues, forest.weights)

    def assortment(self) -> AssortmentVector:
        return AssortmentVector(self.x[1:])

    def _descend(self, t: int, k: int) -> None:
        """Walk tree t down from node k, appending the splits passed."""
        product, left, right, option, _ = self.trees[t]
        x, path, tested = self.x, self.paths[t], self.tested
        p = product[k]
        while p:
            path.append(k)
            tested[p][t] = k
            k = left[k] if x[p] else right[k]
            p = product[k]
        self.contrib[t] = self.weights[t] * self.catalog.revenue_of(option[k])

    def _alternative(self, t: int, k: int) -> Number:
        """Tree t's contribution if the product at split k flipped, cached.

        The walk reads x only at the split's own product, which picks the
        branch, and at each split below it (no product repeats on a path),
        so the entry stays exact until one of those products flips.
        """
        product, left, right, option, _ = self.trees[t]
        x, deps, key = self.x, self.deps, (t, k)
        p = product[k]
        deps[p].add(key)
        node = right[k] if x[p] else left[k]
        p = product[node]
        while p:
            deps[p].add(key)
            node = left[node] if x[p] else right[node]
            p = product[node]
        alt = self.alt[t][k] = self.weights[t] * self.catalog.revenue_of(option[node])
        return alt

    def flip(self, i: int) -> None:
        """Offer product i if it is not offered, withdraw it otherwise.

        Drops the cached deltas the flip can change; with none cached, as
        when nothing has been scanned yet, there is nothing to drop.
        """
        self.x[i] ^= 1
        trees, tested, deltas = self.trees, self.tested, self.deltas
        for t, k in self.deps.pop(i, ()):
            if self.alt[t].pop(k, None) is not None and deltas:
                deltas.pop(trees[t][0][k], None)
        for t, k in list(tested[i].items()):
            product, path = trees[t][0], self.paths[t]
            pos = path.index(k)
            if deltas:
                for s in path:
                    deltas.pop(product[s], None)
            for s in path[pos + 1 :]:
                del tested[product[s]][t]
            del path[pos:]
            self._descend(t, k)
            if deltas:
                for s in path[pos:]:
                    deltas.pop(product[s], None)
        self.value = _total(self.contrib)

    def best_flip(self, candidates, best: Number) -> tuple[Number, int] | None:
        """The first candidate whose flip is worth the most above ``best``.

        ``candidates`` is a sequence of products.  Returns ``(value, i)``, or
        None when no flip is worth more than ``best``; the state is left as
        it is.  Every candidate is scored as ``value + delta`` from the
        cache; the exact sum over all trees runs only for the candidates
        whose score is within ``2 * margin`` of the top one and, with
        ``margin`` added, above the best so far.
        """
        deltas, contrib, alt, tested = self.deltas, self.contrib, self.alt, self.tested
        for i in [i for i in candidates if i not in deltas]:
            delta = 0
            for t, k in tested[i].items():
                a = alt[t].get(k)
                if a is None:
                    a = self._alternative(t, k)
                delta += a - contrib[t]
            deltas[i] = delta
        value, margin = self.value, self.margin
        scores = [value + deltas[i] for i in candidates]
        top = max(scores, default=best)
        if top + margin <= best:  # most scans at a local optimum end here
            return None
        cut = top - 2 * margin
        found = None
        for i, score in [(i, s) for i, s in zip(candidates, scores) if s >= cut]:
            if score + margin <= best:
                continue
            cand = contrib[:]
            for t, k in tested[i].items():
                cand[t] = alt[t][k]
            total = _total(cand)
            if total > best:
                best = total
                found = (total, i)
        return found


def _result(catalog, forest, x, iterations) -> HeuristicResult:
    return HeuristicResult(
        assortment=x, value=expected_revenue(catalog, forest, x), iterations=iterations
    )


def local_search(
    catalog: ProductCatalog,
    forest: DecisionForest,
    start: AssortmentVector | None = None,
) -> HeuristicResult:
    """Best-improvement add/remove search from ``start`` (default: empty set).

    Each step applies the single add or remove that raises expected revenue
    the most; stops at a local optimum.  Values increase strictly, so no
    assortment repeats.  A start level other than 0 or 1 raises DomainError.
    """
    members = ()
    if start is not None:
        check_size(catalog, start)
        if any(v != 0 and v != 1 for v in start.values):
            raise DomainError(f"local search needs a binary start, got {start.values}")
        members = start.support()
    walks = _Walks(catalog, forest, members)
    moves = 0
    while True:
        found = walks.best_flip(range(1, catalog.n + 1), walks.value)
        if found is None:
            break
        walks.flip(found[1])
        moves += 1
    return _result(catalog, forest, walks.assortment(), moves)


def _check_runs(restarts: int, seed: int) -> None:
    """Refuse what the random starts could not be drawn with."""
    if isinstance(restarts, bool) or not isinstance(restarts, numbers.Integral):
        raise DomainError(f"restarts must be an integer, got {restarts!r}")
    if restarts < 1:
        raise DomainError("restarts must be >= 1")
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
        raise DomainError(f"seed must be an integer >= 0, got {seed!r}")


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
    _check_runs(restarts, seed)
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
    return replace(best, iterations=total_moves)


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
    walks = _Walks(catalog, forest, ())
    best_k = 0
    best_value = None
    for k, i in enumerate(ranked, start=1):
        walks.flip(i)
        if best_value is None or walks.value > best_value:
            best_value = walks.value
            best_k = k
    x = AssortmentVector.from_set(n, ranked[:best_k])
    return _result(catalog, forest, x, n)


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
    cardinality b (any of 0..n) is preserved throughout.
    """
    n = catalog.n
    check_cardinality(n, b)
    _check_runs(restarts, seed)
    rng = np.random.Generator(np.random.PCG64(seed))
    best = None
    total_moves = 0
    for _ in range(restarts):
        start = sample_without_replacement(rng, list(range(1, n + 1)), b)
        walks = _Walks(catalog, forest, start)
        moves = 0
        while True:
            best_swap = None
            best_value = walks.value
            members = [i for i in range(1, n + 1) if walks.x[i]]
            outside = [j for j in range(1, n + 1) if not walks.x[j]]
            for i in members:
                walks.flip(i)
                found = walks.best_flip(outside, best_value)
                if found is not None:
                    best_value, j = found
                    best_swap = (i, j)
                walks.flip(i)
            if best_swap is None:
                break
            for i in best_swap:
                walks.flip(i)
            moves += 1
        total_moves += moves
        if best is None or walks.value > best[1]:
            best = (walks.assortment(), walks.value)
    return _result(catalog, forest, best[0], total_moves)
