"""Baseline assortment heuristics: local search, restarts, nested sets, swaps.

All heuristics use best-improvement moves with deterministic scan order
(ascending product id, first winner on value ties) and recompute the returned
value from the model, so results are reproducible per seed and directly
comparable with the exact solvers.

Moves are scored incrementally on a walk state (``_Walks``) that holds every
tree's current leaf and, for each product, the trees whose current
root-to-leaf path tests it.  Flipping product i changes only those trees, so
a flip is scored by walking each of them from the split that tests i down
its other branch; a swap (i out, j in) is scored as "apply flip i, score flip
j, undo".  An accepted move re-walks and re-indexes only the trees it
changes.  A candidate's value is the sum over the trees in order,
``total = 0; total += w_t * revenue_t``, that ``expected_revenue`` computes,
so it equals ``expected_revenue`` of that assortment bit for bit, with the
same type (int, float or Fraction), and every move accepted is the one a
full rescan would accept.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .model import (
    AssortmentVector,
    DecisionForest,
    Leaf,
    Number,
    ProductCatalog,
    check_cardinality,
    expected_revenue,
)


@dataclass(frozen=True)
class HeuristicResult:
    assortment: AssortmentVector
    value: Number
    iterations: int
    restarts: int
    seed: int | None


def _leaf(nodes, x, nid) -> Leaf:
    """The leaf reached by walking ``x`` down from node ``nid``."""
    node = nodes[nid]
    while not isinstance(node, Leaf):
        node = nodes[node.left if x[node.product] else node.right]
    return node


def _total(contrib) -> Number:
    """``expected_revenue``'s sum: from int 0, tree by tree, left to right."""
    total = 0
    for c in contrib:
        total += c
    return total


class _Walks:
    """Every tree's path at one binary assortment, indexed by product.

    ``x[i]`` is 1 when product i is offered (``x[0]`` is unused);
    ``contrib[t]`` is tree t's leaf contribution; ``tested[i]`` maps each
    tree whose path tests product i to the split that tests it; ``value`` is
    ``expected_revenue`` at ``x``.
    """

    def __init__(self, catalog: ProductCatalog, forest: DecisionForest, members):
        self.x = [0] * (catalog.n + 1)
        for i in members:
            self.x[i] = 1
        self.catalog = catalog
        self.nodes = [tree.nodes for tree in forest.trees]
        self.weights = forest.weights
        self.paths: list[list[int]] = [[] for _ in self.nodes]
        self.contrib: list[Number] = [0] * len(self.nodes)
        self.tested: list[dict[int, int]] = [{} for _ in self.x]
        for t, tree in enumerate(forest.trees):
            self._descend(t, tree.root)
        self.value = _total(self.contrib)

    def assortment(self) -> AssortmentVector:
        return AssortmentVector(self.x[1:])

    def _descend(self, t: int, k: int) -> None:
        """Walk tree t down from node k, appending the splits passed."""
        nodes, x, path, tested = self.nodes[t], self.x, self.paths[t], self.tested
        node = nodes[k]
        while not isinstance(node, Leaf):
            path.append(k)
            tested[node.product][t] = k
            k = node.left if x[node.product] else node.right
            node = nodes[k]
        self.contrib[t] = self.weights[t] * self.catalog.revenue_of(node.option)

    def flip(self, i: int) -> None:
        """Offer product i if it is not offered, withdraw it otherwise."""
        self.x[i] ^= 1
        for t, k in list(self.tested[i].items()):
            path, nodes = self.paths[t], self.nodes[t]
            pos = path.index(k)
            for s in path[pos + 1 :]:
                del self.tested[nodes[s].product][t]
            del path[pos:]
            self._descend(t, k)
        self.value = _total(self.contrib)

    def flipped_value(self, i: int) -> Number:
        """Value after flipping product i; the state is left as it is."""
        contrib = self.contrib[:]
        x = self.x
        revenue_of, weights = self.catalog.revenue_of, self.weights
        for t, k in self.tested[i].items():
            nodes = self.nodes[t]
            split = nodes[k]
            leaf = _leaf(nodes, x, split.right if x[i] else split.left)
            contrib[t] = weights[t] * revenue_of(leaf.option)
        return _total(contrib)


def _result(catalog, forest, x, iterations, restarts, seed) -> HeuristicResult:
    return HeuristicResult(
        assortment=x,
        value=expected_revenue(catalog, forest, x),
        iterations=iterations,
        restarts=restarts,
        seed=seed,
    )


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
    members = () if start is None else start.support()
    walks = _Walks(catalog, forest, members)
    moves = 0
    while True:
        best_flip = None
        best_value = walks.value
        for i in range(1, catalog.n + 1):
            cand_value = walks.flipped_value(i)
            if cand_value > best_value:
                best_value = cand_value
                best_flip = i
        if best_flip is None:
            break
        walks.flip(best_flip)
        moves += 1
    return _result(catalog, forest, walks.assortment(), moves, 0, None)


def _check_restarts(restarts: int) -> None:
    if restarts < 1:
        raise DomainError("restarts must be >= 1")


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
    _check_restarts(restarts)
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
    walks = _Walks(catalog, forest, ())
    best_k = 0
    best_value = None
    for k, i in enumerate(ranked, start=1):
        walks.flip(i)
        if best_value is None or walks.value > best_value:
            best_value = walks.value
            best_k = k
    x = AssortmentVector.from_set(n, ranked[:best_k])
    return _result(catalog, forest, x, n, 0, None)


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
    _check_restarts(restarts)
    rng = np.random.Generator(np.random.PCG64(seed))
    best = None
    total_moves = 0
    for _ in range(restarts):
        pool = list(range(1, n + 1))
        for i in range(b):
            j = int(rng.integers(i, n))
            pool[i], pool[j] = pool[j], pool[i]
        walks = _Walks(catalog, forest, pool[:b])
        moves = 0
        while True:
            best_swap = None
            best_value = walks.value
            members = [i for i in range(1, n + 1) if walks.x[i]]
            for i in members:
                walks.flip(i)
                for j in range(1, n + 1):
                    if j == i or walks.x[j]:
                        continue
                    cand_value = walks.flipped_value(j)
                    if cand_value > best_value:
                        best_value = cand_value
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
    return _result(catalog, forest, best[0], total_moves, restarts, seed)
