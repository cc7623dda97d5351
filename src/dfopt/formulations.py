"""Monolithic LP/MIP builders for the three formulation strengths.

All three share variables: one inclusion level x_i per product (bounds
[0, 1], binary in the integer problem) and one leaf weight y per (tree,
leaf), tied together by capacity rows at one of three granularities:

- "leaf": one row per (split, reachable leaf) pair, the weakest relaxation;
- "split": one row per split, aggregating the leaves under each branch;
- "product": one row per (tree, product), aggregating all splits of that
  product, the strongest relaxation.

Each leaf weight is bounded to [0, 1]: each tree's unit-sum row already
implies y <= 1, but the LP layer takes only finite bounds.

``capacity_rows`` is the one place where the granularities are defined; the
builder here, the per-tree oracles, the closed-form cuts and the Benders cut
assembly all read their rows from it or from its per-leaf transpose
``leaf_rows``.  The objective is the weight-and-revenue weighted sum of leaf
variables.  An optional cardinality row fixes the assortment size.  Builders
are pure and produce deterministic row/column orderings (trees in order, node
ids ascending), so matrices are reproducible byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DomainError
from .lp import EQ, LE, LinearProgram, LpSolution, WarmBasis, solve_lp
from .model import (
    DecisionForest,
    ProductCatalog,
    PurchaseTree,
    brute_force_optimal,
    check_cardinality,
)


class Kind(str, Enum):
    LEAF = "leaf"
    SPLIT = "split"
    PRODUCT = "product"


def as_kind(kind) -> Kind:
    """``Kind(kind)``, raising ``DomainError`` for a name that is not a kind."""
    try:
        return Kind(kind)
    except ValueError:
        raise DomainError(f"unknown kind {kind!r}") from None


def capacity_rows(kind: Kind, tree: PurchaseTree) -> list[tuple]:
    """The tree's capacity rows at one granularity, in ``build``'s row order.

    Each row is ``(key, product, left, leaves, other)``: the weights of
    ``leaves`` sum to at most x_product when ``left`` and to at most
    1 - x_product otherwise; ``key`` names the row's multiplier ((split,
    leaf) pair, split id or product id) and ``other`` holds the leaves behind
    the opposite branch of the same test.
    """
    rows = []
    if kind == Kind.PRODUCT:
        # one pass over the (split, leaf) incidences; leaves come ascending
        nodes = tree.nodes
        sides: dict[int, tuple[list, list]] = {}  # product -> (right, left)
        for l in tree.leaf_ids:
            for s, went_left in tree.path[l]:
                sides.setdefault(nodes[s].product, ([], []))[went_left].append(l)
        for i in sorted(sides):
            rights, lefts = map(tuple, sides[i])
            rows += [(i, i, True, lefts, rights), (i, i, False, rights, lefts)]
        return rows
    for s in tree.split_ids:
        i = tree.split_product(s)
        lefts, rights = tree.left_leaves[s], tree.right_leaves[s]
        if kind == Kind.SPLIT:
            rows += [(s, i, True, lefts, rights), (s, i, False, rights, lefts)]
        else:
            rows += [((s, l), i, True, (l,), rights) for l in lefts]
            rows += [((s, l), i, False, (l,), lefts) for l in rights]
    return rows


def leaf_rows(kind: Kind, tree: PurchaseTree, leaf: int) -> list[tuple]:
    """The rows of ``capacity_rows(kind, tree)`` that hold ``leaf``.

    One row per split on the leaf's path, as ``(split, key, product, left)``
    with the last three as in ``capacity_rows``, in tie-rank order:
    root-first, except that per-(split, leaf) rows list all left rows first.
    """
    nodes = tree.nodes
    path = tree.path[leaf]
    if kind == Kind.LEAF:
        return [
            (s, (s, leaf), nodes[s].product, went_left)
            for side in (True, False)
            for s, went_left in path
            if went_left == side
        ]
    by_product = kind == Kind.PRODUCT
    rows = []
    for s, went_left in path:
        i = nodes[s].product
        rows.append((s, i if by_product else s, i, went_left))
    return rows


def row_product(kind: Kind, tree: PurchaseTree, key) -> int:
    """Product whose level bounds the capacity row named ``key``."""
    if kind == Kind.PRODUCT:
        return key
    return tree.split_product(key[0] if kind == Kind.LEAF else key)


@dataclass(frozen=True)
class BuiltFormulation:
    kind: Kind
    lp: LinearProgram
    n: int
    y_cols: dict[tuple[int, int], int]  # (tree index, leaf id) -> column
    cardinality: int | None
    unit_rows: tuple[int, ...]  # per tree, the row index of its unit-sum row
    card_row: int | None  # row index of the cardinality row, if any

    def y_of(self, solution: LpSolution) -> dict[tuple[int, int], float]:
        return {key: float(solution.x[c]) for key, c in self.y_cols.items()}

    def start_basis(self) -> WarmBasis:
        return best_leaf_basis(self.lp, self.unit_rows, self.card_row, self.cardinality)


def best_leaf_basis(
    lp: LinearProgram,
    unit_rows,
    card_row: int | None = None,
    cardinality: int | None = None,
) -> WarmBasis:
    """Start basis at the optimistic point: every tree buys its best leaf.

    In each tree's unit-sum row (``unit_rows``, whose nonzeros are the tree's
    leaf weights) the leaf with the largest objective coefficient is basic,
    on ties the smallest leaf id; every capacity slack is basic.  With a
    cardinality b >= 1, product 1 is basic in ``card_row`` and products 2..b
    sit at their upper bound; at b = 0 the row keeps its slack.

    The basis is dual feasible, so the dual simplex starts from it on the true
    costs: capacity duals are 0, each unit row's dual is its best leaf's
    coefficient, which no leaf's exceeds, and the x columns cost 0 and meet
    only rows of dual 0, so their reduced costs are 0.
    """
    basic = list(range(lp.num_cols, lp.num_cols + lp.num_rows))
    for row in unit_rows:
        cols = lp.A[row].nonzero()[0]
        basic[row] = int(cols[lp.c[cols].argmax()])  # first maximum on ties
    if cardinality:
        basic[card_row] = 0
    return WarmBasis(basic=tuple(basic), at_upper=tuple(range(1, cardinality or 0)))


def build(
    kind: Kind,
    catalog: ProductCatalog,
    forest: DecisionForest,
    cardinality: int | None = None,
) -> BuiltFormulation:
    """Assemble the chosen formulation as an explicit dense LP."""
    kind = as_kind(kind)
    n = catalog.n
    check_cardinality(n, cardinality)

    y_cols: dict[tuple[int, int], int] = {}
    col = n
    for t, tree in enumerate(forest.trees):
        for l in tree.leaf_ids:
            y_cols[(t, l)] = col
            col += 1
    ncols = col

    c = np.zeros(ncols)
    for t, tree in enumerate(forest.trees):
        w = float(forest.weights[t])
        for l in tree.leaf_ids:
            c[y_cols[(t, l)]] = w * float(catalog.leaf_revenue(tree, l))

    rows: list[np.ndarray] = []
    senses: list[str] = []
    rhs: list[float] = []

    def add_row(coefs: dict[int, float], sense: str, b: float):
        row = np.zeros(ncols)
        for j, v in coefs.items():
            row[j] = v
        rows.append(row)
        senses.append(sense)
        rhs.append(b)

    unit_rows = []
    for t, tree in enumerate(forest.trees):
        unit_rows.append(len(rows))
        add_row({y_cols[(t, l)]: 1.0 for l in tree.leaf_ids}, EQ, 1.0)
        for _, i, left, leaves, _ in capacity_rows(kind, tree):
            coefs = {y_cols[(t, l)]: 1.0 for l in leaves}
            coefs[i - 1] = -1.0 if left else 1.0
            add_row(coefs, LE, 0.0 if left else 1.0)

    card_row = None
    if cardinality is not None:
        card_row = len(rows)
        add_row({j: 1.0 for j in range(n)}, EQ, float(cardinality))

    lp = LinearProgram.build(c=c, A=np.array(rows), senses=senses, b=rhs, ub=np.ones(ncols))
    return BuiltFormulation(
        kind=kind,
        lp=lp,
        n=n,
        y_cols=y_cols,
        cardinality=cardinality,
        unit_rows=tuple(unit_rows),
        card_row=card_row,
    )


def solve_relaxation(built: BuiltFormulation):
    """LP optimum of the relaxation: (value, x levels, leaf weights)."""
    sol = solve_lp(built.lp, warm=built.start_basis())
    if sol.status != "optimal":
        raise DomainError(f"relaxation is {sol.status}")
    return float(sol.objective), sol.x[: built.n], built.y_of(sol)


def solve_integer_monolithic(
    built: BuiltFormulation,
    catalog: ProductCatalog,
    forest: DecisionForest,
    budget=None,
):
    """Integer optimum by branch and bound on x over the monolithic LP.

    Returns the decomposition module's branch-and-bound result; leaf weights
    stay continuous because they are integral automatically once x is.
    """
    from . import benders

    return benders.branch_and_bound_monolithic(built, catalog, forest, budget)


def integrality_gap(
    kind: Kind,
    catalog: ProductCatalog,
    forest: DecisionForest,
    z_star: float | None = None,
    cardinality: int | None = None,
) -> float:
    """Relaxation gap 100 * (Z_LO - Z*) / Z*; undefined when Z* is 0."""
    if z_star is None:
        _, z = brute_force_optimal(catalog, forest, cardinality)
        z_star = float(z)
    if z_star <= 0:
        raise DomainError("integrality gap undefined for Z* = 0")
    z_lo, _, _ = solve_relaxation(build(kind, catalog, forest, cardinality))
    gap = 100.0 * (z_lo - z_star) / z_star
    return max(gap, 0.0)

