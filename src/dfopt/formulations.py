"""Monolithic LP/MIP builders for the three formulation strengths.

All three share variables: one inclusion level x_i per product (bounds
[0, 1], binary in the integer problem) and one leaf weight y per (tree,
leaf), tied together by capacity rows at one of three granularities:

- "leaf": one row per (split, reachable leaf) pair, the weakest relaxation;
- "split": one row per split, aggregating the leaves under each branch;
- "product": one row per (tree, product), aggregating all splits of that
  product, the strongest relaxation.

``capacity_rows`` is the one place where the granularities are defined; the
builder here, the per-tree oracles, the closed-form cuts and the Benders cut
assembly all read their rows from it.  The objective is the weight-and-revenue
weighted sum of leaf variables.  An optional cardinality row fixes the
assortment size.  Builders are pure and produce deterministic row/column
orderings (trees in order, node ids ascending), so matrices are reproducible
byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DomainError
from .lp import EQ, LE, LinearProgram, LpSolution, solve_lp
from .model import (
    AssortmentVector,
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
        for i in tree.products:
            lefts, rights = tree.product_left_leaves[i], tree.product_right_leaves[i]
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

    def x_of(self, solution: LpSolution) -> np.ndarray:
        return solution.x[: self.n]

    def y_of(self, solution: LpSolution) -> dict[tuple[int, int], float]:
        return {key: float(solution.x[c]) for key, c in self.y_cols.items()}


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

    lb = np.zeros(ncols)
    ub = np.concatenate([np.ones(n), np.full(ncols - n, np.inf)])
    lp = LinearProgram.build(c=c, A=np.array(rows), senses=senses, b=rhs, lb=lb, ub=ub)
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
    sol = solve_lp(built.lp)
    if sol.status != "optimal":
        raise DomainError(f"relaxation is {sol.status}")
    return float(sol.objective), built.x_of(sol), built.y_of(sol)


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


def relaxation_value_at(
    kind: Kind,
    catalog: ProductCatalog,
    forest: DecisionForest,
    x: AssortmentVector,
) -> float:
    """Relaxation objective with the x block fixed (diagnostic helper)."""
    built = build(kind, catalog, forest)
    vals = [float(v) for v in x.values]
    lb = built.lp.lb.copy()
    ub = built.lp.ub.copy()
    lb[: built.n] = vals
    ub[: built.n] = vals
    sol = solve_lp(built.lp.with_bounds(lb, ub))
    if sol.status != "optimal":
        raise DomainError(f"fixed-x relaxation is {sol.status}")
    return float(sol.objective)
