"""Reference answers computed by the benchmark itself, independent of dfopt.

Nothing here calls dfopt code: trees are read as plain data (node arena,
root, leaf options, revenues, weights) and walked with the benchmark's own
loops, so a defect in ``dfopt.model`` or in a solver cannot also hide in the
answer it is checked against.

- ``Walker``: value of a binary assortment by walking every tree.
- ``brute_force``: exhaustive optimum over all 2**n assortments (numpy).
- ``highs_relaxation``: LP relaxation of the split/product formulation,
  built here from the trees and solved by scipy's HiGHS.
"""

from __future__ import annotations

import numpy as np


def _arena(tree):
    """(root, splits {id: (product index, left, right)}, leaves {id: option})."""
    splits, leaves = {}, {}
    for nid, node in tree.nodes.items():
        if hasattr(node, "product"):
            splits[nid] = (node.product - 1, node.left, node.right)
        else:
            leaves[nid] = node.option
    return tree.root, splits, leaves


def _revenue(catalog, option):
    return 0.0 if option == 0 else float(catalog.revenues[option - 1])


class Walker:
    """Expected revenue of binary assortments by direct tree walks."""

    def __init__(self, catalog, forest):
        self.n = catalog.n
        self.trees = []
        for tree, w in zip(forest.trees, forest.weights):
            root, splits, leaves = _arena(tree)
            rev = {l: _revenue(catalog, o) for l, o in leaves.items()}
            self.trees.append((float(w), root, splits, rev))

    def value(self, offered: set[int]) -> float:
        """``offered`` holds 1-based product ids."""
        x = [False] * self.n
        for i in offered:
            x[i - 1] = True
        total = 0.0
        for w, node, splits, rev in self.trees:
            while node in splits:
                p, left, right = splits[node]
                node = left if x[p] else right
            total += w * rev[node]
        return total

    def is_flip_local_optimum(self, offered: set[int], value: float, tol: float) -> bool:
        """No single add or remove raises the value by more than ``tol``."""
        for i in range(1, self.n + 1):
            if self.value(offered ^ {i}) > value + tol:
                return False
        return True


def brute_force(catalog, forest) -> dict:
    """Best value over all assortments, overall and per assortment size.

    Returns ``{None: best, k: best with exactly k products}``.
    """
    n = catalog.n
    masks = np.arange(1 << n, dtype=np.int64)
    values = np.zeros(1 << n)
    for tree, w in zip(forest.trees, forest.weights):
        root, splits, leaves = _arena(tree)
        size = max(list(splits) + list(leaves)) + 1
        is_split = np.zeros(size, dtype=bool)
        product = np.zeros(size, dtype=np.int64)
        left = np.zeros(size, dtype=np.int64)
        right = np.zeros(size, dtype=np.int64)
        rev = np.zeros(size)
        for nid, (p, l, r) in splits.items():
            is_split[nid], product[nid], left[nid], right[nid] = True, p, l, r
        for nid, o in leaves.items():
            rev[nid] = _revenue(catalog, o)
        node = np.full(1 << n, root, dtype=np.int64)
        while is_split[node].any():
            offered = (masks >> product[node]) & 1
            step = np.where(offered == 1, left[node], right[node])
            node = np.where(is_split[node], step, node)
        values += float(w) * rev[node]
    sizes = np.array([bin(int(m)).count("1") for m in masks])
    best = {None: float(values.max())}
    for k in range(n + 1):
        best[k] = float(values[sizes == k].max())
    return best


def _leaf_paths(tree):
    """Leaf id -> [(split id, product index, went_left)] along its root path."""
    root, splits, leaves = _arena(tree)
    paths = {}
    stack = [(root, [])]
    while stack:
        nid, path = stack.pop()
        if nid in leaves:
            paths[nid] = path
            continue
        p, l, r = splits[nid]
        stack.append((l, path + [(nid, p, True)]))
        stack.append((r, path + [(nid, p, False)]))
    return leaves, paths


def highs_relaxation(kind: str, catalog, forest, cardinality=None) -> float:
    """LP relaxation value of the ``split`` or ``product`` formulation.

    Variables are x (n products, in [0, 1]) and one leaf weight per (tree,
    leaf).  Per tree the leaf weights sum to 1, and the weight on the leaves
    behind the left (right) branch of a split is at most x_i (1 - x_i).  For
    ``product`` all splits of one tree on product i share one such row.
    """
    from scipy.optimize import linprog
    from scipy.sparse import coo_matrix

    n = catalog.n
    cost = [0.0] * n
    ub_rows, ub_cols, ub_vals, ub_rhs = [], [], [], []
    eq_rows, eq_cols, eq_rhs = [], [], []
    col = n
    for tree, w in zip(forest.trees, forest.weights):
        leaves, paths = _leaf_paths(tree)
        eq_row = len(eq_rhs)
        eq_rhs.append(1.0)
        groups = {}
        for l in sorted(leaves):
            cost.append(-float(w) * _revenue(catalog, leaves[l]))
            eq_rows.append(eq_row)
            eq_cols.append(col)
            for s, p, went_left in paths[l]:
                key = (p if kind == "product" else s, p, went_left)
                groups.setdefault(key, []).append(col)
            col += 1
        for (_, p, went_left), ycols in sorted(groups.items()):
            r = len(ub_rhs)
            ub_rows += [r] * (len(ycols) + 1)
            ub_cols += ycols + [p]
            ub_vals += [1.0] * len(ycols) + [-1.0 if went_left else 1.0]
            ub_rhs.append(0.0 if went_left else 1.0)
    if cardinality is not None:
        eq_rows += [len(eq_rhs)] * n
        eq_cols += list(range(n))
        eq_rhs.append(float(cardinality))
    a_ub = coo_matrix((ub_vals, (ub_rows, ub_cols)), shape=(len(ub_rhs), col))
    a_eq = coo_matrix(([1.0] * len(eq_rows), (eq_rows, eq_cols)), shape=(len(eq_rhs), col))
    res = linprog(
        cost,
        A_ub=a_ub.tocsr(),
        b_ub=ub_rhs,
        A_eq=a_eq.tocsr(),
        b_eq=eq_rhs,
        bounds=[(0.0, 1.0)] * n + [(0.0, None)] * (col - n),
        method="highs",
        options={"primal_feasibility_tolerance": 1e-9, "dual_feasibility_tolerance": 1e-9},
    )
    if res.status != 0:
        raise RuntimeError(f"HiGHS: {res.message}")
    return -float(res.fun)
