"""Hand-built fixture instances shared across the test suite.

These encode the reference examples the solvers are pinned against: the
16-leaf worked example for the per-split greedy pair, the 6-leaf instance
where the per-product greedy sweep fails, the two small non-integral
relaxation geometries, and a few traversal/heuristic fixtures; plus the
per-product sweep alone (``product_sweep``) and with its certification
(``certified_sweep``), and the leaves under each branch of a split read off
the leaf paths (``split_sides``).
"""

from fractions import Fraction

from dfopt import subproblems
from dfopt.formulations import Kind
from dfopt.model import DecisionForest, Leaf, ProductCatalog, PurchaseTree, Split


def product_sweep(catalog, tree, x):
    """The greedy sweep on the per-product rows (not optimal in general):
    ``(y, value, trace)``.  Reads ``subproblems._sweep`` at call time, so a
    test can patch it."""
    table = subproblems.tree_table(Kind.PRODUCT, catalog, tree)
    y, trace = subproblems._sweep(table, x)
    return y, table.value(y), trace


def certified_sweep(catalog, tree, x):
    """The per-product sweep's value and replayed dual when that dual proves
    the sweep optimal, else None: the decomposition's product path without
    the LP."""
    _, value, trace = product_sweep(catalog, tree, x)
    cert = subproblems._certified(trace.table, trace, x, value)
    return None if cert is None else (value, cert)


def split_sides(tree, s):
    """``(lefts, rights)``: the leaves under split s's left and right branch,
    ascending, read off the leaf paths independently of ``capacity_rows``."""
    return tuple(
        tuple(l for l in tree.leaf_ids if (s, went_left) in tree.path[l])
        for went_left in (True, False)
    )


def worked_example():
    """16-leaf perfect tree with heap ids 1..31; exercises the split greedy pair.

    With x = (0.62, 0.45, 0.32, 0.86, 0.05, 0.35) and revenues
    (97, 72, 89, 50, 100, 68) the primal sweep assigns
    y = {20: 0.05, 22: 0.05, 30: 0.05, 24: 0.35, 28: 0.15, 17: 0.35},
    events {A_10, A_11, A_15, A_3, B_1, C}, and the dual construction gives
    gamma=72, beta_1=17, alpha_3=8, alpha_10=alpha_11=28, alpha_15=11,
    both objectives exactly 87.5.
    """
    split_products = {
        1: 2, 2: 1, 3: 6, 4: 4, 5: 4, 6: 1, 7: 3, 8: 3,
        9: 6, 10: 5, 11: 5, 12: 4, 13: 5, 14: 4, 15: 5,
    }
    leaf_options = {
        16: 0, 17: 2, 18: 0, 19: 2, 20: 5, 21: 2, 22: 5, 23: 2,
        24: 1, 25: 1, 26: 6, 27: 6, 28: 3, 29: 3, 30: 5, 31: 0,
    }
    nodes = {}
    for k, p in split_products.items():
        nodes[k] = Split(product=p, left=2 * k, right=2 * k + 1)
    for k, o in leaf_options.items():
        nodes[k] = Leaf(option=o)
    tree = PurchaseTree(nodes, root=1)
    catalog = ProductCatalog(n=6, revenues=(97, 72, 89, 50, 100, 68))
    x_float = (0.62, 0.45, 0.32, 0.86, 0.05, 0.35)
    x_exact = tuple(Fraction(v) for v in ("0.62", "0.45", "0.32", "0.86", "0.05", "0.35"))
    return catalog, tree, x_float, x_exact


def greedy_gap_tree():
    """6-leaf tree with product 3 on three splits; revenues (20, 19, 18).

    At x = (1/2, 1/2, 1/2) the per-product subproblem LP attains 18.5 while
    the greedy sweep reaches only 10.  Leaves left to right carry options
    1, 2, 3, 0, 3, 0 (ids 6..11).
    """
    nodes = {
        1: Split(1, 2, 3),
        2: Split(2, 4, 5),
        3: Split(3, 10, 11),
        4: Split(3, 6, 7),
        5: Split(3, 8, 9),
        6: Leaf(1),
        7: Leaf(2),
        8: Leaf(3),
        9: Leaf(0),
        10: Leaf(3),
        11: Leaf(0),
    }
    tree = PurchaseTree(nodes, root=1)
    catalog = ProductCatalog(n=3, revenues=(20, 19, 18))
    return catalog, tree


def leaf_relax_tree():
    """3-product tree whose per-(split, leaf) relaxation has the fractional
    extreme point x = (1/2, 1/2, 0), y = (1/2, 1/2, 0, 0)."""
    nodes = {
        1: Split(1, 2, 3),
        2: Split(2, 4, 5),
        3: Split(3, 6, 7),
        4: Leaf(2),
        5: Leaf(1),
        6: Leaf(3),
        7: Leaf(0),
    }
    tree = PurchaseTree(nodes, root=1)
    catalog = ProductCatalog(n=3, revenues=(10, 10, 1))
    return catalog, tree


def split_relax_tree():
    """2-product tree (product 2 on two splits) with a fractional per-split
    relaxation: at x = (1/2, 1/2), half weight on each split's left leaf
    (nodes 4 and 6) is an extreme point that ties the binary optimum; the
    variant with weight on nodes 4 and 7 is feasible but not extreme."""
    nodes = {
        1: Split(1, 2, 3),
        2: Split(2, 4, 5),
        3: Split(2, 6, 7),
        4: Leaf(1),
        5: Leaf(0),
        6: Leaf(2),
        7: Leaf(0),
    }
    tree = PurchaseTree(nodes, root=1)
    catalog = ProductCatalog(n=2, revenues=(10, 10))
    return catalog, tree


def five_product_tree():
    """Traversal demo: offering {1, 3, 4, 5} walks to the option-5 leaf."""
    nodes = {
        1: Split(2, 2, 3),
        2: Leaf(2),
        3: Split(4, 4, 5),
        4: Split(5, 6, 7),
        5: Leaf(0),
        6: Leaf(5),
        7: Leaf(4),
    }
    tree = PurchaseTree(nodes, root=1)
    catalog = ProductCatalog(n=5, revenues=(3, 8, 5, 6, 7))
    return catalog, tree


def thm1_fragment():
    """4-product tree for the capacity walk at x = (0.6, 0.3, 0.7, 0.1):
    the first leaf takes 0.6, its complement leaf takes the remaining 0.4."""
    nodes = {
        1: Split(1, 2, 3),
        2: Split(2, 4, 5),
        3: Split(3, 6, 7),
        4: Leaf(1),
        5: Split(3, 10, 11),
        6: Split(4, 12, 13),
        7: Leaf(0),
        10: Leaf(3),
        11: Leaf(1),
        12: Leaf(4),
        13: Leaf(3),
    }
    tree = PurchaseTree(nodes, root=1)
    catalog = ProductCatalog(n=4, revenues=(5, 4, 100, 2))
    x = (0.6, 0.3, 0.7, 0.1)
    return catalog, tree, x


def roa_gap_instance():
    """The optimum {2} is not revenue-nested, so the nested-set heuristic
    strictly underperforms exhaustive search here."""
    nodes = {
        1: Split(1, 2, 3),
        2: Leaf(0),
        3: Split(2, 4, 5),
        4: Leaf(2),
        5: Leaf(0),
    }
    tree = PurchaseTree(nodes, root=1)
    catalog = ProductCatalog(n=2, revenues=(10, 9))
    forest = DecisionForest(trees=(tree,), weights=(1,))
    return catalog, forest


def single_tree_forest(tree, weight=1):
    return DecisionForest(trees=(tree,), weights=(weight,))


def single_leaf_tree(option=0):
    return PurchaseTree({0: Leaf(option)}, root=0)


def y_value(catalog, tree, y):
    """Objective of a leaf-weight dict."""
    return sum(catalog.leaf_revenue(tree, l) * w for l, w in y.items() if w != 0)
