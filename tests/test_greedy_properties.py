"""Property tests of the greedy oracles, leaf paths and capacity rows.

Small random trees and levels are drawn with ``hypothesis``; the runs are
derandomized, so every run checks the same examples.
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from dfopt.formulations import Kind, capacity_rows, leaf_rows  # noqa: E402
from dfopt.instancegen import (  # noqa: E402
    GeneratorConfig,
    TreeShape,
    generate_instance,
)
from dfopt.model import (  # noqa: E402
    Leaf,
    ProductCatalog,
    PurchaseTree,
    Split,
    traverse,
)
from dfopt.subproblems import (  # noqa: E402
    CERT_TOL,
    EVENT_C,
    _certified,
    _replay,
    _sweep,
    leaf_dual_greedy,
    leaf_primal_greedy,
    product_subproblem_lp,
    split_dual_greedy,
    split_primal_greedy,
    tree_table,
)

from cases import certified_sweep, split_sides  # noqa: E402

N = 5
PAIRS = {
    Kind.LEAF: (leaf_primal_greedy, leaf_dual_greedy),
    Kind.SPLIT: (split_primal_greedy, split_dual_greedy),
}
PROPERTY_SETTINGS = settings(
    derandomize=True, database=None, max_examples=300, deadline=None
)


@st.composite
def trees(draw, max_depth=4):
    """A tree over products 1..N, no product twice on a path, ids preorder.

    The top two levels always split, so every tree has at least four leaves.
    """
    nodes = {}

    def grow(depth, on_path):
        nid = len(nodes)
        nodes[nid] = None
        free = [p for p in range(1, N + 1) if p not in on_path]
        if depth < max_depth and free and (depth < 2 or draw(st.booleans())):
            product = draw(st.sampled_from(free))
            left = grow(depth + 1, on_path | {product})
            right = grow(depth + 1, on_path | {product})
            nodes[nid] = Split(product, left, right)
        else:
            nodes[nid] = Leaf(draw(st.integers(0, N)))
        return nid

    root = grow(0, frozenset())
    return PurchaseTree(nodes, root)


catalogs = st.lists(st.integers(0, 20), min_size=N, max_size=N).map(
    lambda revs: ProductCatalog(n=N, revenues=tuple(revs))
)
levels = st.lists(
    st.floats(0, 1, allow_nan=False, allow_infinity=False), min_size=N, max_size=N
)
fraction_levels = st.lists(
    st.fractions(0, 1, max_denominator=12), min_size=N, max_size=N
)


@PROPERTY_SETTINGS
@given(catalog=catalogs, tree=trees(), x=levels, kind=st.sampled_from(list(PAIRS)))
def test_greedy_dual_certifies_primal(catalog, tree, x, kind):
    primal, dual = PAIRS[kind]
    y, trace = primal(catalog, tree, x)
    cert = dual(catalog, tree, trace)
    value = sum(catalog.leaf_revenue(tree, l) * w for l, w in y.items())
    assert float(cert.objective(catalog, tree, x)) == pytest.approx(float(value), abs=1e-9)
    assert all(v >= -1e-9 for v in cert.row_slacks(catalog, tree).values())
    assert all(v >= 0 for v in cert.alpha.values())
    assert all(v >= 0 for v in cert.beta.values())


def generated_tree(shape, seed):
    tree_shape = TreeShape("t3", leaves=8) if shape == "t3" else TreeShape(shape, depth=3)
    catalog, forest = generate_instance(
        GeneratorConfig(n=N, num_trees=1, shape=tree_shape, seed=seed)
    )
    return catalog, forest.trees[0]


@PROPERTY_SETTINGS
@given(
    shape=st.sampled_from(["t1", "t2", "t3"]),
    seed=st.integers(0, 10_000),
    x=levels,
)
def test_certified_product_sweep_is_the_lp_optimum(shape, seed, x):
    catalog, tree = generated_tree(shape, seed)
    found = certified_sweep(catalog, tree, x)
    if found is not None:
        value, cert = found
        lp_value, _, _ = product_subproblem_lp(catalog, tree, x)
        assert float(value) == pytest.approx(lp_value, abs=1e-9)
        assert all(v >= -1e-9 for v in cert.row_slacks(catalog, tree).values())


def reference_slacks(catalog, tree, cert):
    """Each leaf's dual row summed over the capacity rows that hold it."""
    lhs = {l: cert.gamma for l in tree.leaf_ids}
    for key, _, left, leaves, _ in capacity_rows(cert.kind, tree):
        for l in leaves:
            lhs[l] += (cert.alpha if left else cert.beta).get(key, 0)
    return {l: lhs[l] - catalog.leaf_revenue(tree, l) for l in tree.leaf_ids}


@PROPERTY_SETTINGS
@given(
    shape=st.sampled_from(["t1", "t2", "t3"]),
    seed=st.integers(0, 10_000),
    x=fraction_levels,
)
def test_product_sweep_is_certified_exactly_when_its_dual_checks(shape, seed, x):
    catalog, tree = generated_tree(shape, seed)
    for kind, (primal, dual) in PAIRS.items():
        cert = dual(catalog, tree, primal(catalog, tree, x)[1])
        assert cert.row_slacks(catalog, tree) == reference_slacks(catalog, tree, cert)
    table = tree_table(Kind.PRODUCT, catalog, tree)
    y, trace = _sweep(table, x)
    value = sum(catalog.leaf_revenue(tree, l) * w for l, w in y.items())
    found = _certified(table, trace, x, value)
    if EVENT_C not in trace.f:
        assert found is None
        return
    cert = _replay(table, trace)
    slacks = cert.row_slacks(catalog, tree)
    assert slacks == reference_slacks(catalog, tree, cert)
    certified = (
        all(v >= 0 for v in (*cert.alpha.values(), *cert.beta.values()))
        and all(v >= -CERT_TOL for v in slacks.values())
        and abs(cert.objective(catalog, tree, x) - value) <= CERT_TOL
    )
    assert found == (cert if certified else None)


@PROPERTY_SETTINGS
@given(tree=trees(), kind=st.sampled_from(list(Kind)))
def test_leaf_rows_transpose_capacity_rows(tree, kind):
    table = capacity_rows(kind, tree)
    for l in tree.leaf_ids:
        rows = leaf_rows(kind, tree, l)
        held = [(key, i, left) for key, i, left, leaves, _ in table if l in leaves]
        assert sorted(held, key=repr) == sorted(
            ((key, i, left) for _, key, i, left in rows), key=repr
        )
        # tie-rank order: root-first, per-(split, leaf) rows left side first
        splits = [s for s, _, _, _ in rows]
        if kind == Kind.LEAF:
            sides = [[s for s, left in tree.path[l] if left == side] for side in (True, False)]
            assert splits == sides[0] + sides[1]
        else:
            assert [tree.depth[s] for s in splits] == list(range(1, len(splits) + 1))


@PROPERTY_SETTINGS
@given(tree=trees())
def test_offering_a_paths_left_products_reaches_its_leaf(tree):
    for l in tree.leaf_ids:
        offered = {tree.split_product(s) for s, left in tree.path[l] if left}
        x = tuple(int(i in offered) for i in range(1, N + 1))
        assert traverse(tree, x) == (tree.leaf_option(l), l)


@PROPERTY_SETTINGS
@given(tree=trees())
def test_product_rows_are_unions_of_split_rows(tree):
    union = {}
    for _, i, left, leaves, _ in capacity_rows(Kind.SPLIT, tree):
        union.setdefault((i, left), set()).update(leaves)
    rows = capacity_rows(Kind.PRODUCT, tree)
    products = sorted({i for i, _ in union})
    assert [(key, left) for key, _, left, _, _ in rows] == [
        (i, left) for i in products for left in (True, False)
    ]
    for key, i, left, leaves, other in rows:
        assert key == i
        assert leaves == tuple(sorted(union[i, left]))
        assert other == tuple(sorted(union[i, not left]))


def relabeled(tree, labels):
    """The same tree with node id k renamed ``labels[k]``."""
    def node(v):
        if isinstance(v, Split):
            return Split(v.product, labels[v.left], labels[v.right])
        return v

    return PurchaseTree({labels[k]: node(v) for k, v in tree.nodes.items()}, labels[tree.root])


def reference_capacity_rows(kind, tree):
    """``capacity_rows`` as defined per split: splits ascending, each with its
    left rows first; per product, the union of its splits' sides."""
    rows = []
    if kind == Kind.PRODUCT:
        union = {}
        for s in tree.split_ids:
            for left, leaves in zip((True, False), split_sides(tree, s)):
                union.setdefault((tree.split_product(s), left), set()).update(leaves)
        for i in sorted({i for i, _ in union}):
            lefts, rights = (tuple(sorted(union[i, left])) for left in (True, False))
            rows += [(i, i, True, lefts, rights), (i, i, False, rights, lefts)]
        return rows
    for s in tree.split_ids:
        i = tree.split_product(s)
        lefts, rights = split_sides(tree, s)
        if kind == Kind.SPLIT:
            rows += [(s, i, True, lefts, rights), (s, i, False, rights, lefts)]
        else:
            rows += [((s, l), i, True, (l,), rights) for l in lefts]
            rows += [((s, l), i, False, (l,), lefts) for l in rights]
    return rows


def reference_leaf_rows(kind, tree, l):
    """One row per split above leaf l, root-first by depth; per-(split, leaf)
    rows with the left rows first."""
    rows = []
    for s in sorted(tree.split_ids, key=tree.depth.__getitem__):
        lefts, rights = split_sides(tree, s)
        if l in lefts + rights:
            i = tree.split_product(s)
            key = {Kind.LEAF: (s, l), Kind.SPLIT: s, Kind.PRODUCT: i}[kind]
            rows.append((s, key, i, l in lefts))
    if kind == Kind.LEAF:
        rows.sort(key=lambda row: not row[3])
    return rows


@PROPERTY_SETTINGS
@given(tree=trees(), data=st.data())
def test_capacity_rows_match_per_split_sides_under_any_ids(tree, data):
    # ids drawn from a range with negatives, in shuffled order, so that id
    # order and depth order differ
    k = len(tree.nodes)
    labels = data.draw(st.permutations(range(-k, k)))[:k]
    tree = relabeled(tree, labels)
    for kind in Kind:
        reference = reference_capacity_rows(kind, tree)
        assert capacity_rows(kind, tree) == reference
        for l in tree.leaf_ids:
            rows = reference_leaf_rows(kind, tree, l)
            assert leaf_rows(kind, tree, l) == rows
            held = {(key, left) for key, _, left, leaves, _ in reference if l in leaves}
            assert {(key, left) for _, key, _, left in rows} == held
