"""Generators: shapes, consistency, determinism, reduction semantics."""

import hashlib
from fractions import Fraction

import numpy as np
import pytest

try:
    from hypothesis import given, settings, strategies as st
except ImportError:  # only the rank-draw property needs it
    given = None

from dfopt import instancegen
from dfopt.errors import ConfigError, DomainError, ValidationError
from dfopt.instancegen import (
    Cnf3Formula,
    GeneratorConfig,
    TreeShape,
    gen_lambda,
    generate_instance,
    gen_revenues,
    max3sat_to_instance,
    parse_dimacs,
    random_formula,
)
from dfopt.model import (
    AssortmentVector,
    Leaf,
    PurchaseTree,
    Split,
    brute_force_optimal,
    expected_revenue,
    instance_to_json,
    traverse,
    validate_instance,
)


def cfg(kind, seed=0, n=8, num_trees=3, depth=3, leaves=8):
    shape = (
        TreeShape(kind="t3", leaves=leaves)
        if kind == "t3"
        else TreeShape(kind=kind, depth=depth)
    )
    return GeneratorConfig(n=n, num_trees=num_trees, shape=shape, seed=seed)


class TestConfig:
    def test_depth_needs_enough_products(self):
        with pytest.raises(ConfigError):
            cfg("t1", n=2, depth=3)

    def test_bad_revenue_range(self):
        with pytest.raises(ConfigError):
            GeneratorConfig(
                n=3, num_trees=1, shape=TreeShape("t3", leaves=4), revenue_range=(5, 1)
            )

    @pytest.mark.parametrize(
        "revenue_range", [(1, 2, 3), (1,), 5, None], ids=["three", "one", "int", "none"]
    )
    def test_revenue_range_is_a_pair(self, revenue_range):
        with pytest.raises(ConfigError, match="revenue_range"):
            GeneratorConfig(
                n=3, num_trees=1, shape=TreeShape("t3", leaves=4), revenue_range=revenue_range
            )

    @pytest.mark.parametrize("revenue_range", [[1, 50, 99], 5, None, "ab"])
    def test_from_obj_refuses_a_revenue_range_not_a_pair(self, revenue_range):
        obj = {"n": 3, "num_trees": 1, "shape": {"type": "t3", "leaves": 4},
               "revenue_range": revenue_range}
        with pytest.raises(ConfigError, match="revenue_range must be a pair"):
            GeneratorConfig.from_obj(obj)

    def test_from_obj(self):
        config = GeneratorConfig.from_obj(
            {"n": 10, "num_trees": 5, "shape": {"type": "T3", "leaves": 8}, "seed": 7}
        )
        assert config.shape.kind == "t3"
        assert config.revenue_range == (1, 100)


class TestT1:
    def test_minimal_shape(self):
        forest = generate_instance(cfg("t1", n=2, depth=1, num_trees=1, seed=4))[1]
        tree = forest.trees[0]
        assert len(tree.split_ids) == 1
        assert len(tree.leaf_ids) == 2
        (s,) = tree.split_ids
        left_leaf = tree.nodes[s].left
        right_leaf = tree.nodes[s].right
        assert tree.nodes[left_leaf].option in (tree.split_product(s), 0)
        assert tree.nodes[right_leaf].option == 0

    def test_one_product_per_level(self):
        for seed in range(50):
            forest = generate_instance(cfg("t1", seed=seed))[1]
            for tree in forest.trees:
                assert len(tree.leaf_ids) == 8
                per_level = {}
                for s in tree.split_ids:
                    per_level.setdefault(tree.depth[s], set()).add(tree.split_product(s))
                assert all(len(v) == 1 for v in per_level.values())
                products = [next(iter(v)) for v in per_level.values()]
                assert len(set(products)) == len(products)

    def test_deterministic_json(self):
        a = generate_instance(cfg("t1", seed=123))
        b = generate_instance(cfg("t1", seed=123))
        assert instance_to_json(*a) == instance_to_json(*b)
        c = generate_instance(cfg("t1", seed=124))
        assert instance_to_json(*a) != instance_to_json(*c)


class TestT2:
    def test_depth_one_matches_t1_distribution(self):
        # with one split per tree both families draw one uniform product
        f1 = generate_instance(cfg("t1", n=5, depth=1, num_trees=40, seed=9))[1]
        f2 = generate_instance(cfg("t2", n=5, depth=1, num_trees=40, seed=9))[1]
        p1 = sorted(t.split_product(t.split_ids[0]) for t in f1.trees)
        p2 = sorted(t.split_product(t.split_ids[0]) for t in f2.trees)
        assert set(p1) <= set(range(1, 6)) and set(p2) <= set(range(1, 6))

    def test_assumption_holds_by_construction(self):
        for seed in range(200):
            forest = generate_instance(cfg("t2", seed=seed, num_trees=1))[1]
            tree = forest.trees[0]  # construction would have raised otherwise
            assert len(tree.leaf_ids) == 8

    def test_sibling_repetition_exists(self):
        # unlike the per-level family, siblings at equal depth may share a product
        found = False
        for seed in range(100):
            forest = generate_instance(cfg("t2", seed=seed, num_trees=2))[1]
            for tree in forest.trees:
                for d in set(tree.depth[s] for s in tree.split_ids):
                    products = [
                        tree.split_product(s) for s in tree.split_ids if tree.depth[s] == d
                    ]
                    if len(set(products)) < len(products):
                        found = True
        assert found


class TestT3:
    def test_minimal(self):
        forest = generate_instance(cfg("t3", n=4, leaves=2, num_trees=1, seed=1))[1]
        assert len(forest.trees[0].split_ids) == 1

    def test_leaf_count_exact(self):
        for seed in range(200):
            forest = generate_instance(cfg("t3", seed=seed, num_trees=1))[1]
            tree = forest.trees[0]
            assert len(tree.leaf_ids) == 8
            assert len(tree.split_ids) == 7

    def test_unbalanced_in_general(self):
        depth_spread = False
        for seed in range(30):
            forest = generate_instance(cfg("t3", seed=seed, num_trees=1))[1]
            tree = forest.trees[0]
            depths = {tree.depth[l] for l in tree.leaf_ids}
            if len(depths) > 1:
                depth_spread = True
        assert depth_spread

    def test_small_n_guard(self):
        with pytest.raises(ConfigError):
            generate_instance(cfg("t3", n=2, leaves=16, num_trees=1, seed=0))


#: SHA-256 over ``instance_to_json`` of t1, t2 and t3 forests at seeds 0 and 1,
#: per (n, trees, leaves): the three benchmark sizes, the paper scale, and two
#: small-n sizes at which t3 growth must skip leaves that already test every
#: product.  The generators must keep these instances byte for byte.
INSTANCE_DIGESTS = {
    (12, 10, 8): "58c21929e62c2ab1ecf21600220b91ed36fc9069112ac57018c08417009de6af",
    (20, 20, 8): "6b37671461e0b6d5aeb7a5e295421811bfeb0a5b90a17cee45468bd9d9326087",
    (100, 25, 32): "853d7924d6dabe3fec9312d0585739d2a1353a9db55b30da60f844f79741e5b2",
    (100, 100, 32): "cb91236c7fdd27caeb6650be8ad1987218e8a54b94cdde3e46b8b2d2eb894d4f",
    (5, 3, 16): "40200f217942e534d04cb26e6f1a53f2b2898688d1d252e88ecc5012c4ee3f3a",
    (6, 3, 32): "2b35bc1a70f5c7a4c6f73b2497561deddb802b5aee8c1602ee740eec8731b8d1",
}


@pytest.mark.parametrize("size", INSTANCE_DIGESTS, ids=lambda s: "/".join(map(str, s)))
def test_generated_instances_pinned(size):
    n, trees, leaves = size
    digest = hashlib.sha256()
    for kind in ("t1", "t2", "t3"):
        for seed in (0, 1):
            config = cfg(kind, seed, n, trees, (leaves - 1).bit_length(), leaves)
            digest.update(instance_to_json(*generate_instance(config)).encode())
    assert digest.hexdigest() == INSTANCE_DIGESTS[size]


def test_one_tree_build_per_tree(monkeypatch):
    built = []

    class Counting(PurchaseTree):
        def __init__(self, nodes, root):
            built.append(root)
            super().__init__(nodes, root)

    monkeypatch.setattr(instancegen, "PurchaseTree", Counting)
    for kind in ("t1", "t2", "t3"):
        built.clear()
        generate_instance(cfg(kind, seed=3, num_trees=5))
        assert len(built) == 5


class FixedRank:
    """Stands in for the generator: every draw returns rank ``j``."""

    def __init__(self, j):
        self.j = j
        self.bounds = []

    def integers(self, lo, hi):
        self.bounds.append((lo, hi))
        return self.j


if given is not None:

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(data=st.data(), n=st.integers(1, 40))
    def test_product_drawn_by_rank(data, n):
        anc = data.draw(st.sets(st.integers(1, n), max_size=n - 1))
        allowed = [p for p in range(1, n + 1) if p not in anc]
        j = data.draw(st.integers(0, len(allowed) - 1))
        rng = FixedRank(j)
        assert instancegen._draw_product(rng, n, tuple(sorted(anc))) == allowed[j]
        assert rng.bounds == [(0, len(allowed))]

else:  # pragma: no cover

    @pytest.mark.skip(reason="needs hypothesis")
    def test_product_drawn_by_rank():
        pass


#: Arenas that are not purchase trees, each rooted at id 0.
BAD_ARENAS = {
    "missing-root": {1: Leaf(0)},
    "missing-child": {0: Split(1, 1, 2), 1: Leaf(0)},
    "cycle": {0: Split(1, 1, 2), 1: Split(2, 0, 3), 2: Leaf(0), 3: Leaf(0)},
    "child-cycle": {0: Split(1, 1, 2), 1: Split(2, 3, 1), 2: Leaf(0), 3: Leaf(0)},
    "two-parents": {0: Split(1, 1, 2), 1: Split(2, 3, 3), 2: Leaf(0), 3: Leaf(0)},
    "repeated-product": {
        0: Split(1, 1, 2), 1: Split(1, 3, 4), 2: Leaf(0), 3: Leaf(0), 4: Leaf(0),
    },
    "unreachable": {0: Split(1, 1, 2), 1: Leaf(0), 2: Leaf(0), 3: Leaf(0)},
    "negative-option": {0: Split(1, 1, 2), 1: Leaf(-1), 2: Leaf(0)},
    "unknown-node": {0: Split(1, 1, 2), 1: "leaf", 2: Leaf(0)},
    "text-id": {0: Split(1, "a", 2), "a": Leaf(0), 2: Leaf(0)},
    "product-zero": {0: Split(0, 1, 2), 1: Leaf(0), 2: Leaf(0)},
    "orphan-text-product": {0: Leaf(0), 1: Split(None, 2, 3)},
    "orphans-of-mixed-ids": {0: Leaf(0), 3: Leaf(0), "b": Leaf(0)},
    "none-product": {0: Split(None, 1, 2), 1: Leaf(0), 2: Leaf(0)},
    "text-option": {0: Split(1, 1, 2), 1: Leaf("x"), 2: Leaf(0)},
    "fractional-product": {0: Split(1.5, 1, 2), 1: Leaf(0), 2: Leaf(0)},
    "bool-option": {0: Split(1, 1, 2), 1: Leaf(True), 2: Leaf(0)},
    "bool-child": {0: Split(1, True, 2), True: Leaf(0), 2: Leaf(0)},
}


@pytest.mark.parametrize("name", BAD_ARENAS)
def test_bad_arena_raises_the_tree_error(name):
    with pytest.raises(ValidationError):
        PurchaseTree(BAD_ARENAS[name], 0)


def test_cannot_grow_is_a_config_error():
    # a tree of depth n has at most 2**n leaves
    with pytest.raises(ConfigError, match="cannot grow to 9 leaves with n=3"):
        generate_instance(cfg("t3", n=3, leaves=9, num_trees=2, seed=4))


class TestLeafOptions:
    def test_candidate_sets(self):
        for seed in range(50):
            forest = generate_instance(cfg("t1", seed=seed, num_trees=2))[1]
            for tree in forest.trees:
                for l in tree.leaf_ids:
                    offered = [tree.split_product(s) for s, left in tree.path[l] if left]
                    assert tree.leaf_option(l) in offered + [0]

    def test_traverse_never_leaves_assortment(self):
        rng = np.random.default_rng(0)
        for seed in range(100):
            kind = ["t1", "t2", "t3"][seed % 3]
            catalog, forest = generate_instance(cfg(kind, seed=seed, num_trees=2))
            members = {i for i in range(1, 9) if rng.integers(0, 2)}
            x = AssortmentVector.from_set(8, members)
            for tree in forest.trees:
                option, _ = traverse(tree, x)
                assert option == 0 or option in members


class TestLambda:
    def test_single_tree(self):
        rng = np.random.default_rng(0)
        assert gen_lambda(1, rng) == (1.0,)

    def test_sums_to_one(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            lam = gen_lambda(7, rng)
            assert abs(sum(lam) - 1.0) <= 1e-12
            assert all(v >= 0 for v in lam)

    def test_coordinate_mean(self):
        # Dirichlet(1,..,1) coordinate: mean 1/F, var (F-1)/(F^2 (F+1))
        rng = np.random.default_rng(2)
        f = 4
        draws = 100_000
        total = np.zeros(f)
        raw = rng.exponential(1.0, size=(draws, f))
        sums = raw.sum(axis=1, keepdims=True)
        total = (raw / sums).mean(axis=0)
        sigma_mean = np.sqrt((f - 1) / (f**2 * (f + 1)) / draws)
        assert np.all(np.abs(total - 1 / f) < 3 * sigma_mean + 1e-12)


class TestRevenues:
    def test_constant_range(self):
        rng = np.random.default_rng(0)
        assert gen_revenues(4, (5, 5), rng) == (5, 5, 5, 5)

    def test_default_range(self):
        catalog, _ = generate_instance(cfg("t3", seed=3))
        assert all(1 <= r <= 100 for r in catalog.revenues)

    def test_seeded_reproducibility(self):
        r1 = gen_revenues(10, (1, 100), np.random.Generator(np.random.PCG64(5)))
        r2 = gen_revenues(10, (1, 100), np.random.Generator(np.random.PCG64(5)))
        assert r1 == r2


class TestMax3Sat:
    def test_example_clause_shape(self):
        formula = Cnf3Formula(num_vars=8, clauses=((5, -7, 8),))
        catalog, forest = max3sat_to_instance(formula)
        assert catalog.n == 9
        assert catalog.revenues[8] == 1 and sum(catalog.revenues[:8]) == 0
        tree = forest.trees[0]
        root = tree.nodes[tree.root]
        assert root.product == 9
        assert isinstance(tree.nodes[root.right], Leaf)
        assert tree.nodes[root.right].option == 0
        chain = []
        node = tree.nodes[root.left]
        while isinstance(node, Split):
            chain.append(node.product)
            # the fall-through branch continues toward the next clause literal
            nxt_left = tree.nodes[node.left]
            nxt_right = tree.nodes[node.right]
            node = nxt_right if isinstance(nxt_left, Leaf) and (
                not isinstance(nxt_right, Leaf) or nxt_left.option == 9
            ) else nxt_left
        assert chain == [5, 7, 8]

    def test_single_clause_satisfying(self):
        formula = Cnf3Formula(num_vars=8, clauses=((5, -7, 8),))
        catalog, forest = max3sat_to_instance(formula)
        x = AssortmentVector.from_set(9, {5, 8, 9})
        assert expected_revenue(catalog, forest, x) == 1
        x_unsat = AssortmentVector.from_set(9, {7, 9})
        assert expected_revenue(catalog, forest, x_unsat) == 0
        x_no_signal = AssortmentVector.from_set(9, {5, 8})
        assert expected_revenue(catalog, forest, x_no_signal) == 0

    def test_two_of_three_satisfiable(self):
        # x1 can satisfy at most two of these three clauses at once
        formula = Cnf3Formula(
            num_vars=3,
            clauses=((1, 2, 3), (1, -2, -3), (-1, 2, -3)),
        )
        best = max(
            formula.satisfied_count([a, b, c])
            for a in (False, True)
            for b in (False, True)
            for c in (False, True)
        )
        catalog, forest = max3sat_to_instance(formula)
        _, value = brute_force_optimal(catalog, forest)
        assert value == Fraction(best, 3)

    def test_malformed_clause(self):
        with pytest.raises(DomainError):
            Cnf3Formula(num_vars=4, clauses=((1, 1, 2),))

    def test_reduction_matches_assignment_enumeration(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            formula = random_formula(rng, num_vars=6, num_clauses=7)
            catalog, forest = max3sat_to_instance(formula)
            validate_instance(catalog, forest)
            best = max(
                formula.satisfied_count(
                    [(mask >> i) & 1 == 1 for i in range(6)]
                )
                for mask in range(64)
            )
            _, value = brute_force_optimal(catalog, forest)
            assert value == Fraction(best, 7)


class TestDimacs:
    def test_parse(self):
        text = "c comment\np cnf 4 2\n1 -2 3 0\n-1 2 4 0\n"
        formula = parse_dimacs(text)
        assert formula.num_vars == 4
        assert formula.clauses == ((1, -2, 3), (-1, 2, 4))

    def test_rejects_short_clause(self):
        with pytest.raises(DomainError):
            parse_dimacs("p cnf 3 1\n1 2 0\n")
