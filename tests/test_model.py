"""Model layer: traversal, probabilities, revenue, brute force, JSON."""

import json
from fractions import Fraction

import numpy as np
import pytest

from dfopt.errors import DomainError, SizeGuardError, ValidationError
from dfopt.formulations import Kind, capacity_rows
from dfopt.instancegen import GeneratorConfig, TreeShape, generate_instance
from dfopt.model import (
    AssortmentVector,
    DecisionForest,
    Leaf,
    ProductCatalog,
    PurchaseTree,
    Split,
    brute_force_optimal,
    expected_revenue,
    instance_from_json,
    instance_to_json,
    traverse,
)

from cases import (
    five_product_tree,
    greedy_gap_tree,
    single_leaf_tree,
    single_tree_forest,
    split_relax_tree,
)


def seeded_instance(seed, n=8, num_trees=3, leaves=8, kind="t3"):
    shape = (
        TreeShape(kind=kind, leaves=leaves)
        if kind == "t3"
        else TreeShape(kind=kind, depth=3)
    )
    config = GeneratorConfig(n=n, num_trees=num_trees, shape=shape, seed=seed)
    return generate_instance(config)


# ---------------------------------------------------------------------------
# construction and validation
# ---------------------------------------------------------------------------


class TestTreeValidation:
    def test_missing_child_rejected(self):
        with pytest.raises(ValidationError):
            PurchaseTree({0: Split(1, 1, 2), 1: Leaf(0)}, root=0)

    def test_two_parents_rejected(self):
        nodes = {0: Split(1, 1, 2), 1: Split(2, 2, 3), 2: Leaf(0), 3: Leaf(0)}
        with pytest.raises(ValidationError):
            PurchaseTree(nodes, root=0)

    def test_orphan_rejected(self):
        nodes = {0: Leaf(0), 5: Leaf(1)}
        with pytest.raises(ValidationError):
            PurchaseTree(nodes, root=0)

    def test_repeated_product_on_path_rejected(self):
        nodes = {
            0: Split(1, 1, 2),
            1: Split(1, 3, 4),
            2: Leaf(0),
            3: Leaf(0),
            4: Leaf(0),
        }
        with pytest.raises(ValidationError):
            PurchaseTree(nodes, root=0)

    def test_repeat_across_branches_allowed(self):
        _, tree = split_relax_tree()
        assert tree.path[4] == ((1, True), (2, True))
        assert tree.path[7] == ((1, False), (3, False))
        assert [key for key, *_ in capacity_rows(Kind.PRODUCT, tree)] == [1, 1, 2, 2]

    def test_index_sets(self):
        _, tree = greedy_gap_tree()
        assert tree.path[6] == ((1, True), (2, True), (4, True))
        assert tree.path[11] == ((1, False), (3, False))
        rows = capacity_rows(Kind.SPLIT, tree)
        assert rows[:2] == [
            (1, 1, True, (6, 7, 8, 9), (10, 11)),
            (1, 1, False, (10, 11), (6, 7, 8, 9)),
        ]
        rows = capacity_rows(Kind.PRODUCT, tree)
        by_side = {(key, left): leaves for key, _, left, leaves, _ in rows}
        assert by_side[3, True] == (6, 8, 10)
        assert by_side[3, False] == (7, 9, 11)

    def test_weights_must_sum_to_one(self):
        tree = single_leaf_tree()
        with pytest.raises(ValidationError):
            DecisionForest(trees=(tree, tree), weights=(0.7, 0.2))

    def test_negative_revenue_rejected(self):
        with pytest.raises(ValidationError):
            ProductCatalog(n=2, revenues=(1, -1))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf"), True])
    def test_non_finite_or_boolean_revenue_rejected(self, bad):
        with pytest.raises(ValidationError):
            ProductCatalog(n=2, revenues=(1, bad))

    @pytest.mark.parametrize("n", [2.0, True, None, "2"])
    def test_non_integer_catalog_size_rejected(self, n):
        with pytest.raises(ValidationError, match="is not an integer"):
            ProductCatalog(n=n, revenues=(1, 2))

    def test_boolean_root_rejected(self):
        # False == 0 as a dict key, so an id test that admits bools took it
        nodes = {False: Split(1, 1, 2), 1: Leaf(0), 2: Leaf(0)}
        with pytest.raises(ValidationError, match="node id False is not an integer"):
            PurchaseTree(nodes, root=False)

    def test_numpy_integers_accepted(self):
        nodes = {
            0: Split(np.int64(2), np.int64(1), 2),
            np.int64(1): Leaf(np.int32(2)),
            2: Leaf(np.int64(0)),
        }
        tree = PurchaseTree(nodes, 0)
        catalog = ProductCatalog(n=np.int64(2), revenues=(1, 5))
        assert expected_revenue(catalog, DecisionForest((tree,), (1.0,)), (0, 1)) == 5

    @pytest.mark.parametrize(
        "weights",
        [(float("nan"), float("nan")), (float("inf"), 0.5), (True, 0), (False, 1)],
    )
    def test_non_finite_or_boolean_weight_rejected(self, weights):
        tree = single_leaf_tree()
        with pytest.raises(ValidationError):
            DecisionForest(trees=(tree, tree), weights=weights)


# ---------------------------------------------------------------------------
# traverse
# ---------------------------------------------------------------------------


class TestTraverse:
    def test_five_product_walk(self):
        _, tree = five_product_tree()
        option, leaf = traverse(tree, AssortmentVector.from_set(5, {1, 3, 4, 5}))
        assert option == 5

    def test_single_leaf(self):
        tree = single_leaf_tree(option=0)
        for s in [set(), {1}, {1, 2}]:
            option, leaf = traverse(tree, AssortmentVector.from_set(2, s))
            assert option == 0
            assert leaf == 0

    def test_greedy_gap_tree_full_assortment(self):
        _, tree = greedy_gap_tree()
        option, leaf = traverse(tree, AssortmentVector.from_set(3, {1, 2, 3}))
        assert (option, leaf) == (1, 6)

    def test_fractional_input_rejected(self):
        _, tree = five_product_tree()
        with pytest.raises(DomainError):
            traverse(tree, (0.5, 0, 0, 0, 0))

    def test_too_short_input_rejected(self):
        # the 2-level x has no level for the products further down
        catalog, forest = seeded_instance(1, n=6, leaves=6)
        for tree in forest.trees:
            with pytest.raises(DomainError):
                traverse(tree, (1, 1))

    def test_generated_options_stay_offered(self):
        # leaf options are consistent by construction: never an off-assortment buy
        for seed in range(30):
            catalog, forest = seeded_instance(seed)
            for mask_seed in range(5):
                members = {i for i in range(1, 9) if (seed + mask_seed + i) % 3 == 0}
                x = AssortmentVector.from_set(8, members)
                for tree in forest.trees:
                    option, _ = traverse(tree, x)
                    assert option == 0 or option in members


# ---------------------------------------------------------------------------
# expected revenue
# ---------------------------------------------------------------------------


class TestExpectedRevenue:
    def test_single_leaf_zero(self):
        catalog = ProductCatalog(n=2, revenues=(5, 7))
        forest = single_tree_forest(single_leaf_tree())
        for s in [set(), {1}, {1, 2}]:
            assert expected_revenue(catalog, forest, AssortmentVector.from_set(2, s)) == 0

    def test_greedy_gap_tree_value(self):
        catalog, tree = greedy_gap_tree()
        forest = single_tree_forest(tree)
        x = AssortmentVector.from_set(3, {1, 2, 3})
        assert expected_revenue(catalog, forest, x) == 20

    def test_wrong_length_rejected(self):
        catalog, tree = greedy_gap_tree()
        forest = single_tree_forest(tree)
        for x in ((1, 1), (1,) * 4, AssortmentVector((1,) * 9)):
            with pytest.raises(DomainError):
                expected_revenue(catalog, forest, x)

    def test_permutation_invariance(self):
        catalog, forest = seeded_instance(3, num_trees=4)
        x = AssortmentVector.from_set(8, {2, 3, 7})
        base = expected_revenue(catalog, forest, x)
        perm = [2, 0, 3, 1]
        shuffled = DecisionForest(
            trees=tuple(forest.trees[i] for i in perm),
            weights=tuple(forest.weights[i] for i in perm),
        )
        assert expected_revenue(catalog, shuffled, x) == pytest.approx(base, rel=1e-15)

    def test_revenue_scaling(self):
        catalog, forest = seeded_instance(5)
        scaled = ProductCatalog(n=catalog.n, revenues=tuple(3 * r for r in catalog.revenues))
        x_base, v_base = brute_force_optimal(catalog, forest)
        x_scaled, v_scaled = brute_force_optimal(scaled, forest)
        assert x_base == x_scaled
        assert float(v_scaled) == pytest.approx(3 * float(v_base), rel=1e-12)


# ---------------------------------------------------------------------------
# brute force
# ---------------------------------------------------------------------------


class TestBruteForce:
    def test_greedy_gap_instance(self):
        catalog, tree = greedy_gap_tree()
        forest = single_tree_forest(tree)
        x, value = brute_force_optimal(catalog, forest)
        assert value == 20
        assert x.support() == {1, 2, 3}

    def test_all_zero_revenues(self):
        catalog = ProductCatalog(n=3, revenues=(0, 0, 0))
        _, tree = greedy_gap_tree()
        forest = single_tree_forest(tree)
        x, value = brute_force_optimal(catalog, forest)
        assert value == 0
        assert x.support() == set()  # lexicographically smallest tie

    def test_split_relax_tree_enumeration(self):
        catalog, tree = split_relax_tree()
        forest = single_tree_forest(tree)
        x, value = brute_force_optimal(catalog, forest)
        by_hand = max(
            expected_revenue(catalog, forest, AssortmentVector.from_set(2, s))
            for s in [set(), {1}, {2}, {1, 2}]
        )
        assert value == by_hand

    def test_cardinality_restriction(self):
        catalog, forest = seeded_instance(9, n=6, num_trees=3, leaves=4)
        x, value = brute_force_optimal(catalog, forest, cardinality=2)
        assert len(x.support()) == 2
        best = max(
            float(expected_revenue(catalog, forest, AssortmentVector.from_set(6, {i, j})))
            for i in range(1, 7)
            for j in range(i + 1, 7)
        )
        assert float(value) == pytest.approx(best)

    def test_size_guard(self):
        catalog = ProductCatalog(n=26, revenues=(1,) * 26)
        forest = single_tree_forest(single_leaf_tree())
        with pytest.raises(SizeGuardError):
            brute_force_optimal(catalog, forest)

    def test_matches_slow_reference(self):
        # independent oracle: plain traverse-based evaluation of every subset
        for seed in range(5):
            catalog, forest = seeded_instance(seed, n=6, num_trees=3, leaves=4)
            best_val = None
            best_set = None
            for mask in range(1 << 6):
                members = {i for i in range(1, 7) if (mask >> (6 - i)) & 1}
                v = float(
                    expected_revenue(catalog, forest, AssortmentVector.from_set(6, members))
                )
                if best_val is None or v > best_val:
                    best_val, best_set = v, members
            x, value = brute_force_optimal(catalog, forest)
            assert float(value) == pytest.approx(best_val)
            assert float(
                expected_revenue(catalog, forest, x)
            ) == pytest.approx(best_val)


# ---------------------------------------------------------------------------
# JSON round trip
# ---------------------------------------------------------------------------


class TestJson:
    def test_round_trip_bytes(self):
        catalog, forest = seeded_instance(7)
        text = instance_to_json(catalog, forest)
        catalog2, forest2 = instance_from_json(text)
        assert instance_to_json(catalog2, forest2) == text

    def test_round_trip_preserves_semantics(self):
        catalog, forest = seeded_instance(13)
        catalog2, forest2 = instance_from_json(instance_to_json(catalog, forest))
        x = AssortmentVector.from_set(catalog.n, {1, 2, 5})
        assert float(expected_revenue(catalog, forest, x)) == pytest.approx(
            float(expected_revenue(catalog2, forest2, x))
        )

    def test_rational_revenues_round_trip(self):
        catalog = ProductCatalog(n=2, revenues=(Fraction(1, 2), Fraction(1, 3)))
        forest = single_tree_forest(single_leaf_tree())
        text = instance_to_json(catalog, forest)
        obj = json.loads(text)
        assert obj["revenues"] == ["0.5", "1/3"]
        catalog2, _ = instance_from_json(text)
        assert catalog2.revenues == (Fraction(1, 2), Fraction(1, 3))

    @pytest.mark.parametrize("field", ["revenues", "lambda"])
    def test_boolean_read_is_refused(self, field):
        # a boolean is refused on write, so it is refused on read as well
        obj = json.loads(
            instance_to_json(
                ProductCatalog(n=1, revenues=(1,)), single_tree_forest(single_leaf_tree())
            )
        )
        obj[field] = [True]
        with pytest.raises(ValidationError):
            instance_from_json(json.dumps(obj))

    def test_non_finite_read_is_refused(self):
        text = instance_to_json(
            ProductCatalog(n=1, revenues=(1,)), single_tree_forest(single_leaf_tree())
        )
        obj = json.loads(text)
        obj["lambda"] = [float("nan")]
        with pytest.raises(ValidationError):
            instance_from_json(json.dumps(obj))

    @staticmethod
    def _two_leaf_instance():
        return {
            "n": 2,
            "revenues": ["20", "19"],
            "trees": [
                {
                    "nodes": [
                        {"split": {"product": 1, "left": 1, "right": 2}},
                        {"leaf": {"option": 1}},
                        {"leaf": {"option": 0}},
                    ],
                    "root": 0,
                }
            ],
            "lambda": [1.0],
        }

    @staticmethod
    def _set(obj, field, value):
        tree = obj["trees"][0]
        if field == "n":
            obj["n"] = value
        elif field == "root":
            tree["root"] = value
        elif field == "option":
            tree["nodes"][1]["leaf"]["option"] = value
        else:
            tree["nodes"][0]["split"][field] = value

    @pytest.mark.parametrize(
        "field, value",
        [
            ("n", "2"),
            ("n", 2.5),
            ("root", 0.9),
            ("product", 1.7),
            ("product", "1"),
            ("left", 1.5),
            ("right", 2.9),
            ("option", True),
            ("option", 1.2),
        ],
    )
    def test_non_integer_read_is_refused(self, field, value):
        # int() took each of these: it truncated a fraction and read a string or a bool
        obj = self._two_leaf_instance()
        self._set(obj, field, value)
        with pytest.raises(ValidationError, match=field):
            instance_from_json(json.dumps(obj))

    @pytest.mark.parametrize("field", ["n", "root", "product", "left", "right", "option"])
    def test_integral_number_reads_as_integer(self, field):
        # an integral JSON number such as 2.0 counts, as in generator configs
        obj = self._two_leaf_instance()
        want = instance_to_json(*instance_from_json(json.dumps(obj)))
        value = {"n": 2, "root": 0, "product": 1, "left": 1, "right": 2, "option": 1}
        self._set(obj, field, float(value[field]))
        assert instance_to_json(*instance_from_json(json.dumps(obj))) == want

    def test_schema_shape(self):
        catalog, forest = seeded_instance(1, num_trees=2)
        obj = json.loads(instance_to_json(catalog, forest))
        assert set(obj) == {"n", "revenues", "trees", "lambda"}
        node = obj["trees"][0]["nodes"][obj["trees"][0]["root"]]
        assert "split" in node or "leaf" in node
