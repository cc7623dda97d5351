"""Heuristics: local search, restarts, nested assortments, fixed-size swaps."""

from fractions import Fraction

import pytest

from dfopt import heuristics
from dfopt.errors import DomainError
from dfopt.heuristics import divide_and_conquer, local_search, ls10, revenue_ordered
from dfopt.instancegen import GeneratorConfig, TreeShape, generate_instance
from dfopt.model import (
    AssortmentVector,
    DecisionForest,
    ProductCatalog,
    brute_force_optimal,
    expected_revenue,
)

import heuristics_reference as reference
from cases import greedy_gap_tree, roa_gap_instance, single_tree_forest


def seeded_instance(seed, n=10, num_trees=5, leaves=8):
    return generate_instance(
        GeneratorConfig(
            n=n, num_trees=num_trees, shape=TreeShape("t3", leaves=leaves), seed=seed
        )
    )


class TestLocalSearch:
    def test_start_at_optimum_stays(self):
        catalog, tree = greedy_gap_tree()
        forest = single_tree_forest(tree)
        start = AssortmentVector.from_set(3, {1, 2, 3})
        res = local_search(catalog, forest, start)
        assert res.iterations == 0
        assert res.value == 20

    def test_greedy_gap_from_empty(self):
        # the 8-assortment landscape is 0/0/0/18/19/18/18/20: the best first
        # add is {3} (18), whose neighbors {1,3} and {2,3} only tie, so the
        # empty-start search stalls below the optimum of 20
        catalog, tree = greedy_gap_tree()
        forest = single_tree_forest(tree)
        res = local_search(catalog, forest)
        assert res.value == 18
        assert res.assortment.support() == {3}
        # a restart covering {1, 2} escapes: from 19 the best add reaches 20
        start = AssortmentVector.from_set(3, {1, 2})
        assert local_search(catalog, forest, start).value == 20

    def test_never_beats_brute_force(self):
        for seed in range(25):
            catalog, forest = seeded_instance(seed)
            res = local_search(catalog, forest)
            _, z_star = brute_force_optimal(catalog, forest)
            assert float(res.value) <= float(z_star) + 1e-12

    def test_value_recomputed_exactly(self):
        # every heuristic, not only local search
        catalog, forest = seeded_instance(3)
        for run in (
            lambda: local_search(catalog, forest),
            lambda: ls10(catalog, forest, seed=3, restarts=3),
            lambda: revenue_ordered(catalog, forest),
            lambda: divide_and_conquer(catalog, forest, b=3, restarts=3, seed=3),
        ):
            res = run()
            exact = expected_revenue(catalog, forest, res.assortment)
            assert res.value == exact and repr(res.value) == repr(exact)

    def test_strictly_improving_no_revisit(self):
        # replay the trajectory: values must strictly increase step by step
        catalog, forest = seeded_instance(7)
        seen = set()
        members = set()
        value = expected_revenue(catalog, forest, AssortmentVector.from_set(10, set()))
        seen.add(frozenset())
        while True:
            best = None
            best_value = value
            for i in range(1, 11):
                cand = members - {i} if i in members else members | {i}
                v = expected_revenue(
                    catalog, forest, AssortmentVector.from_set(10, cand)
                )
                if v > best_value:
                    best_value = v
                    best = cand
            if best is None:
                break
            assert frozenset(best) not in seen
            seen.add(frozenset(best))
            members, value = best, best_value


class TestLs10:
    def test_single_product_always_optimal(self):
        catalog = ProductCatalog(n=1, revenues=(4,))
        from dfopt.model import Leaf, PurchaseTree, Split

        tree = PurchaseTree(
            {0: Split(1, 1, 2), 1: Leaf(1), 2: Leaf(0)}, root=0
        )
        forest = single_tree_forest(tree)
        res = ls10(catalog, forest, seed=0)
        _, z_star = brute_force_optimal(catalog, forest)
        assert res.value == z_star

    def test_deterministic_per_seed(self):
        catalog, forest = seeded_instance(5)
        a = ls10(catalog, forest, seed=42)
        b = ls10(catalog, forest, seed=42)
        assert a.assortment == b.assortment and a.value == b.value
        c = ls10(catalog, forest, seed=43)
        assert c.value <= float(brute_force_optimal(catalog, forest)[1]) + 1e-12

    def test_dominates_empty_start_with_controlled_seeding(self):
        for seed in range(20):
            catalog, forest = seeded_instance(seed)
            plain = local_search(catalog, forest)
            multi = ls10(catalog, forest, seed=seed, include_empty_start=True)
            assert float(multi.value) >= float(plain.value) - 1e-12


    @pytest.mark.parametrize("restarts", [0, -1])
    def test_bad_restart_count(self, restarts):
        catalog, forest = seeded_instance(5)
        with pytest.raises(DomainError, match="restarts must be >= 1"):
            ls10(catalog, forest, seed=0, restarts=restarts)


class TestRevenueOrdered:
    def test_single_product(self):
        catalog, forest = seeded_instance(1, n=1, num_trees=2, leaves=2)
        res = revenue_ordered(catalog, forest)
        assert res.value == expected_revenue(
            catalog, forest, AssortmentVector.from_set(1, {1})
        )

    def test_strictly_suboptimal_fixture(self):
        catalog, forest = roa_gap_instance()
        res = revenue_ordered(catalog, forest)
        _, z_star = brute_force_optimal(catalog, forest)
        assert float(res.value) < float(z_star)
        assert res.value == 0
        assert z_star == 9

    def test_never_beats_brute_force(self):
        for seed in range(25):
            catalog, forest = seeded_instance(seed)
            res = revenue_ordered(catalog, forest)
            _, z_star = brute_force_optimal(catalog, forest)
            assert float(res.value) <= float(z_star) + 1e-12

    def test_candidates_are_nested_prefixes(self):
        catalog, forest = seeded_instance(9)
        ranked = sorted(
            range(1, 11), key=lambda i: (-catalog.revenues[i - 1], i)
        )
        best = max(
            float(
                expected_revenue(
                    catalog,
                    forest,
                    AssortmentVector.from_set(10, set(ranked[:k])),
                )
            )
            for k in range(1, 11)
        )
        assert float(revenue_ordered(catalog, forest).value) == pytest.approx(best)


class TestDivideAndConquer:
    def test_full_cardinality_no_moves(self):
        catalog, forest = seeded_instance(2)
        res = divide_and_conquer(catalog, forest, b=10, seed=1)
        assert res.assortment.support() == set(range(1, 11))
        assert res.iterations == 0

    def test_bad_cardinality(self):
        catalog, forest = seeded_instance(2)
        for b in (-1, 11):
            with pytest.raises(DomainError, match="out of range 0..10"):
                divide_and_conquer(catalog, forest, b=b)

    @pytest.mark.parametrize("restarts", [0, -1])
    def test_bad_restart_count(self, restarts):
        catalog, forest = seeded_instance(2)
        with pytest.raises(DomainError, match="restarts must be >= 1"):
            divide_and_conquer(catalog, forest, b=3, restarts=restarts)

    def test_zero_cardinality_is_the_empty_assortment(self):
        catalog, forest = seeded_instance(2)
        res = divide_and_conquer(catalog, forest, b=0, seed=1)
        assert res.assortment.support() == set() and res.iterations == 0
        assert res.value == expected_revenue(catalog, forest, res.assortment)

    def test_cardinality_preserved_and_bounded(self):
        for seed in range(15):
            catalog, forest = seeded_instance(seed)
            res = divide_and_conquer(catalog, forest, b=3, seed=seed)
            assert len(res.assortment.support()) == 3
            _, z_star = brute_force_optimal(catalog, forest, cardinality=3)
            assert float(res.value) <= float(z_star) + 1e-12

    def test_deterministic_per_seed(self):
        catalog, forest = seeded_instance(4)
        a = divide_and_conquer(catalog, forest, b=4, seed=9)
        b = divide_and_conquer(catalog, forest, b=4, seed=9)
        assert a.assortment == b.assortment and a.value == b.value


# ---------------------------------------------------------------------------
# incremental move scoring against the full-rescan reference
# ---------------------------------------------------------------------------


def with_numbers(catalog, forest, numbers):
    """The instance with revenues and weights of another number type."""
    if numbers == "int/float":  # as generated
        return catalog, forest
    if numbers == "int":  # all the weight on one tree keeps every value an int
        revenues = catalog.revenues
        weights = (1,) + (0,) * (len(forest.trees) - 1)
    elif numbers == "float":
        revenues = tuple(r / 7 for r in catalog.revenues)
        weights = forest.weights
    else:
        revenues = tuple(Fraction(r, 7) for r in catalog.revenues)
        weights = tuple(Fraction(w) for w in forest.weights)
    return (
        ProductCatalog(catalog.n, revenues),
        DecisionForest(forest.trees, weights),
    )


def assert_same(got, want):
    assert got.assortment == want.assortment
    assert got.value == want.value
    assert repr(got.value) == repr(want.value)
    assert type(got.value) is type(want.value)
    assert got.iterations == want.iterations


@pytest.mark.parametrize("numbers", ["int", "int/float", "float", "Fraction"])
def test_move_scores_equal_expected_revenue(numbers):
    # the walk state's scores, not only the returned values, are the model's
    catalog, forest = with_numbers(*seeded_instance(6, num_trees=7), numbers)
    n = catalog.n
    walks = heuristics._Walks(catalog, forest, {2, 3, 9})
    for i in (5, 2, 10, 1, 5, 7, 3):
        for j in range(1, n + 1):
            x = list(walks.x[1:])
            x[j - 1] ^= 1
            want = expected_revenue(catalog, forest, x)
            got = walks.flipped_value(j)
            assert (repr(got), type(got)) == (repr(want), type(want))
        walks.flip(i)
        want = expected_revenue(catalog, forest, walks.assortment())
        assert (repr(walks.value), type(walks.value)) == (repr(want), type(want))


@pytest.mark.parametrize("numbers", ["int", "int/float", "float", "Fraction"])
@pytest.mark.parametrize("shape", ["t1", "t2", "t3"])
def test_matches_full_rescan(shape, numbers, monkeypatch):
    size = {"leaves": 8} if shape == "t3" else {"depth": 3}
    for seed in range(4):
        catalog, forest = with_numbers(
            *generate_instance(
                GeneratorConfig(
                    n=9, num_trees=5, shape=TreeShape(shape, **size), seed=seed
                )
            ),
            numbers,
        )
        n = catalog.n
        start = AssortmentVector.from_set(n, {1, 4, 5, 8})
        assert_same(local_search(catalog, forest), reference.local_search(catalog, forest))
        assert_same(
            local_search(catalog, forest, start),
            reference.local_search(catalog, forest, start),
        )
        assert_same(revenue_ordered(catalog, forest), reference.revenue_ordered(catalog, forest))
        for b in (0, 1, 3, n):
            assert_same(
                divide_and_conquer(catalog, forest, b, restarts=3, seed=seed),
                reference.divide_and_conquer(catalog, forest, b, restarts=3, seed=seed),
            )
        got = ls10(catalog, forest, seed=seed, restarts=3, include_empty_start=True)
        with monkeypatch.context() as m:
            m.setattr(heuristics, "local_search", reference.local_search)
            want = ls10(catalog, forest, seed=seed, restarts=3, include_empty_start=True)
        assert_same(got, want)
