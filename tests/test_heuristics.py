"""Heuristics: local search, restarts, nested assortments, fixed-size swaps."""

import math
from fractions import Fraction

import pytest

try:
    from hypothesis import given, settings, strategies as st
except ImportError:  # only the flip-sequence property needs it
    given = None

from dfopt import heuristics
from dfopt.errors import DomainError
from dfopt.heuristics import divide_and_conquer, local_search, ls10, revenue_ordered
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

    def test_wrong_length_start_rejected(self):
        catalog, tree = greedy_gap_tree()
        forest = single_tree_forest(tree)
        for start in (AssortmentVector((1, 1)), AssortmentVector((1,) * 9)):
            with pytest.raises(DomainError):
                local_search(catalog, forest, start)

    def test_fractional_start_rejected(self):
        # a level of 0.5 would otherwise count as not offered
        catalog, tree = greedy_gap_tree()
        forest = single_tree_forest(tree)
        for start in ((0.5,) * 3, (1, 0.5, 0)):
            with pytest.raises(DomainError, match="binary start"):
                local_search(catalog, forest, AssortmentVector(start))

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

    @pytest.mark.parametrize("seed", [-1, 1.5, "1", None, True])
    def test_bad_seed(self, seed):
        catalog, forest = seeded_instance(5)
        with pytest.raises(DomainError, match="seed must be an integer >= 0"):
            ls10(catalog, forest, seed=seed)


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

    @pytest.mark.parametrize("seed", [-3, 2.0, None, False])
    def test_bad_seed(self, seed):
        catalog, forest = seeded_instance(2)
        with pytest.raises(DomainError, match="seed must be an integer >= 0"):
            divide_and_conquer(catalog, forest, b=3, seed=seed)

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


NUMBERS = ["int", "int/float", "float", "Fraction"]


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


def score(walks, j, best=-math.inf):
    """The value of flipping j if it is above ``best``, else None."""
    found = walks.best_flip([j], best)
    return None if found is None else found[0]


@pytest.mark.parametrize("numbers", NUMBERS)
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
            got = score(walks, j)
            assert (repr(got), type(got)) == (repr(want), type(want))
        walks.flip(i)
        want = expected_revenue(catalog, forest, walks.assortment())
        assert (repr(walks.value), type(walks.value)) == (repr(want), type(want))


def generated(shape, seed, n=9, num_trees=5, leaves=8):
    size = {"leaves": leaves} if shape == "t3" else {"depth": 3}
    return generate_instance(
        GeneratorConfig(
            n=n, num_trees=num_trees, shape=TreeShape(shape, **size), seed=seed
        )
    )


def assert_heuristics_match(catalog, forest, seed, cardinalities, monkeypatch):
    """``ls``, ``ls10`` and ``dnc`` equal the full-rescan reference."""
    assert_same(local_search(catalog, forest), reference.local_search(catalog, forest))
    for b in cardinalities:
        assert_same(
            divide_and_conquer(catalog, forest, b, restarts=3, seed=seed),
            reference.divide_and_conquer(catalog, forest, b, restarts=3, seed=seed),
        )
    got = ls10(catalog, forest, seed=seed, restarts=3, include_empty_start=True)
    with monkeypatch.context() as m:
        m.setattr(heuristics, "local_search", reference.local_search)
        want = ls10(catalog, forest, seed=seed, restarts=3, include_empty_start=True)
    assert_same(got, want)


@pytest.mark.parametrize("numbers", NUMBERS)
@pytest.mark.parametrize("shape", ["t1", "t2", "t3"])
def test_matches_full_rescan(shape, numbers, monkeypatch):
    for seed in range(4):
        catalog, forest = with_numbers(*generated(shape, seed), numbers)
        n = catalog.n
        start = AssortmentVector.from_set(n, {1, 4, 5, 8})
        assert_same(
            local_search(catalog, forest, start),
            reference.local_search(catalog, forest, start),
        )
        assert_same(revenue_ordered(catalog, forest), reference.revenue_ordered(catalog, forest))
        assert_heuristics_match(catalog, forest, seed, (0, 1, 3, n), monkeypatch)


@pytest.mark.parametrize("numbers", NUMBERS)
def test_matches_full_rescan_many_moves(numbers, monkeypatch):
    # cached alternatives live across many moves and swaps at this size
    catalog, forest = with_numbers(
        *generated("t3", 11, n=30, num_trees=12, leaves=16), numbers
    )
    assert_heuristics_match(catalog, forest, 11, (6,), monkeypatch)


# ---------------------------------------------------------------------------
# cached alternatives and the refusal margin
# ---------------------------------------------------------------------------


def assert_scores_exact(walks, catalog, forest):
    """Every product's score equals ``expected_revenue``, as a fresh state's.

    A move worth ``want`` is refused against ``want`` itself and accepted
    against anything just below it.
    """
    fresh = heuristics._Walks(catalog, forest, walks.assortment().support())
    best = None
    for j in range(1, catalog.n + 1):
        x = list(walks.x[1:])
        x[j - 1] ^= 1
        want = expected_revenue(catalog, forest, x)
        if want > (walks.value if best is None else best[0]):
            best = (want, j)
        if isinstance(want, float):
            below = math.nextafter(want, -math.inf)
        else:
            below = want - Fraction(1, 10**9)
        for state in (walks, fresh):
            got = score(state, j)
            assert (repr(got), type(got)) == (repr(want), type(want))
            assert score(state, j, want) is None
            got = score(state, j, below)
            assert (repr(got), type(got)) == (repr(want), type(want))
    assert walks.best_flip(range(1, catalog.n + 1), walks.value) == best


def check_flip_sequence(catalog, forest, flips):
    walks = heuristics._Walks(catalog, forest, ())
    assert_scores_exact(walks, catalog, forest)
    for i in flips:
        walks.flip(i)
        want = expected_revenue(catalog, forest, walks.assortment())
        assert (repr(walks.value), type(walks.value)) == (repr(want), type(want))
        assert_scores_exact(walks, catalog, forest)


if given is not None:

    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(
        shape=st.sampled_from(["t1", "t2", "t3"]),
        numbers=st.sampled_from(NUMBERS),
        seed=st.integers(0, 10_000),
        flips=st.lists(st.integers(1, 7), min_size=1, max_size=12),
    )
    def test_flip_sequences_keep_scores_exact(shape, numbers, seed, flips):
        catalog, forest = with_numbers(*generated(shape, seed, n=7, num_trees=4), numbers)
        check_flip_sequence(catalog, forest, flips)

else:  # pragma: no cover

    @pytest.mark.skip(reason="needs hypothesis")
    def test_flip_sequences_keep_scores_exact():
        pass


def test_alternative_dropped_when_a_product_below_it_flips():
    # at x = {1} the tree's path tests only product 1; the other branch of
    # the root tests product 2, which no path tests, so flipping 2 re-walks
    # no tree but changes what flipping 1 is worth: 0 from {1}, 5 from {1, 2}
    catalog = ProductCatalog(n=2, revenues=(3, 5))
    tree = PurchaseTree(
        {0: Split(1, 1, 2), 1: Leaf(1), 2: Split(2, 3, 4), 3: Leaf(2), 4: Leaf(0)},
        root=0,
    )
    forest = single_tree_forest(tree)
    walks = heuristics._Walks(catalog, forest, {1})
    assert score(walks, 1) == 0
    walks.flip(2)
    assert score(walks, 1) == 5
    check_flip_sequence(catalog, forest, [1, 2, 1, 2])


def ulp_instance():
    """Trees worth 0.1/0.2/0.3/0.4 of revenue 1, where {1, 2} beats {2} by an ulp.

    {1} is worth 0.1 + 0.2 = 0.30000000000000004, {2} 0.3 + 0.4 = 0.7 and
    {1, 2} 0.1 + 0.2 + 0.4 = 0.7000000000000001.
    """
    buys_1 = PurchaseTree({0: Split(1, 1, 2), 1: Leaf(1), 2: Leaf(0)}, root=0)
    buys_2 = PurchaseTree({0: Split(2, 1, 2), 1: Leaf(2), 2: Leaf(0)}, root=0)
    buys_2_without_1 = PurchaseTree(
        {0: Split(1, 1, 2), 1: Leaf(0), 2: Split(2, 3, 4), 3: Leaf(2), 4: Leaf(0)},
        root=0,
    )
    return ProductCatalog(n=2, revenues=(1, 1)), DecisionForest(
        (buys_1, buys_1, buys_2_without_1, buys_2), (0.1, 0.2, 0.3, 0.4)
    )


def test_one_ulp_gain_is_a_move(monkeypatch):
    catalog, forest = ulp_instance()
    res = local_search(catalog, forest)
    assert res.assortment.support() == {1, 2}
    assert repr(res.value) == "0.7000000000000001" and res.iterations == 2
    assert_heuristics_match(catalog, forest, 0, (0, 1, 2), monkeypatch)


@pytest.mark.parametrize("shape", ["t1", "t2", "t3"])
def test_near_ties_match_full_rescan(shape, monkeypatch):
    # equal revenues make many candidates tie exactly or differ by an ulp
    for seed in range(4):
        catalog, forest = generated(shape, seed, n=9, num_trees=4)
        catalog = ProductCatalog(catalog.n, (1,) * catalog.n)
        forest = DecisionForest(forest.trees, (0.1, 0.2, 0.3, 0.4))
        assert_heuristics_match(catalog, forest, seed, (1, 3, 5), monkeypatch)


# ---------------------------------------------------------------------------
# the cached per-product deltas and the near-top exact sums
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("weight", [0.25, Fraction(1, 4)])
def test_rising_gains_run_one_exact_sum(weight, monkeypatch):
    # tree j buys product j (revenue j) when it is offered, so from the empty
    # set flipping 1, 2, 3, 4 gains w, 2w, 3w, 4w: each beats the one before,
    # and only the last is near the top score
    trees = tuple(
        PurchaseTree({0: Split(j, 1, 2), 1: Leaf(j), 2: Leaf(0)}, root=0)
        for j in range(1, 5)
    )
    catalog = ProductCatalog(n=4, revenues=(1, 2, 3, 4))
    forest = DecisionForest(trees, (weight,) * 4)
    walks = heuristics._Walks(catalog, forest, ())
    sums = []
    total = heuristics._total
    monkeypatch.setattr(heuristics, "_total", lambda c: sums.append(1) or total(c))
    want = expected_revenue(catalog, forest, AssortmentVector.from_set(4, {4}))
    assert walks.best_flip(range(1, 5), walks.value) == (want, 4)
    assert len(sums) == 1


def test_score_an_ulp_under_the_top_still_wins_a_tie(monkeypatch):
    # from {3}, adding 1 scores 1.2 and adding 2 scores 1.2000000000000002 as
    # value + delta, but both exact totals are 1.2000000000000002, so the
    # first winner in scan order, product 1, is the move
    def buys(p):
        return PurchaseTree({0: Split(p, 1, 2), 1: Leaf(p), 2: Leaf(0)}, root=0)

    catalog = ProductCatalog(n=3, revenues=(2, 2, 2))
    forest = DecisionForest(
        tuple(buys(p) for p in (3, 1, 1, 2, 3)), (0.15, 0.35, 0.05, 0.4, 0.05)
    )
    walks = heuristics._Walks(catalog, forest, {3})
    want = expected_revenue(catalog, forest, AssortmentVector.from_set(3, {1, 3}))
    assert walks.best_flip(range(1, 4), walks.value) == (want, 1)
    assert repr(want) == "1.2000000000000002"
    assert repr(walks.value + walks.deltas[1]) == "1.2"
    assert repr(walks.value + walks.deltas[2]) == "1.2000000000000002"
    start = AssortmentVector.from_set(3, {3})
    assert_same(
        local_search(catalog, forest, start), reference.local_search(catalog, forest, start)
    )
    assert_heuristics_match(catalog, forest, 0, (1, 2), monkeypatch)


def test_node_ids_do_not_change_a_run():
    # walks read a tree by node position, so ids in another order, some of
    # them negative, give the same runs
    catalog, forest = seeded_instance(4)

    def relabel(tree):
        new = {nid: 30 - 7 * nid for nid in tree.nodes}
        return PurchaseTree(
            {
                new[k]: Split(n.product, new[n.left], new[n.right])
                if isinstance(n, Split)
                else n
                for k, n in tree.nodes.items()
            },
            new[tree.root],
        )

    relabelled = DecisionForest(tuple(map(relabel, forest.trees)), forest.weights)
    for run in (
        local_search,
        revenue_ordered,
        lambda c, f: ls10(c, f, seed=4, restarts=3),
        lambda c, f: divide_and_conquer(c, f, 3, restarts=3, seed=4),
    ):
        assert_same(run(catalog, relabelled), run(catalog, forest))


def path_products(tree, x):
    """``(split id, product)`` along the path ``x`` takes (``x[i]`` for product i)."""
    out, nid = [], tree.root
    while isinstance(tree.nodes[nid], Split):
        node = tree.nodes[nid]
        out.append((nid, node.product))
        nid = node.left if x[node.product] else node.right
    return out


def alternative_reads(tree, x, k):
    """The products the walk down the other branch of split k reads."""
    node = tree.nodes[k]
    reads = [node.product]
    node = tree.nodes[node.right if x[node.product] else node.left]
    while isinstance(node, Split):
        reads.append(node.product)
        node = tree.nodes[node.left if x[node.product] else node.right]
    return reads


@pytest.mark.parametrize("numbers", NUMBERS)
def test_flip_keeps_the_deltas_it_cannot_change(numbers):
    # a flip of i can change the delta of a product only on the old or new
    # path of a tree whose path tests i, or at a split whose other branch
    # reads i; every other product keeps its delta, equal to a fresh state's
    catalog, forest = with_numbers(*seeded_instance(8, n=12, num_trees=6), numbers)
    n = catalog.n
    start = {2, 5, 6, 11}
    kept = 0
    for i in range(1, n + 1):
        walks = heuristics._Walks(catalog, forest, start)
        walks.best_flip(range(1, n + 1), walks.value)
        before = list(walks.x)
        walks.flip(i)
        changed = set()
        for tree in forest.trees:
            path = path_products(tree, before)
            if i in (p for _, p in path):
                changed.update(p for _, p in path + path_products(tree, walks.x))
            changed.update(p for k, p in path if i in alternative_reads(tree, before, k))
        fresh = heuristics._Walks(catalog, forest, walks.assortment().support())
        fresh.best_flip(range(1, n + 1), fresh.value)
        assert set(walks.deltas) >= set(range(1, n + 1)) - changed
        for j, delta in walks.deltas.items():
            want = fresh.deltas[j]
            assert (repr(delta), type(delta)) == (repr(want), type(want))
        kept += len(walks.deltas)
    assert kept > 0


@pytest.mark.parametrize(
    "run",
    [
        lambda c, f: ls10(c, f, seed=0, restarts=2.5),
        lambda c, f: ls10(c, f, seed=0, restarts="3"),
        lambda c, f: ls10(c, f, seed=0, restarts=True),
        lambda c, f: divide_and_conquer(c, f, b=2.0),
        lambda c, f: divide_and_conquer(c, f, b=True),
        lambda c, f: divide_and_conquer(c, f, b=3, restarts=2.5),
        lambda c, f: divide_and_conquer(c, f, b=3, restarts=False),
        lambda c, f: brute_force_optimal(c, f, cardinality=True),
    ],
    ids=["ls10-float", "ls10-str", "ls10-bool", "dnc-b-float", "dnc-b-bool",
         "dnc-restarts-float", "dnc-restarts-bool", "brute-force-bool"],
)
def test_counts_must_be_integers(run):
    catalog, forest = seeded_instance(5)
    with pytest.raises(DomainError, match="must be an integer"):
        run(catalog, forest)
