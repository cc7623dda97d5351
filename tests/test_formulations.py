"""Formulation builders, relaxations, integrality properties, monolithic B&B."""

import numpy as np
import pytest

from dfopt.errors import DomainError
from dfopt.formulations import (
    Kind,
    build,
    integrality_gap,
    solve_integer_monolithic,
    solve_relaxation,
)
from dfopt.instancegen import GeneratorConfig, TreeShape, generate_instance
from dfopt.lp import EQ, LE, solve_lp
from dfopt.model import (
    AssortmentVector,
    ProductCatalog,
    brute_force_optimal,
    expected_revenue,
)

from cases import (
    greedy_gap_tree,
    leaf_relax_tree,
    single_leaf_tree,
    single_tree_forest,
    split_relax_tree,
    split_sides,
)


def seeded_instance(seed, kind="t3", n=10, num_trees=5, leaves=8):
    shape = (
        TreeShape(kind="t3", leaves=leaves)
        if kind == "t3"
        else TreeShape(kind=kind, depth=3)
    )
    return generate_instance(
        GeneratorConfig(n=n, num_trees=num_trees, shape=shape, seed=seed)
    )


def row_set(built):
    """Rows as hashable (coef tuple, sense, rhs) triples."""
    out = set()
    for i in range(built.lp.num_rows):
        out.add((tuple(built.lp.A[i]), built.lp.senses[i], built.lp.b[i]))
    return out


def point_is_feasible(built, x_vals, y_vals):
    """Exact membership check of (x, y) in the relaxation polyhedron."""
    point = list(x_vals) + [0] * (built.lp.num_cols - built.n)
    for (t, l), j in built.y_cols.items():
        point[j] = y_vals.get((t, l), 0)
    for i in range(built.lp.num_rows):
        lhs = sum(built.lp.A[i, j] * point[j] for j in range(len(point)))
        sense, rhs = built.lp.senses[i], built.lp.b[i]
        if sense == LE and lhs > rhs:
            return False
        if sense == EQ and lhs != rhs:
            return False
    return all(0 <= v <= 1 for v in x_vals) and all(v >= 0 for v in y_vals.values())


def point_is_extreme(built, x_vals, y_vals):
    """Rank of active constraints (rows plus bounds) equals the dimension."""
    ncols = built.lp.num_cols
    point = np.zeros(ncols)
    point[: built.n] = x_vals
    for (t, l), j in built.y_cols.items():
        point[j] = y_vals.get((t, l), 0)
    active = []
    for i in range(built.lp.num_rows):
        lhs = float(built.lp.A[i] @ point)
        if built.lp.senses[i] == EQ or abs(lhs - built.lp.b[i]) < 1e-12:
            active.append(built.lp.A[i])
    for j in range(ncols):
        if abs(point[j] - built.lp.lb[j]) < 1e-12 or (
            np.isfinite(built.lp.ub[j]) and abs(point[j] - built.lp.ub[j]) < 1e-12
        ):
            e = np.zeros(ncols)
            e[j] = 1.0
            active.append(e)
    return np.linalg.matrix_rank(np.array(active), tol=1e-9) == ncols


class TestBuild:
    def test_split_rows_on_two_split_product_tree(self):
        catalog, tree = split_relax_tree()
        built = build(Kind.SPLIT, catalog, single_tree_forest(tree))
        # columns: x1 x2 | y4 y5 y6 y7 (leaves ascending)
        expected = {
            ((0, 0, 1, 1, 1, 1), EQ, 1.0),  # unit sum
            ((-1, 0, 1, 1, 0, 0), LE, 0.0),  # left of root
            ((1, 0, 0, 0, 1, 1), LE, 1.0),  # right of root
            ((0, -1, 1, 0, 0, 0), LE, 0.0),  # left of first product-2 split
            ((0, 1, 0, 1, 0, 0), LE, 1.0),
            ((0, -1, 0, 0, 1, 0), LE, 0.0),  # left of second product-2 split
            ((0, 1, 0, 0, 0, 1), LE, 1.0),
        }
        got = {(tuple(int(v) for v in coefs), s, b) for coefs, s, b in row_set(built)}
        assert got == expected

    def test_single_leaf_tree_only_unit_row(self):
        catalog = ProductCatalog(n=2, revenues=(5, 7))
        built = build(Kind.SPLIT, catalog, single_tree_forest(single_leaf_tree(1)))
        assert built.lp.num_rows == 1
        assert built.lp.senses == (EQ,)
        z, x, y = solve_relaxation(built)
        assert z == pytest.approx(5.0)

    def test_product_rows_on_greedy_gap_tree(self):
        catalog, tree = greedy_gap_tree()
        built = build(Kind.PRODUCT, catalog, single_tree_forest(tree))
        # one unit row plus a left/right pair per product
        assert built.lp.num_rows == 1 + 2 * 3
        # product 3 aggregates leaves from its three splits
        cols = built.y_cols
        row_left3 = None
        for i in range(built.lp.num_rows):
            coefs = built.lp.A[i]
            if coefs[2] == -1.0:  # x_3 column
                row_left3 = coefs
        assert row_left3 is not None
        left_leaves = [l for (t, l), j in cols.items() if row_left3[j] == 1.0]
        assert sorted(left_leaves) == [6, 8, 10]

    def test_leaf_rows_count(self):
        catalog, tree = leaf_relax_tree()
        built = build(Kind.LEAF, catalog, single_tree_forest(tree))
        pairs = sum(len(l + r) for l, r in (split_sides(tree, s) for s in tree.split_ids))
        assert built.lp.num_rows == 1 + pairs

    def test_cardinality_row(self):
        catalog, forest = seeded_instance(0)
        built = build(Kind.SPLIT, catalog, forest, cardinality=3)
        coefs, sense, rhs = (
            built.lp.A[-1],
            built.lp.senses[-1],
            built.lp.b[-1],
        )
        assert sense == EQ and rhs == 3.0
        assert np.array_equal(coefs[: built.n], np.ones(built.n))


class TestFractionalExtremePoints:
    def test_leaf_relaxation_admits_half_point(self):
        from fractions import Fraction

        catalog, tree = leaf_relax_tree()
        built = build(Kind.LEAF, catalog, single_tree_forest(tree))
        half = Fraction(1, 2)
        x_vals = (half, half, 0)
        y_vals = {(0, 4): half, (0, 5): half}
        assert point_is_feasible(built, x_vals, y_vals)
        assert point_is_extreme(built, x_vals, y_vals)
        # with the fixture's revenues the point also attains the LP optimum
        z, _, _ = solve_relaxation(built)
        value = float(sum(built.lp.c[built.y_cols[k]] * v for k, v in y_vals.items()))
        assert value == pytest.approx(z, abs=1e-9)

    def test_split_relaxation_admits_half_point(self):
        from fractions import Fraction

        catalog, tree = split_relax_tree()
        built = build(Kind.SPLIT, catalog, single_tree_forest(tree))
        half = Fraction(1, 2)
        x_vals = (half, half)
        # half weight on opposite branch sides: feasible (though not a vertex:
        # shifting both x's and the two weights together stays feasible)
        assert point_is_feasible(built, x_vals, {(0, 4): half, (0, 7): half})
        # half weight on the two left leaves: a fractional extreme point that
        # also ties the binary optimum
        y_vals = {(0, 4): half, (0, 6): half}
        assert point_is_feasible(built, x_vals, y_vals)
        assert point_is_extreme(built, x_vals, y_vals)
        z, _, _ = solve_relaxation(built)
        value = float(sum(built.lp.c[built.y_cols[k]] * v for k, v in y_vals.items()))
        assert value == pytest.approx(z, abs=1e-9)

    def test_product_tightens_split_relax_tree(self):
        catalog, tree = split_relax_tree()
        forest = single_tree_forest(tree)
        z_split, _, _ = solve_relaxation(build(Kind.SPLIT, catalog, forest))
        z_prod, _, _ = solve_relaxation(build(Kind.PRODUCT, catalog, forest))
        _, z_star = brute_force_optimal(catalog, forest)
        assert z_prod <= z_split + 1e-9
        assert z_prod == pytest.approx(float(z_star), abs=1e-9)


class TestRelaxationProperties:
    def test_strength_ordering(self):
        for seed in range(15):
            kind_name = ["t1", "t2", "t3"][seed % 3]
            catalog, forest = seeded_instance(seed, kind=kind_name)
            z = {
                k: solve_relaxation(build(k, catalog, forest))[0]
                for k in (Kind.LEAF, Kind.SPLIT, Kind.PRODUCT)
            }
            assert z[Kind.PRODUCT] <= z[Kind.SPLIT] + 1e-6
            assert z[Kind.SPLIT] <= z[Kind.LEAF] + 1e-6
            _, z_star = brute_force_optimal(catalog, forest)
            assert float(z_star) <= z[Kind.PRODUCT] + 1e-6

    def test_single_tree_product_is_integral(self):
        for seed in range(40):
            catalog, forest = seeded_instance(seed, num_trees=1)
            z_lo, _, _ = solve_relaxation(build(Kind.PRODUCT, catalog, forest))
            _, z_star = brute_force_optimal(catalog, forest)
            assert z_lo == pytest.approx(float(z_star), abs=1e-6)

    def test_single_tree_split_integral_without_repeats(self):
        checked = 0
        seed = 0
        while checked < 40:
            catalog, forest = seeded_instance(seed, kind="t3", num_trees=1)
            seed += 1
            tree = forest.trees[0]
            products = [tree.split_product(s) for s in tree.split_ids]
            if len(set(products)) != len(products):
                continue
            checked += 1
            z_lo, _, _ = solve_relaxation(build(Kind.SPLIT, catalog, forest))
            _, z_star = brute_force_optimal(catalog, forest)
            assert z_lo == pytest.approx(float(z_star), abs=1e-6)

    def test_binary_fixed_relaxation_equals_model_revenue(self):
        for seed in range(10):
            catalog, forest = seeded_instance(seed, n=8, num_trees=4)
            members = {i for i in range(1, 9) if (seed >> (i % 5)) & 1 or i == seed % 8 + 1}
            x = AssortmentVector.from_set(8, members)
            expected = float(expected_revenue(catalog, forest, x))
            for kind in (Kind.LEAF, Kind.SPLIT, Kind.PRODUCT):
                built = build(kind, catalog, forest)
                lb, ub = built.lp.lb.copy(), built.lp.ub.copy()
                lb[: built.n] = ub[: built.n] = x.values
                sol = solve_lp(built.lp.with_bounds(lb, ub))
                assert sol.status == "optimal"
                assert sol.objective == pytest.approx(expected, abs=1e-7)


class TestIntegralityGap:
    def test_single_tree_product_gap_zero(self):
        catalog, forest = seeded_instance(5, num_trees=1)
        assert integrality_gap(Kind.PRODUCT, catalog, forest) == pytest.approx(
            0.0, abs=1e-6
        )

    def test_gap_ordering(self):
        for seed in range(12):
            kind_name = ["t1", "t2", "t3"][seed % 3]
            catalog, forest = seeded_instance(seed + 100, kind=kind_name)
            _, z_star = brute_force_optimal(catalog, forest)
            gaps = {
                k: integrality_gap(k, catalog, forest, z_star=float(z_star))
                for k in (Kind.LEAF, Kind.SPLIT, Kind.PRODUCT)
            }
            assert gaps[Kind.LEAF] >= gaps[Kind.SPLIT] - 1e-6
            assert gaps[Kind.SPLIT] >= gaps[Kind.PRODUCT] - 1e-6

    def test_zero_optimum_rejected(self):
        catalog = ProductCatalog(n=3, revenues=(0, 0, 0))
        _, tree = greedy_gap_tree()
        forest = single_tree_forest(tree)
        with pytest.raises(DomainError):
            integrality_gap(Kind.SPLIT, catalog, forest)


class TestMonolithic:
    def test_greedy_gap_instance(self):
        catalog, tree = greedy_gap_tree()
        forest = single_tree_forest(tree)
        built = build(Kind.SPLIT, catalog, forest)
        res = solve_integer_monolithic(built, catalog, forest)
        assert res.optimal
        assert res.value == 20
        assert res.x.support() == {1, 2, 3}

    def test_unused_products_tie(self):
        catalog = ProductCatalog(n=3, revenues=(0, 0, 0))
        _, tree = greedy_gap_tree()
        forest = single_tree_forest(tree)
        built = build(Kind.PRODUCT, catalog, forest)
        res = solve_integer_monolithic(built, catalog, forest)
        assert res.optimal and res.value == 0

    def test_matches_brute_force(self):
        for seed in range(10):
            catalog, forest = seeded_instance(seed, n=10, num_trees=5)
            _, z_star = brute_force_optimal(catalog, forest)
            for kind in (Kind.SPLIT, Kind.PRODUCT):
                built = build(kind, catalog, forest)
                res = solve_integer_monolithic(built, catalog, forest)
                assert res.optimal
                assert res.value == float(z_star)

    def test_cardinality(self):
        for seed in range(5):
            catalog, forest = seeded_instance(seed, n=8, num_trees=4)
            _, z_star = brute_force_optimal(catalog, forest, cardinality=3)
            built = build(Kind.SPLIT, catalog, forest, cardinality=3)
            res = solve_integer_monolithic(built, catalog, forest)
            assert res.optimal
            assert len(res.x.support()) == 3
            assert res.value == float(z_star)
