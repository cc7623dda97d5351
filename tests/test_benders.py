"""Two-phase decomposition: cuts, relaxation fixpoint, lazy-cut B&B."""

import pytest

from dfopt.benders import (
    Budget,
    cut_from_certificate,
    evaluate_cut,
    integer_phase,
    relaxation_phase,
    solve_two_phase,
)
from dfopt.errors import IterationLimitError
from dfopt.formulations import Kind, build, solve_relaxation
from dfopt.instancegen import GeneratorConfig, TreeShape, generate_instance
from dfopt.model import (
    ProductCatalog,
    brute_force_optimal,
    expected_revenue,
    traverse,
)
from dfopt.subproblems import integer_cut, split_dual_greedy, split_primal_greedy

from cases import (
    greedy_gap_tree,
    single_leaf_tree,
    single_tree_forest,
    worked_example,
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


class TestCuts:
    def test_worked_example_first_cut(self):
        catalog, tree, x, _ = worked_example()
        _, trace = split_primal_greedy(catalog, tree, x)
        cert = split_dual_greedy(catalog, tree, trace)
        cut = cut_from_certificate(cert, tree, 0, catalog.n, "fractional-greedy")
        # gamma 72, beta_1=17 on product 2, alpha_3=8 on product 6,
        # alphas 28+28+11 on product 5
        assert cut.const == pytest.approx(89.0)
        assert cut.coef[1] == pytest.approx(-17.0)
        assert cut.coef[4] == pytest.approx(67.0)
        assert cut.coef[5] == pytest.approx(8.0)
        assert cut.coef[0] == cut.coef[2] == cut.coef[3] == 0.0
        assert evaluate_cut(cut, x) == pytest.approx(87.5)

    def test_tight_at_generation_point(self):
        for seed in range(40):
            catalog, forest = seeded_instance(seed, num_trees=3)
            rng_mask = (seed * 2654435761) % (1 << catalog.n)
            x = tuple((rng_mask >> i) & 1 for i in range(catalog.n))
            for t, tree in enumerate(forest.trees):
                for kind in ("leaf", "split", "product"):
                    g, cert = integer_cut(kind, catalog, tree, x)
                    cut = cut_from_certificate(cert, tree, t, catalog.n, "closed")
                    assert evaluate_cut(cut, x) == pytest.approx(float(g), abs=1e-9)

    def test_constant_cut_when_leaves_equal(self):
        catalog = ProductCatalog(n=3, revenues=(7, 7, 7))
        _, tree = greedy_gap_tree()
        tree_nodes = dict(tree.nodes)
        # make every leaf worth the same revenue
        from dfopt.model import Leaf, PurchaseTree

        for l in tree.leaf_ids:
            tree_nodes[l] = Leaf(1)
        flat = PurchaseTree(tree_nodes, root=1)
        g, cert = integer_cut("split", catalog, flat, (1, 0, 1))
        cut = cut_from_certificate(cert, flat, 0, 3, "closed")
        assert all(c == 0 for c in cut.coef)
        assert cut.const == 7

    def test_cut_validity_sweep(self):
        for seed in range(10):
            catalog, forest = seeded_instance(seed, n=8, num_trees=2)
            x0 = tuple((seed >> i) & 1 for i in range(8))
            for t, tree in enumerate(forest.trees):
                for kind in ("leaf", "split", "product"):
                    _, cert = integer_cut(kind, catalog, tree, x0)
                    cut = cut_from_certificate(cert, tree, t, catalog.n, "closed")
                    for mask in range(1 << 8):
                        x = tuple((mask >> (7 - i)) & 1 for i in range(8))
                        _, leaf = traverse(tree, x)
                        g = float(catalog.leaf_revenue(tree, leaf))
                        assert evaluate_cut(cut, x) >= g - 1e-9


class TestRelaxationPhase:
    def test_single_tree_immediate(self):
        catalog, tree = greedy_gap_tree()
        forest = single_tree_forest(tree)
        relax = relaxation_phase(Kind.SPLIT, catalog, forest)
        z_mono, _, _ = solve_relaxation(build(Kind.SPLIT, catalog, forest))
        assert relax.value == pytest.approx(z_mono, abs=1e-6)

    def test_bounds_monotone(self):
        for seed in range(10):
            catalog, forest = seeded_instance(seed)
            relax = relaxation_phase(Kind.SPLIT, catalog, forest)
            for a, b in zip(relax.bounds, relax.bounds[1:]):
                assert b <= a + 1e-7

    def test_matches_monolithic_all_kinds(self):
        for seed in range(12):
            kind_name = ["t1", "t2", "t3"][seed % 3]
            catalog, forest = seeded_instance(seed, kind=kind_name)
            for kind in (Kind.LEAF, Kind.SPLIT, Kind.PRODUCT):
                relax = relaxation_phase(kind, catalog, forest)
                z_mono, _, _ = solve_relaxation(build(kind, catalog, forest))
                assert relax.value == pytest.approx(z_mono, abs=1e-6)

    def test_round_cap_raises_iteration_limit(self):
        catalog, forest = seeded_instance(3, n=8, num_trees=4)
        full = relaxation_phase(Kind.SPLIT, catalog, forest)
        assert full.rounds > 1
        with pytest.raises(IterationLimitError) as info:
            relaxation_phase(Kind.SPLIT, catalog, forest, max_rounds=1)
        assert info.value.diagnostics == {"rounds": 1, "bound": full.bounds[0]}

    def test_fixpoint_no_violations(self):
        from dfopt.benders import _separate

        catalog, forest = seeded_instance(3)
        relax = relaxation_phase(Kind.SPLIT, catalog, forest)
        master = relax.state.master_lp()
        from dfopt.lp import solve_lp

        sol = solve_lp(master)
        thetas = sol.x[catalog.n :]
        for t, (value, _, _) in enumerate(
            _separate(Kind.SPLIT, catalog, forest, relax.x)
        ):
            assert float(thetas[t]) <= value + 1e-6

    def test_cardinality(self):
        catalog, forest = seeded_instance(4)
        relax = relaxation_phase(Kind.SPLIT, catalog, forest, cardinality=3)
        built = build(Kind.SPLIT, catalog, forest, cardinality=3)
        z_mono, _, _ = solve_relaxation(built)
        assert relax.value == pytest.approx(z_mono, abs=1e-6)
        assert sum(relax.x) == pytest.approx(3.0, abs=1e-7)


class TestIntegerPhase:
    def test_greedy_gap_instance(self):
        catalog, tree = greedy_gap_tree()
        forest = single_tree_forest(tree)
        res = integer_phase(Kind.SPLIT, catalog, forest)
        assert res.optimal
        assert res.value == 20
        assert res.x.support() == {1, 2, 3}

    def test_zero_revenue_immediate(self):
        catalog = ProductCatalog(n=3, revenues=(0, 0, 0))
        forest = single_tree_forest(single_leaf_tree(0))
        res = integer_phase(Kind.SPLIT, catalog, forest)
        assert res.optimal and res.value == 0 and res.gap_pct == 0

    def test_matches_brute_force_all_kinds(self):
        for seed in range(6):
            kind_name = ["t1", "t2", "t3"][seed % 3]
            catalog, forest = seeded_instance(seed, n=10, num_trees=5, kind=kind_name)
            _, z_star = brute_force_optimal(catalog, forest)
            for kind in (Kind.LEAF, Kind.SPLIT, Kind.PRODUCT):
                relax, res = solve_two_phase(kind, catalog, forest)
                assert res.optimal
                assert res.value == float(z_star)
                assert float(
                    expected_revenue(catalog, forest, res.x)
                ) == res.value

    def test_cardinality_matches_constrained_brute_force(self):
        for seed in range(4):
            catalog, forest = seeded_instance(seed + 50)
            _, z_star = brute_force_optimal(catalog, forest, cardinality=3)
            relax, res = solve_two_phase(Kind.SPLIT, catalog, forest, cardinality=3)
            assert res.optimal
            assert len(res.x.support()) == 3
            assert res.value == float(z_star)

    def test_incumbent_value_is_model_value(self):
        catalog, forest = seeded_instance(7)
        res = integer_phase(Kind.SPLIT, catalog, forest)
        assert res.value == float(expected_revenue(catalog, forest, res.x))

    def test_node_budget_flags_partial(self):
        catalog, forest = seeded_instance(11, n=12, num_trees=8)
        res = integer_phase(
            Kind.LEAF, catalog, forest, budget=Budget(max_nodes=1)
        )
        _, z_star = brute_force_optimal(catalog, forest)
        assert res.upper_bound >= float(z_star) - 1e-9
        if not res.optimal:
            assert res.gap_pct >= 0

    def test_pool_reuse_from_relaxation(self):
        catalog, forest = seeded_instance(13)
        relax = relaxation_phase(Kind.SPLIT, catalog, forest)
        pool_size = len(relax.state.pool)
        assert pool_size > 0
        res = integer_phase(Kind.SPLIT, catalog, forest, state=relax.state)
        _, z_star = brute_force_optimal(catalog, forest)
        assert res.value == float(z_star)

    def test_relaxation_cuts_never_cut_binary_points(self):
        # every pooled cut stays above the per-tree traversal revenue
        catalog, forest = seeded_instance(2, n=8, num_trees=3)
        relax = relaxation_phase(Kind.SPLIT, catalog, forest)
        for cut in relax.state.pool:
            tree = forest.trees[cut.tree]
            for mask in range(1 << 8):
                x = tuple((mask >> (7 - i)) & 1 for i in range(8))
                _, leaf = traverse(tree, x)
                g = float(catalog.leaf_revenue(tree, leaf))
                assert evaluate_cut(cut, x) >= g - 1e-7
