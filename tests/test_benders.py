"""Two-phase decomposition: cuts, relaxation fixpoint, lazy-cut B&B."""

import numpy as np
import pytest

from dfopt import benders, lp, subproblems
from dfopt.benders import (
    Budget,
    branch_and_bound_monolithic,
    cut_from_certificate,
    integer_phase,
    relaxation_phase,
    solve_two_phase,
)
from dfopt.errors import DomainError, IterationLimitError, SolverError
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
        assert cut.value_at(x) == pytest.approx(87.5)

    def test_tight_at_generation_point(self):
        for seed in range(40):
            catalog, forest = seeded_instance(seed, num_trees=3)
            rng_mask = (seed * 2654435761) % (1 << catalog.n)
            x = tuple((rng_mask >> i) & 1 for i in range(catalog.n))
            for t, tree in enumerate(forest.trees):
                for kind in ("leaf", "split", "product"):
                    g, cert = integer_cut(kind, catalog, tree, x)
                    cut = cut_from_certificate(cert, tree, t, catalog.n, "closed")
                    assert cut.value_at(x) == pytest.approx(float(g), abs=1e-9)

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
                        assert cut.value_at(x) >= g - 1e-9


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
        master = relax.state.lp
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

    @pytest.mark.xfail(
        strict=True,
        raises=SolverError,
        reason="the dual simplex reaches its iteration limit on a master LP",
    )
    def test_paper_scale_leaf(self):
        # t3, n = 100, 20 trees, 32 leaves: the relaxation must equal the
        # monolithic `leaf` LP of the same instance, whose optimum HiGHS
        # (scipy.optimize.linprog, method="highs") gives as below
        catalog, forest = generate_instance(
            GeneratorConfig(n=100, num_trees=20, shape=TreeShape("t3", leaves=32), seed=1)
        )
        relax = relaxation_phase(Kind.LEAF, catalog, forest)
        assert relax.value == pytest.approx(90.21445977049366, abs=1e-6)


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
                assert cut.value_at(x) >= g - 1e-7


def rebuilt_master(catalog, forest, state) -> lp.LinearProgram:
    """The master the pool defines, built row by row: the cardinality row,
    then one row per pooled cut in pool order."""
    n, k = catalog.n, len(forest.trees)
    c = np.zeros(n + k)
    c[n:] = [float(w) for w in forest.weights]
    rows, senses, rhs = [], [], []
    if state.cardinality is not None:
        row = np.zeros(n + k)
        row[:n] = 1.0
        rows.append(row)
        senses.append(lp.EQ)
        rhs.append(float(state.cardinality))
    for cut in state.pool:
        row = np.zeros(n + k)
        row[:n] = [-v for v in cut.coef]
        row[n + cut.tree] = 1.0
        rows.append(row)
        senses.append(lp.LE)
        rhs.append(cut.const)
    theta_ub = [
        max(float(catalog.leaf_revenue(tree, l)) for l in tree.leaf_ids)
        for tree in forest.trees
    ]
    A = np.array(rows) if rows else np.zeros((0, n + k))
    return lp.LinearProgram.build(
        c=c, A=A, senses=senses, b=rhs, lb=np.zeros(n + k),
        ub=np.concatenate([np.ones(n), theta_ub]),
    )


def assert_same_lp(got, want):
    assert got.senses == want.senses
    for name in ("A", "b", "c", "lb", "ub"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), name


@pytest.mark.parametrize(
    "kind, seed, cardinality",
    [(Kind.LEAF, 2, 3), (Kind.SPLIT, 2, 3), (Kind.PRODUCT, 1, None)],
)
def test_master_lp_matches_the_pool(kind, seed, cardinality):
    # the appended master equals the one rebuilt from the pool, bit for bit,
    # after the relaxation and again after lazy cuts
    catalog, forest = seeded_instance(seed, "t1", n=10, num_trees=6)
    relax = relaxation_phase(kind, catalog, forest, cardinality)
    assert_same_lp(relax.state.lp, rebuilt_master(catalog, forest, relax.state))
    res = integer_phase(kind, catalog, forest, state=relax.state)
    assert res.optimal and res.cuts_added > 0
    assert_same_lp(relax.state.lp, rebuilt_master(catalog, forest, relax.state))


@pytest.mark.parametrize(
    "limits",
    [
        {"max_seconds": float("nan")},
        {"max_seconds": float("inf")},
        {"max_seconds": -1.0},
        {"max_seconds": "60"},
        {"max_nodes": -1},
        {"max_nodes": 2.5},
        {"max_nodes": True},
    ],
    ids=["nan-sec", "inf-sec", "negative-sec", "text-sec", "negative-nodes",
         "fractional-nodes", "bool-nodes"],
)
def test_budget_refuses_what_no_search_could_run_under(limits):
    with pytest.raises(DomainError, match="budget max_"):
        Budget(**limits)


def _run_driver(driver, catalog, forest, budget=None):
    if driver == "integer_phase":
        return integer_phase(Kind.LEAF, catalog, forest, budget=budget)
    built = build(Kind.LEAF, catalog, forest)
    return branch_and_bound_monolithic(built, catalog, forest, budget=budget)


@pytest.fixture(scope="module")
def budget_instance():
    """n=12, 8 trees: both drivers need more than 5 nodes on its leaf form."""
    catalog, forest = seeded_instance(3, n=12, num_trees=8)
    _, z_star = brute_force_optimal(catalog, forest)
    full = {
        driver: _run_driver(driver, catalog, forest)
        for driver in ("integer_phase", "monolithic")
    }
    return catalog, forest, float(z_star), full


class TestNodeBudget:
    @pytest.mark.parametrize("driver", ["integer_phase", "monolithic"])
    @pytest.mark.parametrize("max_nodes", [0, 1, 2, 5, 10_000])
    def test_budget_brackets_the_optimum(self, budget_instance, driver, max_nodes):
        catalog, forest, z_star, full = budget_instance
        assert full[driver].optimal and full[driver].nodes > 5
        res = _run_driver(driver, catalog, forest, Budget(max_nodes=max_nodes))
        if max_nodes == 0:
            assert res.x is None and not res.optimal
            assert res.value == float("-inf") and res.upper_bound == float("inf")
            return
        assert res.value <= z_star <= res.upper_bound
        assert res.nodes <= max_nodes
        if max_nodes == 10_000:
            ref = full[driver]
            assert res.optimal
            assert (res.value, res.x, res.nodes) == (ref.value, ref.x, ref.nodes)


START_GRID = [
    (seed, shape) for seed in range(4) for shape in ("t1", "t2", "t3")
]


class TestMonolithicStartBasis:
    """Cold monolithic LPs start from ``BuiltFormulation.start_basis``."""

    @pytest.mark.parametrize("cardinality", [None, 0, 3])
    @pytest.mark.parametrize("kind", list(Kind))
    def test_start_is_accepted(self, monkeypatch, kind, cardinality):
        # the root is the only node that does not start from its parent
        roots = record_solves(monkeypatch, benders, "solve_lp_multi")
        for seed, shape in START_GRID:
            catalog, forest = seeded_instance(seed, shape, n=12, num_trees=10)
            built = build(kind, catalog, forest, cardinality)
            start = built.start_basis()
            sim = lp._Simplex(built.lp, start.basic, start.at_upper)
            assert sim._priced_out(sim._reduced_costs(sim.c)).size == 0
            # every column is boxed, so placing the columns makes the slack
            # basis dual feasible too
            sim = lp._Simplex(built.lp)
            assert sim.place().size == 0
            assert sim._priced_out(sim._reduced_costs(sim.c)).size == 0
            roots.clear()
            branch_and_bound_monolithic(built, catalog, forest, Budget(max_nodes=1))
            assert len(roots) == 1 and roots[0][1].warm

    @pytest.mark.parametrize("cardinality", [None, 0, 3])
    @pytest.mark.parametrize("kind", list(Kind))
    def test_relaxation_matches_the_slack_basis_solve(self, kind, cardinality):
        for seed, shape in START_GRID:
            catalog, forest = seeded_instance(seed, shape, n=12, num_trees=10)
            built = build(kind, catalog, forest, cardinality)
            z, _, _ = solve_relaxation(built)
            cold = lp.solve_lp(built.lp)
            assert not cold.warm
            assert abs(z - cold.objective) <= 1e-9

    def test_tied_best_leaves_start_from_the_smallest_id(self):
        # leaves 20, 22 and 30 all offer product 5, the best revenue (100)
        catalog, tree, _, _ = worked_example()
        best = [l for l in tree.leaf_ids if catalog.leaf_revenue(tree, l) == 100]
        assert best == [20, 22, 30]
        built = build(Kind.SPLIT, catalog, single_tree_forest(tree))
        assert built.start_basis().basic[built.unit_rows[0]] == built.y_cols[(0, 20)]
        _, _, start = subproblems.tree_table(Kind.PRODUCT, catalog, tree).product_lp
        assert tree.leaf_ids[start.basic[0]] == 20


def record_solves(monkeypatch, module, name):
    """Replace ``module.name`` with a wrapper that logs (kwargs, solution)."""
    calls = []
    real = getattr(module, name)

    def wrapper(lp_, *args, **kwargs):
        sol = real(lp_, *args, **kwargs)
        calls.append((kwargs, sol))
        return sol

    monkeypatch.setattr(module, name, wrapper)
    return calls


WARM_INSTANCES = [(seed, card) for seed in (1, 2, 3) for card in (None, 3)]


class TestWarmStartsServe:
    """Every re-solve starts from the basis it is handed, never from a silent
    cold fallback (``LpSolution.warm``)."""

    @pytest.mark.parametrize("seed, cardinality", WARM_INSTANCES)
    @pytest.mark.parametrize("kind", list(Kind))
    def test_relaxation_masters_after_round_one(
        self, monkeypatch, kind, seed, cardinality
    ):
        catalog, forest = seeded_instance(seed, "t1", n=10, num_trees=6)
        masters = record_solves(monkeypatch, benders, "solve_lp")
        relax = relaxation_phase(kind, catalog, forest, cardinality)
        assert [sol.warm for _, sol in masters] == [False] + [True] * (relax.rounds - 1)

    @pytest.mark.parametrize("cardinality", [None, 0, 3])
    @pytest.mark.parametrize("kind", list(Kind))
    def test_round_one_master_starts_dual_feasible(self, monkeypatch, kind, cardinality):
        # x and theta are boxed: placed at the bounds their reduced costs
        # prefer, they make the slack basis dual feasible for the cold
        # round-1 master
        catalog, forest = seeded_instance(1, "t1", n=10, num_trees=6)
        sim = lp._Simplex(benders._master_state(catalog, forest, cardinality).lp)
        assert sim.place().size == 0
        assert sim._priced_out(sim._reduced_costs(sim.c)).size == 0
        masters = record_solves(monkeypatch, benders, "solve_lp")
        relaxation_phase(kind, catalog, forest, cardinality)
        assert not masters[0][1].warm

    @pytest.mark.parametrize("seed, cardinality", WARM_INSTANCES)
    def test_product_oracle_after_first_call(self, monkeypatch, seed, cardinality):
        # The certified sweep separates most points, so a tree's product LP
        # runs only where that check fails: first from the tree's best-leaf
        # basis, then from the tree's previous LP basis.
        catalog, forest = seeded_instance(seed, "t1", n=10, num_trees=6)
        solves = record_solves(monkeypatch, subproblems, "solve_lp")
        calls = []
        real = benders.product_subproblem_lp

        def oracle(catalog, tree, x, warm=None, *, table=None):
            value, cert, sol = real(catalog, tree, x, warm, table=table)
            calls.append((tree, warm, sol))
            return value, cert, sol

        monkeypatch.setattr(benders, "product_subproblem_lp", oracle)
        relax = relaxation_phase(Kind.PRODUCT, catalog, forest, cardinality)
        assert 0 < len(solves) == len(calls) < len(forest.trees) * relax.rounds
        last = {}
        for tree, warm, sol in calls:
            assert warm is last.get(id(tree))
            assert sol.warm
            last[id(tree)] = sol.basis

    @pytest.mark.parametrize("seed, cardinality", WARM_INSTANCES)
    @pytest.mark.parametrize("kind", list(Kind))
    def test_integer_phase_children_and_lazy_resolves(
        self, monkeypatch, kind, seed, cardinality
    ):
        catalog, forest = seeded_instance(seed, "t1", n=10, num_trees=6)
        relax = relaxation_phase(kind, catalog, forest, cardinality)
        roots = record_solves(monkeypatch, benders, "solve_lp_multi")
        nodes = record_solves(monkeypatch, benders, "solve_lp")
        res = integer_phase(kind, catalog, forest, state=relax.state, budget=None)
        # the root continues from the relaxation's final master basis
        assert len(roots) == 1 and roots[0][1].warm and roots[0][1].pivots == 0
        assert len(roots) + len(nodes) >= res.nodes
        assert all(kw["warm"] is not None and sol.warm for kw, sol in nodes)

    @pytest.mark.parametrize("seed, cardinality", WARM_INSTANCES)
    @pytest.mark.parametrize("kind", list(Kind))
    def test_monolithic_children(self, monkeypatch, kind, seed, cardinality):
        catalog, forest = seeded_instance(seed, "t1", n=10, num_trees=6)
        built = build(kind, catalog, forest, cardinality)
        roots = record_solves(monkeypatch, benders, "solve_lp_multi")
        children = record_solves(monkeypatch, benders, "solve_lp")
        res = branch_and_bound_monolithic(built, catalog, forest)
        assert len(roots) == 1 and roots[0][1].warm
        assert len(children) == res.nodes - 1
        assert all(kw["warm"] is not None and sol.warm for kw, sol in children)


@pytest.mark.parametrize(
    "call",
    [
        lambda c, f: build("bogus", c, f),
        lambda c, f: relaxation_phase("bogus", c, f),
        lambda c, f: integer_phase("bogus", c, f),
        lambda c, f: integer_cut("bogus", c, f.trees[0], (0,) * c.n),
    ],
    ids=["build", "relaxation_phase", "integer_phase", "integer_cut"],
)
def test_unknown_kind_is_a_domain_error(call):
    catalog, forest = seeded_instance(0, n=6, num_trees=2)
    with pytest.raises(DomainError, match="unknown kind 'bogus'"):
        call(catalog, forest)
