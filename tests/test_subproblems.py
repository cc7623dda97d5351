"""Greedy subproblem oracles: traces, duals, closed forms, LP agreement."""

import dataclasses
from fractions import Fraction

import numpy as np
import pytest

from dfopt import subproblems
from dfopt.benders import FRACTIONAL_LP, _separate
from dfopt.errors import ContractViolation
from dfopt.formulations import Kind
from dfopt.instancegen import GeneratorConfig, TreeShape, generate_instance
from dfopt.lp import EQ, LE, LinearProgram, solve_lp
from dfopt.model import traverse
from dfopt.subproblems import (
    EVENT_C,
    DualCertificate,
    EventTrace,
    integer_cut,
    leaf_dual_greedy,
    leaf_order,
    leaf_primal_greedy,
    product_certified_sweep,
    product_greedy_sweep,
    product_subproblem_lp,
    split_dual_greedy,
    split_primal_greedy,
    tree_table,
)

from cases import (
    greedy_gap_tree,
    single_leaf_tree,
    single_tree_forest,
    thm1_fragment,
    worked_example,
    y_value,
)


def random_tree_and_x(seed, n=8, leaves=8, fractional=True):
    kind = ["t1", "t2", "t3"][seed % 3]
    shape = (
        TreeShape(kind="t3", leaves=leaves)
        if kind == "t3"
        else TreeShape(kind=kind, depth=3)
    )
    catalog, forest = generate_instance(
        GeneratorConfig(n=n, num_trees=1, shape=shape, seed=seed)
    )
    rng = np.random.default_rng(seed + 10_000)
    if fractional:
        x = tuple(float(v) for v in rng.uniform(0, 1, size=n))
    else:
        x = tuple(int(v) for v in rng.integers(0, 2, size=n))
    return catalog, forest.trees[0], x


def leaf_sub_lp(catalog, tree, x):
    leaves = tree.leaf_ids
    col = {l: j for j, l in enumerate(leaves)}
    rows, senses, rhs = [[1.0] * len(leaves)], [EQ], [1.0]
    for s in tree.split_ids:
        xv = float(x[tree.split_product(s) - 1])
        for l in tree.left_leaves[s]:
            row = [0.0] * len(leaves)
            row[col[l]] = 1.0
            rows.append(row)
            senses.append(LE)
            rhs.append(xv)
        for l in tree.right_leaves[s]:
            row = [0.0] * len(leaves)
            row[col[l]] = 1.0
            rows.append(row)
            senses.append(LE)
            rhs.append(1.0 - xv)
    c = [float(catalog.leaf_revenue(tree, l)) for l in leaves]
    # y <= 1 does not bind: the unit-sum row implies it
    return LinearProgram.build(c=c, A=rows, senses=senses, b=rhs, ub=[1.0] * len(leaves))


def split_sub_lp(catalog, tree, x, unit_sense=EQ):
    leaves = tree.leaf_ids
    col = {l: j for j, l in enumerate(leaves)}
    rows, senses, rhs = [[1.0] * len(leaves)], [unit_sense], [1.0]
    for s in tree.split_ids:
        xv = float(x[tree.split_product(s) - 1])
        row = [0.0] * len(leaves)
        for l in tree.left_leaves[s]:
            row[col[l]] = 1.0
        rows.append(row)
        senses.append(LE)
        rhs.append(xv)
        row = [0.0] * len(leaves)
        for l in tree.right_leaves[s]:
            row[col[l]] = 1.0
        rows.append(row)
        senses.append(LE)
        rhs.append(1.0 - xv)
    c = [float(catalog.leaf_revenue(tree, l)) for l in leaves]
    # y <= 1 does not bind: the unit-sum row implies it
    return LinearProgram.build(c=c, A=rows, senses=senses, b=rhs, ub=[1.0] * len(leaves))


# ---------------------------------------------------------------------------
# the worked reference example (exact arithmetic)
# ---------------------------------------------------------------------------


class TestWorkedExample:
    def test_leaf_order(self):
        catalog, tree, _, _ = worked_example()
        assert leaf_order(catalog, tree) == (
            20, 22, 30, 24, 25, 28, 29, 17, 19, 21, 23, 26, 27, 16, 18, 31,
        )

    def test_primal_trace_and_values(self):
        catalog, tree, _, x = worked_example()
        y, trace = split_primal_greedy(catalog, tree, x)
        expected = {
            20: Fraction(1, 20), 22: Fraction(1, 20), 30: Fraction(1, 20),
            24: Fraction(7, 20), 28: Fraction(3, 20), 17: Fraction(7, 20),
        }
        for l in tree.leaf_ids:
            assert y[l] == expected.get(l, 0)
        assert trace.events == (
            ("A", 10), ("A", 11), ("A", 15), ("A", 3), ("B", 1), EVENT_C,
        )
        assert trace.f[("A", 10)] == 20
        assert trace.f[("A", 11)] == 22
        assert trace.f[("A", 15)] == 30
        assert trace.f[("A", 3)] == 24
        assert trace.f[("B", 1)] == 28
        assert trace.f[EVENT_C] == 17
        assert y_value(catalog, tree, y) == Fraction(175, 2)

    def test_dual_values(self):
        catalog, tree, _, x = worked_example()
        _, trace = split_primal_greedy(catalog, tree, x)
        cert = split_dual_greedy(catalog, tree, trace)
        assert cert.gamma == 72
        assert cert.beta == {1: 17}
        assert cert.alpha == {3: 8, 10: 28, 11: 28, 15: 11}
        assert cert.objective(tree, x) == Fraction(175, 2)

    def test_dual_feasible_every_leaf(self):
        catalog, tree, _, x = worked_example()
        _, trace = split_primal_greedy(catalog, tree, x)
        cert = split_dual_greedy(catalog, tree, trace)
        slacks = cert.row_slacks(catalog, tree)
        assert all(v >= 0 for v in slacks.values())

    def test_float_path_matches(self):
        catalog, tree, x, _ = worked_example()
        y, trace = split_primal_greedy(catalog, tree, x)
        assert y_value(catalog, tree, y) == pytest.approx(87.5, abs=1e-9)
        cert = split_dual_greedy(catalog, tree, trace)
        assert cert.objective(tree, x) == pytest.approx(87.5, abs=1e-9)

    def test_agrees_with_lp(self):
        catalog, tree, x, _ = worked_example()
        sol = solve_lp(split_sub_lp(catalog, tree, x))
        assert sol.objective == pytest.approx(87.5, abs=1e-9)


# ---------------------------------------------------------------------------
# per-(split, leaf) greedy
# ---------------------------------------------------------------------------


class TestLeafGreedy:
    def test_binary_is_indicator(self):
        for seed in range(30):
            catalog, tree, x = random_tree_and_x(seed, fractional=False)
            y, trace = leaf_primal_greedy(catalog, tree, x)
            _, leaf_star = traverse(tree, x)
            assert y[leaf_star] == 1
            assert all(v == 0 for l, v in y.items() if l != leaf_star)
            assert y_value(catalog, tree, y) == catalog.leaf_revenue(tree, leaf_star)

    def test_capacity_walk_fragment(self):
        catalog, tree, x = thm1_fragment()
        y, trace = leaf_primal_greedy(catalog, tree, x)
        assert y[10] == pytest.approx(0.6)
        assert y[13] == pytest.approx(0.4)
        assert sum(y.values()) == pytest.approx(1.0)
        assert trace.f[EVENT_C] == 13

    def test_single_leaf(self):
        catalog, _, _ = thm1_fragment()
        tree = single_leaf_tree(option=3)
        y, trace = leaf_primal_greedy(catalog, tree, (0.3, 0.4, 0.5, 0.6))
        assert y == {0: 1}
        cert = leaf_dual_greedy(catalog, tree, trace)
        assert cert.gamma == 100
        assert not cert.alpha and not cert.beta

    def test_matches_lp_on_seeds(self):
        for seed in range(150):
            catalog, tree, x = random_tree_and_x(seed)
            y, trace = leaf_primal_greedy(catalog, tree, x)
            primal = float(y_value(catalog, tree, y))
            cert = leaf_dual_greedy(catalog, tree, trace)
            dual = float(cert.objective(tree, x))
            assert dual == pytest.approx(primal, rel=1e-9, abs=1e-9)
            lp_obj = solve_lp(leaf_sub_lp(catalog, tree, x)).objective
            assert primal == pytest.approx(lp_obj, rel=1e-6, abs=1e-6)

    def test_dual_requires_c_event(self):
        catalog, tree, x = thm1_fragment()
        _, trace = leaf_primal_greedy(catalog, tree, x)
        broken = type(trace)(
            kind=trace.kind,
            events=tuple(e for e in trace.events if e != EVENT_C),
            f={k: v for k, v in trace.f.items() if k != EVENT_C},
        )
        with pytest.raises(ContractViolation):
            leaf_dual_greedy(catalog, tree, broken)

    def test_binary_matches_closed_form(self):
        # both paths produce optimal duals: same gamma and same objective
        # (the multiplier vectors may differ on zero-valued capacity rows)
        for seed in range(60):
            catalog, tree, x = random_tree_and_x(seed, fractional=False)
            y, trace = leaf_primal_greedy(catalog, tree, x)
            cert_greedy = leaf_dual_greedy(catalog, tree, trace)
            value, cert_closed = integer_cut("leaf", catalog, tree, x)
            assert cert_greedy.gamma == cert_closed.gamma == value
            assert cert_greedy.objective(tree, x) == value
            assert cert_closed.objective(tree, x) == value
            for cert in (cert_greedy, cert_closed):
                assert all(v >= 0 for v in cert.alpha.values())
                assert all(v >= 0 for v in cert.beta.values())
                assert all(v >= 0 for v in cert.row_slacks(catalog, tree).values())


# ---------------------------------------------------------------------------
# per-split greedy
# ---------------------------------------------------------------------------


class TestSplitGreedy:
    def test_binary_is_indicator(self):
        for seed in range(30):
            catalog, tree, x = random_tree_and_x(seed, fractional=False)
            y, _ = split_primal_greedy(catalog, tree, x)
            _, leaf_star = traverse(tree, x)
            assert y[leaf_star] == 1
            assert sum(y.values()) == 1

    def test_matches_lp_on_seeds(self):
        for seed in range(150):
            catalog, tree, x = random_tree_and_x(seed)
            y, trace = split_primal_greedy(catalog, tree, x)
            primal = float(y_value(catalog, tree, y))
            cert = split_dual_greedy(catalog, tree, trace)
            dual = float(cert.objective(tree, x))
            assert dual == pytest.approx(primal, rel=1e-9, abs=1e-9)
            lp_obj = solve_lp(split_sub_lp(catalog, tree, x)).objective
            assert primal == pytest.approx(lp_obj, rel=1e-6, abs=1e-6)

    def test_primal_feasibility(self):
        for seed in range(60):
            catalog, tree, x = random_tree_and_x(seed)
            y, _ = split_primal_greedy(catalog, tree, x)
            assert sum(y.values()) == pytest.approx(1.0, abs=1e-9)
            for s in tree.split_ids:
                xv = x[tree.split_product(s) - 1]
                assert sum(y[l] for l in tree.left_leaves[s]) <= xv + 1e-9
                assert sum(y[l] for l in tree.right_leaves[s]) <= 1 - xv + 1e-9

    def test_dual_rejects_event_off_its_leaf_path(self):
        catalog, _, _ = thm1_fragment()
        tree = single_leaf_tree(option=3)
        _, trace = split_primal_greedy(catalog, tree, (0.3, 0.4, 0.5, 0.6))
        stray = ("A", 0)
        broken = type(trace)(
            kind=trace.kind,
            events=(stray,) + trace.events,
            f={stray: 0, **trace.f},
        )
        with pytest.raises(ContractViolation):
            split_dual_greedy(catalog, tree, broken)

    def test_dual_feasibility_and_complementary_slackness(self):
        for seed in range(100):
            catalog, tree, x = random_tree_and_x(seed)
            y, trace = split_primal_greedy(catalog, tree, x)
            cert = split_dual_greedy(catalog, tree, trace)
            assert all(v >= -1e-9 for v in cert.alpha.values())
            assert all(v >= -1e-9 for v in cert.beta.values())
            slacks = cert.row_slacks(catalog, tree)
            assert all(v >= -1e-9 for v in slacks.values())
            # complementary slackness: y_l > 0 forces a tight dual row
            for l, w in y.items():
                if w > 1e-9:
                    assert abs(slacks[l]) < 1e-9 * (1 + abs(slacks[l]))
            for s, a in cert.alpha.items():
                if a > 1e-9:
                    used = sum(y[l] for l in tree.left_leaves[s])
                    assert used == pytest.approx(
                        x[tree.split_product(s) - 1], abs=1e-9
                    )
            for s, b in cert.beta.items():
                if b > 1e-9:
                    used = sum(y[l] for l in tree.right_leaves[s])
                    assert used == pytest.approx(
                        1 - x[tree.split_product(s) - 1], abs=1e-9
                    )

    def test_event_revenue_monotone_along_paths(self):
        # an ancestor event never carries a higher-revenue leaf than a
        # descendant event whose leaf sits on the side the ancestor exhausted
        # (the inequality the dual construction's subtractions rely on)
        for seed in range(80):
            catalog, tree, x = random_tree_and_x(seed)
            _, trace = split_primal_greedy(catalog, tree, x)
            split_events = [e for e in trace.events if e != EVENT_C]
            for e1 in split_events:
                s1 = e1[1]
                blocked = (
                    tree.left_leaves[s1] if e1[0] == "A" else tree.right_leaves[s1]
                )
                for e2 in split_events:
                    s2 = e2[1]
                    if s2 == s1 or trace.f[e2] not in blocked:
                        continue
                    if tree.depth[s2] > tree.depth[s1]:
                        r1 = catalog.leaf_revenue(tree, trace.f[e1])
                        r2 = catalog.leaf_revenue(tree, trace.f[e2])
                        assert r1 <= r2

    def test_extreme_point_on_small_trees(self):
        # active-constraint count certifies the greedy point is a vertex
        for seed in range(20):
            catalog, tree, x = random_tree_and_x(seed, n=6, leaves=4)
            y, _ = split_primal_greedy(catalog, tree, x)
            lp = split_sub_lp(catalog, tree, x)
            point = np.array([float(y[l]) for l in tree.leaf_ids])
            rows = [lp.A[i] for i in range(lp.num_rows) if abs(lp.A[i] @ point - lp.b[i]) < 1e-9]
            for j, v in enumerate(point):
                if abs(v) < 1e-12:
                    e = np.zeros(len(point))
                    e[j] = 1.0
                    rows.append(e)
            rank = np.linalg.matrix_rank(np.array(rows), tol=1e-9)
            assert rank == len(tree.leaf_ids)


# ---------------------------------------------------------------------------
# closed-form cuts at binary points
# ---------------------------------------------------------------------------


class TestIntegerCut:
    def test_all_ones_pattern(self):
        for seed in range(20):
            catalog, tree, _ = random_tree_and_x(seed)
            x = (1,) * catalog.n
            _, leaf_star = traverse(tree, x)
            r_star = catalog.leaf_revenue(tree, leaf_star)
            value, cert = integer_cut("split", catalog, tree, x)
            assert value == r_star
            assert cert.gamma == r_star
            assert not cert.alpha  # no split was crossed to the right
            for s, went_left in tree.path[leaf_star]:
                assert went_left  # every product is offered
                expect = max(
                    catalog.leaf_revenue(tree, l) for l in tree.right_leaves[s]
                ) - r_star
                if expect > 0:
                    assert cert.beta[s] == expect
                else:
                    assert s not in cert.beta

    def test_split_cut_matches_greedy_pair(self):
        for seed in range(100):
            catalog, tree, x = random_tree_and_x(seed, fractional=False)
            value, cert = integer_cut("split", catalog, tree, x)
            y, trace = split_primal_greedy(catalog, tree, x)
            assert y_value(catalog, tree, y) == value
            assert split_dual_greedy(catalog, tree, trace).objective(
                tree, x
            ) == value
            assert cert.objective(tree, x) == value

    def test_cut_validity_over_cube(self):
        # every cut overestimates the traversal revenue at every binary point
        for seed in range(12):
            catalog, tree, x0 = random_tree_and_x(seed, n=6, leaves=8, fractional=False)
            for kind in ("leaf", "split", "product"):
                _, cert = integer_cut(kind, catalog, tree, x0)
                for mask in range(1 << 6):
                    x = tuple((mask >> (5 - i)) & 1 for i in range(6))
                    option, leaf = traverse(tree, x)
                    g = catalog.leaf_revenue(tree, leaf)
                    assert float(cert.objective(tree, x)) >= float(g) - 1e-9

    def test_fractional_input_rejected(self):
        catalog, tree, _ = random_tree_and_x(0)
        with pytest.raises(ContractViolation):
            integer_cut("split", catalog, tree, (0.5,) * catalog.n)

# ---------------------------------------------------------------------------
# per-product subproblem
# ---------------------------------------------------------------------------


class TestProductSubproblem:
    def test_greedy_fails_lp_succeeds(self):
        catalog, tree = greedy_gap_tree()
        x = (Fraction(1, 2), Fraction(1, 2), Fraction(1, 2))
        value, cert, sol = product_subproblem_lp(catalog, tree, x)
        assert value == pytest.approx(18.5, abs=1e-9)
        _, sweep_value = product_greedy_sweep(catalog, tree, x)
        assert sweep_value == Fraction(10)
        y = {l: sol.x[j] for j, l in enumerate(tree.leaf_ids)}
        assert y[7] == pytest.approx(0.5) and y[10] == pytest.approx(0.5)

    def test_binary_matches_traversal(self):
        for seed in range(30):
            catalog, tree, x = random_tree_and_x(seed, fractional=False)
            value, cert, _ = product_subproblem_lp(catalog, tree, x)
            _, leaf_star = traverse(tree, x)
            assert value == pytest.approx(
                float(catalog.leaf_revenue(tree, leaf_star)), abs=1e-9
            )
            closed_value, _ = integer_cut("product", catalog, tree, x)
            assert value == pytest.approx(float(closed_value), abs=1e-9)

    def test_dominated_by_split_value(self):
        for seed in range(100):
            catalog, tree, x = random_tree_and_x(seed)
            v_prod, _, _ = product_subproblem_lp(catalog, tree, x)
            y, _ = split_primal_greedy(catalog, tree, x)
            v_split = float(y_value(catalog, tree, y))
            assert v_prod <= v_split + 1e-7

    def test_dual_cert_tight_and_feasible(self):
        for seed in range(40):
            catalog, tree, x = random_tree_and_x(seed)
            value, cert, _ = product_subproblem_lp(catalog, tree, x)
            assert float(cert.objective(tree, x)) == pytest.approx(value, abs=1e-7)
            slacks = cert.row_slacks(catalog, tree)
            assert all(float(v) >= -1e-7 for v in slacks.values())


class TestProductCertifiedSweep:
    def test_accepted_pairs_match_the_lp(self):
        accepted = 0
        for seed in range(150):  # t1, t2, t3 in turn
            catalog, tree, x = random_tree_and_x(seed)
            found = product_certified_sweep(catalog, tree, x)
            if found is None:
                continue
            accepted += 1
            value, cert = found
            lp_value, _, _ = product_subproblem_lp(catalog, tree, x)
            assert float(value) == pytest.approx(lp_value, abs=1e-9)
            assert all(v >= -1e-9 for v in cert.row_slacks(catalog, tree).values())
        assert accepted >= 100

    def test_greedy_gap_is_refused_and_the_lp_decides(self):
        catalog, tree = greedy_gap_tree()
        x = (Fraction(1, 2),) * 3
        assert product_certified_sweep(catalog, tree, x) is None
        [(value, cert, prov)] = _separate(
            Kind.PRODUCT, catalog, single_tree_forest(tree), x
        )
        assert value == pytest.approx(18.5, abs=1e-9)
        assert prov == FRACTIONAL_LP
        assert float(cert.objective(tree, x)) == pytest.approx(18.5, abs=1e-9)

    def test_fraction_inputs_give_an_exact_certificate(self):
        accepted = 0
        for seed in range(60):
            catalog, tree, x = random_tree_and_x(seed)
            x = tuple(Fraction(round(v * 8), 8) for v in x)
            found = product_certified_sweep(catalog, tree, x)
            if found is None:
                continue
            accepted += 1
            value, cert = found
            assert isinstance(value, (int, Fraction))
            assert cert.objective(tree, x) == value
            assert all(v >= 0 for v in cert.row_slacks(catalog, tree).values())
            lp_value, _, _ = product_subproblem_lp(catalog, tree, x)
            assert float(value) == pytest.approx(lp_value, abs=1e-9)
        assert accepted >= 30

    def test_a_sweep_without_the_unit_sum_event_is_refused(self, monkeypatch):
        catalog, tree, x = random_tree_and_x(1)
        real = subproblems._sweep

        def short(table, x):
            y, trace = real(table, x)
            f = {ev: l for ev, l in trace.f.items() if ev != EVENT_C}
            return y, EventTrace(trace.kind, trace.events[:-1], f, table)

        monkeypatch.setattr(subproblems, "_sweep", short)
        assert product_certified_sweep(catalog, tree, x) is None

    def test_a_negative_multiplier_is_refused(self, monkeypatch):
        # Lowering alpha_i and beta_i of the root's product by d and raising
        # gamma by d leaves every leaf's dual row and the objective as they
        # were, so only the sign check can refuse the shifted dual.
        catalog, tree, x = random_tree_and_x(1)
        value, cert = product_certified_sweep(catalog, tree, x)
        i = tree.split_product(tree.root)
        d = 1 + cert.alpha.get(i, 0) + cert.beta.get(i, 0)
        alpha = {**cert.alpha, i: cert.alpha.get(i, 0) - d}
        beta = {**cert.beta, i: cert.beta.get(i, 0) - d}
        shifted = DualCertificate(cert.kind, alpha, beta, cert.gamma + d)
        assert shifted.objective(tree, x) == pytest.approx(value, abs=1e-9)
        assert shifted.row_slacks(catalog, tree) == pytest.approx(
            cert.row_slacks(catalog, tree)
        )
        monkeypatch.setattr(subproblems, "_replay", lambda table, trace: shifted)
        assert product_certified_sweep(catalog, tree, x) is None


# ---------------------------------------------------------------------------
# one oracle table per tree and granularity
# ---------------------------------------------------------------------------


def _with_table(oracle):
    return lambda catalog, tree, x, table: oracle(catalog, tree, x, table=table)


def _replayed(primal, dual):
    """A dual greedy, reading ``table`` through the trace it replays."""

    def call(catalog, tree, x, table):
        _, trace = primal(catalog, tree, x)
        return dual(catalog, tree, dataclasses.replace(trace, table=table))

    return call


def _cut(kind):
    return lambda catalog, tree, x, table: integer_cut(kind, catalog, tree, x, table=table)


TABLE_ORACLES = {
    "leaf_primal_greedy": (Kind.LEAF, _with_table(leaf_primal_greedy)),
    "leaf_dual_greedy": (Kind.LEAF, _replayed(leaf_primal_greedy, leaf_dual_greedy)),
    "split_primal_greedy": (Kind.SPLIT, _with_table(split_primal_greedy)),
    "split_dual_greedy": (Kind.SPLIT, _replayed(split_primal_greedy, split_dual_greedy)),
    "product_certified_sweep": (Kind.PRODUCT, _with_table(product_certified_sweep)),
    **{f"integer_cut-{kind.value}": (kind, _cut(kind)) for kind in Kind},
}


@pytest.mark.parametrize("name", TABLE_ORACLES)
def test_a_table_serves_only_its_kind_and_tree(name):
    kind, oracle = TABLE_ORACLES[name]
    catalog, tree, _ = random_tree_and_x(4, n=6)
    _, other, _ = random_tree_and_x(5, n=6)
    points = [tuple((mask >> i) & 1 for i in range(6)) for mask in range(1 << 6)]
    if not name.startswith("integer_cut"):
        for seed in range(8):
            x = random_tree_and_x(seed, n=6)[2]
            points += [x, tuple(Fraction(round(v * 8), 8) for v in x)]
    table = tree_table(kind, catalog, tree)
    for x in points:
        assert repr(oracle(catalog, tree, x, table)) == repr(
            oracle(catalog, tree, x, None)
        )
    other_kind = list(Kind)[(list(Kind).index(kind) + 1) % len(Kind)]
    for wrong, at in ((tree_table(other_kind, catalog, tree), tree), (table, other)):
        with pytest.raises(ContractViolation, match="^table of another kind or tree$"):
            oracle(catalog, at, points[0], wrong)

