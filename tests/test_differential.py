"""Differential tests against scipy's HiGHS, past the reach of brute force.

The reference formulation is built here from the tree arena (node ids,
split products, leaf options), not by ``dfopt.formulations``: x levels in
[0, 1], one weight per (tree, leaf) summing to 1 per tree, capacity rows at
the leaf, split or product granularity, and an optional cardinality row.
``linprog`` checks both relaxation solvers, ``milp`` with x binary checks
the integer optimum of every exact method.  A property over small random
LPs checks ``solve_lp`` itself against ``linprog``.
"""

import numpy as np
import pytest

pytest.importorskip("scipy")
from scipy.optimize import Bounds, LinearConstraint, linprog, milp  # noqa: E402

try:
    from hypothesis import given, settings, strategies as st
except ImportError:  # the property test is skipped
    given = None

from dfopt import build, cli, relaxation_phase, solve_relaxation  # noqa: E402
from dfopt.instancegen import GeneratorConfig, TreeShape, generate_instance  # noqa: E402
from dfopt.lp import EQ, LE, LinearProgram, solve_lp  # noqa: E402
from dfopt.model import Split  # noqa: E402

KINDS = ("leaf", "split", "product")
EXACT = [m for m in cli.METHODS if m.startswith(("monolithic:", "benders:"))]

#: (n, tree type, trees, seed); every tree has 8 leaves
INSTANCES = [
    (n, shape, trees, seed)
    for seed in (0, 1)
    for n, shape, trees in ((30, "t1", 6), (40, "t2", 7), (50, "t3", 8), (40, "t3", 6))
]
CARDINALITIES = (None, 6)


def instance(n, shape, trees, seed):
    tree_shape = TreeShape("t3", leaves=8) if shape == "t3" else TreeShape(shape, depth=3)
    return generate_instance(
        GeneratorConfig(n=n, num_trees=trees, shape=tree_shape, seed=seed)
    )


def leaf_paths(tree):
    """Leaf id -> (option, [(split id, product, went left)] from the root)."""
    out = {}
    stack = [(tree.root, [])]
    while stack:
        nid, path = stack.pop()
        node = tree.nodes[nid]
        if isinstance(node, Split):
            stack.append((node.left, path + [(nid, node.product, True)]))
            stack.append((node.right, path + [(nid, node.product, False)]))
        else:
            out[nid] = (node.option, path)
    return out


def reference(kind, catalog, forest, cardinality):
    """(cost to minimize, A, lower, upper) over columns x then leaf weights."""
    n = catalog.n
    cost = [0.0] * n
    rows, lo, hi = [], [], []  # rows as {column: coefficient}

    for tree, w in zip(forest.trees, forest.weights):
        groups = {}
        unit = {}
        for leaf, (option, path) in sorted(leaf_paths(tree).items()):
            col = len(cost)
            revenue = 0.0 if option == 0 else float(catalog.revenues[option - 1])
            cost.append(-float(w) * revenue)
            unit[col] = 1.0
            for split, product, left in path:
                key = {"leaf": (split, leaf), "split": split, "product": product}[kind]
                groups.setdefault((key, product, left), []).append(col)
        rows.append(unit)
        lo.append(1.0)
        hi.append(1.0)
        # sum of the group's weights <= x_i (left) or <= 1 - x_i (right)
        for (_, product, left), cols in groups.items():
            row = dict.fromkeys(cols, 1.0)
            row[product - 1] = -1.0 if left else 1.0
            rows.append(row)
            lo.append(-np.inf)
            hi.append(0.0 if left else 1.0)
    if cardinality is not None:
        rows.append(dict.fromkeys(range(n), 1.0))
        lo.append(float(cardinality))
        hi.append(float(cardinality))

    A = np.zeros((len(rows), len(cost)))
    for r, row in enumerate(rows):
        for j, v in row.items():
            A[r, j] = v
    return np.array(cost), A, np.array(lo), np.array(hi)


def highs_relaxation(kind, catalog, forest, cardinality):
    cost, A, lo, hi = reference(kind, catalog, forest, cardinality)
    eq = lo == hi
    res = linprog(
        cost,
        A_ub=A[~eq], b_ub=hi[~eq], A_eq=A[eq], b_eq=hi[eq],
        bounds=[(0.0, 1.0)] * catalog.n + [(0.0, None)] * (len(cost) - catalog.n),
        method="highs",
        options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10},
    )
    assert res.status == 0, res.message
    return -float(res.fun)


def highs_integer(catalog, forest, cardinality):
    # leaf granularity: with x binary every tree's weight sits on the one
    # leaf its path reaches, so the y columns need no integrality
    cost, A, lo, hi = reference("leaf", catalog, forest, cardinality)
    n = catalog.n
    res = milp(
        cost,
        constraints=LinearConstraint(A, lo, hi),
        integrality=np.r_[np.ones(n), np.zeros(len(cost) - n)],
        bounds=Bounds(np.zeros(len(cost)), np.r_[np.ones(n), np.full(len(cost) - n, np.inf)]),
        options={"mip_rel_gap": 1e-12},
    )
    assert res.status == 0, res.message
    return -float(res.fun)


@pytest.mark.parametrize("cardinality", CARDINALITIES)
@pytest.mark.parametrize("n, shape, trees, seed", INSTANCES)
def test_relaxations_match_highs(n, shape, trees, seed, cardinality):
    catalog, forest = instance(n, shape, trees, seed)
    for kind in KINDS:
        ref = highs_relaxation(kind, catalog, forest, cardinality)
        mono, _, _ = solve_relaxation(build(kind, catalog, forest, cardinality))
        assert mono == pytest.approx(ref, abs=1e-7), kind
        relax = relaxation_phase(kind, catalog, forest, cardinality)
        assert relax.value == pytest.approx(ref, abs=1e-7), kind


@pytest.mark.parametrize("cardinality", CARDINALITIES)
@pytest.mark.parametrize("n, shape, trees, seed", INSTANCES)
def test_integer_optimum_matches_highs(n, shape, trees, seed, cardinality):
    catalog, forest = instance(n, shape, trees, seed)
    ref = highs_integer(catalog, forest, cardinality)
    for method in EXACT:
        row = cli.solve_one(catalog, forest, method, cardinality=cardinality, timings=False)
        assert row["optimal"], method
        assert row["value"] == pytest.approx(ref, abs=1e-6), method


def random_lp(rng) -> LinearProgram:
    """Up to 6 x 6 with small integer data: <= rows, = rows, and >= rows
    written as the negated <= row.

    Three draws in four have a right-hand side that admits a lattice point
    inside the bounds; the rest are drawn freely and are mostly infeasible.
    Half the columns get a wide range, 10 above the lower bound.
    """
    m, n = int(rng.integers(1, 7)), int(rng.integers(1, 7))
    A = rng.integers(-3, 4, size=(m, n)).astype(float)
    kind = rng.integers(0, 3, size=m)  # 0: <=, 1: >=, 2: =
    c = rng.integers(-3, 4, size=n).astype(float)
    lb = rng.integers(-2, 1, size=n).astype(float)
    ub = lb + np.where(rng.random(n) < 0.5, 10, rng.integers(0, 4, size=n))
    if rng.random() < 0.75:
        x0 = lb + rng.integers(0, 2, size=n) * np.minimum(ub - lb, 1.0)
        room = np.array([1, -1, 0])[kind]
        b = A @ x0 + room * rng.integers(0, 3, size=m)
    else:
        b = rng.integers(-4, 5, size=m).astype(float)
    sign = np.where(kind == 1, -1.0, 1.0)
    return LinearProgram.build(
        c=c, A=A * sign[:, None], senses=[EQ if k == 2 else LE for k in kind],
        b=b * sign, lb=lb, ub=ub,
    )


def highs_lp(lp: LinearProgram) -> tuple[str, "float | None"]:
    """Status and optimum of ``lp`` by ``linprog``, on the same bounds."""
    ineq = np.array([s != EQ for s in lp.senses])
    res = linprog(
        -lp.c,
        A_ub=lp.A[ineq] if ineq.any() else None,
        b_ub=lp.b[ineq] if ineq.any() else None,
        A_eq=lp.A[~ineq] if not ineq.all() else None,
        b_eq=lp.b[~ineq] if not ineq.all() else None,
        bounds=list(zip(lp.lb, lp.ub)),
        method="highs",
    )
    assert res.status in (0, 2), res.message
    return ("optimal", -float(res.fun)) if res.status == 0 else ("infeasible", None)


def check_against_highs(seed: int) -> None:
    lp = random_lp(np.random.default_rng(seed))
    status, objective = highs_lp(lp)
    sol = solve_lp(lp)
    assert sol.status == status
    if status == "optimal":
        assert sol.objective == pytest.approx(objective, abs=1e-7)


if given is not None:

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_solve_lp_matches_highs(seed):
        check_against_highs(seed)
