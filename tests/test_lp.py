"""Simplex solver: fixtures, random-LP oracle comparison, duals, warm starts."""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from dfopt import lp as lp_module
from dfopt.errors import ValidationError
from dfopt.lp import (
    EQ,
    GE,
    LE,
    LinearProgram,
    WarmBasis,
    lp_to_text,
    solve_lp,
    solve_lp_multi,
    solve_lp_with_basis,
    verify_solution_exact,
)


def enumerate_vertices_best(lp: LinearProgram) -> float:
    """Independent oracle: best objective over all basic feasible points.

    Enumerates every choice of n active hyperplanes among rows-as-equalities
    and finite bounds, solves the square systems in one batch, and filters by
    feasibility. Only for small LPs with <= rows.
    """
    m, n = lp.A.shape
    normals = [lp.A[i] for i in range(m)]
    rhs = [lp.b[i] for i in range(m)]
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        normals.append(e.copy())
        rhs.append(lp.lb[j])
        if np.isfinite(lp.ub[j]):
            normals.append(e.copy())
            rhs.append(lp.ub[j])
    normals = np.array(normals)
    rhs = np.array(rhs)
    combos = np.array(list(itertools.combinations(range(len(normals)), n)))
    mats = normals[combos]  # (k, n, n)
    vecs = rhs[combos]  # (k, n)
    dets = np.linalg.det(mats)
    ok = np.abs(dets) > 1e-10
    points = np.full((len(combos), n), np.nan)
    points[ok] = np.linalg.solve(mats[ok], vecs[ok][..., None])[..., 0]
    feas = ok.copy()
    feas &= np.all(points >= lp.lb - 1e-9, axis=1) | ~ok
    feas &= np.all(points <= lp.ub + 1e-9, axis=1) | ~ok
    feas &= np.all(points @ lp.A.T <= lp.b + 1e-9, axis=1) | ~ok
    assert feas.any(), "oracle found no feasible vertex"
    return float(np.max(points[feas] @ lp.c))


def random_le_lp(rng, m=5, n=8) -> LinearProgram:
    A = rng.normal(size=(m, n))
    x0 = rng.uniform(0.1, 0.9, size=n)
    b = A @ x0 + rng.uniform(0.05, 1.0, size=m)
    c = rng.normal(size=n)
    ub = np.full(n, 1.0)
    return LinearProgram.build(c=c, A=A, senses=[LE] * m, b=b, ub=ub)


class TestBasics:
    def test_single_variable(self):
        lp = LinearProgram.build(c=[1.0], A=[[1.0]], senses=[LE], b=[1.0])
        sol = solve_lp(lp)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(1.0)
        assert sol.x[0] == pytest.approx(1.0)

    def test_equality_row(self):
        lp = LinearProgram.build(
            c=[1.0, 2.0], A=[[1.0, 1.0]], senses=[EQ], b=[1.0], ub=[1.0, 1.0]
        )
        sol = solve_lp(lp)
        assert sol.objective == pytest.approx(2.0)
        assert sol.x[1] == pytest.approx(1.0)

    def test_ge_row(self):
        lp = LinearProgram.build(
            c=[-1.0], A=[[1.0]], senses=[GE], b=[0.25], ub=[1.0]
        )
        sol = solve_lp(lp)
        assert sol.objective == pytest.approx(-0.25)

    def test_infeasible(self):
        lp = LinearProgram.build(
            c=[1.0], A=[[1.0], [1.0]], senses=[LE, GE], b=[0.2, 0.5], ub=[1.0]
        )
        assert solve_lp(lp).status == "infeasible"

    def test_unbounded(self):
        lp = LinearProgram.build(c=[1.0], A=[[-1.0]], senses=[LE], b=[0.0])
        assert solve_lp(lp).status == "unbounded"

    def test_validation(self):
        with pytest.raises(ValidationError):
            LinearProgram.build(c=[1.0], A=[[1.0]], senses=[LE], b=[np.inf])

    def test_empty_rows(self):
        lp = LinearProgram.build(
            c=[3.0, -1.0],
            A=np.zeros((0, 2)),
            senses=[],
            b=[],
            ub=[2.0, 1.0],
        )
        sol = solve_lp(lp)
        assert sol.objective == pytest.approx(6.0)


class TestGreedyGapLp:
    """The 6-variable fixture whose optimum is exactly 18.5."""

    def build(self):
        A = [
            [1, 1, 1, 1, 0, 0],
            [0, 0, 0, 0, 1, 1],
            [1, 1, 0, 0, 0, 0],
            [0, 0, 1, 1, 0, 0],
            [1, 0, 1, 0, 1, 0],
            [0, 1, 0, 1, 0, 1],
        ]
        c = [20, 19, 18, 0, 18, 0]
        return LinearProgram.build(
            c=c, A=A, senses=[LE] * 6, b=[0.5] * 6
        )

    def test_value_and_point(self):
        sol = solve_lp(self.build())
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(18.5, abs=1e-9)
        assert np.allclose(sol.x, [0, 0.5, 0, 0, 0.5, 0], atol=1e-9)

    def test_exact_refactorization(self):
        lp = self.build()
        sol = solve_lp(lp)
        exact = verify_solution_exact(lp, sol)
        assert exact["feasible"] and exact["optimal"]
        assert exact["objective"] == Fraction(37, 2)


class TestVertexOracle:
    def test_small_random(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            lp = random_le_lp(rng, m=3, n=4)
            sol = solve_lp(lp)
            assert sol.status == "optimal"
            assert sol.objective == pytest.approx(
                enumerate_vertices_best(lp), abs=1e-8
            )

    def test_five_by_eight(self):
        rng = np.random.default_rng(11)
        for _ in range(8):
            lp = random_le_lp(rng, m=5, n=8)
            sol = solve_lp(lp)
            assert sol.status == "optimal"
            assert sol.objective == pytest.approx(
                enumerate_vertices_best(lp), abs=1e-8
            )


class TestDuals:
    def assert_kkt(self, lp, sol):
        # strong duality with bound terms
        assert sol.objective == pytest.approx(
            sol.dual_objective(lp), abs=1e-6 * (1 + abs(sol.objective))
        )
        # complementary slackness on rows
        resid = lp.b - lp.A @ sol.x
        for i, s in enumerate(lp.senses):
            assert abs(sol.duals[i] * resid[i]) < 1e-7
            if s == LE:
                assert sol.duals[i] >= -1e-9
            elif s == GE:
                assert sol.duals[i] <= 1e-9
        # reduced-cost signs at bounds (maximization)
        for j in range(lp.num_cols):
            rc = sol.reduced_costs[j]
            at_lb = abs(sol.x[j] - lp.lb[j]) < 1e-9
            at_ub = np.isfinite(lp.ub[j]) and abs(sol.x[j] - lp.ub[j]) < 1e-9
            if not at_lb and not at_ub:
                assert abs(rc) < 1e-7

    def test_random_kkt(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            lp = random_le_lp(rng, m=4, n=6)
            sol = solve_lp(lp)
            self.assert_kkt(lp, sol)

    def test_mixed_senses_kkt(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            base = random_le_lp(rng, m=4, n=6)
            senses = list(base.senses)
            A = base.A.copy()
            b = base.b.copy()
            # flip two rows to >= by negation: identical feasible set
            for i in (1, 3):
                A[i] *= -1
                b[i] *= -1
                senses[i] = GE
            lp = LinearProgram.build(
                c=base.c, A=A, senses=senses, b=b, lb=base.lb, ub=base.ub
            )
            ref = solve_lp(base)
            sol = solve_lp(lp)
            assert sol.objective == pytest.approx(ref.objective, abs=1e-8)
            self.assert_kkt(lp, sol)


class TestWarmStart:
    def test_zero_pivots_from_optimal_basis(self):
        rng = np.random.default_rng(1)
        lp = random_le_lp(rng)
        sol = solve_lp(lp)
        warm = solve_lp_with_basis(lp, sol.basis)
        assert warm.pivots == 0
        assert warm.objective == pytest.approx(sol.objective, abs=1e-10)

    def test_dimension_mismatch_falls_back(self):
        rng = np.random.default_rng(2)
        lp = random_le_lp(rng, m=4, n=6)
        sol = solve_lp(lp)
        # add one cut-like row: the stale basis no longer fits
        A = np.vstack([lp.A, rng.normal(size=6)])
        b = np.append(lp.b, float(A[-1] @ sol.x) - 0.1)
        grown = LinearProgram.build(
            c=lp.c, A=A, senses=list(lp.senses) + [LE], b=b, lb=lp.lb, ub=lp.ub
        )
        warm = solve_lp_with_basis(grown, sol.basis)
        cold = solve_lp(grown)
        assert warm.status == cold.status == "optimal"
        assert warm.objective == pytest.approx(cold.objective, abs=1e-9)

    def test_bound_fixing_reuse(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            lp = random_le_lp(rng, m=4, n=6)
            sol = solve_lp(lp)
            lb = lp.lb.copy()
            ub = lp.ub.copy()
            j = int(rng.integers(0, 6))
            lb[j] = ub[j] = round(float(sol.x[j]))
            fixed = lp.with_bounds(lb, ub)
            warm = solve_lp_with_basis(fixed, sol.basis)
            cold = solve_lp(fixed)
            assert warm.status == cold.status
            if cold.status == "optimal":
                assert warm.objective == pytest.approx(cold.objective, abs=1e-8)

    def test_garbage_basis_falls_back(self):
        rng = np.random.default_rng(9)
        lp = random_le_lp(rng)
        bogus = WarmBasis(basic=(0, 0, 0, 0, 0), at_upper=())
        sol = solve_lp_with_basis(lp, bogus)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(solve_lp(lp).objective, abs=1e-10)

    def test_no_candidate_canonicalizes_once(self, monkeypatch):
        built = []

        class Counting(lp_module._Canonical):
            def __init__(self, lp):
                built.append(lp)
                super().__init__(lp)

        monkeypatch.setattr(lp_module, "_Canonical", Counting)
        lp = random_le_lp(np.random.default_rng(9))
        sol = solve_lp_multi(lp, [None])
        assert len(built) == 1
        assert sol.status == "optimal"
        assert sol.objective == solve_lp(lp).objective


class TestDeterminism:
    def test_identical_runs(self):
        rng = np.random.default_rng(8)
        lp = random_le_lp(rng, m=6, n=10)
        a = solve_lp(lp)
        b = solve_lp(lp)
        assert a.pivots == b.pivots
        assert np.array_equal(a.x, b.x)
        assert a.basis == b.basis


class TestExport:
    def test_text_dump(self):
        lp = LinearProgram.build(
            c=[1.0, 0.0], A=[[1.0, 2.0]], senses=[LE], b=[3.0], ub=[1.0, np.inf]
        )
        text = lp_to_text(lp)
        assert "max:" in text and "r0:" in text and "x1 in [0, inf]" in text
