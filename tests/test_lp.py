"""Simplex solver: fixtures, random-LP oracle comparison, duals, warm starts."""

import itertools
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

try:
    from hypothesis import given, settings, strategies as st
except ImportError:  # the property test is skipped; the seeded cases still run
    given = None

from dfopt import benders, formulations
from dfopt import lp as lp_module
from dfopt.errors import ValidationError
from dfopt.instancegen import GeneratorConfig, TreeShape, generate_instance
from dfopt.lp import (
    EQ,
    LE,
    LinearProgram,
    WarmBasis,
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
        lp = LinearProgram.build(c=[1.0], A=[[1.0]], senses=[LE], b=[1.0], ub=[2.0])
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

    def test_infeasible(self):
        # x <= 0.2 and -x <= -0.5
        lp = LinearProgram.build(
            c=[1.0], A=[[1.0], [-1.0]], senses=[LE, LE], b=[0.2, -0.5], ub=[1.0]
        )
        assert solve_lp(lp).status == "infeasible"

    def test_validation(self):
        with pytest.raises(ValidationError):
            LinearProgram.build(c=[1.0], A=[[1.0]], senses=[LE], b=[np.inf], ub=[2.0])

    @pytest.mark.parametrize(
        "name, value",
        [
            ("A", np.nan), ("A", np.inf), ("ub", np.nan), ("ub", np.inf),
            ("c", np.nan), ("c", np.inf),
        ],
    )
    def test_non_finite_data_is_refused(self, name, value):
        # unchecked, solve_lp took a NaN in A for optimal at x = [1, 1], and
        # a NaN or inf cost for optimal with a NaN or inf objective; a NaN or
        # inf upper bound leaves a column that may price out with no bound
        # to go to
        data = dict(c=[1.0, 1.0], A=[[1.0, 1.0]], b=[1.5], ub=[1.0, 1.0])
        data = {key: np.array(v, dtype=float) for key, v in data.items()}
        data[name].flat[-1] = value
        with pytest.raises(ValidationError):
            LinearProgram.build(senses=[LE], **data)
        with pytest.raises(ValidationError):
            LinearProgram(senses=(LE,), lb=np.zeros(2), **data)
        if name == "ub":  # with_bounds checks its bounds by the same rules
            lp = LinearProgram.build(
                c=[1.0, 1.0], A=[[1.0, 1.0]], senses=[LE], b=[1.5], ub=[1.0, 1.0]
            )
            with pytest.raises(ValidationError, match="finite"):
                lp.with_bounds(lp.lb, data["ub"])

    @pytest.mark.parametrize(
        "name, value",
        [
            ("lb", 0.0), ("ub", 1.0), ("b", 1.0), ("lb", [[0.0, 0.0]]),
            ("A", [1.0, 2.0]), ("A", [1.0, 2.0, 3.0]), ("A", [[[1.0, 2.0]]]),
            ("A", [[1.0, 2.0], [3.0]]),
        ],
    )
    def test_misshapen_vectors_are_refused(self, name, value):
        # a scalar used to raise a bare TypeError, and a 2-D bound passed.
        # An A that is not 2-D was reshaped to the program: a 1-D or 3-D one
        # of the right size passed, and one of the wrong size or a ragged
        # one raised numpy's ValueError, as the constructor did on a 1-D A
        data = dict(c=[1.0, 1.0], A=[[1.0, 1.0]], b=[1.0], lb=[0.0, 0.0], ub=[2.0, 2.0])
        data[name] = value
        with pytest.raises(ValidationError, match="dimensions"):
            LinearProgram.build(senses=[LE], **data)
        try:
            arrays = {key: np.array(v, dtype=float) for key, v in data.items()}
        except ValueError:  # a ragged A has no array to construct with
            assert name == "A"
            return
        with pytest.raises(ValidationError, match="dimensions"):
            LinearProgram(senses=(LE,), **arrays)

    def test_unknown_sense_names_the_first_one(self):
        with pytest.raises(ValidationError, match="unknown row sense '<'"):
            LinearProgram.build(
                c=[1.0], A=[[1.0], [1.0], [1.0]], senses=[LE, "<", "!"], b=[1, 1, 1],
                ub=[2.0],
            )
        # a >= row is written as the negated <= row
        with pytest.raises(ValidationError, match="unknown row sense '>='"):
            LinearProgram.build(c=[1.0], A=[[1.0]], senses=[">="], b=[1.0], ub=[2.0])

    def test_built_programs_are_validated_once(self, monkeypatch):
        calls = []
        real = LinearProgram.__post_init__
        monkeypatch.setattr(
            LinearProgram, "__post_init__", lambda lp: calls.append(lp) or real(lp)
        )
        lp = LinearProgram.build(c=[1.0], A=[[1.0]], senses=[LE], b=[2.0], ub=[3.0])
        assert solve_lp(lp).objective == pytest.approx(2.0)
        assert len(calls) == 1
        # a derived program checks its bounds, not the whole program again
        child = lp.with_bounds([0.0], [1.0])
        assert solve_lp(child).objective == pytest.approx(1.0)
        assert len(calls) == 1
        # a program made with the constructor is checked when it is made
        with pytest.raises(ValidationError, match="unknown row sense"):
            LinearProgram(c=lp.c, A=lp.A, senses=("<",), b=lp.b, lb=lp.lb, ub=lp.ub)
        with pytest.raises(ValidationError, match="lower bound exceeds"):
            lp.with_bounds([1.0], [0.0])

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
            c=c, A=A, senses=[LE] * 6, b=[0.5] * 6, ub=[1.0] * 6
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


def assert_kkt(lp, sol):
    # strong duality with bound terms: b'y plus the reduced costs of the
    # variables at their bounds
    reduced_costs = lp.c - sol.duals @ lp.A
    assert sol.objective == pytest.approx(
        sol.duals @ lp.b + reduced_costs @ sol.x, abs=1e-6 * (1 + abs(sol.objective))
    )
    # complementary slackness on rows
    resid = lp.b - lp.A @ sol.x
    for i, s in enumerate(lp.senses):
        assert abs(sol.duals[i] * resid[i]) < 1e-7
        if s == LE:
            assert sol.duals[i] >= -1e-9
    # reduced-cost signs at bounds (maximization)
    for j in range(lp.num_cols):
        rc = reduced_costs[j]
        at_lb = abs(sol.x[j] - lp.lb[j]) < 1e-9
        at_ub = np.isfinite(lp.ub[j]) and abs(sol.x[j] - lp.ub[j]) < 1e-9
        if not at_lb and not at_ub:
            assert abs(rc) < 1e-7


class TestDuals:
    def test_random_kkt(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            lp = random_le_lp(rng, m=4, n=6)
            sol = solve_lp(lp)
            assert_kkt(lp, sol)


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
        assert sol.status == "optimal" and not sol.warm
        assert sol.objective == pytest.approx(solve_lp(lp).objective, abs=1e-10)

    def test_multi_skips_none_and_serves_the_first_usable_basis(self):
        lp = random_le_lp(np.random.default_rng(9))
        sol = solve_lp_multi(lp, [None])
        assert sol.status == "optimal" and not sol.warm
        assert sol.objective == solve_lp(lp).objective
        assert solve_lp_multi(lp, [None, sol.basis]).warm


def perturbed(lp, sol, rng, case) -> LinearProgram:
    """``lp`` after a change that keeps ``sol.basis`` dual feasible."""
    if case == "rhs":
        return LinearProgram.build(
            c=lp.c, A=lp.A, senses=lp.senses,
            b=lp.b + rng.normal(scale=0.3, size=lp.num_rows), lb=lp.lb, ub=lp.ub,
        )
    if case == "rows":  # 1 to 5 cuts, each violated at the old optimum
        k = int(rng.integers(1, 6))
        rows = rng.normal(size=(k, lp.num_cols))
        rhs = rows @ sol.x - rng.uniform(0.05, 0.5, size=k)
        return LinearProgram.build(
            c=lp.c, A=np.vstack([lp.A, rows]), senses=list(lp.senses) + [LE] * k,
            b=np.append(lp.b, rhs), lb=lp.lb, ub=lp.ub,
        )
    # "fix": a branch-and-bound child on the most fractional basic column
    basic = [j for j in sol.basis.basic if j < lp.num_cols]
    j = max(basic, key=lambda j: -abs(sol.x[j] - 0.5)) if basic else 0
    lb, ub = lp.lb.copy(), lp.ub.copy()
    lb[j] = ub[j] = float(rng.integers(0, 2))
    return lp.with_bounds(lb, ub)


WARM_CASES = ("rhs", "rows", "fix")


def check_warm_case(seed: int, case: str) -> None:
    """From the optimal basis of a random LP, re-solve a perturbed copy."""
    rng = np.random.default_rng(seed)
    lp = random_le_lp(rng, m=6, n=8)
    sol = solve_lp(lp)
    assert sol.status == "optimal" and sol.basis is not None
    changed = perturbed(lp, sol, rng, case)
    warm = solve_lp(changed, warm=sol.basis)
    cold = solve_lp(changed)
    assert warm.warm and not cold.warm
    assert warm.status == cold.status
    if cold.status == "optimal":
        assert warm.objective == pytest.approx(cold.objective, abs=1e-9)
        assert_kkt(changed, warm)
        assert warm.basis is not None and cold.basis is not None
    again = solve_lp(changed, warm=sol.basis)
    assert again.pivots == warm.pivots
    assert again.refactorizations == warm.refactorizations
    assert again.status == warm.status
    if warm.status == "optimal":
        assert np.array_equal(again.x, warm.x)


class TestDualSimplex:
    @pytest.mark.parametrize("case", WARM_CASES)
    @pytest.mark.parametrize("seed", range(12))
    def test_warm_matches_cold(self, seed, case):
        check_warm_case(seed, case)

    if given is not None:

        @settings(derandomize=True, database=None, max_examples=150, deadline=None)
        @given(seed=st.integers(0, 2**32 - 1), case=st.sampled_from(WARM_CASES))
        def test_warm_matches_cold_property(self, seed, case):
            check_warm_case(seed, case)

    @pytest.mark.parametrize("case", WARM_CASES)
    @pytest.mark.parametrize("seed", range(12))
    def test_dual_alone_reaches_the_optimum(self, seed, case):
        # one dual simplex run from the dual feasible start reaches the
        # optimum: the reduced-cost check that follows it finds nothing
        rng = np.random.default_rng(seed)
        lp = random_le_lp(rng, m=6, n=8)
        changed = perturbed(lp, solve_lp(lp), rng, case)
        cold = solve_lp(changed)
        start = solve_lp(lp).basis
        sim = lp_module._Simplex(changed, start.basic, start.at_upper)
        assert sim.dual() == cold.status
        if cold.status == "optimal":
            assert sim._priced_out(sim._reduced_costs(sim.c)).size == 0
            x = sim._nonbasic_values()
            x[sim.basis] = sim.x_b
            assert changed.c @ x[: changed.num_cols] == pytest.approx(
                cold.objective, abs=1e-9
            )

    def test_start_neither_primal_nor_dual_feasible_is_served(self):
        # new costs and right-hand sides: the old basis is neither primal nor
        # dual feasible.  Placing its boxed columns makes it dual feasible,
        # and the start serves, unless a nonbasic slack still prices out;
        # then the solve falls back to the slack basis.  Either way the
        # status and objective are the cold solve's
        neither, served = 0, 0
        for seed in range(12):
            rng = np.random.default_rng(seed)
            lp = random_le_lp(rng, m=6, n=8)
            sol = solve_lp(lp)
            changed = LinearProgram.build(
                c=lp.c + rng.normal(size=lp.num_cols), A=lp.A, senses=lp.senses,
                b=lp.b + rng.normal(scale=0.5, size=lp.num_rows), lb=lp.lb, ub=lp.ub,
            )
            sim = lp_module._Simplex(changed, sol.basis.basic, sol.basis.at_upper)
            x_b = sim._basic_values()
            below, above = sim.lb[sim.basis] - x_b, x_b - sim.ub[sim.basis]
            if (
                max(below.max(), above.max()) > lp_module.FEAS_TOL
                and sim._priced_out(sim.d).size
            ):
                neither += 1
            dual_feasible = sim.place().size == 0
            served += dual_feasible
            warm = solve_lp(changed, warm=sol.basis)
            cold = solve_lp(changed)
            assert warm.warm == dual_feasible and warm.status == cold.status
            if cold.status == "optimal":
                assert warm.objective == pytest.approx(cold.objective, abs=1e-9)
                assert_kkt(changed, warm)
        assert neither >= 4 and 0 < served < 12

    def test_infeasible_from_a_dual_infeasible_start_falls_back(self):
        # x0 - x1 <= 1 and x1 - x0 <= -2 meet nowhere.  With x1 basic in the
        # first row, that row's slack prices out and no bound placement mends
        # it, so the solve falls back to the slack basis, which proves the
        # rows infeasible
        lp = LinearProgram.build(
            c=[1.0, 1.0], A=[[1.0, -1.0], [-1.0, 1.0]], senses=[LE, LE], b=[1.0, -2.0],
            ub=[10.0, 10.0],
        )
        start = WarmBasis(basic=(1, 3), at_upper=())
        sim = lp_module._Simplex(lp, start.basic, start.at_upper)
        assert sim.place().tolist() == [2]
        sol = solve_lp(lp, warm=start)
        assert sol.status == "infeasible" and not sol.warm

    def test_child_made_infeasible_is_proved_warm(self):
        # max x0 - x1  s.t.  -x0 - x1 <= -1.5 on the unit box: x1 = 0.5 is
        # basic; fixing it to 0 leaves no feasible point
        lp = LinearProgram.build(
            c=[1.0, -1.0], A=[[-1.0, -1.0]], senses=[LE], b=[-1.5], ub=[1.0, 1.0]
        )
        sol = solve_lp(lp)
        assert sol.x[1] == pytest.approx(0.5)
        child = lp.with_bounds([0.0, 0.0], [1.0, 0.0])
        warm = solve_lp(child, warm=sol.basis)
        assert warm.status == solve_lp(child).status == "infeasible"
        assert warm.warm

    def test_appended_rows_extend_the_basis(self):
        rng = np.random.default_rng(2)
        lp = random_le_lp(rng, m=4, n=6)
        sol = solve_lp(lp)
        cut = rng.normal(size=6)
        grown = LinearProgram.build(
            c=lp.c, A=np.vstack([lp.A, cut]), senses=list(lp.senses) + [LE],
            b=np.append(lp.b, float(cut @ sol.x) - 0.1), lb=lp.lb, ub=lp.ub,
        )
        warm = solve_lp(grown, warm=sol.basis)
        assert warm.warm and warm.pivots >= 1
        assert len(warm.basis.basic) == grown.num_rows


class TestKernel:
    """The basis is reached through ftran, btran and the rows of B^-1."""

    @pytest.mark.parametrize("seed", range(4))
    def test_pivots_of_every_kind_keep_the_kernel_exact(self, seed):
        rng = np.random.default_rng(seed)
        m, n = 8, 6
        lp = LinearProgram.build(
            c=rng.normal(size=n), A=rng.normal(size=(m, n)), senses=[LE] * m,
            b=np.ones(m), ub=np.ones(n),
        )
        sim = lp_module._Simplex(lp, range(n, n + m))
        full = np.hstack([sim.A, np.eye(m)])
        kinds = set()
        # 80 pivots: the kernel is refactorized once on the way
        for _ in range(80):
            # a nonbasic structural column or slack, each kind at even odds
            nonbasic = np.flatnonzero(~sim.is_basic)
            pools = [p for p in np.split(nonbasic, [np.sum(nonbasic < n)]) if p.size]
            j = int(rng.choice(pools[int(rng.integers(len(pools)))]))
            w = sim.kernel.ftran(sim._column(j))
            pos = int(rng.choice(np.flatnonzero(np.abs(w) >= 0.5 * np.abs(w).max())))
            kinds.add((int(sim.basis[pos]) < n, j < n))
            sim._pivot(pos, j, w, False)

            B = full[:, sim.basis]
            a, c = rng.normal(size=m), np.append(rng.normal(size=n), np.zeros(m))
            kernel = sim.kernel
            x = np.linalg.solve(B, a)
            assert np.allclose(kernel.ftran(a), x, rtol=0, atol=1e-9)
            y = np.zeros(m)
            y[kernel.rows] = kernel.btran(c)
            assert np.allclose(y, np.linalg.solve(B.T, c[sim.basis]), rtol=0, atol=1e-9)
            Binv = np.linalg.inv(B)
            for r in range(m):
                assert np.allclose(kernel.row(r), Binv[r] @ full, rtol=0, atol=1e-9)
            k = int(np.sum(sim.basis < n))
            assert kernel.k == k and kernel.inv.shape == (k, k)
        # (structural leaves, structural enters): all four pivot kinds ran
        assert kinds == set(itertools.product((True, False), repeat=2))

    def test_tall_lp_keeps_no_square_array(self, monkeypatch):
        rng = np.random.default_rng(0)
        m, n = 300, 20
        A = rng.uniform(0.0, 1.0, size=(m, n))
        b = A @ rng.uniform(0.2, 0.8, size=n)
        # odd rows bound A x from below: -A x <= -(b - 0.5)
        sign = np.where(np.arange(m) % 2, -1.0, 1.0)
        lp = LinearProgram.build(
            c=rng.normal(size=n), A=A * sign[:, None], senses=[LE] * m,
            b=(b + 0.5 * sign) * sign, ub=np.ones(n),
        )
        sims = []

        class Recorded(lp_module._Simplex):
            def __init__(self, *args):
                super().__init__(*args)
                sims.append(self)

        monkeypatch.setattr(lp_module, "_Simplex", Recorded)
        sol = solve_lp(lp)
        (sim,) = sims
        assert sol.status == "optimal" and sol.pivots > 0
        assert np.any(sim.basis < n)
        for state in (sim, sim.kernel):
            for name, value in vars(state).items():
                if isinstance(value, np.ndarray):
                    assert value.size < m * m, name
                    # kernel rows hold A[rows] alone, without the slack identity
                    assert value.ndim < 2 or value.shape[1] != n + m, name
        # the one constraint matrix is the program's own
        assert sim.A is lp.A and sim.kernel.A is lp.A


class TestOneCopy:
    """A program's ``A`` is the only copy of its constraint matrix: building
    the formulation fills it in place, and a solve gathers its kernel from
    it.  Measured on the 2,339 x 510 t3 30/30/16 seed-1 "leaf" formulation;
    about 1x of a solve's peak is the kernel's column buffer."""

    @pytest.fixture(scope="class")
    def instance(self):
        return generate_instance(
            GeneratorConfig(n=30, num_trees=30, shape=TreeShape("t3", leaves=16), seed=1)
        )

    @staticmethod
    def traced_peak(call):
        tracemalloc.start()
        try:
            result = call()
            return result, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_build_holds_one_matrix(self, instance):
        built, peak = self.traced_peak(lambda: formulations.build("leaf", *instance))
        assert built.lp.A.shape == (2339, 510)
        assert peak < 1.5 * built.lp.A.nbytes

    def test_first_solve_holds_no_second_matrix(self, instance):
        built = formulations.build("leaf", *instance)
        sol, peak = self.traced_peak(lambda: solve_lp(built.lp, warm=built.start_basis()))
        assert sol.status == "optimal"
        assert peak < 1.6 * built.lp.A.nbytes


class TestMaintainedState:
    """``_Simplex`` keeps the basic bounds, the entering directions and the
    reduced costs up to date; after every pivot they match a fresh
    recomputation, and right after a refactorization the reduced costs are
    the fresh ones."""

    @pytest.fixture
    def checked(self, monkeypatch):
        seen = {"pivots": 0, "refactored": 0}

        def check(sim, exact):
            d = sim._reduced_costs(sim.c)
            if exact:
                assert np.array_equal(sim.d, d)
            else:
                assert np.allclose(sim.d, d, rtol=0, atol=1e-9)
            assert np.array_equal(sim.lb_b, sim.lb[sim.basis])
            assert np.array_equal(sim.ub_b, sim.ub[sim.basis])
            direction = np.where(sim.at_upper, -1.0, 1.0)
            direction[sim.is_basic | (sim.lb == sim.ub)] = 0.0
            assert np.array_equal(sim.dir, direction)

        real_pivot, real_refactor = lp_module._Simplex._pivot, lp_module._Simplex._refactor

        def pivot(sim, *args):
            real_pivot(sim, *args)
            seen["pivots"] += 1
            seen["refactored"] += sim.since_refactor == 0
            check(sim, exact=False)

        def refactor(sim):
            real_refactor(sim)
            check(sim, exact=True)

        monkeypatch.setattr(lp_module._Simplex, "_pivot", pivot)
        monkeypatch.setattr(lp_module._Simplex, "_refactor", refactor)
        return seen

    def test_random_boxed_programs(self, checked):
        for seed in range(4):
            rng = np.random.default_rng(seed)
            m, n = 40, 60
            A = rng.normal(size=(m, n))
            b = A @ rng.uniform(0.1, 0.9, size=n) + rng.uniform(0.05, 1.0, size=m)
            lp = LinearProgram.build(
                c=rng.normal(size=n), A=A, senses=[LE] * m, b=b, ub=np.ones(n)
            )
            sol = solve_lp(lp)
            assert sol.status == "optimal"
            for case in WARM_CASES:
                solve_lp(perturbed(lp, sol, rng, case), warm=sol.basis)
        # some solve ran past REFACTOR_EVERY pivots, so the update continued
        # from a refactorization
        assert checked["refactored"] >= 2 and checked["pivots"] > 200

    def test_desk_branch_and_bound_nodes(self, checked):
        catalog, forest = generate_instance(
            GeneratorConfig(n=12, num_trees=10, shape=TreeShape("t3", leaves=8), seed=1)
        )
        for kind in ("leaf", "split"):
            built = formulations.build(kind, catalog, forest, 3)
            res = formulations.solve_integer_monolithic(built, catalog, forest)
            assert res.nodes > 1
        assert checked["refactored"] >= 1


def duplicated_equality_lp() -> LinearProgram:
    """max 2x + y  s.t.  x + y = 1 (written twice), x <= 0.5, x, y in [0, 1].

    One copy of the equality row is redundant, so the fixed slack of one of
    the two copies stays basic (at 0) however the solve pivots.
    """
    return LinearProgram.build(
        c=[2.0, 1.0], A=[[1.0, 1.0], [1.0, 1.0], [1.0, 0.0]],
        senses=[EQ, EQ, LE], b=[1.0, 1.0, 0.5], ub=[1.0, 1.0],
    )


class TestRedundantRows:
    def test_optimum_carries_a_basis(self):
        sol = solve_lp(duplicated_equality_lp())
        assert sol.status == "optimal" and sol.basis is not None
        assert sol.objective == pytest.approx(1.5, abs=1e-12)
        assert verify_solution_exact(duplicated_equality_lp(), sol)["optimal"]

    def test_basis_starts_an_appended_equality_row(self):
        # y - x = 0.2 cuts off the old optimum (0.5, 0.5): the row's fixed
        # slack joins the basis at -0.2 and the dual simplex drives it out
        lp = duplicated_equality_lp()
        sol = solve_lp(lp)
        grown = LinearProgram.build(
            c=lp.c, A=np.vstack([lp.A, [-1.0, 1.0]]), senses=list(lp.senses) + [EQ],
            b=np.append(lp.b, 0.2), lb=lp.lb, ub=lp.ub,
        )
        warm = solve_lp(grown, warm=sol.basis)
        cold = solve_lp(grown)
        assert warm.warm and warm.status == cold.status == "optimal"
        assert warm.objective == pytest.approx(cold.objective, abs=1e-12)
        assert np.allclose(warm.x, [0.4, 0.6], atol=1e-12)
        assert_kkt(grown, warm)


#: Relaxation phases whose cold-solved masters once failed: the ratio test
#: committed a pivot of about 1e-10 that is 0 in exact arithmetic, and the
#: basis turned singular or drifted infeasible (seen with single-threaded
#: OpenBLAS, as CI runs).  (kind, cardinality, n, trees, shape, seed,
#: relaxation value.)
GHOST_PIVOT_MASTERS = [
    ("split", 2, 12, 12, TreeShape("t1", depth=3), 3307967721081976331,
     46.244474276),
    ("product", None, 30, 30, TreeShape("t3", leaves=8), 3314779273767622029,
     70.392422174),
    ("split", None, 50, 50, TreeShape("t3", leaves=16), 0, 80.721587484),
]


@pytest.mark.parametrize(
    "kind, cardinality, n, trees, shape, seed, value",
    GHOST_PIVOT_MASTERS,
    ids=["split-n12-t1", "product-n30-t3", "split-n50-t3"],
)
def test_ghost_pivot_masters_solve_cold(
    monkeypatch, kind, cardinality, n, trees, shape, seed, value
):
    catalog, forest = generate_instance(
        GeneratorConfig(n=n, num_trees=trees, shape=shape, seed=seed)
    )
    masters = []

    def capture(lp, **warm):
        masters.append(lp)
        return solve_lp(lp, **warm)

    monkeypatch.setattr(benders, "solve_lp", capture)
    relax = benders.relaxation_phase(kind, catalog, forest, cardinality)
    assert relax.value == pytest.approx(value, abs=1e-7)
    assert len(masters) == relax.rounds
    for lp in masters:
        assert solve_lp(lp).status == "optimal"


def test_dual_pivot_judged_by_the_row_tolerance():
    # cuts appended to max x0 on the box [0, 1] x [0, 0.5]: the second
    # violates x0 = 1 by 2e-7, and only x1 (entry -5e-7) can repair it.
    # The pivot row's tolerance (1e-7) admits that entry; the entering
    # column's (1e-9 * 1000) would drop it and the warm start with it.
    lp = LinearProgram.build(
        c=[1.0, 0.0], A=np.zeros((0, 2)), senses=[], b=[], ub=[1.0, 0.5]
    )
    sol = solve_lp(lp)
    cuts = LinearProgram.build(
        c=lp.c, A=[[1.0, 1000.0], [1.0, -5e-7]], senses=[LE, LE],
        b=[1000.0, 1.0 - 2e-7], ub=lp.ub,
    )
    warm = solve_lp(cuts, warm=sol.basis)
    assert warm.warm and warm.status == "optimal" and warm.pivots == 1
    assert warm.objective == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(warm.x, [1.0, 0.4], atol=1e-9)
    assert verify_solution_exact(cuts, warm)["optimal"]
    cold = solve_lp(cuts)
    assert cold.objective == pytest.approx(1.0, abs=1e-7)
    assert cold.x[0] <= 1.0 + lp_module.LEAVE_TOL


class TestDeterminism:
    def test_identical_runs(self):
        rng = np.random.default_rng(8)
        lp = random_le_lp(rng, m=6, n=10)
        a = solve_lp(lp)
        b = solve_lp(lp)
        assert a.pivots == b.pivots
        assert np.array_equal(a.x, b.x)
        assert a.basis == b.basis

