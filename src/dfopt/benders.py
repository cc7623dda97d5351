"""Two-phase decomposition solver and the shared branch-and-bound engine.

The master problem keeps only the x levels plus one epigraph variable per
tree, bounded above by that tree's best leaf revenue.  Optimality cuts tie
each epigraph variable to its tree's subproblem value:

- Phase 1 (relaxation): plain constraint generation on the LP master.  Cut
  separation per tree uses the greedy primal/dual pair for the "leaf" and
  "split" granularities and the subproblem LP for "product".  The product
  each multiplier of a cut belongs to comes from ``formulations.row_product``,
  beside ``capacity_rows``, the one place where the granularities are defined.
- Phase 2 (integer): best-bound branch and bound on x inside a single tree,
  adding closed-form cuts lazily whenever a node's LP solution is integral
  and some epigraph variable exceeds its tree's traversal revenue.

The same engine also solves the monolithic formulations by branching on the
x block of the full LP.  Subproblem oracle calls within a cut round are
independent per tree; master solves and pool mutation are serialized, and
nodes are processed one at a time, so runs are deterministic.

Every re-solve starts from the basis of the LP it follows, which stays dual
feasible, so ``solve_lp`` runs the dual simplex from it: each master from
the previous round's master (new cuts append rows, whose slacks join the
basis), each tree's product-oracle LP from its previous round, each B&B
child from its parent's final basis, and a node's re-solve after lazy cuts
from its own.  The monolithic root starts from a hand-built feasible basis
(``_monolithic_start_basis``), placed by the row indices
``formulations.build`` records (``unit_rows``, ``card_row``).
"""

from __future__ import annotations

import heapq
import itertools
import logging
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, IterationLimitError
from .formulations import BuiltFormulation, Kind, as_kind, row_product
from .lp import (
    EQ,
    LE,
    LinearProgram,
    WarmBasis,
    slack_columns,
    solve_lp,
    solve_lp_multi,
)
from .model import (
    AssortmentVector,
    DecisionForest,
    ProductCatalog,
    check_cardinality,
    expected_revenue,
    traverse,
)
from .subproblems import (
    DualCertificate,
    integer_cut,
    leaf_dual_greedy,
    leaf_primal_greedy,
    product_subproblem_lp,
    split_dual_greedy,
    split_primal_greedy,
)

log = logging.getLogger("dfopt.benders")

#: An epigraph value this far above the subproblem optimum triggers a cut.
CUT_TOL = 1e-6
#: x entries this close to an integer count as integral at a node.
INT_TOL = 1e-7
#: Nodes whose bound is within this of the incumbent are fathomed.
PRUNE_TOL = 1e-7

FRACTIONAL_GREEDY = "fractional-greedy"
FRACTIONAL_LP = "fractional-LP"
INTEGER_CLOSED_FORM = "integer-closed-form"


@dataclass(frozen=True)
class BendersCut:
    """Epigraph bound  theta_t <= coef . x + const  for one tree."""

    tree: int
    coef: tuple[float, ...]
    const: float
    provenance: str

    def value_at(self, x) -> float:
        return float(np.dot(self.coef, np.asarray(x, dtype=float)) + self.const)

    def key(self) -> tuple:
        return (
            self.tree,
            tuple(round(v * 1e9) for v in self.coef),
            round(self.const * 1e9),
        )


def cut_from_certificate(
    cert: DualCertificate, tree, tree_index: int, n: int, provenance: str
) -> BendersCut:
    """Collapse a dual certificate into per-product cut coefficients.

    Left multipliers add to their product's coefficient, right multipliers
    subtract from it and shift the constant, so the cut evaluates to the dual
    objective at every x.
    """
    coef = [0.0] * n
    const = float(cert.gamma)
    for key, a in cert.alpha.items():
        coef[row_product(cert.kind, tree, key) - 1] += float(a)
    for key, b in cert.beta.items():
        coef[row_product(cert.kind, tree, key) - 1] -= float(b)
        const += float(b)
    return BendersCut(
        tree=tree_index, coef=tuple(coef), const=const, provenance=provenance
    )


def evaluate_cut(cut: BendersCut, x) -> float:
    values = x.values if isinstance(x, AssortmentVector) else x
    if len(values) != len(cut.coef):
        raise DomainError("cut/assortment dimension mismatch")
    return cut.value_at([float(v) for v in values])


@dataclass
class MasterState:
    """Mutable decomposition state: cut pool and master dimensions.

    ``master_lp`` puts the cardinality row first and the cuts after it in pool
    order, so a basis of an earlier master fits a later one: new cuts only
    append rows.
    """

    n: int
    theta_ub: tuple[float, ...]
    weights: tuple[float, ...] = ()
    cardinality: int | None = None
    pool: list[BendersCut] = field(default_factory=list)
    _keys: set = field(default_factory=set)

    def add_cut(self, cut: BendersCut) -> bool:
        key = cut.key()
        if key in self._keys:
            return False
        self._keys.add(key)
        self.pool.append(cut)
        return True

    def master_lp(
        self,
        fixed0: frozenset[int] = frozenset(),
        fixed1: frozenset[int] = frozenset(),
    ) -> LinearProgram:
        n, k = self.n, len(self.theta_ub)
        ncols = n + k
        c = np.zeros(ncols)
        c[n:] = np.asarray(self.weights, dtype=float)
        rows = []
        senses = []
        rhs = []
        if self.cardinality is not None:
            row = np.zeros(ncols)
            row[:n] = 1.0
            rows.append(row)
            senses.append(EQ)
            rhs.append(float(self.cardinality))
        for cut in self.pool:
            row = np.zeros(ncols)
            row[:n] = [-v for v in cut.coef]
            row[n + cut.tree] = 1.0
            rows.append(row)
            senses.append(LE)
            rhs.append(cut.const)
        lb = np.zeros(ncols)
        ub = np.concatenate([np.ones(n), np.asarray(self.theta_ub, dtype=float)])
        for i in fixed0:
            ub[i - 1] = 0.0
        for i in fixed1:
            lb[i - 1] = 1.0
        A = np.array(rows) if rows else np.zeros((0, ncols))
        return LinearProgram.build(c=c, A=A, senses=senses, b=rhs, lb=lb, ub=ub)


def _master_state(catalog, forest, cardinality) -> MasterState:
    check_cardinality(catalog.n, cardinality)
    theta_ub = tuple(
        max(float(catalog.leaf_revenue(tree, l)) for l in tree.leaf_ids)
        for tree in forest.trees
    )
    weights = tuple(float(w) for w in forest.weights)
    return MasterState(
        n=catalog.n, theta_ub=theta_ub, weights=weights, cardinality=cardinality
    )


def _separate(kind: Kind, catalog, forest, x_vals, bases=None):
    """Per-tree subproblem values and cut certificates at fractional x.

    ``bases``, one entry per tree, carries each tree's product-oracle LP
    basis from one call to the next; it is updated in place.
    """
    if bases is None:
        bases = [None] * len(forest.trees)
    out = []
    for t, tree in enumerate(forest.trees):
        if kind is Kind.PRODUCT:
            value, cert, sol = product_subproblem_lp(catalog, tree, x_vals, bases[t])
            bases[t] = sol.basis
            prov = FRACTIONAL_LP
        else:
            if kind is Kind.LEAF:
                primal, dual = leaf_primal_greedy, leaf_dual_greedy
            else:
                primal, dual = split_primal_greedy, split_dual_greedy
            y, trace = primal(catalog, tree, x_vals)
            value = sum(
                catalog.leaf_revenue(tree, l) * w for l, w in y.items() if w != 0
            )
            cert = dual(catalog, tree, trace)
            prov = FRACTIONAL_GREEDY
        out.append((float(value), cert, prov))
    return out


@dataclass
class RelaxationResult:
    value: float
    x: tuple[float, ...]
    state: MasterState
    rounds: int
    bounds: tuple[float, ...] = ()  # master objective per round, nonincreasing


def relaxation_phase(
    kind: Kind,
    catalog: ProductCatalog,
    forest: DecisionForest,
    cardinality: int | None = None,
    max_rounds: int = 10_000,
) -> RelaxationResult:
    """Constraint generation on the LP master until no tree's cut is violated."""
    kind = as_kind(kind)
    state = _master_state(catalog, forest, cardinality)
    n = catalog.n
    rounds = 0
    bounds: list[float] = []
    master_basis = None
    oracle_bases = [None] * len(forest.trees)
    while rounds < max_rounds:
        rounds += 1
        sol = solve_lp(state.master_lp(), warm=master_basis)
        if sol.status != "optimal":
            raise DomainError(f"master LP is {sol.status}")
        master_basis = sol.basis
        obj = float(sol.objective)
        if bounds and obj > bounds[-1] + 1e-7:
            log.warning("master bound increased: %.12g -> %.12g", bounds[-1], obj)
        bounds.append(obj)
        x_vals = tuple(float(v) for v in sol.x[:n])
        thetas = sol.x[n:]
        added = 0
        for t, (value, cert, prov) in enumerate(
            _separate(kind, catalog, forest, x_vals, oracle_bases)
        ):
            if float(thetas[t]) > value + CUT_TOL:
                cut = cut_from_certificate(cert, forest.trees[t], t, n, prov)
                if state.add_cut(cut):
                    added += 1
        log.info("round %d: bound %.6f, cuts added %d", rounds, obj, added)
        if added == 0:
            return RelaxationResult(
                value=obj, x=x_vals, state=state, rounds=rounds, bounds=tuple(bounds)
            )
    raise IterationLimitError(
        "relaxation phase hit its round cap",
        {"rounds": rounds, "bound": bounds[-1] if bounds else None},
    )


# ---------------------------------------------------------------------------
# Branch and bound
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Budget:
    max_nodes: int | None = None
    max_seconds: float | None = None


@dataclass
class BranchAndBoundResult:
    x: AssortmentVector | None
    value: float
    upper_bound: float
    gap_pct: float
    nodes: int
    optimal: bool
    wall_s: float
    cuts_added: int = 0


def _branch_and_bound(solve_node, on_integral, budget: Budget | None):
    """Best-bound search over x fixings.

    ``solve_node(fixed0, fixed1, warm)`` returns None for an infeasible node,
    else ``(bound, x, payload, basis)``; ``warm`` is the parent's final basis
    (None at the root), or the node's own when lazy cuts force a re-solve.
    """
    budget = budget or Budget()
    t0 = time.monotonic()
    counter = itertools.count()
    # entries (-bound, order, fixed0, fixed1, parent basis): best bound
    # first, ties by age
    heap = [(-float("inf"), next(counter), frozenset(), frozenset(), None)]
    incumbent_x = None
    incumbent_val = -float("inf")
    nodes = 0
    cuts_added = 0
    exhausted = False

    def out_of_budget():
        if budget.max_nodes is not None and nodes >= budget.max_nodes:
            return True
        if budget.max_seconds is not None and time.monotonic() - t0 > budget.max_seconds:
            return True
        return False

    while heap:
        if out_of_budget():
            exhausted = True
            break
        neg_bound, _, fixed0, fixed1, warm = heapq.heappop(heap)
        if -neg_bound <= incumbent_val + PRUNE_TOL:
            continue
        nodes += 1
        res = solve_node(fixed0, fixed1, warm)
        while True:
            if res is None:  # infeasible node
                break
            obj, x_vals, payload, basis = res
            if obj <= incumbent_val + PRUNE_TOL:
                break
            frac = [abs(v - round(v)) for v in x_vals]
            if max(frac, default=0.0) <= INT_TOL:
                x_bin = tuple(int(round(v)) for v in x_vals)
                outcome = on_integral(x_bin, payload)
                if outcome[0] == "resolve":
                    cuts_added += outcome[1]
                    res = solve_node(fixed0, fixed1, basis)
                    continue
                value = outcome[1]
                if value > incumbent_val:
                    incumbent_val = value
                    incumbent_x = AssortmentVector(x_bin)
                    log.info("incumbent %.6f at node %d", value, nodes)
                break
            j = max(range(len(x_vals)), key=lambda i: -abs(x_vals[i] - 0.5))
            # most fractional first; ties fall to the smallest index via max's
            # first-wins behavior on equal keys
            heapq.heappush(heap, (-obj, next(counter), fixed0 | {j + 1}, fixed1, basis))
            heapq.heappush(heap, (-obj, next(counter), fixed0, fixed1 | {j + 1}, basis))
            break

    open_bounds = [-e[0] for e in heap if -e[0] > incumbent_val + PRUNE_TOL]
    if exhausted and open_bounds:
        upper = max(open_bounds)
        optimal = False
    else:
        upper = incumbent_val
        optimal = incumbent_x is not None
    if incumbent_x is None:
        value = float("-inf")
        gap = float("inf")
    else:
        value = incumbent_val
        ub = max(upper, value)
        gap = 0.0 if ub <= 0 else 100.0 * (ub - value) / ub
        upper = ub
    return BranchAndBoundResult(
        x=incumbent_x,
        value=value,
        upper_bound=upper,
        gap_pct=gap,
        nodes=nodes,
        optimal=optimal,
        wall_s=time.monotonic() - t0,
        cuts_added=cuts_added,
    )


def integer_phase(
    kind: Kind,
    catalog: ProductCatalog,
    forest: DecisionForest,
    state: MasterState | None = None,
    cardinality: int | None = None,
    budget: Budget | None = None,
) -> BranchAndBoundResult:
    """Branch and bound on the cut master with lazy closed-form cuts.

    Accepts the relaxation phase's state to reuse its pool; integral nodes are
    certified by evaluating every tree's closed-form cut and re-solved until
    no epigraph variable is violated.  Incumbent values are recomputed from
    the model, never read off the LP.
    """
    kind = as_kind(kind)
    n = catalog.n
    if state is None:
        state = _master_state(catalog, forest, cardinality)
    elif cardinality is not None and state.cardinality != cardinality:
        raise DomainError("cardinality differs from the relaxation state")

    def solve_node(fixed0, fixed1, warm):
        sol = solve_lp(state.master_lp(fixed0, fixed1), warm=warm)
        if sol.status != "optimal":
            return None
        x_vals = tuple(float(v) for v in sol.x[:n])
        theta = tuple(float(v) for v in sol.x[n:])
        return float(sol.objective), x_vals, {"theta": theta}, sol.basis

    def on_integral(x_bin, payload):
        thetas = payload["theta"]
        added = 0
        value = 0.0
        for t, tree in enumerate(forest.trees):
            g_t, cert = integer_cut(kind, catalog, tree, x_bin)
            if thetas[t] > float(g_t) + CUT_TOL:
                cut = cut_from_certificate(
                    cert, tree, t, n, INTEGER_CLOSED_FORM
                )
                if state.add_cut(cut):
                    added += 1
        if added:
            return ("resolve", added)
        value = float(expected_revenue(catalog, forest, x_bin))
        return ("incumbent", value)

    return _branch_and_bound(solve_node, on_integral, budget)


def _monolithic_start_basis(built, forest, fixed0, fixed1, slack_cols):
    """Phase-1-free starting basis for a node of the monolithic problem.

    The binary point offering exactly the fixed-at-1 products (topped up with
    the smallest free products when a cardinality row must be met) routes
    every tree to one leaf; those indicator columns cover the unit-sum rows,
    slacks cover the capacity rows, and one offered free product covers the
    cardinality row.  The implied basic point is feasible by construction.
    """
    n = built.n
    ones = set(fixed1)
    card_col = None
    if built.cardinality is not None:
        free = [i for i in range(1, n + 1) if i not in fixed0 and i not in fixed1]
        need = built.cardinality - len(ones)
        if need < 0 or need > len(free):
            return None  # node is infeasible; let the solver report it
        topped = free[:need]
        if not topped:
            return None  # all offered products are fixed; no free basic column
        ones |= set(topped)
        card_col = topped[0] - 1
    x0 = tuple(1 if i in ones else 0 for i in range(1, n + 1))
    basic = [slack_cols.get(i) for i in range(built.lp.num_rows)]
    for t, tree in enumerate(forest.trees):
        _, leaf_star = traverse(tree, x0)
        basic[built.unit_rows[t]] = built.y_cols[(t, leaf_star)]
    if card_col is not None:
        basic[built.card_row] = card_col
    at_upper = []
    for i in ones:
        if i not in fixed1 and i - 1 != card_col:
            at_upper.append(i - 1)  # free product offered: park at upper bound
    return WarmBasis(basic=tuple(basic), at_upper=tuple(sorted(at_upper)))


def branch_and_bound_monolithic(
    built: BuiltFormulation,
    catalog: ProductCatalog,
    forest: DecisionForest,
    budget: Budget | None = None,
) -> BranchAndBoundResult:
    """Solve a monolithic formulation to integrality by branching on x."""
    n = built.n
    base_lb = built.lp.lb
    base_ub = built.lp.ub
    slack_cols = slack_columns(built.lp)

    def solve_node(fixed0, fixed1, warm):
        lb = base_lb.copy()
        ub = base_ub.copy()
        for i in fixed0:
            ub[i - 1] = 0.0
        for i in fixed1:
            lb[i - 1] = 1.0
        node_lp = built.lp.with_bounds(lb, ub)
        if warm is not None:
            sol = solve_lp(node_lp, warm=warm)
        else:
            analytic = _monolithic_start_basis(
                built, forest, fixed0, fixed1, slack_cols
            )
            sol = solve_lp_multi(node_lp, [analytic])
        if sol.status != "optimal":
            return None
        x_vals = tuple(float(v) for v in sol.x[:n])
        return float(sol.objective), x_vals, {}, sol.basis

    def on_integral(x_bin, payload):
        return ("incumbent", float(expected_revenue(catalog, forest, x_bin)))

    return _branch_and_bound(solve_node, on_integral, budget)


def solve_two_phase(
    kind: Kind,
    catalog: ProductCatalog,
    forest: DecisionForest,
    cardinality: int | None = None,
    budget: Budget | None = None,
):
    """Relaxation phase followed by the integer phase; returns both results."""
    relax = relaxation_phase(kind, catalog, forest, cardinality)
    integer = integer_phase(
        kind, catalog, forest, state=relax.state, cardinality=cardinality, budget=budget
    )
    return relax, integer
