"""Two-phase decomposition solver and the shared branch-and-bound engine.

The master problem keeps only the x levels plus one epigraph variable per
tree, bounded above by that tree's best leaf revenue.  Optimality cuts tie
each epigraph variable to its tree's subproblem value:

- Phase 1 (relaxation): plain constraint generation on the LP master.  Every
  tree is swept each round; the sweep's value bounds the subproblem optimum
  from below, so only a tree whose epigraph value beats it by ``CUT_TOL``
  gets a certificate and a cut: the greedy dual replay, which for "product"
  must also certify the sweep optimal, else the subproblem LP.  Each phase
  builds one ``subproblems.tree_table`` per tree for its oracles.  The product each
  multiplier of a cut belongs to comes from ``formulations.row_product``,
  beside ``capacity_rows``, the one place where the granularities are
  defined.
- Phase 2 (integer): best-bound branch and bound on x inside a single tree,
  adding closed-form cuts lazily whenever a node's LP solution is integral
  and some epigraph variable exceeds its tree's traversal revenue.

One master LP (``MasterState.lp``) serves both phases: cuts are appended to
it as rows, and B&B, which searches the monolithic LP the same way, changes
only its bounds.  The pool keeps no dedupe: a master's solution satisfies
every pooled row within ``lp.FEAS_TOL``, below ``CUT_TOL``, so a cut
violated by ``CUT_TOL`` at that solution is never one already pooled.
Nodes are processed one at a time, so runs are deterministic.

Every re-solve starts from the basis of the LP it follows, which stays dual
feasible, so ``solve_lp`` runs the dual simplex from it: each master from
the previous round's master (new cuts append rows, whose slacks join the
basis), each tree's product-oracle LP from its previous one, the integer
root from the relaxation's final master basis, each B&B child from its
parent's final basis, and a node's re-solve after lazy cuts from its own.
The monolithic root starts from ``BuiltFormulation.start_basis``, the
dual feasible basis at the point where every tree buys its best leaf, and
so does each tree's first product-oracle LP, which is that tree's own
``formulations.build`` with x fixed by its bounds.
"""

from __future__ import annotations

import heapq
import itertools
import logging
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, IterationLimitError
from .formulations import BuiltFormulation, Kind, as_kind, row_product
from .lp import (
    EQ,
    FEAS_TOL,
    LE,
    OPTIMAL,
    LinearProgram,
    WarmBasis,
    solve_lp,
    solve_lp_multi,
)
from .model import (
    AssortmentVector,
    DecisionForest,
    ProductCatalog,
    check_cardinality,
    expected_revenue,
)
from .subproblems import (
    DualCertificate,
    _certified,
    _sweep,
    integer_cut,
    leaf_dual_greedy,
    leaf_primal_greedy,
    product_subproblem_lp,
    split_dual_greedy,
    split_primal_greedy,
    tree_table,
)

log = logging.getLogger("dfopt.benders")

#: An epigraph value this far above the subproblem optimum triggers a cut.
#: It exceeds ``FEAS_TOL``, within which a master solution meets every pooled
#: cut, so no pooled cut is found violated again and the pool needs no dedupe.
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


@dataclass
class MasterState:
    """Mutable decomposition state: the cut pool and the master LP over it.

    ``lp`` has one column per x level and one epigraph column per tree,
    weighted by the tree's weight and bounded above by its best leaf revenue.
    Its rows are the cardinality row first and then one row per pooled cut,
    in pool order, so a basis of an earlier master fits a later one: new cuts
    only append rows.  ``basis`` is the optimal basis of the relaxation's
    last master solve, and ``bound``, that master's value, bounds B&B.
    """

    n: int
    lp: LinearProgram
    cardinality: int | None = None
    bound: float = float("inf")
    basis: WarmBasis | None = None
    pool: list[BendersCut] = field(default_factory=list)

    def add_cuts(self, cuts) -> int:
        """Pool the cuts, appending their rows to ``lp`` in one rebuild;
        returns how many."""
        new = list(cuts)
        if new:
            lp, n = self.lp, self.n
            rows = np.hstack([
                np.negative([cut.coef for cut in new]),
                np.eye(lp.num_cols - n)[[cut.tree for cut in new]],
            ])
            A = np.vstack([lp.A, rows])
            b = np.concatenate([lp.b, [cut.const for cut in new]])
            senses = lp.senses + (LE,) * len(new)
            self.lp = LinearProgram.build(lp.c, A, senses, b, lp.lb, ub=lp.ub)
            self.pool += new
        return len(new)


def _master_state(catalog, forest, cardinality) -> MasterState:
    check_cardinality(catalog.n, cardinality)
    n, k = catalog.n, len(forest.trees)
    theta_ub = [
        max(float(catalog.leaf_revenue(tree, l)) for l in tree.leaf_ids)
        for tree in forest.trees
    ]
    card = int(cardinality is not None)  # rows: 1 with a cardinality row, else 0
    lp = LinearProgram.build(
        c=np.concatenate([np.zeros(n), [float(w) for w in forest.weights]]),
        A=np.hstack([np.ones((card, n)), np.zeros((card, k))]),
        senses=[EQ] * card,
        b=[float(cardinality)] if card else [],
        lb=np.zeros(n + k),
        ub=np.concatenate([np.ones(n), theta_ub]),
    )
    return MasterState(n=n, lp=lp, cardinality=cardinality)


def _separate(kind: Kind, catalog, forest, x_vals, thetas, bases=None, tables=None):
    """The cuts violated at the master point (``x_vals``, ``thetas``).  A tree
    whose theta is within ``CUT_TOL`` of its sweep's value, which bounds its
    optimum from below, gets no certificate.

    ``tables``, one ``tree_table`` per tree, may be built once by the
    caller.  ``bases``, one entry per tree, carries each tree's product-oracle
    LP basis from one LP call to the next; it is updated in place.
    """
    trees = forest.trees
    if bases is None:
        bases = [None] * len(trees)
    if tables is None:
        tables = [tree_table(kind, catalog, tree) for tree in trees]
    if kind is Kind.LEAF:
        primal, dual = leaf_primal_greedy, leaf_dual_greedy
    elif kind is Kind.SPLIT:
        primal, dual = split_primal_greedy, split_dual_greedy
    cuts = []
    for t, tree in enumerate(trees):
        table, theta = tables[t], float(thetas[t])
        if kind is Kind.PRODUCT:
            y, trace = _sweep(table, x_vals)
        else:
            y, trace = primal(catalog, tree, x_vals, table=table)
        value = table.value(y)
        if theta <= value + CUT_TOL:
            continue
        prov = FRACTIONAL_GREEDY
        if kind is not Kind.PRODUCT:
            cert = dual(catalog, tree, trace)
        else:
            cert = _certified(table, trace, x_vals, value)
            if cert is None:
                value, cert, sol = product_subproblem_lp(
                    catalog, tree, x_vals, bases[t], table=table
                )
                bases[t] = sol.basis
                prov = FRACTIONAL_LP
                if theta <= value + CUT_TOL:
                    continue
        cuts.append(cut_from_certificate(cert, tree, t, catalog.n, prov))
    return cuts


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
    oracle_bases = [None] * len(forest.trees)
    tables = [tree_table(kind, catalog, tree) for tree in forest.trees]
    while rounds < max_rounds:
        rounds += 1
        sol = solve_lp(state.lp, warm=state.basis)
        if sol.status != "optimal":
            raise DomainError(f"master LP is {sol.status}")
        state.basis = sol.basis
        obj = float(sol.objective)
        if bounds and obj > bounds[-1] + 1e-7:
            log.warning("master bound increased: %.12g -> %.12g", bounds[-1], obj)
        bounds.append(obj)
        x_vals = tuple(float(v) for v in sol.x[:n])
        added = state.add_cuts(
            _separate(kind, catalog, forest, x_vals, sol.x[n:], oracle_bases, tables)
        )
        log.info("round %d: bound %.6f, cuts added %d", rounds, obj, added)
        if added == 0:
            state.bound = obj
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
    """B&B node and second limits: None, or finite and >= 0 (nodes integral)."""

    max_nodes: int | None = None
    max_seconds: float | None = None

    def __post_init__(self):
        for name, types in (("max_nodes", int), ("max_seconds", (int, float))):
            v = getattr(self, name)
            ok = isinstance(v, types) and not isinstance(v, bool) and 0 <= v < math.inf
            if v is not None and not ok:
                raise DomainError(f"budget {name} must be finite and >= 0, got {v!r}")


@dataclass
class BranchAndBoundResult:
    x: AssortmentVector | None
    value: float
    upper_bound: float
    gap_pct: float
    nodes: int
    optimal: bool
    cuts_added: int = 0


def _branch_and_bound(
    catalog, forest, master, budget: Budget | None, separate=None, root=None,
    root_bound=float("inf"),
):
    """Best-bound search over fixings of the x block (the first n columns).

    A node solves ``master.lp`` with its fixings applied to the bounds: the
    root from the start basis ``root`` when given (else cold), every other
    node from its parent's final basis.  The root's bound is ``root_bound``
    until it is solved.  At an integral point, ``separate(x_bin, point)`` may
    append cuts to ``master.lp`` and return how many; the node is then
    re-solved from its own basis.  An integral point without cuts
    competes for the incumbent with its model value, never the LP's.
    """
    n = catalog.n
    budget = budget or Budget()
    t0 = time.monotonic()
    counter = itertools.count()
    # entries (-bound, order, fixed0, fixed1, parent basis): best bound
    # first, ties by age
    heap = [(-root_bound, next(counter), frozenset(), frozenset(), None)]
    incumbent_x = None
    incumbent_val = -float("inf")
    nodes = 0
    cuts_added = 0

    while heap:
        if (budget.max_nodes is not None and nodes >= budget.max_nodes) or (
            budget.max_seconds is not None
            and time.monotonic() - t0 > budget.max_seconds
        ):
            break  # out of budget: the open nodes bound the optimum
        neg_bound, _, fixed0, fixed1, warm = heapq.heappop(heap)
        if -neg_bound <= incumbent_val + PRUNE_TOL:
            continue
        nodes += 1
        while True:
            lp = master.lp
            lb, ub = lp.lb.copy(), lp.ub.copy()
            for i in fixed0:
                ub[i - 1] = 0.0
            for i in fixed1:
                lb[i - 1] = 1.0
            lp = lp.with_bounds(lb, ub)
            if warm is None:  # the root; a None ``root`` is a cold start
                sol = solve_lp_multi(lp, [root])
            else:
                sol = solve_lp(lp, warm=warm)
            if sol.status != OPTIMAL or sol.objective <= incumbent_val + PRUNE_TOL:
                break
            warm = sol.basis
            obj = float(sol.objective)
            x_vals = tuple(float(v) for v in sol.x[:n])
            if any(abs(v - round(v)) > INT_TOL for v in x_vals):
                # most fractional first; ties fall to the smallest index via
                # max's first-wins behavior on equal keys
                j = max(range(n), key=lambda i: -abs(x_vals[i] - 0.5))
                heapq.heappush(heap, (-obj, next(counter), fixed0 | {j + 1}, fixed1, warm))
                heapq.heappush(heap, (-obj, next(counter), fixed0, fixed1 | {j + 1}, warm))
                break
            x_bin = tuple(int(round(v)) for v in x_vals)
            added = separate(x_bin, sol.x) if separate is not None else 0
            if added:
                cuts_added += added
                continue
            value = float(expected_revenue(catalog, forest, x_bin))
            if value > incumbent_val:
                incumbent_val = value
                incumbent_x = AssortmentVector(x_bin)
                log.info("incumbent %.6f at node %d", value, nodes)
            break

    open_bounds = [-e[0] for e in heap if -e[0] > incumbent_val + PRUNE_TOL]
    upper = max([incumbent_val] + open_bounds)
    if incumbent_x is None:
        gap = float("inf")
    else:
        gap = 0.0 if upper <= 0 else 100.0 * (upper - incumbent_val) / upper
    return BranchAndBoundResult(
        x=incumbent_x,
        value=incumbent_val,
        upper_bound=upper,
        gap_pct=gap,
        nodes=nodes,
        optimal=incumbent_x is not None and not open_bounds,
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

    Continues from the relaxation phase's state, its master and final basis;
    integral nodes are certified by evaluating every tree's closed-form cut
    and re-solved until no epigraph variable is violated.  Incumbent values
    are recomputed from the model, never read off the LP.
    """
    kind = as_kind(kind)
    n = catalog.n
    if state is None:
        state = _master_state(catalog, forest, cardinality)
    elif cardinality is not None and state.cardinality != cardinality:
        raise DomainError("cardinality differs from the relaxation state")

    tables = [tree_table(kind, catalog, tree) for tree in forest.trees]

    def separate(x_bin, point):
        cuts = []
        for t, tree in enumerate(forest.trees):
            g_t, cert = integer_cut(kind, catalog, tree, x_bin, table=tables[t])
            if float(point[n + t]) > float(g_t) + CUT_TOL:
                cut = cut_from_certificate(cert, tree, t, n, INTEGER_CLOSED_FORM)
                # x_bin may lie INT_TOL from the LP's x, where pooled cuts hold
                if point[n + t] > cut.value_at(point[:n]) + FEAS_TOL:
                    cuts.append(cut)
        return state.add_cuts(cuts)

    return _branch_and_bound(
        catalog, forest, state, budget, separate, state.basis, state.bound
    )


def branch_and_bound_monolithic(
    built: BuiltFormulation,
    catalog: ProductCatalog,
    forest: DecisionForest,
    budget: Budget | None = None,
) -> BranchAndBoundResult:
    """Solve a monolithic formulation to integrality by branching on x."""
    return _branch_and_bound(catalog, forest, built, budget, root=built.start_basis())


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
