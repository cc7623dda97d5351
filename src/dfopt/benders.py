"""Two-phase decomposition solver and the shared branch-and-bound engine.

The master problem keeps only the x levels plus one epigraph variable per
tree, bounded above by that tree's best leaf revenue.  Optimality cuts tie
each epigraph variable to its tree's subproblem value:

- Phase 1 (relaxation): plain constraint generation on the LP master.  Cut
  separation per tree uses the greedy primal/dual pair for the "leaf" and
  "split" granularities and the subproblem LP for "product".
- Phase 2 (integer): best-bound branch and bound on x inside a single tree,
  adding closed-form cuts lazily whenever a node's LP solution is integral
  and some epigraph variable exceeds its tree's traversal revenue.

The same engine also solves the monolithic formulations by branching on the
x block of the full LP.  Subproblem oracle calls within a cut round are
independent per tree; master solves and pool mutation are serialized, and
nodes are processed one at a time, so runs are deterministic.
"""

from __future__ import annotations

import heapq
import itertools
import logging
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, IterationLimitError
from .formulations import BuiltFormulation, Kind
from .lp import (
    EQ,
    LE,
    LinearProgram,
    WarmBasis,
    slack_columns,
    solve_lp_multi,
    solve_lp_with_basis,
)
from .model import (
    AssortmentVector,
    DecisionForest,
    ProductCatalog,
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
    if cert.kind == "product":
        items_a = cert.alpha.items()
        items_b = cert.beta.items()
        for i, a in items_a:
            coef[i - 1] += float(a)
        for i, b in items_b:
            coef[i - 1] -= float(b)
            const += float(b)
    else:
        for key, a in cert.alpha.items():
            s = key[0] if cert.kind == "leaf" else key
            coef[tree.split_product(s) - 1] += float(a)
        for key, b in cert.beta.items():
            s = key[0] if cert.kind == "leaf" else key
            coef[tree.split_product(s) - 1] -= float(b)
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
    """Mutable decomposition state: cut pool and master dimensions."""

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
        for cut in self.pool:
            row = np.zeros(ncols)
            row[:n] = [-v for v in cut.coef]
            row[n + cut.tree] = 1.0
            rows.append(row)
            senses.append(LE)
            rhs.append(cut.const)
        if self.cardinality is not None:
            row = np.zeros(ncols)
            row[:n] = 1.0
            rows.append(row)
            senses.append(EQ)
            rhs.append(float(self.cardinality))
        lb = np.zeros(ncols)
        ub = np.concatenate([np.ones(n), np.asarray(self.theta_ub, dtype=float)])
        for i in fixed0:
            ub[i - 1] = 0.0
        for i in fixed1:
            lb[i - 1] = 1.0
        A = np.array(rows) if rows else np.zeros((0, ncols))
        return LinearProgram.build(c=c, A=A, senses=senses, b=rhs, lb=lb, ub=ub)


def _master_state(catalog, forest, cardinality) -> MasterState:
    theta_ub = tuple(
        max(float(catalog.leaf_revenue(tree, l)) for l in tree.leaf_ids)
        for tree in forest.trees
    )
    weights = tuple(float(w) for w in forest.weights)
    return MasterState(
        n=catalog.n, theta_ub=theta_ub, weights=weights, cardinality=cardinality
    )


def _separate(kind: Kind, catalog, forest, x_vals):
    """Per-tree subproblem values and cut certificates at fractional x."""
    out = []
    for t, tree in enumerate(forest.trees):
        if kind is Kind.LEAF:
            y, trace = leaf_primal_greedy(catalog, tree, x_vals)
            value = sum(
                catalog.leaf_revenue(tree, l) * w for l, w in y.items() if w != 0
            )
            cert = leaf_dual_greedy(catalog, tree, trace)
            prov = FRACTIONAL_GREEDY
        elif kind is Kind.SPLIT:
            y, trace = split_primal_greedy(catalog, tree, x_vals)
            value = sum(
                catalog.leaf_revenue(tree, l) * w for l, w in y.items() if w != 0
            )
            cert = split_dual_greedy(catalog, tree, trace)
            prov = FRACTIONAL_GREEDY
        else:
            value, cert, _ = product_subproblem_lp(catalog, tree, x_vals)
            prov = FRACTIONAL_LP
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
    kind = Kind(kind)
    state = _master_state(catalog, forest, cardinality)
    n = catalog.n
    rounds = 0
    bounds: list[float] = []
    while rounds < max_rounds:
        rounds += 1
        sol = solve_lp_with_basis(state.master_lp(), None)
        if sol.status != "optimal":
            raise DomainError(f"master LP is {sol.status}")
        obj = float(sol.objective)
        if bounds and obj > bounds[-1] + 1e-7:
            log.warning("master bound increased: %.12g -> %.12g", bounds[-1], obj)
        bounds.append(obj)
        x_vals = tuple(float(v) for v in sol.x[:n])
        thetas = sol.x[n:]
        added = 0
        for t, (value, cert, prov) in enumerate(
            _separate(kind, catalog, forest, x_vals)
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


@dataclass(order=True)
class _Node:
    sort_bound: float
    order: int
    fixed0: frozenset[int] = field(compare=False)
    fixed1: frozenset[int] = field(compare=False)
    bound: float = field(compare=False, default=float("inf"))
    warm: object = field(compare=False, default=None)


def _branch_and_bound(n, solve_node, on_integral, budget: Budget | None):
    budget = budget or Budget()
    t0 = time.monotonic()
    counter = itertools.count()
    root = _Node(
        sort_bound=-float("inf"),
        order=next(counter),
        fixed0=frozenset(),
        fixed1=frozenset(),
    )
    heap = [root]
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
        node = heapq.heappop(heap)
        if node.bound <= incumbent_val + PRUNE_TOL:
            continue
        nodes += 1
        res = solve_node(node.fixed0, node.fixed1, node.warm)
        while True:
            if res is None:  # infeasible node
                break
            obj, x_vals, payload = res
            if obj <= incumbent_val + PRUNE_TOL:
                break
            frac = [abs(v - round(v)) for v in x_vals]
            if max(frac, default=0.0) <= INT_TOL:
                x_bin = tuple(int(round(v)) for v in x_vals)
                outcome = on_integral(x_bin, payload)
                if outcome[0] == "resolve":
                    cuts_added += outcome[1]
                    res = solve_node(node.fixed0, node.fixed1, node.warm)
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
            for fixed0, fixed1 in (
                (node.fixed0 | {j + 1}, node.fixed1),
                (node.fixed0, node.fixed1 | {j + 1}),
            ):
                child = _Node(
                    sort_bound=-obj,
                    order=next(counter),
                    fixed0=fixed0,
                    fixed1=fixed1,
                    bound=obj,
                    warm=payload.get("warm"),
                )
                heapq.heappush(heap, child)
            break

    open_bounds = [nd.bound for nd in heap if nd.bound > incumbent_val + PRUNE_TOL]
    if exhausted and open_bounds:
        upper = max(open_bounds)
        optimal = False
    elif exhausted:
        upper = max(incumbent_val, -float("inf"))
        optimal = incumbent_x is not None
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
    kind = Kind(kind)
    n = catalog.n
    if state is None:
        state = _master_state(catalog, forest, cardinality)
    elif cardinality is not None and state.cardinality != cardinality:
        raise DomainError("cardinality differs from the relaxation state")

    def solve_node(fixed0, fixed1, warm):
        sol = solve_lp_with_basis(state.master_lp(fixed0, fixed1), warm)
        if sol.status != "optimal":
            return None
        x_vals = tuple(float(v) for v in sol.x[:n])
        payload = {
            "theta": tuple(float(v) for v in sol.x[n:]),
            "warm": sol.basis,
        }
        return float(sol.objective), x_vals, payload

    def on_integral(x_bin, payload):
        thetas = payload["theta"]
        added = 0
        value = 0.0
        for t, tree in enumerate(forest.trees):
            g_t, cert = integer_cut(kind.value, catalog, tree, x_bin)
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

    return _branch_and_bound(n, solve_node, on_integral, budget)


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
        ones |= set(topped)
        anchor = topped[0] if topped else None
        if anchor is None:
            return None  # all offered products are fixed; no free basic column
        card_col = anchor - 1
    x0 = tuple(1 if i in ones else 0 for i in range(1, n + 1))
    basic = []
    for t, tree in enumerate(forest.trees):
        _, leaf_star = traverse(tree, x0)
        basic.append(built.y_cols[(t, leaf_star)])
    if card_col is not None:
        basic.append(card_col)
    at_upper = []
    for i in ones:
        if i not in fixed1 and i - 1 != card_col:
            at_upper.append(i - 1)  # free product offered: park at upper bound
    basic_by_row = [None] * built.lp.num_rows
    # rows appear as: per tree a unit row then its capacity rows; card row last
    eq_positions = [
        i for i, s in enumerate(built.lp.senses) if s == EQ
    ]
    tree_rows = eq_positions[: len(forest.trees)]
    for pos, col in zip(tree_rows, basic[: len(forest.trees)]):
        basic_by_row[pos] = col
    if card_col is not None:
        basic_by_row[eq_positions[len(forest.trees)]] = card_col
    for i, s in enumerate(built.lp.senses):
        if s != EQ:
            basic_by_row[i] = slack_cols[i]
    if any(b is None for b in basic_by_row):
        return None
    return WarmBasis(basic=tuple(basic_by_row), at_upper=tuple(sorted(at_upper)))


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
        analytic = _monolithic_start_basis(built, forest, fixed0, fixed1, slack_cols)
        sol = solve_lp_multi(built.lp.with_bounds(lb, ub), [warm, analytic])
        if sol.status != "optimal":
            return None
        x_vals = tuple(float(v) for v in sol.x[:n])
        return float(sol.objective), x_vals, {"warm": sol.basis}

    def on_integral(x_bin, payload):
        return ("incumbent", float(expected_revenue(catalog, forest, x_bin)))

    return _branch_and_bound(n, solve_node, on_integral, budget)


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
