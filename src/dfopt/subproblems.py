"""Per-tree subproblem oracles for the decomposition solver.

Each tree contributes a small LP in the leaf-weight variables y: maximize the
leaf revenues subject to the unit-sum row and the branch capacities implied by
the (possibly fractional) assortment levels x.  Two constraint granularities
admit a greedy solution:

- per-(split, leaf) rows: ``leaf_primal_greedy`` / ``leaf_dual_greedy``;
- per-split aggregated rows: ``split_primal_greedy`` / ``split_dual_greedy``.

The primal sweeps walk leaves in nonincreasing revenue order, give each leaf
the largest feasible weight, and record which capacity became tight as an
event (A = left capacity, B = right capacity, C = unit sum; C terminates).
The dual constructions replay the event trace to produce a matching optimal
dual point, which is certified by strong duality and is the raw material for
an optimality cut.

The per-product aggregation (one row per product of the tree) does not admit
this greedy; ``product_subproblem_lp`` solves it with the bundled simplex,
while ``product_greedy_sweep`` implements the (generally suboptimal) sweep
for demonstration.  For binary x all three granularities have the same
closed-form optimum, provided by ``integer_cut``.

Arithmetic is pure Python throughout, so exact inputs (ints, Fractions)
produce exact outputs.

All functions are pure; the tie rules (unit-sum event wins ties, then
shallower split, then smaller node id; tolerance 1e-12 on capacity
comparisons) make traces deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .errors import ContractViolation, DomainError
from .lp import LE, EQ, LinearProgram, LpSolution, solve_lp
from .model import Number, ProductCatalog, PurchaseTree, as_values, traverse

LEAF = "leaf"
SPLIT = "split"
PRODUCT = "product"

#: Capacities closer than this are treated as tied.
TIE_TOL = 1e-12

EVENT_C = ("C",)


@dataclass(frozen=True)
class EventTrace:
    """Which capacity went tight at each step of a primal greedy sweep.

    ``events`` are ``("A", s, l)`` / ``("B", s, l)`` / ``("C",)`` for the
    per-(split, leaf) sweep and ``("A", s)`` / ``("B", s)`` / ``("C",)`` for
    the per-split sweep; ``f`` maps each event to the leaf being processed
    when it occurred.  A completed sweep records exactly one C event.
    """

    kind: str
    events: tuple[tuple, ...]
    f: Mapping[tuple, int]
    order: tuple[int, ...]


@dataclass(frozen=True)
class DualCertificate:
    """Dual point (alpha, beta, gamma) for one tree's subproblem.

    Keys of ``alpha``/``beta`` depend on the variant: (split, leaf) pairs,
    split ids, or product ids.  All multipliers are nonnegative and only
    nonzero entries are stored.
    """

    kind: str
    alpha: Mapping
    beta: Mapping
    gamma: Number

    def objective(self, tree: PurchaseTree, x) -> Number:
        """Value of the dual objective at levels x; equals the cut value."""
        vals = as_values(x)
        total = self.gamma
        if self.kind == PRODUCT:
            for i, a in self.alpha.items():
                total += a * vals[i - 1]
            for i, b in self.beta.items():
                total += b * (1 - vals[i - 1])
        else:
            for key, a in self.alpha.items():
                s = key[0] if self.kind == LEAF else key
                total += a * vals[tree.split_product(s) - 1]
            for key, b in self.beta.items():
                s = key[0] if self.kind == LEAF else key
                total += b * (1 - vals[tree.split_product(s) - 1])
        return total

    def row_slacks(self, catalog: ProductCatalog, tree: PurchaseTree) -> dict[int, Number]:
        """Per-leaf slack of the dual rows (>= 0 iff the dual is feasible)."""
        slacks = {}
        for l in tree.leaf_ids:
            lhs = self.gamma
            if self.kind == LEAF:
                for s in tree.left_splits[l]:
                    lhs += self.alpha.get((s, l), 0)
                for s in tree.right_splits[l]:
                    lhs += self.beta.get((s, l), 0)
            elif self.kind == SPLIT:
                for s in tree.left_splits[l]:
                    lhs += self.alpha.get(s, 0)
                for s in tree.right_splits[l]:
                    lhs += self.beta.get(s, 0)
            else:
                for i in tree.leaf_in_products[l]:
                    lhs += self.alpha.get(i, 0)
                for i in tree.leaf_out_products[l]:
                    lhs += self.beta.get(i, 0)
            slacks[l] = lhs - catalog.leaf_revenue(tree, l)
        return slacks


def leaf_order(catalog: ProductCatalog, tree: PurchaseTree) -> tuple[int, ...]:
    """Leaves sorted by nonincreasing revenue, ties by ascending node id."""
    return tuple(
        sorted(tree.leaf_ids, key=lambda l: (-catalog.leaf_revenue(tree, l), l))
    )


def _check_order(catalog, tree, order):
    if order is None:
        return leaf_order(catalog, tree)
    order = tuple(order)
    if sorted(order) != list(tree.leaf_ids):
        raise DomainError("order is not a permutation of the tree's leaves")
    revs = [catalog.leaf_revenue(tree, l) for l in order]
    if any(revs[i] < revs[i + 1] for i in range(len(revs) - 1)):
        raise DomainError("order is not nonincreasing in revenue")
    return order


def _split_rank(tree: PurchaseTree, s: int) -> tuple[int, int]:
    return (tree.depth[s], s)


# ---------------------------------------------------------------------------
# Per-(split, leaf) granularity
# ---------------------------------------------------------------------------


def leaf_primal_greedy(
    catalog: ProductCatalog, tree: PurchaseTree, x, order=None
) -> tuple[dict[int, Number], EventTrace]:
    """Greedy optimum of the per-(split, leaf) subproblem.

    Capacities for a leaf are the raw levels x of its left splits and 1 - x
    of its right splits (no aggregation), plus the remaining unit-sum budget.
    Returns the leaf weights and the event trace.
    """
    vals = as_values(x)
    order = _check_order(catalog, tree, order)
    y: dict[int, Number] = {l: 0 for l in tree.leaf_ids}
    events: list[tuple] = []
    f: dict[tuple, int] = {}
    assigned = 0
    for l in order:
        q_c = 1 - assigned
        best_a = None
        for s in tree.left_splits[l]:
            q = vals[tree.split_product(s) - 1]
            if best_a is None or q < best_a[0] - TIE_TOL or (
                abs(q - best_a[0]) <= TIE_TOL and _split_rank(tree, s) < best_a[1]
            ):
                best_a = (q, _split_rank(tree, s), s)
        best_b = None
        for s in tree.right_splits[l]:
            q = 1 - vals[tree.split_product(s) - 1]
            if best_b is None or q < best_b[0] - TIE_TOL or (
                abs(q - best_b[0]) <= TIE_TOL and _split_rank(tree, s) < best_b[1]
            ):
                best_b = (q, _split_rank(tree, s), s)

        q_a = best_a[0] if best_a is not None else None
        q_b = best_b[0] if best_b is not None else None
        q_star = q_c
        for q in (q_a, q_b):
            if q is not None and q < q_star:
                q_star = q
        y[l] = q_star
        assigned += q_star
        if q_c <= q_star + TIE_TOL:
            events.append(EVENT_C)
            f[EVENT_C] = l
            break
        if q_a is not None and q_a <= q_star + TIE_TOL:
            ev = ("A", best_a[2], l)
        else:
            ev = ("B", best_b[2], l)
        events.append(ev)
        f[ev] = l
    trace = EventTrace(kind=LEAF, events=tuple(events), f=f, order=order)
    return y, trace


def leaf_dual_greedy(
    catalog: ProductCatalog, tree: PurchaseTree, trace: EventTrace
) -> DualCertificate:
    """Dual point matching a per-(split, leaf) primal sweep."""
    if trace.kind != LEAF:
        raise ContractViolation("trace kind mismatch")
    if EVENT_C not in trace.f:
        raise ContractViolation("trace has no C event")
    gamma = catalog.leaf_revenue(tree, trace.f[EVENT_C])
    alpha: dict[tuple[int, int], Number] = {}
    beta: dict[tuple[int, int], Number] = {}
    for ev in trace.events:
        if ev[0] == "A":
            _, s, l = ev
            v = catalog.leaf_revenue(tree, l) - gamma
            if v != 0:
                alpha[(s, l)] = v
        elif ev[0] == "B":
            _, s, l = ev
            v = catalog.leaf_revenue(tree, l) - gamma
            if v != 0:
                beta[(s, l)] = v
    return DualCertificate(kind=LEAF, alpha=alpha, beta=beta, gamma=gamma)


# ---------------------------------------------------------------------------
# Per-split granularity
# ---------------------------------------------------------------------------


def split_primal_greedy(
    catalog: ProductCatalog, tree: PurchaseTree, x, order=None
) -> tuple[dict[int, Number], EventTrace]:
    """Greedy optimum of the per-split aggregated subproblem.

    Each split carries a residual capacity (its level minus the weight already
    parked on that side); the sweep assigns each leaf the smallest residual
    along its path, capped by the unit-sum budget.  The unit-sum event wins
    ties, then the shallowest (smallest id) tight split is recorded, each
    split at most once.
    """
    vals = as_values(x)
    order = _check_order(catalog, tree, order)
    y: dict[int, Number] = {l: 0 for l in tree.leaf_ids}
    used_left: dict[int, Number] = {s: 0 for s in tree.split_ids}
    used_right: dict[int, Number] = {s: 0 for s in tree.split_ids}
    events: list[tuple] = []
    f: dict[tuple, int] = {}
    assigned = 0
    for l in order:
        q_c = 1 - assigned
        best = None  # (q, rank, split, is_left)
        for s in tree.left_splits[l]:
            q = vals[tree.split_product(s) - 1] - used_left[s]
            if best is None or q < best[0] - TIE_TOL or (
                abs(q - best[0]) <= TIE_TOL and _split_rank(tree, s) < best[1]
            ):
                best = (q, _split_rank(tree, s), s, True)
        for s in tree.right_splits[l]:
            q = 1 - vals[tree.split_product(s) - 1] - used_right[s]
            if best is None or q < best[0] - TIE_TOL or (
                abs(q - best[0]) <= TIE_TOL and _split_rank(tree, s) < best[1]
            ):
                best = (q, _split_rank(tree, s), s, False)

        q_ab = best[0] if best is not None else None
        q_star = q_c if q_ab is None else min(q_c, q_ab)
        y[l] = q_star
        assigned += q_star
        for s in tree.left_splits[l]:
            used_left[s] += q_star
        for s in tree.right_splits[l]:
            used_right[s] += q_star
        if q_c <= q_star + TIE_TOL:
            events.append(EVENT_C)
            f[EVENT_C] = l
            break
        ev = ("A", best[2]) if best[3] else ("B", best[2])
        if ev not in f:
            events.append(ev)
            f[ev] = l
    trace = EventTrace(kind=SPLIT, events=tuple(events), f=f, order=order)
    return y, trace


def split_dual_greedy(
    catalog: ProductCatalog, tree: PurchaseTree, trace: EventTrace
) -> DualCertificate:
    """Dual point matching a per-split primal sweep.

    Multipliers are filled in increasing split depth; each event's multiplier
    is the revenue of its leaf minus gamma and minus the multipliers already
    set on shallower event splits along that leaf's path.
    """
    if trace.kind != SPLIT:
        raise ContractViolation("trace kind mismatch")
    if EVENT_C not in trace.f:
        raise ContractViolation("trace has no C event")
    gamma = catalog.leaf_revenue(tree, trace.f[EVENT_C])
    alpha: dict[int, Number] = {}
    beta: dict[int, Number] = {}

    def shallower_sum(l: int, d: int) -> Number:
        total = 0
        for s2 in tree.left_splits[l]:
            if tree.depth[s2] < d and s2 in alpha:
                total += alpha[s2]
        for s2 in tree.right_splits[l]:
            if tree.depth[s2] < d and s2 in beta:
                total += beta[s2]
        return total

    for d in range(1, tree.max_depth + 1):
        for s in tree.splits_at_depth.get(d, ()):
            ev_a = ("A", s)
            if ev_a in trace.f:
                l = trace.f[ev_a]
                alpha[s] = catalog.leaf_revenue(tree, l) - gamma - shallower_sum(l, d)
            ev_b = ("B", s)
            if ev_b in trace.f:
                l = trace.f[ev_b]
                beta[s] = catalog.leaf_revenue(tree, l) - gamma - shallower_sum(l, d)
    alpha = {s: v for s, v in alpha.items() if v != 0}
    beta = {s: v for s, v in beta.items() if v != 0}
    return DualCertificate(kind=SPLIT, alpha=alpha, beta=beta, gamma=gamma)


# ---------------------------------------------------------------------------
# Closed-form optima for binary assortments (all three granularities)
# ---------------------------------------------------------------------------


def integer_cut(
    kind: str, catalog: ProductCatalog, tree: PurchaseTree, x
) -> tuple[Number, DualCertificate]:
    """Closed-form subproblem optimum and dual at a binary assortment.

    The primal optimum puts weight 1 on the traversal leaf, worth its revenue.
    The dual charges each branch that was not taken the excess revenue
    reachable behind it; evaluated at this x the dual equals the traversal
    revenue, and it remains a valid upper bound on the subproblem optimum at
    every binary assortment.
    """
    vals = as_values(x)
    if any(v != 0 and v != 1 for v in vals):
        raise ContractViolation("integer_cut requires a binary assortment")
    _, leaf_star = traverse(tree, vals)
    r_star = catalog.leaf_revenue(tree, leaf_star)
    rev = lambda l: catalog.leaf_revenue(tree, l)

    alpha: dict = {}
    beta: dict = {}
    if kind == LEAF:
        for s in tree.right_splits[leaf_star]:
            for l in tree.left_leaves[s]:
                v = rev(l) - r_star
                if v > 0:
                    alpha[(s, l)] = v
        for s in tree.left_splits[leaf_star]:
            for l in tree.right_leaves[s]:
                v = rev(l) - r_star
                if v > 0:
                    beta[(s, l)] = v
    elif kind == SPLIT:
        for s in tree.right_splits[leaf_star]:
            v = max(rev(l) for l in tree.left_leaves[s]) - r_star
            if v > 0:
                alpha[s] = v
        for s in tree.left_splits[leaf_star]:
            v = max(rev(l) for l in tree.right_leaves[s]) - r_star
            if v > 0:
                beta[s] = v
    elif kind == PRODUCT:
        for i in tree.leaf_out_products[leaf_star]:
            v = max(rev(l) for l in tree.product_left_leaves[i]) - r_star
            if v > 0:
                alpha[i] = v
        for i in tree.leaf_in_products[leaf_star]:
            v = max(rev(l) for l in tree.product_right_leaves[i]) - r_star
            if v > 0:
                beta[i] = v
    else:
        raise DomainError(f"unknown kind {kind!r}")
    cert = DualCertificate(kind=kind, alpha=alpha, beta=beta, gamma=r_star)
    return r_star, cert


# ---------------------------------------------------------------------------
# Per-product granularity (LP only; the greedy sweep is not valid here)
# ---------------------------------------------------------------------------


def _product_subproblem_lp_data(catalog, tree, vals):
    leaves = tree.leaf_ids
    col = {l: j for j, l in enumerate(leaves)}
    c = [float(catalog.leaf_revenue(tree, l)) for l in leaves]
    rows = []
    senses = []
    rhs = []
    rows.append([1.0] * len(leaves))
    senses.append(EQ)
    rhs.append(1.0)
    row_meta: list[tuple] = [("unit",)]
    for i in tree.products:
        row = [0.0] * len(leaves)
        for l in tree.product_left_leaves[i]:
            row[col[l]] = 1.0
        rows.append(row)
        senses.append(LE)
        rhs.append(float(vals[i - 1]))
        row_meta.append(("left", i))
        row = [0.0] * len(leaves)
        for l in tree.product_right_leaves[i]:
            row[col[l]] = 1.0
        rows.append(row)
        senses.append(LE)
        rhs.append(1.0 - float(vals[i - 1]))
        row_meta.append(("right", i))
    lp = LinearProgram.build(c=c, A=rows, senses=senses, b=rhs)
    return lp, row_meta, leaves


def product_subproblem_lp(
    catalog: ProductCatalog, tree: PurchaseTree, x
) -> tuple[float, DualCertificate, LpSolution]:
    """Per-product subproblem via the bundled simplex; duals become the cut."""
    vals = as_values(x)
    lp, row_meta, _ = _product_subproblem_lp_data(catalog, tree, vals)
    sol = solve_lp(lp)
    if sol.status != "optimal":
        raise ContractViolation(f"product subproblem LP is {sol.status}")
    alpha: dict[int, float] = {}
    beta: dict[int, float] = {}
    gamma = 0.0
    for (tag, *rest), price in zip(row_meta, sol.duals):
        price = float(price)
        if tag == "unit":
            gamma = price
        elif tag == "left":
            if price > 1e-11:
                alpha[rest[0]] = price
        else:
            if price > 1e-11:
                beta[rest[0]] = price
    cert = DualCertificate(kind=PRODUCT, alpha=alpha, beta=beta, gamma=gamma)
    return float(sol.objective), cert, sol


def product_greedy_sweep(
    catalog: ProductCatalog, tree: PurchaseTree, x, order=None
) -> tuple[dict[int, Number], Number]:
    """Greedy sweep against the per-product rows (not optimal in general).

    Follows the same ordering and tie rules as the valid sweeps; exists to
    demonstrate where per-product aggregation defeats the greedy argument.
    """
    vals = as_values(x)
    order = _check_order(catalog, tree, order)
    used_left: dict[int, Number] = {i: 0 for i in tree.products}
    used_right: dict[int, Number] = {i: 0 for i in tree.products}
    y: dict[int, Number] = {l: 0 for l in tree.leaf_ids}
    assigned = 0
    for l in order:
        q = 1 - assigned
        for i in tree.leaf_in_products[l]:
            q = min(q, vals[i - 1] - used_left[i])
        for i in tree.leaf_out_products[l]:
            q = min(q, 1 - vals[i - 1] - used_right[i])
        if q < 0:
            q = 0
        y[l] = q
        assigned += q
        for i in tree.leaf_in_products[l]:
            used_left[i] += q
        for i in tree.leaf_out_products[l]:
            used_right[i] += q
        if assigned >= 1:
            break
    value = sum(catalog.leaf_revenue(tree, l) * w for l, w in y.items() if w != 0)
    return y, value


# ---------------------------------------------------------------------------
# Knapsack view of the per-(split, leaf) subproblem
# ---------------------------------------------------------------------------


def knapsack_view(
    catalog: ProductCatalog, tree: PurchaseTree, x
) -> tuple[dict[int, Number], Number]:
    """Leaf weights and the greedy optimum of the relaxed (<= 1) subproblem.

    A leaf's weight is the tightest raw capacity along its path, capped at 1;
    filling leaves by revenue until the budget is spent is the fractional
    knapsack optimum because every leaf's profit-to-weight ratio is its
    revenue.
    """
    vals = as_values(x)
    w: dict[int, Number] = {}
    for l in tree.leaf_ids:
        cap = 1
        for s in tree.left_splits[l]:
            cap = min(cap, vals[tree.split_product(s) - 1])
        for s in tree.right_splits[l]:
            cap = min(cap, 1 - vals[tree.split_product(s) - 1])
        w[l] = cap
    remaining = 1
    value = 0
    for l in leaf_order(catalog, tree):
        if remaining <= 0:
            break
        take = min(w[l], remaining)
        if take > 0:
            value += take * catalog.leaf_revenue(tree, l)
            remaining -= take
    return w, value
