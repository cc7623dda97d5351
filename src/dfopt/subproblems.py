"""Per-tree subproblem oracles for the decomposition solver.

Each tree contributes a small LP in the leaf weights y: maximize the leaf
revenues subject to the unit-sum row and the tree's capacity rows
(``formulations.capacity_rows``), whose right-hand sides are the (possibly
fractional) assortment levels x.

One greedy sweep serves every granularity.  It takes the leaves in
nonincreasing revenue order and gives each the smallest residual capacity
among the rows that hold it (``formulations.leaf_rows``), capped by the
unit-sum budget, recording the row that went tight as an event (A = left
row, B = right row, C = unit sum, which ends the sweep).  One dual replay
turns the events, root-first, into a dual point of equal value: the
certificate behind an optimality cut.  On the per-(split, leaf) and per-split
rows the pair is exact (``leaf_*_greedy``, ``split_*_greedy``).

The per-product rows can defeat the sweep: a product row groups the leaves
under several splits of one product, so weight parked on one branch uses up
capacity that a later leaf under another split of the product needed.  The
sweep is still optimal at most points, and its replayed dual proves it when
it is feasible and as good: ``_certified`` returns that dual only then, and
``product_subproblem_lp`` solves the rows with the bundled simplex when that
check fails.  That LP is the tree's own per-product formulation
(``formulations.build`` of the tree alone), built once per tree, with its x
columns fixed at each call by their bounds.  Its dual simplex starts from
the tree's previous basis, or on the first call from the basis where the
tree buys its best leaf (``BuiltFormulation.start_basis``); both are dual
feasible at every x.  For binary x all three granularities share the
closed-form optimum of ``integer_cut``.  The sweep's weights are feasible,
so its value bounds the optimum from below: the decomposition certifies
only a tree whose epigraph value beats that bound, where a cut follows.
The oracles read one ``TreeTable`` per tree and granularity, which a caller
builds once per tree, and refuse an x with other than one level per product.

Arithmetic is pure Python, so exact inputs (ints, Fractions) give exact
outputs.  All functions are pure; the tie rules (the unit-sum event wins,
then the first row in ``leaf_rows`` order; capacities within ``TIE_TOL`` tie)
make traces deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator, Mapping

from .errors import ContractViolation
from .formulations import (
    BuiltFormulation,
    Kind,
    as_kind,
    build,
    capacity_rows,
    leaf_rows,
    row_product,
)
from .lp import OPT_TOL, LpSolution, WarmBasis, solve_lp
from .model import (
    DecisionForest,
    Number,
    ProductCatalog,
    PurchaseTree,
    as_values,
    check_size,
    traverse,
)

#: Capacities closer than this are treated as tied.
TIE_TOL = 1e-12
#: ``_certified`` accepts a replayed dual whose leaf rows are
#: violated by at most this and whose objective is within this of the sweep's
#: value.  A leaf's dual row slack is the reduced cost of its weight in
#: ``product_subproblem_lp``, which the simplex calls optimal at ``OPT_TOL``,
#: so the sweep's dual is held to the LP's own bar.
CERT_TOL = OPT_TOL

EVENT_C = ("C",)


@dataclass(frozen=True)
class EventTrace:
    """Which capacity went tight at each step of a primal greedy sweep.

    ``events`` are ``("A", key)`` / ``("B", key)`` for a left / right
    capacity row, keyed as in ``capacity_rows`` (``(s, l)`` per-(split, leaf),
    ``s`` per split), and ``("C",)`` for the unit sum; ``f`` maps each event
    to the leaf being processed when it occurred.  Each row is recorded at
    most once, and a completed sweep ends with exactly one C event.
    ``table`` is the ``TreeTable`` the sweep read; the dual replay reads it
    too, so a trace replays only on its own tree.
    """

    kind: Kind
    events: tuple[tuple, ...]
    f: Mapping[tuple, int]
    table: TreeTable | None = field(default=None, repr=False, compare=False)


@dataclass(frozen=True)
class DualCertificate:
    """Dual point (alpha, beta, gamma) for one tree's subproblem.

    ``alpha`` prices the left rows and ``beta`` the right rows of
    ``capacity_rows(kind, tree)``, keyed by the rows' keys.  All multipliers
    are nonnegative and only nonzero entries are stored.
    """

    kind: Kind
    alpha: Mapping
    beta: Mapping
    gamma: Number

    def objective(self, catalog: ProductCatalog, tree: PurchaseTree, x) -> Number:
        """Value of the dual objective at levels x; equals the cut value."""
        vals = as_values(x)
        check_size(catalog, vals)
        total = self.gamma
        for key, a in self.alpha.items():
            total += a * vals[row_product(self.kind, tree, key) - 1]
        for key, b in self.beta.items():
            total += b * (1 - vals[row_product(self.kind, tree, key) - 1])
        return total

    def row_slacks(self, catalog: ProductCatalog, tree: PurchaseTree) -> dict[int, Number]:
        """Per-leaf slack of the dual rows (>= 0 iff the dual is feasible)."""
        return dict(tree_table(self.kind, catalog, tree).slacks(self))


def leaf_order(catalog: ProductCatalog, tree: PurchaseTree) -> tuple[int, ...]:
    """Leaves sorted by nonincreasing revenue, ties by ascending node id."""
    return tuple(
        sorted(tree.leaf_ids, key=lambda l: (-catalog.leaf_revenue(tree, l), l))
    )


@dataclass(frozen=True)
class TreeTable:
    """What the oracles read of one tree at one granularity.

    ``catalog`` is the tree's catalog, ``order`` is ``leaf_order`` and
    ``revenue`` each leaf's revenue.  Three parts are built on first use:
    ``rows(l)``, the ``leaf_rows`` of leaf l, which the sweep, the replay and
    ``slacks`` read; ``cuts[l]``, for ``integer_cut``, each row of
    ``capacity_rows`` whose opposite branch holds leaf l and one of whose
    leaves earns more than l, as ``(key, left, excess)`` in row order, where
    ``excess`` is the largest revenue among the row's leaves minus l's; and,
    at the per-product granularity, ``product_lp`` for
    ``product_subproblem_lp``.  A caller that separates the same tree many
    times builds the table once (``tree_table``) and passes it as
    ``table=``; without one, every call builds its own.
    """

    kind: Kind
    catalog: ProductCatalog
    tree: PurchaseTree
    order: tuple[int, ...]
    revenue: Mapping[int, Number]
    _rows: dict = field(default_factory=dict, repr=False, compare=False)

    def rows(self, leaf: int) -> list[tuple]:
        rows = self._rows.get(leaf)
        if rows is None:
            rows = self._rows[leaf] = leaf_rows(self.kind, self.tree, leaf)
        return rows

    @cached_property
    def cuts(self) -> dict[int, list[tuple]]:
        cuts: dict[int, list[tuple]] = {l: [] for l in self.tree.leaf_ids}
        for key, _, left, leaves, other in capacity_rows(self.kind, self.tree):
            top = max(self.revenue[l] for l in leaves)
            for l in other:
                if top - self.revenue[l] > 0:
                    cuts[l].append((key, left, top - self.revenue[l]))
        return cuts

    @cached_property
    def product_lp(self) -> tuple[BuiltFormulation, list[tuple], WarmBasis]:
        """The tree's per-product formulation, its rows and its start basis.

        ``build`` of the tree alone: columns x, then the leaf weights by
        ascending leaf id; row 0 is the unit sum, then one row per
        ``capacity_rows`` entry.  ``_at_levels`` fixes x by its bounds.
        """
        built = build(Kind.PRODUCT, self.catalog, DecisionForest((self.tree,), (1,)))
        return built, capacity_rows(Kind.PRODUCT, self.tree), built.start_basis()

    def slacks(self, cert: DualCertificate) -> Iterator[tuple[int, Number]]:
        """``(leaf, slack)`` per leaf: gamma - revenue plus the prices of
        ``rows(leaf)`` in order; all >= 0 iff ``cert`` is dual feasible."""
        price = (cert.beta, cert.alpha)
        for l in self.tree.leaf_ids:
            slack = cert.gamma - self.revenue[l]
            for _, key, _, left in self.rows(l):
                slack += price[left].get(key, 0)
            yield l, slack

    def value(self, y: Mapping[int, Number]) -> Number:
        """Revenue of the leaf weights y."""
        return sum(self.revenue[l] * w for l, w in y.items() if w != 0)


def tree_table(kind, catalog: ProductCatalog, tree: PurchaseTree) -> TreeTable:
    """The tree's oracle table at granularity ``kind``."""
    return TreeTable(
        kind=as_kind(kind),
        catalog=catalog,
        tree=tree,
        order=leaf_order(catalog, tree),
        revenue={l: catalog.leaf_revenue(tree, l) for l in tree.leaf_ids},
    )


# ---------------------------------------------------------------------------
# One greedy sweep and one dual replay over the capacity rows
# ---------------------------------------------------------------------------


def _sweep(table: TreeTable, x) -> tuple[dict, EventTrace]:
    """The greedy sweep against the capacity rows of one granularity."""
    vals = as_values(x)
    check_size(table.catalog, vals)
    y: dict[int, Number] = {l: 0 for l in table.tree.leaf_ids}
    used: tuple[dict, dict] = ({}, {})  # weight parked per row key: right, left
    events: list[tuple] = []
    f: dict[tuple, int] = {}
    assigned = 0
    for l in table.order:
        rows = table.rows(l)
        best = None
        for _, key, i, left in rows:
            q = (vals[i - 1] if left else 1 - vals[i - 1]) - used[left].get(key, 0)
            if best is None or q < best[0] - TIE_TOL:
                best = (q, key, left)
        q_c = 1 - assigned
        q_star = q_c if best is None else min(q_c, best[0])
        y[l] = q_star
        assigned += q_star
        for _, key, _, left in rows:
            used[left][key] = used[left].get(key, 0) + q_star
        if q_c <= q_star + TIE_TOL:
            events.append(EVENT_C)
            f[EVENT_C] = l
            break
        ev = ("A" if best[2] else "B", best[1])
        if ev not in f:
            events.append(ev)
            f[ev] = l
    return y, EventTrace(kind=table.kind, events=tuple(events), f=f, table=table)


def _replay(table: TreeTable, trace: EventTrace) -> DualCertificate:
    """The dual point matching a sweep, from its events.

    Gamma is the revenue of the C leaf.  Multipliers are set root-first: each
    event row gets the revenue of its leaf minus gamma and minus the
    multipliers already set on the rows that hold that leaf.
    """
    if trace.kind != table.kind:
        raise ContractViolation("trace kind mismatch")
    if EVENT_C not in trace.f:
        raise ContractViolation("trace has no C event")
    revenue = table.revenue
    gamma = revenue[trace.f[EVENT_C]]
    steps = []
    for ev in trace.events:
        if ev != EVENT_C:
            rows = table.rows(trace.f[ev])
            for s, key, _, left in rows:
                if key == ev[1] and left == (ev[0] == "A"):
                    break
            else:
                raise ContractViolation(f"event {ev} is not a row of its leaf")
            steps.append((table.tree.depth[s], s, key, left, trace.f[ev], rows))
    steps.sort(key=lambda step: step[:2])
    price: tuple[dict, dict] = ({}, {})  # multipliers per row key: beta, alpha
    for _, _, key, left, l, rows in steps:
        shallower = 0
        for _, k, _, lf in rows:
            shallower += price[lf].get(k, 0)
        price[left][key] = revenue[l] - gamma - shallower
    alpha = {key: v for key, v in price[True].items() if v != 0}
    beta = {key: v for key, v in price[False].items() if v != 0}
    return DualCertificate(kind=table.kind, alpha=alpha, beta=beta, gamma=gamma)


def _table(kind, catalog, tree, table):
    """``table``, checked against the call, or a new one when it is None."""
    if table is None:
        return tree_table(kind, catalog, tree)
    if table.kind != kind or table.tree is not tree:
        raise ContractViolation("table of another kind or tree")
    return table


def leaf_primal_greedy(
    catalog: ProductCatalog, tree: PurchaseTree, x, *, table: TreeTable | None = None
) -> tuple[dict[int, Number], EventTrace]:
    """Greedy optimum of the per-(split, leaf) subproblem: weights and trace."""
    return _sweep(_table(Kind.LEAF, catalog, tree, table), x)


def leaf_dual_greedy(
    catalog: ProductCatalog, tree: PurchaseTree, trace: EventTrace
) -> DualCertificate:
    """Dual point matching a per-(split, leaf) sweep; a multiplier is r - gamma."""
    return _replay(_table(Kind.LEAF, catalog, tree, trace.table), trace)


def split_primal_greedy(
    catalog: ProductCatalog, tree: PurchaseTree, x, *, table: TreeTable | None = None
) -> tuple[dict[int, Number], EventTrace]:
    """Greedy optimum of the per-split aggregated subproblem: weights and trace."""
    return _sweep(_table(Kind.SPLIT, catalog, tree, table), x)


def split_dual_greedy(
    catalog: ProductCatalog, tree: PurchaseTree, trace: EventTrace
) -> DualCertificate:
    """Dual point matching a per-split primal sweep."""
    return _replay(_table(Kind.SPLIT, catalog, tree, trace.table), trace)


# ---------------------------------------------------------------------------
# Closed-form optima for binary assortments (all three granularities)
# ---------------------------------------------------------------------------


def integer_cut(
    kind: Kind,
    catalog: ProductCatalog,
    tree: PurchaseTree,
    x,
    *,
    table: TreeTable | None = None,
) -> tuple[Number, DualCertificate]:
    """Closed-form subproblem optimum and dual at a binary assortment.

    The primal optimum puts weight 1 on the traversal leaf, worth its revenue.
    The dual charges each capacity row whose opposite branch leads to the
    traversal leaf (a branch that was not taken) the excess revenue reachable
    behind it; evaluated at this x the dual equals the traversal revenue, and
    it remains a valid upper bound on the subproblem optimum at every binary
    assortment.
    """
    kind = as_kind(kind)
    table = _table(kind, catalog, tree, table)
    vals = as_values(x)
    check_size(catalog, vals)
    if any(v != 0 and v != 1 for v in vals):
        raise ContractViolation("integer_cut requires a binary assortment")
    _, leaf_star = traverse(tree, vals)
    r_star = table.revenue[leaf_star]

    alpha: dict = {}
    beta: dict = {}
    for key, left, v in table.cuts[leaf_star]:
        (alpha if left else beta)[key] = v
    cert = DualCertificate(kind=kind, alpha=alpha, beta=beta, gamma=r_star)
    return r_star, cert


# ---------------------------------------------------------------------------
# Per-product granularity: the sweep when its dual certifies it, else the LP
# ---------------------------------------------------------------------------


def _certified(table: TreeTable, trace: EventTrace, x, value) -> DualCertificate | None:
    """The replayed dual of a per-product sweep of ``value``, if it proves it.

    The dual is returned only when the sweep ends on the unit-sum event, every
    multiplier is nonnegative, no leaf's dual row is violated by more than
    ``CERT_TOL`` and the dual objective at x is within ``CERT_TOL`` of
    ``value``; a feasible dual as good as a feasible primal point proves both
    optimal.  Otherwise None: ``product_subproblem_lp`` must decide.
    """
    if EVENT_C not in trace.f:
        return None
    cert = _replay(table, trace)
    if any(v < 0 for side in (cert.alpha, cert.beta) for v in side.values()):
        return None
    if any(slack < -CERT_TOL for _, slack in table.slacks(cert)):
        return None
    if abs(cert.objective(table.catalog, table.tree, x) - value) > CERT_TOL:
        return None
    return cert


def _at_levels(built: BuiltFormulation, vals):
    """``built.lp`` with its x columns fixed at levels ``vals``."""
    lb, ub = built.lp.lb.copy(), built.lp.ub.copy()
    lb[: built.n] = ub[: built.n] = vals
    return built.lp.with_bounds(lb, ub)


def product_subproblem_lp(
    catalog: ProductCatalog,
    tree: PurchaseTree,
    x,
    warm: WarmBasis | None = None,
    *,
    table: TreeTable | None = None,
) -> tuple[float, DualCertificate, LpSolution]:
    """Per-product subproblem via the bundled simplex; duals become the cut.

    x enters only the bounds of the fixed x columns, so the table's LP
    (``product_lp``) serves every call, and any basis of it dual feasible at
    some levels stays so at all: the dual simplex starts from ``warm``, the
    basis of the same tree's LP at other levels (the returned solution's
    ``basis``), or without one from the table's best-leaf basis.  That
    solution's ``x`` and ``basis`` index the LP's columns: the n fixed x
    columns first, then the leaf weights (``built.y_cols``).
    """
    built, rows, start = _table(Kind.PRODUCT, catalog, tree, table).product_lp
    vals = as_values(x)
    check_size(catalog, vals)
    sol = solve_lp(_at_levels(built, vals), warm=start if warm is None else warm)
    if sol.status != "optimal":
        raise ContractViolation(f"product subproblem LP is {sol.status}")
    alpha: dict[int, float] = {}
    beta: dict[int, float] = {}
    for (key, _, left, _, _), price in zip(rows, sol.duals[1:]):
        price = float(price)
        if price > 1e-11:
            (alpha if left else beta)[key] = price
    cert = DualCertificate(
        kind=Kind.PRODUCT, alpha=alpha, beta=beta, gamma=float(sol.duals[0])
    )
    return float(sol.objective), cert, sol
