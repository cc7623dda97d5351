"""Span tracing of dfopt's layers from outside the package.

Each layer is one ``dfopt`` module.  ``Tracer.install`` replaces that
module's public entry points (``TRACED``) with timing wrappers.  Modules bind
these functions with ``from .x import f``, so the wrapper is put into every
``dfopt`` namespace that holds the original function object, not only the
defining module; ``uninstall`` puts the originals back.  Nothing under
``src/`` changes.

A span is ``[name, start, end, parent index, operation id, info]``.  Spans
stay in memory until the run ends.  A span's self time is its duration minus
the durations of its direct children; calls are synchronous, so children
never overlap and the self times of one operation add up to the duration of
its root ``bench.op`` span.

What cannot be seen from outside (refactorizations, degenerate pivots, the
switch to Bland's rule) is not reported.
"""

from __future__ import annotations

import importlib
import json
import sys
import time

TRACED = {
    "lp": ("solve_lp", "solve_lp_multi", "solve_lp_with_basis"),
    "benders": (
        "solve_two_phase",
        "relaxation_phase",
        "integer_phase",
        "branch_and_bound_monolithic",
    ),
    "subproblems": (
        "leaf_primal_greedy",
        "leaf_dual_greedy",
        "split_primal_greedy",
        "split_dual_greedy",
        "product_subproblem_lp",
        "integer_cut",
    ),
    "model": ("expected_revenue",),
    "heuristics": ("local_search", "ls10", "revenue_ordered", "divide_and_conquer"),
    "formulations": ("build",),
    "cli": ("solve_one",),
}

#: Calls that separate one tree at one point (one per tree and round or node).
SEPARATIONS = (
    "subproblems.leaf_primal_greedy",
    "subproblems.split_primal_greedy",
    "subproblems.product_subproblem_lp",
    "subproblems.integer_cut",
)
BRANCH_AND_BOUND = ("benders.integer_phase", "benders.branch_and_bound_monolithic")
NAME, START, END, PARENT, OP, INFO = range(6)

UNITS = {
    "lp.solves": "count",
    "lp.self_s": "s",
    "lp.pivots": "count",
    "lp.ms_per_pivot": "ms",
    "lp.warm_attempts": "count",
    "lp.warm_hits": "count",
    "lp.warm_hit_ratio": "ratio",
    "lp.rows_max": "rows",
    "benders.rounds": "count",
    "benders.pool_cuts": "count",
    "benders.bb_nodes": "count",
    "benders.lazy_cuts": "count",
    "benders.ms_per_node": "ms",
    "benders.self_s": "s",
    "subproblems.oracle_calls": "count",
    "subproblems.oracle_s": "s",
    "subproblems.cut_yield": "ratio",
    "model.eval_calls": "count",
    "model.eval_s": "s",
    "model.traversals": "count",
    "model.us_per_traversal": "us",
    "heuristics.moves": "count",
    "heuristics.evals_per_move": "ratio",
    "heuristics.self_s": "s",
    "formulations.build_calls": "count",
    "formulations.build_s": "s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}


def _info(name, args, result):
    """Counts read off a call's arguments and result."""
    if name.startswith("lp."):
        return {"rows": args[0].num_rows, "pivots": result.pivots}
    if name == "benders.relaxation_phase":
        return {"rounds": result.rounds, "cuts": len(result.state.pool)}
    if name in BRANCH_AND_BOUND:
        return {"nodes": result.nodes, "lazy": result.cuts_added}
    if name.startswith("heuristics."):
        return {"moves": result.iterations}
    if name == "model.expected_revenue":
        return {"trees": len(args[1].trees)}
    return {}


class Tracer:
    """Records spans for the calls made while it is installed."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple] = []
        self.op = -1

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            info = {}  # stays without counts when the call raises
            if name == "lp.solve_lp_multi":  # read the candidate bases, keep them usable
                args = (args[0], list(args[1])) + args[2:]
                info["warm"] = any(b is not None for b in args[1])
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.op, info]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            info.update(_info(name, args, result))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        modules = [
            m for key, m in list(sys.modules.items())
            if key == "dfopt" or key.startswith("dfopt.")
        ]
        for layer, names in TRACED.items():
            home = importlib.import_module(f"dfopt.{layer}")
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def run_op(self, op_id: int, fn):
        """Call ``fn`` as operation ``op_id`` under a root ``bench.op`` span."""
        self.op = op_id
        return self._wrap("bench.op", fn)()

    def write(self, path, labels) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                name, start, end, parent, op, info = span
                fh.write(json.dumps({
                    "name": name, "start": start, "end": end, "parent": parent,
                    "op": op, "label": labels[op], "info": info,
                }) + "\n")


def self_times(spans) -> list[float]:
    child = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child[span[PARENT]] += span[END] - span[START]
    return [s[END] - s[START] - c for s, c in zip(spans, child)]


def _layer(name):
    return name.split(".", 1)[0]


def layer_metrics(spans, labels) -> tuple[dict, dict]:
    """Per-layer metrics, plus details kept for the baseline record.

    ``labels[op]`` names the method an operation ran.
    """
    selfs = self_times(spans)
    layer_self = {}
    count = {}
    for span, s in zip(spans, selfs):
        layer_self[_layer(span[NAME])] = layer_self.get(_layer(span[NAME]), 0.0) + s
        count[span[NAME]] = count.get(span[NAME], 0) + 1

    def parent_layer(span):
        return _layer(spans[span[PARENT]][NAME]) if span[PARENT] >= 0 else None

    def dur(span):
        return span[END] - span[START]

    lp_root = {}  # LP span -> the outermost LP span around it
    for i, s in enumerate(spans):
        if _layer(s[NAME]) == "lp":
            lp_root[i] = lp_root[s[PARENT]] if parent_layer(s) == "lp" else i
    lp_top = [i for i, root in lp_root.items() if root == i]
    cold_children = {s[PARENT] for s in spans if s[NAME] == "lp.solve_lp" and s[PARENT] >= 0}
    warm = [i for i, s in enumerate(spans)
            if s[NAME] == "lp.solve_lp_multi" and s[INFO]["warm"]]
    warm_hits = sum(1 for i in warm if i not in cold_children)
    pivots = sum(spans[i][INFO].get("pivots", 0) for i in lp_top)
    relax = [s for s in spans if s[NAME] == "benders.relaxation_phase"]
    bnb = [s for s in spans if s[NAME] in BRANCH_AND_BOUND]
    nodes = sum(s[INFO].get("nodes", 0) for s in bnb)
    pool_cuts = sum(s[INFO].get("cuts", 0) for s in relax)
    lazy_cuts = sum(s[INFO].get("lazy", 0) for s in bnb if s[NAME] == "benders.integer_phase")
    separations = sum(count.get(name, 0) for name in SEPARATIONS)
    oracle_calls = sum(1 for s in spans
                       if _layer(s[NAME]) == "subproblems" and parent_layer(s) != "subproblems")
    evals = [s for s in spans if s[NAME] == "model.expected_revenue"]
    eval_s = sum((dur(s) for s in evals), 0.0)
    traversals = sum(s[INFO].get("trees", 0) for s in evals)
    heur_top = [s for s in spans
                if _layer(s[NAME]) == "heuristics" and parent_layer(s) != "heuristics"]
    moves = sum(s[INFO].get("moves", 0) for s in heur_top)
    heur_evals = sum(1 for s in evals if parent_layer(s) == "heuristics")
    builds = [s for s in spans if s[NAME] == "formulations.build"]

    def ratio(a, b):
        return a / b if b else 0.0

    metrics = {
        "lp.solves": len(lp_top),
        "lp.self_s": layer_self.get("lp", 0.0),
        "lp.pivots": pivots,
        "lp.ms_per_pivot": ratio(1e3 * layer_self.get("lp", 0.0), pivots),
        "lp.warm_attempts": len(warm),
        "lp.warm_hits": warm_hits,
        "lp.warm_hit_ratio": ratio(warm_hits, len(warm)),
        "lp.rows_max": max((spans[i][INFO].get("rows", 0) for i in lp_top), default=0),
        "benders.rounds": sum(s[INFO].get("rounds", 0) for s in relax),
        "benders.pool_cuts": pool_cuts,
        "benders.bb_nodes": nodes,
        "benders.lazy_cuts": lazy_cuts,
        "benders.ms_per_node": ratio(1e3 * sum(dur(s) for s in bnb), nodes),
        "benders.self_s": layer_self.get("benders", 0.0),
        "subproblems.oracle_calls": oracle_calls,
        "subproblems.oracle_s": layer_self.get("subproblems", 0.0),
        "subproblems.cut_yield": ratio(pool_cuts + lazy_cuts, separations),
        "model.eval_calls": len(evals),
        "model.eval_s": eval_s,
        "model.traversals": traversals,
        "model.us_per_traversal": ratio(1e6 * eval_s, traversals),
        "heuristics.moves": moves,
        "heuristics.evals_per_move": ratio(heur_evals, moves),
        "heuristics.self_s": layer_self.get("heuristics", 0.0),
        "formulations.build_calls": len(builds),
        "formulations.build_s": sum((dur(s) for s in builds), 0.0),
        "cli.self_s": layer_self.get("cli", 0.0),
    }

    # Breakdowns kept for the baseline record: B&B per method, LP per caller.
    by_method: dict[str, dict] = {}
    for s in bnb:
        row = by_method.setdefault(labels[s[OP]].split("/")[0], {"nodes": 0, "bnb_s": 0.0})
        row["nodes"] += s[INFO].get("nodes", 0)
        row["bnb_s"] += dur(s)
    for row in by_method.values():
        row["ms_per_node"] = ratio(1e3 * row["bnb_s"], row["nodes"])

    def caller(i):
        parent = spans[lp_root[i]][PARENT]
        return spans[parent][NAME] if parent >= 0 else "bench"

    by_caller: dict[str, dict] = {}
    for i in lp_top:
        row = by_caller.setdefault(caller(i), {"solves": 0, "warm_attempts": 0, "warm_hits": 0})
        row["solves"] += 1
    for i in warm:
        row = by_caller[caller(i)]
        row["warm_attempts"] += 1
        row["warm_hits"] += i not in cold_children
    details = {
        "bnb_by_method": dict(sorted(by_method.items())),
        "lp_by_caller": dict(sorted(by_caller.items())),
        "span_counts": dict(sorted(count.items())),
    }
    return metrics, details
