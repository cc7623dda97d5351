"""The benchmark's workloads: seeded inputs, operations and answer checks.

An operation is one solver call on one instance.  Every operation gets its
own instance, drawn from the workload's family by ``(seed, operation
index)``: solve times vary several-fold between instances of one family, and
independent instances per operation spread a run's total over more draws
than reusing one instance for a whole method sweep (resampling measured
operation times gives about a third less seed-to-seed spread at equal run
time).

Each workload builds operations in chunks (``build(seed, size, indices)``),
so that set-up, which includes instance generation and the reference
answers, can be timed more than once per run.  Nothing here is timed as
solve time: the checks run after the operation's clock has stopped.

No operation has a time budget or a round cap: each runs to completion, the
exact solvers until they prove the optimum, so every run computes the same
answers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from dfopt import benders, cli, heuristics
from dfopt.formulations import Kind
from dfopt.instancegen import GeneratorConfig, TreeShape, generate_instance

import reference

VALUE_TOL = 1e-6  # reported value vs reference answer
BOUND_TOL = 1e-7  # master bound increase still counted as nonincreasing
LOCAL_TOL = 1e-9  # a flip must gain more than this to break local optimality


@dataclass
class Op:
    label: str  # method, plus "/b=<size>" under a cardinality constraint
    call: Callable[[], Any]
    check: Callable[[Any], "str | None"]  # None when the answer is right


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: Callable  # (seed, size, indices) -> list[Op]
    sizes: dict  # "full" and "tiny" size dicts; "ops" is the pool size
    trace_ops: int  # operations in each pass of a traced run


def instance_seed(seed: int, salt: int, k: int) -> int:
    state = np.random.SeedSequence([salt, seed, k]).generate_state(2, dtype=np.uint32)
    return int(state[0]) << 31 | int(state[1]) >> 1


def instance(shape: str, n: int, trees: int, leaves: int, seed: int):
    tree_shape = (
        TreeShape("t3", leaves=leaves)
        if shape == "t3"
        else TreeShape(shape, depth=(leaves - 1).bit_length())
    )
    return generate_instance(
        GeneratorConfig(n=n, num_trees=trees, shape=tree_shape, seed=seed)
    )


def _label(method, card):
    return method if card is None else f"{method}/b={card}"


def _check_assortment(walker, value, offered):
    walked = walker.value(offered)
    if abs(walked - value) > VALUE_TOL:
        return f"reported value {value!r} but the assortment is worth {walked!r}"
    return None


# ---------------------------------------------------------------------------
# desk-exact: the A6 exactness sweep
# ---------------------------------------------------------------------------

EXACT_METHODS = tuple(
    f"{solver}:{kind}"
    for solver in ("benders", "monolithic")
    for kind in ("leaf", "split", "product")
)
DESK_SHAPES = ("t1", "t2", "t3")


def _desk_op(seed, size, k):
    method = EXACT_METHODS[(k // 2) % len(EXACT_METHODS)]
    card = None if k % 2 == 0 else size["card"]
    shape = DESK_SHAPES[(k // (2 * len(EXACT_METHODS))) % len(DESK_SHAPES)]
    catalog, forest = instance(
        shape, size["n"], size["trees"], size["leaves"], instance_seed(seed, 1, k)
    )
    best = reference.brute_force(catalog, forest)[card]
    walker = reference.Walker(catalog, forest)

    def check(res):
        if res["optimal"] is not True:
            return "not proven optimal"
        if abs(res["value"] - best) > VALUE_TOL:
            return f"value {res['value']!r} but the brute-force optimum is {best!r}"
        if card is not None and len(res["assortment"]) != card:
            return f"{len(res['assortment'])} products offered, expected {card}"
        return _check_assortment(walker, res["value"], set(res["assortment"]))

    return Op(
        _label(method, card),
        lambda: cli.solve_one(catalog, forest, method, cardinality=card),
        check,
    )


def build_desk(seed, size, indices):
    return [_desk_op(seed, size, k) for k in indices]


# ---------------------------------------------------------------------------
# benders-relax: cut generation on the LP master
# ---------------------------------------------------------------------------

RELAX_CASES = tuple(
    (shape, kind, capped)
    for shape in ("t1", "t3")
    for kind in ("split", "product")
    for capped in (False, True)
)


def _relax_op(seed, size, k):
    shape, kind, capped = RELAX_CASES[k % len(RELAX_CASES)]
    n = size["n"]
    card = round(0.2 * n) if capped else None
    catalog, forest = instance(
        shape, n, size["trees"], size["leaves"], instance_seed(seed, 2, k)
    )
    try:
        expected = reference.highs_relaxation(kind, catalog, forest, card)
    except ImportError:
        expected = None

    def check(res):
        if expected is None:
            return "unverified: scipy is not importable, so there is no HiGHS reference"
        if abs(res.value - expected) > VALUE_TOL:
            return f"value {res.value!r} but HiGHS gives {expected!r}"
        for a, b in zip(res.bounds, res.bounds[1:]):
            if b > a + BOUND_TOL:
                return f"master bound rose from {a!r} to {b!r}"
        return None

    return Op(
        _label(f"relax:{kind}:{shape}", card),
        lambda: benders.relaxation_phase(Kind(kind), catalog, forest, card),
        check,
    )


def build_relax(seed, size, indices):
    return [_relax_op(seed, size, k) for k in indices]


# ---------------------------------------------------------------------------
# heuristics-scale: forest evaluation only
# ---------------------------------------------------------------------------

HEURISTICS = ("ls", "roa", "ls10", "dnc")


def _heuristic_op(seed, size, k):
    method = HEURISTICS[k % len(HEURISTICS)]
    n = size["n"]
    inst_seed = instance_seed(seed, 3, k)
    catalog, forest = instance("t3", n, size["trees"], size["leaves"], inst_seed)
    walker = reference.Walker(catalog, forest)
    b = round(0.2 * n)
    run_seed = inst_seed % 2**31
    ranked = sorted(range(1, n + 1), key=lambda i: (-catalog.revenues[i - 1], i))

    # ls10 and dnc are called directly: cli.solve_one fixes 10 restarts, which
    # would make one operation take tens of seconds at this size.
    def call():
        if method == "ls10":
            res = heuristics.ls10(catalog, forest, seed=run_seed, restarts=size["restarts"])
        elif method == "dnc":
            res = heuristics.divide_and_conquer(
                catalog, forest, b, restarts=size["restarts_dnc"], seed=run_seed
            )
        else:
            return cli.solve_one(catalog, forest, method, seed=run_seed)
        return {"value": float(res.value), "assortment": sorted(res.assortment.support())}

    def check(res):
        offered = set(res["assortment"])
        err = _check_assortment(walker, res["value"], offered)
        if err:
            return err
        if method in ("ls", "ls10") and not walker.is_flip_local_optimum(
            offered, res["value"], LOCAL_TOL
        ):
            return "not a 1-flip local optimum"
        if method == "dnc" and len(offered) != b:
            return f"{len(offered)} products offered, expected {b}"
        if method == "roa" and offered != set(ranked[: len(offered)]):
            return "not a revenue-ordered prefix"
        return None

    return Op(_label(method, b if method == "dnc" else None), call, check)


def build_heuristics(seed, size, indices):
    return [_heuristic_op(seed, size, k) for k in indices]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="desk-exact",
            why="the paper's exactness sweep on the A6 family (n=12): six exact "
            "methods with and without a cardinality limit; many small warm-started "
            "LPs and B&B nodes, most time in the LP layer",
            build=build_desk,
            sizes={
                "full": {"n": 12, "trees": 10, "leaves": 8, "card": 3, "ops": 180},
                "tiny": {"n": 6, "trees": 3, "leaves": 4, "card": 3, "ops": 12},
            },
            trace_ops=72,
        ),
        Workload(
            name="benders-relax",
            why="cut generation alone at n=20, 20 trees, 8 leaves: every master is a "
            "cold two-phase solve of a growing dense LP, plus per-tree oracles; "
            "checked against HiGHS",
            build=build_relax,
            # Not the paper's 50/50/16: larger masters from 16-leaf trees make
            # the LP kernel raise SolverError often (perfbench/README.md).
            sizes={
                "full": {"n": 20, "trees": 20, "leaves": 8, "ops": 96},
                "tiny": {"n": 6, "trees": 4, "leaves": 4, "ops": 8},
            },
            trace_ops=48,
        ),
        Workload(
            name="heuristics-scale",
            why="ls, roa, ls10 and dnc at n=100 with 32-leaf trees: forest "
            "evaluation only, the LP is never called, so an LP change must leave "
            "this workload unchanged",
            build=build_heuristics,
            sizes={
                "full": {"n": 100, "trees": 25, "leaves": 32, "restarts": 2,
                         "restarts_dnc": 1, "ops": 24},
                "tiny": {"n": 10, "trees": 4, "leaves": 4, "restarts": 2,
                         "restarts_dnc": 1, "ops": 4},
            },
            trace_ops=4,
        ),
    )
}
