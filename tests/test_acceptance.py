"""Acceptance gate: one test per release criterion, at pinned tolerances.

Each criterion prints a [PASS]/[FAIL] line (run with ``pytest -s`` to see
them inline).  Tolerances and instance sizes are fixed here, not tuned.
"""

import json
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

from dfopt import benders, cli, heuristics
from dfopt.formulations import Kind, build, solve_integer_monolithic, solve_relaxation
from dfopt.instancegen import (
    GeneratorConfig,
    TreeShape,
    generate_instance,
    max3sat_to_instance,
    random_formula,
)
from dfopt.lp import solve_lp, verify_solution_exact
from dfopt.model import brute_force_optimal
from dfopt.subproblems import (
    _at_levels,
    leaf_dual_greedy,
    leaf_primal_greedy,
    product_subproblem_lp,
    split_dual_greedy,
    split_primal_greedy,
    tree_table,
)

from cases import (
    greedy_gap_tree,
    product_sweep,
    single_tree_forest,
    worked_example,
    y_value,
)
from test_subproblems import leaf_sub_lp, random_tree_and_x, split_sub_lp

ALL_KINDS = (Kind.LEAF, Kind.SPLIT, Kind.PRODUCT)


@contextmanager
def criterion(label):
    try:
        yield
    except BaseException:
        print(f"[FAIL] {label}")
        raise
    print(f"[PASS] {label}")


def _instance(seed, kind, n, num_trees, leaves):
    shape = (
        TreeShape("t3", leaves=leaves)
        if kind == "t3"
        else TreeShape(kind, depth=(leaves - 1).bit_length())
    )
    return generate_instance(
        GeneratorConfig(n=n, num_trees=num_trees, shape=shape, seed=seed)
    )


# ---------------------------------------------------------------------------
# shared expensive fixtures (criteria 6 and 9 reuse the same instance set)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def a6_instances():
    out = []
    for kind in ("t1", "t2", "t3"):
        for rep in range(20):
            seed = 6_000 + 100 * rep + {"t1": 0, "t2": 1, "t3": 2}[kind]
            out.append(_instance(seed, kind, n=12, num_trees=10, leaves=8))
    return out


@pytest.fixture(scope="module")
def a6_results(a6_instances):
    """Exact solver sweep over the shared instance set, timed."""
    t0 = time.monotonic()
    rows = []
    for catalog, forest in a6_instances:
        x_star, z_star = brute_force_optimal(catalog, forest)
        z_star = float(z_star)
        _, z_card = brute_force_optimal(catalog, forest, cardinality=3)
        z_card = float(z_card)
        row = {
            "z_star": z_star,
            "z_card": z_card,
            "benders": {},
            "benders_card": {},
            "mono": {},
            "mono_card": {},
        }
        for kind in ALL_KINDS:
            _, res = benders.solve_two_phase(kind, catalog, forest)
            row["benders"][kind] = res
            _, res_c = benders.solve_two_phase(kind, catalog, forest, cardinality=3)
            row["benders_card"][kind] = res_c
            mres = solve_integer_monolithic(
                build(kind, catalog, forest), catalog, forest
            )
            row["mono"][kind] = mres
            mres_c = solve_integer_monolithic(
                build(kind, catalog, forest, cardinality=3), catalog, forest
            )
            row["mono_card"][kind] = mres_c
        rows.append(row)
    elapsed = time.monotonic() - t0
    return rows, elapsed


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def test_a01_worked_example_exact():
    with criterion("A1 worked-example greedy pair reproduces 87.5 and the duals"):
        catalog, tree, _, x_exact = worked_example()
        y, trace = split_primal_greedy(catalog, tree, x_exact)
        cert = split_dual_greedy(catalog, tree, trace)
        primal = y_value(catalog, tree, y)
        dual = cert.objective(catalog, tree, x_exact)
        assert primal == Fraction(175, 2)
        assert dual == Fraction(175, 2)
        assert cert.gamma == 72
        assert cert.beta == {1: 17}
        assert cert.alpha == {3: 8, 10: 28, 11: 28, 15: 11}

        best = min(
            _timed_pair(catalog, tree, x_exact) for _ in range(5)
        )
        assert best < 1e-3, f"greedy pair took {best * 1e3:.3f} ms"


def _timed_pair(catalog, tree, x):
    t0 = time.perf_counter()
    _, trace = split_primal_greedy(catalog, tree, x)
    split_dual_greedy(catalog, tree, trace)
    return time.perf_counter() - t0


def test_a02_greedy_failure_fixture_exact():
    with criterion("A2 per-product subproblem: LP 18.5 vs greedy sweep 10, exact"):
        catalog, tree = greedy_gap_tree()
        x = (Fraction(1, 2), Fraction(1, 2), Fraction(1, 2))
        value, cert, sol = product_subproblem_lp(catalog, tree, x)
        assert value == 18.5
        built, _, _ = tree_table(Kind.PRODUCT, catalog, tree).product_lp
        exact = verify_solution_exact(_at_levels(built, x), sol)
        assert exact["feasible"] and exact["optimal"]
        assert exact["objective"] == Fraction(37, 2)
        _, sweep, _ = product_sweep(catalog, tree, x)
        assert sweep == Fraction(10)


def test_a03_strong_duality_suite():
    with criterion("A3 strong duality on 500 seeded pairs per granularity"):
        t0 = time.monotonic()
        for seed in range(500):
            catalog, tree, x = random_tree_and_x(seed, n=8, leaves=8)
            y, trace = leaf_primal_greedy(catalog, tree, x)
            primal = float(y_value(catalog, tree, y))
            cert = leaf_dual_greedy(catalog, tree, trace)
            dual = float(cert.objective(catalog, tree, x))
            assert abs(primal - dual) <= 1e-9 * (1 + abs(primal))
            lp_obj = solve_lp(leaf_sub_lp(catalog, tree, x)).objective
            assert abs(primal - lp_obj) <= 1e-6 * (1 + abs(primal))

            y, trace = split_primal_greedy(catalog, tree, x)
            primal = float(y_value(catalog, tree, y))
            cert = split_dual_greedy(catalog, tree, trace)
            dual = float(cert.objective(catalog, tree, x))
            assert abs(primal - dual) <= 1e-9 * (1 + abs(primal))
            lp_obj = solve_lp(split_sub_lp(catalog, tree, x)).objective
            assert abs(primal - lp_obj) <= 1e-6 * (1 + abs(primal))
        elapsed = time.monotonic() - t0
        assert elapsed < 30, f"suite took {elapsed:.1f} s"


def test_a04_formulation_strength_ordering():
    with criterion("A4 relaxation strength ordering on 50 seeded instances"):
        counts = {"t1": 17, "t2": 17, "t3": 16}
        for kind_name, reps in counts.items():
            for rep in range(reps):
                seed = 4_000 + 10 * rep + {"t1": 0, "t2": 1, "t3": 2}[kind_name]
                catalog, forest = _instance(seed, kind_name, 10, 5, 8)
                z = {
                    k: solve_relaxation(build(k, catalog, forest))[0]
                    for k in ALL_KINDS
                }
                assert z[Kind.PRODUCT] <= z[Kind.SPLIT] + 1e-6
                assert z[Kind.SPLIT] <= z[Kind.LEAF] + 1e-6
                _, z_star = brute_force_optimal(catalog, forest)
                for k in ALL_KINDS:
                    assert float(z_star) <= z[k] + 1e-6


def test_a05_single_tree_integrality():
    with criterion("A5 single-tree integrality and fractional-point fixtures"):
        # (a) the per-product relaxation of any single tree is integral
        for seed in range(200):
            catalog, forest = _instance(5_000 + seed, ["t1", "t2", "t3"][seed % 3], 10, 1, 8)
            z_lo, _, _ = solve_relaxation(build(Kind.PRODUCT, catalog, forest))
            _, z_star = brute_force_optimal(catalog, forest)
            assert abs(z_lo - float(z_star)) <= 1e-6

        # (b) per-split relaxation is integral when no product repeats
        checked = 0
        seed = 0
        while checked < 200:
            kind = ["t2", "t3"][seed % 2]
            catalog, forest = _instance(5_500 + seed, kind, 10, 1, 8)
            seed += 1
            tree = forest.trees[0]
            products = [tree.split_product(s) for s in tree.split_ids]
            if len(set(products)) != len(products):
                continue
            checked += 1
            z_lo, _, _ = solve_relaxation(build(Kind.SPLIT, catalog, forest))
            _, z_star = brute_force_optimal(catalog, forest)
            assert abs(z_lo - float(z_star)) <= 1e-6

        # (c) the half-integral fixtures are feasible relaxation points
        from cases import leaf_relax_tree, split_relax_tree
        from test_formulations import point_is_extreme, point_is_feasible

        half = Fraction(1, 2)
        catalog, tree = leaf_relax_tree()
        built = build(Kind.LEAF, catalog, single_tree_forest(tree))
        assert point_is_feasible(built, (half, half, 0), {(0, 4): half, (0, 5): half})
        assert point_is_extreme(built, (half, half, 0), {(0, 4): half, (0, 5): half})
        catalog, tree = split_relax_tree()
        built = build(Kind.SPLIT, catalog, single_tree_forest(tree))
        assert point_is_feasible(built, (half, half), {(0, 4): half, (0, 7): half})
        assert point_is_feasible(built, (half, half), {(0, 4): half, (0, 6): half})
        assert point_is_extreme(built, (half, half), {(0, 4): half, (0, 6): half})


def test_a06_end_to_end_exactness(a6_results):
    with criterion("A6 decomposition and direct B&B match exhaustive optima exactly"):
        rows, elapsed = a6_results
        assert len(rows) == 60
        for row in rows:
            for kind in ALL_KINDS:
                assert row["benders"][kind].optimal
                assert row["benders"][kind].value == row["z_star"]
                assert row["mono"][kind].optimal
                assert row["mono"][kind].value == row["z_star"]
                assert row["benders_card"][kind].optimal
                assert row["benders_card"][kind].value == row["z_card"]
                assert row["mono_card"][kind].optimal
                assert row["mono_card"][kind].value == row["z_card"]
        assert elapsed < 300, f"exact sweep took {elapsed:.1f} s"


def test_a07_relaxation_equivalence():
    with criterion("A7 cut-generation bound equals the monolithic relaxation"):
        for rep in range(50):
            kind_name = ["t1", "t2", "t3"][rep % 3]
            catalog, forest = _instance(7_000 + rep, kind_name, 10, 5, 8)
            for kind in (Kind.LEAF, Kind.SPLIT):
                relax = benders.relaxation_phase(kind, catalog, forest)
                z_mono, _, _ = solve_relaxation(build(kind, catalog, forest))
                assert abs(relax.value - z_mono) <= 1e-6


def test_a08_reduction_semantics():
    with criterion("A8 3-CNF reduction optima equal satisfiability fractions exactly"):
        rng = np.random.default_rng(808)
        for _ in range(50):
            k = int(rng.integers(3, 11))
            m = int(rng.integers(1, 16))
            formula = random_formula(rng, num_vars=k, num_clauses=m)
            catalog, forest = max3sat_to_instance(formula)
            best = max(
                formula.satisfied_count(
                    [(mask >> i) & 1 == 1 for i in range(k)]
                )
                for mask in range(1 << k)
            )
            _, value = brute_force_optimal(catalog, forest)
            assert value == Fraction(best, m)


def test_a09_heuristic_dominance(a6_instances, a6_results):
    with criterion("A9 heuristics never beat the exact optimum; orderings hold"):
        rows, _ = a6_results
        mio_gaps = []
        heuristic_gaps = {"ls": [], "ls10": [], "roa": []}
        for (catalog, forest), row in zip(a6_instances, rows):
            z_star = row["z_star"]
            z_benders = row["benders"][Kind.SPLIT].value
            assert z_star >= z_benders and z_benders == z_star
            ls_empty = heuristics.local_search(catalog, forest)
            multi = heuristics.ls10(
                catalog, forest, seed=17, include_empty_start=True
            )
            roa = heuristics.revenue_ordered(catalog, forest)
            assert float(multi.value) <= z_star + 1e-9
            assert float(multi.value) >= float(ls_empty.value) - 1e-12
            assert float(roa.value) <= z_star + 1e-9
            mio_gaps.append(100.0 * (z_star - z_benders) / z_star)
            for name, res in (("ls", ls_empty), ("ls10", multi), ("roa", roa)):
                heuristic_gaps[name].append(
                    100.0 * (z_star - float(res.value)) / z_star
                )
        mio_avg = sum(mio_gaps) / len(mio_gaps)
        for name, gaps in heuristic_gaps.items():
            assert mio_avg <= sum(gaps) / len(gaps) + 1e-12
        assert sum(heuristic_gaps["ls10"]) <= sum(heuristic_gaps["ls"]) + 1e-9


def test_a10_byte_identical_reruns(tmp_path):
    with criterion("A10 identical inputs and seeds give byte-identical outputs"):
        cfg = {
            "n": 10,
            "num_trees": 5,
            "shape": {"type": "t3", "leaves": 8},
            "seed": 99,
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        spec = {
            "experiment": "integrality_gap",
            "types": ["t3"],
            "n": [8],
            "num_trees": [3],
            "leaves": [8],
            "replications": 2,
            "seed": 3,
        }
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))

        artifacts = []
        for run in ("one", "two"):
            d = tmp_path / run
            d.mkdir()
            assert (
                cli.main(
                    ["generate", "--config", str(cfg_path), "--out", str(d / "inst.json")]
                )
                == 0
            )
            assert (
                cli.main(
                    [
                        "--no-timings",
                        "solve",
                        "--instance",
                        str(d / "inst.json"),
                        "--method",
                        "benders:split",
                        "--seed",
                        "1",
                        "--out",
                        str(d / "res.json"),
                    ]
                )
                == 0
            )
            assert (
                cli.main(
                    [
                        "--no-timings",
                        "solve",
                        "--instance",
                        str(d / "inst.json"),
                        "--method",
                        "ls10",
                        "--seed",
                        "1",
                        "--out",
                        str(d / "ls10.json"),
                    ]
                )
                == 0
            )
            assert (
                cli.main(
                    [
                        "--no-timings",
                        "experiment",
                        "--spec",
                        str(spec_path),
                        "--out",
                        str(d / "exp"),
                    ]
                )
                == 0
            )
            artifacts.append(
                (
                    (d / "inst.json").read_bytes(),
                    (d / "res.json").read_bytes(),
                    (d / "ls10.json").read_bytes(),
                    (d / "exp" / "integrality_gap.csv").read_bytes(),
                )
            )
        assert artifacts[0] == artifacts[1]
