"""Golden digests of the formulation matrices, the closed-form cuts and the
greedy oracles.

The instances are generated with integer revenues, so every entry of the
constraint matrices and every closed-form multiplier is exact; the digests
therefore pin the row layout and the certificates (including the insertion
order of their multipliers) independently of how they are computed.  The
greedy oracles are fed exact Fraction levels, so their weights and duals are
exact too; their digest leaves out the event trace and the multipliers'
insertion order and pins only what the sweeps compute.  The per-product LP
oracle is pinned through chained warm-started calls: its values, duals,
pivot counts and warm flags, but not its basis indices, which name columns
of the program the oracle solves.  The 3-CNF reduction's
instances are pinned byte for byte through their JSON, and so are generated
instances and a tree whose node ids are negative and not positions.  So are
the four experiment tables' ``--no-timings`` CSVs.
"""

import csv
import hashlib
import io
import json
from fractions import Fraction

import numpy as np

from dfopt.cli import main
from dfopt.formulations import Kind, build
from dfopt.instancegen import (
    GeneratorConfig,
    TreeShape,
    generate_instance,
    max3sat_to_instance,
    random_formula,
)
from dfopt.model import (
    DecisionForest,
    Leaf,
    ProductCatalog,
    PurchaseTree,
    Split,
    instance_to_json,
)
from dfopt.subproblems import (
    EVENT_C,
    integer_cut,
    leaf_dual_greedy,
    leaf_primal_greedy,
    product_subproblem_lp,
    split_dual_greedy,
    split_primal_greedy,
)

from cases import product_sweep

SHAPES = (
    TreeShape(kind="t1", depth=3),
    TreeShape(kind="t2", depth=3),
    TreeShape(kind="t3", leaves=8),
)
SEEDS = (0, 1, 2)

BUILD_DIGEST = "8c62edd2acf0ef72ec306a61d8ac546f319a910a7e8d3838510d1a62f563114e"
CUT_DIGEST = "d6b83d0a891b89657e8e4eeb3c0a7b572cdefd2f120faa6412fa868e7afba380"
GREEDY_DIGEST = "5a93574def137c3a8d6cafe2d5b192ceff87d3cbab95291e3e326e17687af6f5"
CLAUSE_TREE_DIGEST = "914f01667d2de2486ba0bdc91bdd361051267057a985283b683148dbe7c2b9bb"
JSON_DIGEST = "929db38bd9b370c140048663442a0d5820149e9584e87003b8932d0ac807cc59"
PRODUCT_LP_DIGEST = "6e24815492734cd3ea4c65906e177d3c6a55b5e5231d802661cbef5dc09c2fc2"


def golden_instances():
    for shape in SHAPES:
        for seed in SEEDS:
            yield generate_instance(
                GeneratorConfig(n=8, num_trees=4, shape=shape, seed=seed)
            )


def binary_points(n, seed):
    rng = np.random.default_rng(seed)
    points = [(0,) * n, (1,) * n]
    points += [tuple(int(v) for v in rng.integers(0, 2, size=n)) for _ in range(6)]
    return points


def fraction_points(n, seed):
    """Levels in multiples of 1/6, so capacities tie often and exactly."""
    rng = np.random.default_rng(seed + 100)
    points = [(Fraction(1, 2),) * n]
    points += [
        tuple(Fraction(int(v), 6) for v in rng.integers(0, 7, size=n))
        for _ in range(7)
    ]
    return points


def little_endian(a):
    return np.ascontiguousarray(a, dtype="<f8").tobytes()


def test_build_matrices_are_pinned():
    h = hashlib.sha256()
    for catalog, forest in golden_instances():
        for kind in Kind:
            for cardinality in (None, 3):
                lp = build(kind, catalog, forest, cardinality).lp
                h.update(repr((kind.value, cardinality, lp.A.shape)).encode())
                h.update(little_endian(lp.A))
                h.update(little_endian(lp.b))
                h.update(",".join(lp.senses).encode())
    assert h.hexdigest() == BUILD_DIGEST


def test_integer_cut_certificates_are_pinned():
    h = hashlib.sha256()
    for k, (catalog, forest) in enumerate(golden_instances()):
        for x in binary_points(catalog.n, k):
            for tree in forest.trees:
                for kind in Kind:
                    value, cert = integer_cut(kind.value, catalog, tree, x)
                    record = (
                        value,
                        cert.gamma,
                        list(cert.alpha.items()),
                        list(cert.beta.items()),
                    )
                    h.update(repr(record).encode())
    assert h.hexdigest() == CUT_DIGEST


def test_greedy_oracles_are_pinned():
    h = hashlib.sha256()
    pairs = (
        (leaf_primal_greedy, leaf_dual_greedy),
        (split_primal_greedy, split_dual_greedy),
    )
    for k, (catalog, forest) in enumerate(golden_instances()):
        for x in fraction_points(catalog.n, k):
            for tree in forest.trees:
                for primal, dual in pairs:
                    y, trace = primal(catalog, tree, x)
                    cert = dual(catalog, tree, trace)
                    record = (
                        sorted(y.items()),
                        trace.f[EVENT_C],
                        cert.gamma,
                        sorted(cert.alpha.items()),
                        sorted(cert.beta.items()),
                    )
                    h.update(repr(record).encode())
                y, value, _ = product_sweep(catalog, tree, x)
                h.update(repr((sorted(y.items()), value)).encode())
    assert h.hexdigest() == GREEDY_DIGEST


def test_product_oracle_is_pinned():
    records = []
    for seed in range(100):
        catalog, forest = generate_instance(
            GeneratorConfig(n=8, num_trees=1, shape=TreeShape("t3", leaves=12), seed=seed)
        )
        tree = forest.trees[0]
        rng = np.random.Generator(np.random.PCG64(seed))
        warm = None
        for _ in range(4):
            x = tuple(float(v) for v in rng.integers(0, 5, size=8) / 4)
            value, cert, sol = product_subproblem_lp(catalog, tree, x, warm)
            warm = sol.basis
            records.append(repr((
                value,
                sorted(cert.alpha.items()),
                sorted(cert.beta.items()),
                cert.gamma,
                sol.pivots,
                sol.warm,
            )))
    digest = hashlib.sha256("\n".join(records).encode()).hexdigest()
    assert digest == PRODUCT_LP_DIGEST


def test_reduction_instances_are_pinned():
    # 300 random formulas, 3-10 variables and 1-15 clauses each
    rng = np.random.default_rng(303)
    h = hashlib.sha256()
    for _ in range(300):
        k = int(rng.integers(3, 11))
        m = int(rng.integers(1, 16))
        formula = random_formula(rng, num_vars=k, num_clauses=m)
        h.update(instance_to_json(*max3sat_to_instance(formula)).encode())
    assert h.hexdigest() == CLAUSE_TREE_DIGEST


def test_instance_json_is_pinned():
    h = hashlib.sha256()
    for shape in (
        TreeShape("t1", depth=4), TreeShape("t2", depth=4), TreeShape("t3", leaves=16)
    ):
        for seed in range(5):
            config = GeneratorConfig(n=10, num_trees=6, shape=shape, seed=seed)
            h.update(instance_to_json(*generate_instance(config)).encode())
    # written as positions in ascending id order: -7, -2, 3, 9, 40 -> 0..4
    nodes = {
        -7: Split(2, 40, 3), 40: Leaf(0), 3: Split(1, 9, -2), 9: Leaf(1), -2: Leaf(2)
    }
    forest = DecisionForest((PurchaseTree(nodes, -7),), (1.0,))
    h.update(instance_to_json(ProductCatalog(n=2, revenues=(3, 5)), forest).encode())
    assert h.hexdigest() == JSON_DIGEST


EXPERIMENT_GRID = {
    "types": ["t1", "t2", "t3"], "n": [9, 6], "num_trees": [3], "leaves": [8],
    "replications": 2, "seed": 5, "revenue_range": [1, 50], "rho": [0.2, 0.5],
}
ZERO_REVENUE_GRID = {
    "types": ["t3"], "n": [6], "num_trees": [2], "leaves": [4],
    "replications": 2, "seed": 5, "revenue_range": [0, 0],
}
#: Per case "table" or "table/variant": the spec's grid and its CSV's SHA-256.
CSV_CASES = {
    "integrality_gap": (
        EXPERIMENT_GRID,
        "57cd20174c5a099815e7fdf3efec4c91bfce258c6d3eb3e958307bf4d36bb2c6",
    ),
    "integrality_gap/budget": (
        dict(EXPERIMENT_GRID, budget_nodes=2),
        "57cd20174c5a099815e7fdf3efec4c91bfce258c6d3eb3e958307bf4d36bb2c6",
    ),
    "tractability": (
        EXPERIMENT_GRID,
        "eaee9f6607fb188b39fbe84757f47e458f7ac2721d070e76a0a2669379554896",
    ),
    "tractability/budget": (
        dict(EXPERIMENT_GRID, budget_nodes=2),
        "c765de24de0d9f5cf59a4a375fc20f1fc69fa8dda08a19bf92bdc826e1bdd005",
    ),
    "benders": (
        EXPERIMENT_GRID,
        "c425681b13389903c5bc6e02e104093ffc5654faaf88b7f9cf48836e8b5a71b2",
    ),
    "benders/budget": (
        dict(EXPERIMENT_GRID, budget_nodes=2),
        "558292a8482869f76dc7d5dbb41afef1d043f04b6fce8b9ab214dae65dd55a36",
    ),
    "heuristics": (
        EXPERIMENT_GRID,
        "6006ebec1af8b9e6267ead12fd8d322504f1176de1c9230b2ba17d497163794d",
    ),
    "heuristics/budget": (
        dict(EXPERIMENT_GRID, budget_nodes=2),
        "e01790ad33bafe5ea9aafaa11f463530a3f9f9870663651a08f2d4103ef03401",
    ),
    "integrality_gap/zero-revenue": (
        ZERO_REVENUE_GRID,
        "5c87356783b8bbef6f8856361778493fd1886ee736539effdc6272b402594b54",
    ),
    "heuristics/zero-revenue": (
        ZERO_REVENUE_GRID,
        "810b88e6c50aa46da64cc136f940c118ddaca52192a09372e3f2a0754d44f1f3",
    ),
}


def test_experiment_csvs_are_pinned(tmp_path):
    wrong = []
    for case, (grid, digest) in CSV_CASES.items():
        name = case.split("/")[0]
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(dict(grid, experiment=name)))
        out = tmp_path / case.replace("/", "-")
        argv = ["--no-timings", "experiment", "--spec", str(spec), "--out", str(out)]
        assert main(argv) == 0, case
        data = (out / f"{name}.csv").read_bytes()
        rows = csv.DictReader(io.StringIO(data.decode()))
        errors = [r["status"] for r in rows if r["status"].startswith("error:")]
        # with every revenue 0 the optimum is 0, so no relative gap is defined
        undefined = case == "integrality_gap/zero-revenue"
        assert errors == ["error: Z*=0, gap undefined"] * 2 * undefined, case
        if hashlib.sha256(data).hexdigest() != digest:
            wrong.append(case)
    assert not wrong
