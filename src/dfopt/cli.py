"""Command-line surface: instance generation, solving, experiment tables.

Subcommands:

- ``dfopt generate``: synthetic instances from a config file (or a 3-CNF
  reduction from a DIMACS file) to canonical JSON.
- ``dfopt solve``: one instance, one method, JSON result on stdout/file.
  ``SOLVERS`` is the single list of methods; ``solve``, the experiments and
  the benchmark all run solvers through it via ``solve_one``.
- ``dfopt experiment``: a seeded grid of instances and methods, one CSV per
  table, reproducible byte for byte given the same spec (timings can be
  zeroed with --no-timings for exact reruns).

Exit codes: 0 success, 2 configuration error, 3 budget exhausted (partial
result emitted), 4 internal solver error.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
import io
import json
import logging
import math
import os
import sys
import time
from pathlib import Path

from . import benders, formulations, heuristics, instancegen, model
from .errors import ConfigError, DfoptError, DomainError, SolverError

SCHEMA_PREFIX = "dfopt"
EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_BUDGET = 3
EXIT_SOLVER = 4

KINDS = tuple(formulations.Kind)


def _pool_size() -> int:
    value = os.environ.get("DFOPT_THREADS", "1")
    try:
        size = int(value)
    except ValueError:
        size = 0
    if size < 1:
        raise ConfigError(f"DFOPT_THREADS must be a positive integer, got {value!r}")
    return size


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def _dump_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------


def cmd_generate(args) -> int:
    if args.cnf:
        formula = instancegen.parse_dimacs(Path(args.cnf).read_text())
        catalog, forest = instancegen.max3sat_to_instance(formula)
        _write_text(args.out, model.instance_to_json(catalog, forest))
        return EXIT_OK
    cfg_obj = json.loads(Path(args.config).read_text())
    configs = cfg_obj["configs"] if "configs" in cfg_obj else [cfg_obj]
    master_seed = int(cfg_obj.get("seed", 0))
    multi = len(configs) > 1
    for idx, entry in enumerate(configs):
        entry = dict(entry)
        entry.setdefault("seed", master_seed + idx)
        config = instancegen.GeneratorConfig.from_obj(entry)
        catalog, forest = instancegen.generate_instance(config)
        text = model.instance_to_json(catalog, forest)
        if multi:
            base = Path(args.out or "instance.json")
            path = base.with_name(f"{base.stem}-{idx}{base.suffix}")
            _write_text(str(path), text)
        else:
            _write_text(args.out, text)
    return EXIT_OK


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


def _bb_row(res, **extra) -> dict:
    """Row fields of a branch-and-bound result."""
    return {
        "value": res.value,
        "bound": res.upper_bound,
        "gap": res.gap_pct,
        "nodes": res.nodes,
        "optimal": res.optimal,
        "assortment": sorted(res.x.support()) if res.x else None,
        **extra,
    }


def _assortment_row(x, value, optimal: bool = False) -> dict:
    """Row fields of one assortment: a heuristic's, or a proven optimum."""
    value = float(value)
    return {
        "value": value,
        "bound": value if optimal else None,
        "gap": 0.0 if optimal else None,
        "optimal": optimal,
        "assortment": sorted(x.support()),
    }


def _monolithic(kind):
    def solve(catalog, forest, cardinality, budget, seed):
        built = formulations.build(kind, catalog, forest, cardinality)
        return _bb_row(
            formulations.solve_integer_monolithic(built, catalog, forest, budget)
        )

    return solve


def _benders(kind):
    def solve(catalog, forest, cardinality, budget, seed):
        relax, res = benders.solve_two_phase(kind, catalog, forest, cardinality, budget)
        # a budget stop before B&B proved any bound still has phase 1's bound
        bound = relax.value if res.upper_bound == math.inf else res.upper_bound
        return _bb_row(
            res,
            bound=bound,
            z_lo=relax.value,
            z_lb=res.value,
            z_ub=bound,
            rounds=relax.rounds,
            cuts=len(relax.state.pool),
        )

    return solve


def _unconstrained(run):
    """Entry for a heuristic that cannot honor a cardinality limit."""

    def solve(catalog, forest, cardinality, budget, seed):
        if cardinality is not None:
            raise ConfigError("among the heuristics only dnc takes --cardinality")
        res = run(catalog, forest, seed)
        return _assortment_row(res.assortment, res.value)

    return solve


def _dnc(catalog, forest, cardinality, budget, seed):
    if cardinality is None:
        raise ConfigError("dnc requires --cardinality")
    res = heuristics.divide_and_conquer(catalog, forest, cardinality, seed=seed)
    return _assortment_row(res.assortment, res.value)


#: Every method by name: ``solver(catalog, forest, cardinality, budget, seed)``
#: returns the method's row fields.  Entries look solvers up as module
#: attributes at call time, so wrappers installed on those modules see each call.
SOLVERS = {
    "brute": lambda c, f, card, budget, seed: _assortment_row(
        *model.brute_force_optimal(c, f, card), optimal=True
    ),
    **{f"monolithic:{kind.value}": _monolithic(kind) for kind in KINDS},
    **{f"benders:{kind.value}": _benders(kind) for kind in KINDS},
    "ls": _unconstrained(lambda c, f, seed: heuristics.local_search(c, f)),
    "ls10": _unconstrained(lambda c, f, seed: heuristics.ls10(c, f, seed=seed)),
    "roa": _unconstrained(lambda c, f, seed: heuristics.revenue_ordered(c, f)),
    "dnc": _dnc,
}
METHODS = tuple(SOLVERS)


def solve_one(
    catalog,
    forest,
    method: str,
    cardinality=None,
    budget=None,
    seed: int = 0,
    timings: bool = True,
) -> dict:
    """Run one method; returns the result row used by solve and experiment."""
    if method not in SOLVERS:
        raise ConfigError(f"unknown method {method!r} (choose from {METHODS})")
    t0 = time.monotonic()
    row = {"method": method, "seed": seed}
    row.update(SOLVERS[method](catalog, forest, cardinality, budget, seed))
    row["wall_ms"] = round((time.monotonic() - t0) * 1000.0, 3) if timings else 0.0
    return row


def _finite_or_null(v):
    # JSON has no infinities: a value or bound left unproven is written as null
    return None if isinstance(v, float) and not math.isfinite(v) else v


def cmd_solve(args) -> int:
    catalog, forest = model.instance_from_json(Path(args.instance).read_text())
    row = solve_one(
        catalog,
        forest,
        args.method,
        cardinality=args.cardinality,
        budget=benders.Budget(max_nodes=args.budget_nodes, max_seconds=args.budget_sec),
        seed=args.seed,
        timings=not args.no_timings,
    )
    _write_text(args.out, _dump_json({k: _finite_or_null(v) for k, v in row.items()}))
    # heuristic rows carry no bound; an exact one that is not proven optimal
    # was stopped by its budget
    if row["bound"] is not None and not row["optimal"]:
        return EXIT_BUDGET
    return EXIT_OK


# ---------------------------------------------------------------------------
# experiment
# ---------------------------------------------------------------------------


def _shape_for(type_name: str, leaves: int) -> instancegen.TreeShape:
    if type_name in ("t1", "t2"):
        depth = max(1, (leaves - 1).bit_length())
        if 1 << depth != leaves:
            raise ConfigError(f"{type_name} needs a power-of-two leaf count")
        return instancegen.TreeShape(kind=type_name, depth=depth)
    if type_name == "t3":
        return instancegen.TreeShape(kind="t3", leaves=leaves)
    raise ConfigError(f"unknown instance type {type_name!r}")


def _instance_for(type_name, n, num_trees, leaves, seed, revenue_range=(1, 100)):
    config = instancegen.GeneratorConfig(
        n=n,
        num_trees=num_trees,
        shape=_shape_for(type_name, leaves),
        revenue_range=tuple(revenue_range),
        seed=seed,
    )
    return instancegen.generate_instance(config)


def _rep_seed(master_seed: int, *coords) -> int:
    # stable across processes (never use hash(): it is salted per run)
    seed = master_seed % (2**63)
    for c in coords:
        for byte in str(c).encode():
            seed = (seed * 1_000_003 + byte) % (2**63)
    return seed


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return f"{v:.6f}"
    return str(v)


def _mean(rows, key):
    vals = [r[key] for r in rows if isinstance(r.get(key), (int, float))]
    if not vals:
        return None
    return sum(vals) / len(vals)


def _write_csv(path: Path, schema: str, header: list[str], rows: list[dict]) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["schema"] + header)
    for row in rows:
        writer.writerow([schema] + [_fmt(row.get(k)) for k in header])
    path.write_text(buf.getvalue())


#: Columns of a grid cell, in the order ``_grid`` builds its tuples.
CELL_COLUMNS = ("type", "n", "num_trees", "leaves")


def _grid(spec) -> list[tuple]:
    cells = []
    for type_name in spec.get("types", ["t3"]):
        for n in spec.get("n", [10]):
            for num_trees in spec.get("num_trees", [5]):
                for leaves in spec.get("leaves", [8]):
                    cells.append((str(type_name).lower(), int(n), int(num_trees), int(leaves)))
    return cells


def _run_cells(spec, worker):
    """Evaluate ``worker`` per (cell, replication), optionally in a pool."""
    reps = int(spec.get("replications", 1))
    if reps < 1:
        raise ConfigError("replications must be >= 1")
    master_seed = int(spec.get("seed", 0))
    tasks = []
    for cell in _grid(spec):
        for rep in range(reps):
            seed = _rep_seed(master_seed, *cell, rep)
            tasks.append((cell, rep, seed))
    pool = _pool_size()
    if pool == 1:
        results = [worker(cell, rep, seed) for cell, rep, seed in tasks]
    else:
        with concurrent.futures.ThreadPoolExecutor(max_workers=pool) as ex:
            results = list(ex.map(lambda t: worker(*t), tasks))
    return [(t[0], t[1], t[2], r) for t, r in zip(tasks, results)]


def _rows_with_means(results, metric_keys):
    rows = []
    by_cell: dict[tuple, list[dict]] = {}
    for cell, rep, seed, metrics in results:
        row = dict(zip(CELL_COLUMNS, cell), rep=rep, seed=seed, **metrics)
        rows.append(row)
        by_cell.setdefault(cell, []).append(row)
    for cell, cell_rows in by_cell.items():
        mean_row = dict(zip(CELL_COLUMNS, cell), rep="mean", seed="")
        for key in metric_keys:
            mean_row[key] = _mean(cell_rows, key)
        rows.append(mean_row)
    rows.sort(key=lambda r: [r[c] for c in CELL_COLUMNS] + [str(r["rep"])])
    return rows


def _spec_budget(spec) -> benders.Budget:
    return benders.Budget(
        max_nodes=spec.get("budget_nodes"), max_seconds=spec.get("budget_sec", 60)
    )


def _experiment_integrality(spec, timings):
    revenue_range = spec.get("revenue_range", [1, 100])

    def worker(cell, rep, seed):
        type_name, n, num_trees, leaves = cell
        catalog, forest = _instance_for(
            type_name, n, num_trees, leaves, seed, revenue_range
        )
        row = {}
        try:
            _, z_star = model.brute_force_optimal(catalog, forest)
            z_star = float(z_star)
            row["z_star"] = z_star
            if z_star <= 0:
                row["status"] = "error: Z*=0, gap undefined"
                return row
            for kind in KINDS:
                z_lo, _, _ = formulations.solve_relaxation(
                    formulations.build(kind, catalog, forest)
                )
                row[f"z_lo_{kind.value}"] = z_lo
                row[f"gap_{kind.value}"] = max(0.0, 100.0 * (z_lo - z_star) / z_star)
            row["status"] = "ok"
        except DfoptError as exc:
            row["status"] = f"error: {exc}"
        return row

    results = _run_cells(spec, worker)
    keys = ["z_star"]
    for kind in KINDS:
        keys += [f"z_lo_{kind.value}", f"gap_{kind.value}"]
    rows = _rows_with_means(results, keys)
    header = [*CELL_COLUMNS, "rep", "seed", "status"] + keys
    return "integrality_gap", header, rows


def _experiment_tractability(spec, timings):
    budget = _spec_budget(spec)

    def worker(cell, rep, seed):
        catalog, forest = _instance_for(*cell, seed)
        row = {"status": "ok"}
        for kind in KINDS:
            method = f"monolithic:{kind.value}"
            try:
                res = solve_one(catalog, forest, method, budget=budget, timings=timings)
            except DfoptError as exc:
                row["status"] = f"error: {exc}"
                continue
            row[f"gap_{kind.value}"] = res["gap"]
            row[f"time_{kind.value}"] = res["wall_ms"] / 1000.0
        return row

    results = _run_cells(spec, worker)
    keys = []
    for kind in KINDS:
        keys += [f"gap_{kind.value}", f"time_{kind.value}"]
    rows = _rows_with_means(results, keys)
    header = [*CELL_COLUMNS, "rep", "seed", "status"] + keys
    return "tractability", header, rows


def _experiment_benders(spec, timings):
    """Decomposition vs direct solve vs swap heuristic at fixed cardinality."""
    budget = _spec_budget(spec)
    rhos = [float(r) for r in spec.get("rho", [0.2])]

    def worker(cell, rep, seed):
        type_name, n, num_trees, leaves = cell
        catalog, forest = _instance_for(type_name, n, num_trees, leaves, seed)
        rows = {}
        for rho in rhos:
            b = max(1, round(rho * n))
            tag = f"rho{rho:g}"
            # the two phases are timed apart, which solve_one cannot do
            t0 = time.monotonic()
            relax = benders.relaxation_phase(
                formulations.Kind.SPLIT, catalog, forest, cardinality=b
            )
            t1 = time.monotonic()
            integer = benders.integer_phase(
                formulations.Kind.SPLIT,
                catalog,
                forest,
                state=relax.state,
                cardinality=b,
                budget=budget,
            )
            t2 = time.monotonic()
            dnc = solve_one(catalog, forest, "dnc", cardinality=b, seed=seed)
            direct = solve_one(
                catalog, forest, "monolithic:split", cardinality=b, budget=budget
            )
            z_lb = integer.value
            z_dnc = dnc["value"]
            z_direct = direct["value"]
            rows[f"{tag}_b"] = b
            rows[f"{tag}_z_b_lo"] = relax.value
            rows[f"{tag}_z_b_ub"] = integer.upper_bound
            rows[f"{tag}_z_b_lb"] = z_lb
            rows[f"{tag}_g_b"] = integer.gap_pct
            rows[f"{tag}_z_dnc"] = z_dnc
            rows[f"{tag}_ri_dnc"] = (
                100.0 * (z_lb - z_dnc) / z_dnc if z_dnc > 0 else None
            )
            rows[f"{tag}_z_direct"] = z_direct
            rows[f"{tag}_ri_direct"] = (
                100.0 * (z_lb - z_direct) / z_direct if z_direct > 0 else None
            )
            rows[f"{tag}_nu_direct"] = 0 if direct["optimal"] else 1
            for name, secs in (
                ("t_b_lo", t1 - t0),
                ("t_b_io", t2 - t1),
                ("t_b_total", t2 - t0),
                ("t_dnc", dnc["wall_ms"] / 1000.0),
                ("t_direct", direct["wall_ms"] / 1000.0),
            ):
                rows[f"{tag}_{name}"] = secs if timings else 0.0
        return rows

    results = _run_cells(spec, worker)
    keys = []
    for rho in rhos:
        tag = f"rho{rho:g}"
        keys += [
            f"{tag}_{name}"
            for name in (
                "b",
                "z_b_lo",
                "z_b_ub",
                "z_b_lb",
                "g_b",
                "z_dnc",
                "ri_dnc",
                "z_direct",
                "ri_direct",
                "nu_direct",
                "t_b_lo",
                "t_b_io",
                "t_b_total",
                "t_dnc",
                "t_direct",
            )
        ]
    rows = _rows_with_means(results, keys)
    header = [*CELL_COLUMNS, "rep", "seed"] + keys
    return "benders", header, rows


def _experiment_heuristics(spec, timings):
    """Integer formulations vs LS / LS10 / ROA against the best upper bound."""
    budget = _spec_budget(spec)
    # column name -> method
    methods = {kind.value: f"monolithic:{kind.value}" for kind in KINDS}
    methods.update(ls="ls", ls10="ls10", roa="roa")

    def worker(cell, rep, seed):
        catalog, forest = _instance_for(*cell, seed)
        results = {
            name: solve_one(catalog, forest, method, budget=budget, seed=seed)
            for name, method in methods.items()
        }
        best_ub = min(results[kind.value]["bound"] for kind in KINDS)
        row = {"z_best_ub": best_ub}
        for name, res in results.items():
            v = res["value"]
            row[f"z_{name}"] = v
            row[f"gbar_{name}"] = (
                100.0 * (best_ub - v) / best_ub if best_ub > 0 else None
            )
        return row

    results = _run_cells(spec, worker)
    keys = ["z_best_ub"]
    for name in methods:
        keys += [f"z_{name}", f"gbar_{name}"]
    rows = _rows_with_means(results, keys)
    header = [*CELL_COLUMNS, "rep", "seed"] + keys
    return "heuristics", header, rows


EXPERIMENTS = {
    "integrality_gap": _experiment_integrality,
    "tractability": _experiment_tractability,
    "benders": _experiment_benders,
    "heuristics": _experiment_heuristics,
}


def cmd_experiment(args) -> int:
    spec = json.loads(Path(args.spec).read_text())
    name = spec.get("experiment")
    if name not in EXPERIMENTS:
        raise ConfigError(
            f"unknown experiment {name!r} (choose from {sorted(EXPERIMENTS)})"
        )
    timings = bool(spec.get("timings", True)) and not args.no_timings
    table, header, rows = EXPERIMENTS[name](spec, timings)
    out_dir = Path(args.out or spec.get("out", "."))
    out_dir.mkdir(parents=True, exist_ok=True)
    schema = f"{SCHEMA_PREFIX}.{table}.v1"
    _write_csv(out_dir / f"{table}.csv", schema, header, rows)
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dfopt",
        description="Assortment optimization under tree-ensemble choice models.",
    )
    parser.add_argument("--verbose", action="store_true", help="log solver progress")
    no_timings_help = "zero all timing fields (byte-identical reruns)"
    parser.add_argument("--no-timings", action="store_true", help=no_timings_help)
    # Each subcommand accepts the flag too.  Its default must be SUPPRESS: a
    # subparser default would overwrite the flag given before the subcommand.
    after = argparse.ArgumentParser(add_help=False)
    after.add_argument(
        "--no-timings",
        action="store_true",
        default=argparse.SUPPRESS,
        help=no_timings_help,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="generate instance JSON", parents=[after])
    p_gen.add_argument("--config", help="generator config JSON file")
    p_gen.add_argument("--cnf", help="DIMACS 3-CNF file to reduce instead")
    p_gen.add_argument("--out", help="output path (default stdout)")
    p_gen.set_defaults(func=cmd_generate)

    p_solve = sub.add_parser("solve", help="solve one instance", parents=[after])
    p_solve.add_argument("--instance", required=True)
    p_solve.add_argument("--method", required=True)
    p_solve.add_argument("--cardinality", type=int, default=None)
    p_solve.add_argument("--budget-sec", type=float, default=None)
    p_solve.add_argument("--budget-nodes", type=int, default=None)
    p_solve.add_argument("--seed", type=int, default=0)
    p_solve.add_argument("--out", help="output path (default stdout)")
    p_solve.set_defaults(func=cmd_solve)

    p_exp = sub.add_parser(
        "experiment", help="run an experiment grid", parents=[after]
    )
    p_exp.add_argument("--spec", required=True, help="experiment spec JSON file")
    p_exp.add_argument("--out", help="output directory (overrides spec)")
    p_exp.set_defaults(func=cmd_experiment)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(name)s %(levelname)s %(message)s",
        stream=sys.stderr,
    )
    try:
        return args.func(args)
    except (ConfigError, DomainError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
