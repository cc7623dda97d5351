"""Command-line surface: instance generation, solving, experiment tables.

Subcommands:

- ``dfopt generate``: synthetic instances from a config file (or a 3-CNF
  reduction from a DIMACS file) to canonical JSON.
- ``dfopt solve``: one instance, one method, JSON result on stdout/file.
  ``SOLVERS`` is the single list of methods; ``solve``, the experiments and
  the benchmark all run solvers through it via ``solve_one``.
- ``dfopt experiment``: a seeded grid of instances and methods, one CSV per
  table, reproducible byte for byte given the same spec (timings can be
  zeroed with --no-timings for exact reruns).  ``EXPERIMENTS`` gives each
  table's per-replication worker and columns; ``cmd_experiment`` is the one
  runner: ``_run_cells`` checks every grid cell, then runs the worker per
  replication (a failing one becomes a ``status=error:`` row), and
  ``_rows_with_means`` adds each cell's means before the CSV is written.

Exit codes: 0 success, 2 configuration error, 3 budget exhausted (partial
result emitted), 4 internal solver error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import logging
import math
import sys
import time
from dataclasses import replace
from pathlib import Path

from . import benders, formulations, heuristics, instancegen, model
from .errors import ConfigError, DfoptError, DomainError, SolverError, ValidationError

SCHEMA_PREFIX = "dfopt"
EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_BUDGET = 3
EXIT_SOLVER = 4

KINDS = tuple(formulations.Kind)


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
    if not isinstance(cfg_obj, dict):
        raise ConfigError("generator config must be a JSON object")
    configs = cfg_obj["configs"] if "configs" in cfg_obj else [cfg_obj]
    if not isinstance(configs, list) or not all(isinstance(e, dict) for e in configs):
        raise ConfigError("generator \"configs\" must be a list of JSON objects")
    if not configs:
        raise ConfigError("generator \"configs\" is empty")
    master_seed = _count("seed", cfg_obj.get("seed", 0), 0)
    multi = len(configs) > 1
    if multi and args.out == "-":
        raise ConfigError("a \"configs\" list writes one file per entry, not to --out -")
    # every entry is checked before any instance is generated or written
    parsed = [
        instancegen.GeneratorConfig.from_obj({"seed": master_seed + idx, **entry})
        for idx, entry in enumerate(configs)
    ]
    for idx, config in enumerate(parsed):
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
        return _bb_row(
            res,
            z_lo=relax.value,
            z_lb=res.value,
            z_ub=res.upper_bound,
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
        # an unproven value or bound (an infinity) is an empty cell, like None
        return f"{v:.6f}" if math.isfinite(v) else ""
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


def _count(name: str, value, least) -> int:
    """``value`` as an int, if it is an integer (an integral JSON float such as
    4.0 counts) of at least ``least``; otherwise ``ConfigError``."""
    value = model._json_integer(value)
    instancegen._check_integer(name, value, least)
    return value


def _grid(spec) -> list[tuple]:
    cells = []
    for type_name in spec.get("types", ["t3"]):
        for n in spec.get("n", [10]):
            for num_trees in spec.get("num_trees", [5]):
                for leaves in spec.get("leaves", [8]):
                    cells.append((
                        str(type_name).lower(),
                        _count("n", n, 1),
                        _count("num_trees", num_trees, 1),
                        _count("leaves", leaves, 1),
                    ))
    return cells


def _run_cells(spec, worker):
    """Run ``worker(catalog, forest, seed)`` per (cell, replication), in grid order.

    Every cell's generator config is built, and so checked, before the first
    worker runs.  Each replication's instance is drawn from its cell and
    seed, with the revenues in the spec's ``revenue_range``.  Returns
    ``(cell, rep, seed, row)`` tuples: the worker's row with status ``ok``
    unless it sets its own, or only an ``error:`` status if it raises.
    """
    reps = _count("replications", spec.get("replications", 1), 1)
    # any integer seeds the grid: _rep_seed reduces it modulo 2**63
    master_seed = _count("seed", spec.get("seed", 0), -math.inf)
    try:
        cells = _grid(spec)
    except TypeError as exc:  # a grid entry that is not a list
        raise ConfigError(f"malformed experiment grid: {exc}") from None
    revenue_range = tuple(spec.get("revenue_range", [1, 100]))
    configs = [
        instancegen.GeneratorConfig(n, trees, _shape_for(kind, leaves), revenue_range)
        for kind, n, trees, leaves in cells
    ]
    results = []
    for cell, config in zip(cells, configs):
        for rep in range(reps):
            seed = _rep_seed(master_seed, *cell, rep)
            catalog, forest = instancegen.generate_instance(replace(config, seed=seed))
            try:
                row = {"status": "ok", **worker(catalog, forest, seed)}
            except DfoptError as exc:
                row = {"status": f"error: {exc}"}
            results.append((cell, rep, seed, row))
    return results


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
    # replications in number order, the mean last
    rows.sort(key=lambda r: [r[c] for c in CELL_COLUMNS] + [
        math.inf if r["rep"] == "mean" else r["rep"]
    ])
    return rows


def _spec_budget(spec) -> benders.Budget:
    return benders.Budget(
        max_nodes=spec.get("budget_nodes"), max_seconds=spec.get("budget_sec", 60)
    )


def _pct(diff, base):
    """``diff`` as a percentage of ``base``; None unless ``base`` is positive."""
    return 100.0 * diff / base if base > 0 else None


def _experiment_integrality(spec, timings):
    """Root relaxation gap of each formulation against the brute-force optimum."""

    def worker(catalog, forest, seed):
        # its own try keeps z_star on an error row
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
                row[f"gap_{kind.value}"] = max(0.0, _pct(z_lo - z_star, z_star))
        except DfoptError as exc:
            row["status"] = f"error: {exc}"
        return row

    columns = [f"{c}_{k.value}" for k in KINDS for c in ("z_lo", "gap")]
    return worker, ["z_star", *columns]


def _experiment_tractability(spec, timings):
    """Budgeted monolithic solves: final gap and time per formulation."""
    budget = _spec_budget(spec)

    def worker(catalog, forest, seed):
        row = {}
        for kind in KINDS:
            method = f"monolithic:{kind.value}"
            try:
                res = solve_one(catalog, forest, method, budget=budget, timings=timings)
            except DfoptError as exc:  # the row keeps the kinds that did solve
                row["status"] = f"error: {exc}"
                continue
            row[f"gap_{kind.value}"] = res["gap"]
            row[f"time_{kind.value}"] = res["wall_ms"] / 1000.0
        return row

    return worker, [f"{c}_{k.value}" for k in KINDS for c in ("gap", "time")]


#: The ``benders`` table's columns per rho, each prefixed by ``rho{rho:g}_``.
BENDERS_COLUMNS = (
    "b", "z_b_lo", "z_b_ub", "z_b_lb", "g_b", "z_dnc", "ri_dnc", "z_direct",
    "ri_direct", "nu_direct", "t_b_lo", "t_b_io", "t_b_total", "t_dnc", "t_direct",
)


def _experiment_benders(spec, timings):
    """Decomposition vs direct solve vs swap heuristic at fixed cardinality."""
    budget = _spec_budget(spec)
    rhos = [float(r) for r in spec.get("rho", [0.2])]

    def columns(rho):
        return [f"rho{rho:g}_{name}" for name in BENDERS_COLUMNS]

    def worker(catalog, forest, seed):
        row = {}
        for rho in rhos:
            b = max(1, round(rho * catalog.n))
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
            z_lb, z_dnc, z_direct = integer.value, dnc["value"], direct["value"]
            secs = (t1 - t0, t2 - t1, t2 - t0, dnc["wall_ms"] / 1000.0,
                    direct["wall_ms"] / 1000.0)
            row.update(zip(columns(rho), (
                b, relax.value, integer.upper_bound, z_lb, integer.gap_pct,
                z_dnc, _pct(z_lb - z_dnc, z_dnc),
                z_direct, _pct(z_lb - z_direct, z_direct),
                0 if direct["optimal"] else 1,
                *(s if timings else 0.0 for s in secs),
            )))
        return row

    return worker, [c for rho in rhos for c in columns(rho)]


def _experiment_heuristics(spec, timings):
    """Integer formulations vs LS / LS10 / ROA against the best upper bound."""
    budget = _spec_budget(spec)
    # column name -> method
    methods = {kind.value: f"monolithic:{kind.value}" for kind in KINDS}
    methods.update(ls="ls", ls10="ls10", roa="roa")

    def worker(catalog, forest, seed):
        results = {
            name: solve_one(catalog, forest, method, budget=budget, seed=seed)
            for name, method in methods.items()
        }
        best_ub = min(results[kind.value]["bound"] for kind in KINDS)
        row = {"z_best_ub": best_ub}
        for name, res in results.items():
            v = res["value"]
            row[f"z_{name}"] = v
            row[f"gbar_{name}"] = _pct(best_ub - v, best_ub)
        return row

    return worker, ["z_best_ub", *(f"{c}_{m}" for m in methods for c in ("z", "gbar"))]


#: Every table by name: ``EXPERIMENTS[name](spec, timings)`` returns
#: ``(worker, columns)``, the per-replication ``worker(catalog, forest, seed)``
#: that gives one row and the row's metric columns in header order.
EXPERIMENTS = {
    "integrality_gap": _experiment_integrality,
    "tractability": _experiment_tractability,
    "benders": _experiment_benders,
    "heuristics": _experiment_heuristics,
}

#: Every key an experiment spec may hold; a misspelt key is refused rather
#: than silently replaced by its default.
SPEC_KEYS = frozenset({
    "experiment", "types", "n", "num_trees", "leaves", "replications", "seed",
    "revenue_range", "rho", "budget_nodes", "budget_sec", "out",
})


def _check_spec(spec) -> None:
    """Refuse the values that would otherwise fail inside a worker."""

    def number(v, kind=(int, float)):
        return isinstance(v, kind) and not isinstance(v, bool) and math.isfinite(v)

    _spec_budget(spec)  # benders.Budget refuses what no solver could run under
    rr = spec.get("revenue_range", [1, 100])
    if not (isinstance(rr, list) and len(rr) == 2 and all(number(v, int) for v in rr)):
        raise ConfigError(f"revenue_range must be two integers, got {rr!r}")
    rho = spec.get("rho", [0.2])
    if not (isinstance(rho, list) and all(number(r) and 0 < r <= 1 for r in rho)):
        raise ConfigError(f"rho must be a list of numbers in (0, 1], got {rho!r}")
    tags = [f"rho{r:g}" for r in rho]  # the benders table's column prefixes
    shared = next((tag for tag in tags if tags.count(tag) > 1), None)
    if shared is not None:
        raise ConfigError(f"rho values {rho!r} share the column tag {shared}")
    if not isinstance(spec.get("out", "."), str):
        raise ConfigError(f"out must be a path string, got {spec['out']!r}")


def cmd_experiment(args) -> int:
    spec = json.loads(Path(args.spec).read_text())
    if not isinstance(spec, dict):
        raise ConfigError("experiment spec must be a JSON object")
    unknown = sorted(set(spec) - SPEC_KEYS)
    if unknown:
        raise ConfigError(f"unknown experiment spec keys {unknown}")
    name = spec.get("experiment")
    if name not in EXPERIMENTS:
        raise ConfigError(
            f"unknown experiment {name!r} (choose from {sorted(EXPERIMENTS)})"
        )
    _check_spec(spec)
    worker, columns = EXPERIMENTS[name](spec, not args.no_timings)
    rows = _rows_with_means(_run_cells(spec, worker), columns)
    out_dir = Path(args.out or spec.get("out", "."))
    out_dir.mkdir(parents=True, exist_ok=True)
    header = [*CELL_COLUMNS, "rep", "seed", "status", *columns]
    _write_csv(out_dir / f"{name}.csv", f"{SCHEMA_PREFIX}.{name}.v1", header, rows)
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
    source = p_gen.add_mutually_exclusive_group(required=True)
    source.add_argument("--config", help="generator config JSON file")
    source.add_argument("--cnf", help="DIMACS 3-CNF file to reduce instead")
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
    except (
        ConfigError, DomainError, ValidationError, OSError, json.JSONDecodeError
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
