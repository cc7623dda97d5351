"""Command-line surface: generate/solve/experiment, exit codes, determinism."""

import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from dfopt import cli, heuristics
from dfopt.cli import EXIT_BUDGET, EXIT_CONFIG, EXIT_OK, main
from dfopt.errors import SolverError
from dfopt.instancegen import GeneratorConfig, TreeShape, generate_instance
from dfopt.model import instance_from_json, instance_to_json

from cases import greedy_gap_tree, single_tree_forest

HEURISTICS = ("ls", "ls10", "roa", "dnc")


@pytest.fixture()
def gap_instance_path(tmp_path):
    catalog, tree = greedy_gap_tree()
    path = tmp_path / "inst.json"
    path.write_text(instance_to_json(catalog, single_tree_forest(tree)))
    return path


@pytest.fixture()
def seeded_instance_path(tmp_path):
    """n=8, 4 trees, t3, 8 leaves: its split relaxation needs 5 cut rounds."""
    catalog, forest = generate_instance(
        GeneratorConfig(n=8, num_trees=4, shape=TreeShape("t3", leaves=8), seed=3)
    )
    path = tmp_path / "seeded.json"
    path.write_text(instance_to_json(catalog, forest))
    return path


def _reject_constant(name):
    raise ValueError(f"not valid JSON: {name}")


class TestGenerate:
    def test_round_trip(self, tmp_path):
        cfg = {
            "n": 10,
            "num_trees": 5,
            "shape": {"type": "t3", "leaves": 8},
            "seed": 7,
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "inst.json"
        assert main(["generate", "--config", str(cfg_path), "--out", str(out)]) == EXIT_OK
        catalog, forest = instance_from_json(out.read_text())
        assert catalog.n == 10 and len(forest.trees) == 5
        assert instance_to_json(catalog, forest) == out.read_text()

    def test_minimal_depth_one(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(
            json.dumps({"n": 2, "num_trees": 1, "shape": {"type": "t1", "depth": 1}})
        )
        out = tmp_path / "inst.json"
        assert main(["generate", "--config", str(cfg_path), "--out", str(out)]) == EXIT_OK
        catalog, forest = instance_from_json(out.read_text())
        assert len(forest.trees[0].leaf_ids) == 2

    def test_grid_with_derived_seeds(self, tmp_path):
        cfg = {
            "seed": 100,
            "configs": [
                {"n": 6, "num_trees": 2, "shape": {"type": "t3", "leaves": 4}},
                {"n": 6, "num_trees": 2, "shape": {"type": "t3", "leaves": 4}},
                {"n": 6, "num_trees": 2, "shape": {"type": "t2", "depth": 2}},
            ],
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "grid.json"
        assert main(["generate", "--config", str(cfg_path), "--out", str(out)]) == EXIT_OK
        texts = [(tmp_path / f"grid-{i}.json").read_text() for i in range(3)]
        assert texts[0] != texts[1]  # same config, derived seeds differ

    def test_config_list_refuses_stdout(self, tmp_path, monkeypatch, capsys):
        # one file per entry cannot go to stdout; nothing is generated or written
        entry = {"n": 4, "num_trees": 1, "shape": {"type": "t3", "leaves": 4}}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"configs": [entry, entry]}))
        monkeypatch.chdir(tmp_path)
        assert main(["generate", "--config", str(cfg_path), "--out", "-"]) == EXIT_CONFIG
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize(
        "bad, message",
        [
            ({"n": -1}, "n must be >= 1, got -1"),
            ({"n": 2, "shape": {"type": "t3", "leaves": 5}}, "cannot grow to 5 leaves"),
        ],
    )
    def test_invalid_later_entry_writes_nothing(self, tmp_path, capsys, bad, message):
        # the list is checked whole before the first file is written
        entry = {"n": 4, "num_trees": 1, "shape": {"type": "t3", "leaves": 4}}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"configs": [entry, {**entry, **bad}]}))
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        out = out_dir / "out.json"
        assert main(["generate", "--config", str(cfg_path), "--out", str(out)]) == EXIT_CONFIG
        assert list(out_dir.iterdir()) == []
        assert message in capsys.readouterr().err

    def test_cnf_reduction(self, tmp_path):
        cnf = tmp_path / "f.cnf"
        cnf.write_text("p cnf 4 2\n1 -2 3 0\n-1 2 4 0\n")
        out = tmp_path / "sat.json"
        assert main(["generate", "--cnf", str(cnf), "--out", str(out)]) == EXIT_OK
        catalog, forest = instance_from_json(out.read_text())
        assert catalog.n == 5 and len(forest.trees) == 2

    @pytest.mark.parametrize(
        "text, token",
        [
            ("p cnf x 2\n1 -2 3 0\n-1 2 4 0\n", "x"),
            ("p cnf 4 2\n1 2 abc 0\n-1 2 4 0\n", "abc"),
            ("p cnf 4 2\n1 -2 1.5 0\n-1 2 4 0\n", "1.5"),
        ],
        ids=["header-count", "literal", "fractional-literal"],
    )
    def test_malformed_cnf_exit_code(self, tmp_path, capsys, text, token):
        cnf = tmp_path / "f.cnf"
        cnf.write_text(text)
        out = tmp_path / "sat.json"
        assert main(["generate", "--cnf", str(cnf), "--out", str(out)]) == EXIT_CONFIG
        assert f"bad DIMACS token {token!r}" in capsys.readouterr().err
        assert not out.exists()

    def test_integral_float_counts_accepted(self, tmp_path):
        texts = []
        for n, leaves in ((4, 4), (4.0, 4.0)):
            cfg = {"n": n, "num_trees": 2, "shape": {"type": "t3", "leaves": leaves}}
            cfg_path = tmp_path / "cfg.json"
            cfg_path.write_text(json.dumps(cfg))
            out = tmp_path / "instance.json"
            assert main(["generate", "--config", str(cfg_path), "--out", str(out)]) == EXIT_OK
            texts.append(out.read_text())
        assert texts[0] == texts[1]

    def test_integral_float_top_seed_accepted(self, tmp_path):
        texts = []
        for seed in (4, 4.0):
            cfg = {"configs": [{"n": 4, "num_trees": 2, "shape": {"type": "t3", "leaves": 4}}],
                   "seed": seed}
            cfg_path = tmp_path / "cfg.json"
            cfg_path.write_text(json.dumps(cfg))
            out = tmp_path / "instance.json"
            assert main(["generate", "--config", str(cfg_path), "--out", str(out)]) == EXIT_OK
            texts.append(out.read_text())
        assert texts[0] == texts[1]

    @pytest.mark.parametrize("sources", [(), ("--config", "--cnf")], ids=["neither", "both"])
    def test_exactly_one_source(self, tmp_path, capsys, sources):
        files = {"--config": tmp_path / "cfg.json", "--cnf": tmp_path / "f.cnf"}
        files["--config"].write_text(
            json.dumps({"n": 4, "num_trees": 1, "shape": {"type": "t3", "leaves": 4}})
        )
        files["--cnf"].write_text("p cnf 4 2\n1 -2 3 0\n-1 2 4 0\n")
        out = tmp_path / "inst.json"
        argv = ["generate", "--out", str(out)]
        for flag in sources:
            argv += [flag, str(files[flag])]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_CONFIG
        assert "--config" in capsys.readouterr().err and not out.exists()

    def test_bad_config_exit_code(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"n": 0, "num_trees": 1, "shape": {"type": "t1", "depth": 1}}))
        assert main(["generate", "--config", str(cfg_path)]) == EXIT_CONFIG

    def test_three_revenue_bounds_write_nothing(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "n": 4, "num_trees": 1, "shape": {"type": "t1", "depth": 1},
            "revenue_range": [1, 50, 99],
        }))
        out = tmp_path / "inst.json"
        assert main(["generate", "--config", str(cfg_path), "--out", str(out)]) == EXIT_CONFIG
        assert "revenue_range" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "cfg",
        [
            {"num_trees": 1, "shape": {"type": "t1", "depth": 1}},
            {"n": "four", "num_trees": 1, "shape": {"type": "t1", "depth": 1}},
            {"n": 4, "num_trees": 1, "shape": "t1"},
            [{"n": 4, "num_trees": 1, "shape": {"type": "t1", "depth": 1}}],
            {"configs": [5]},
            {"configs": []},
            {"n": 4, "num_trees": 1, "shape": {"type": "t1", "depth": 1}, "seed": -1},
            {"n": 4, "num_trees": 1, "shape": {"type": "t1", "depth": 2.5}},
            {"n": 2.7, "num_trees": 1, "shape": {"type": "t1", "depth": 1}},
            {"n": 4, "num_trees": 1.5, "shape": {"type": "t1", "depth": 1}},
            {"n": 4, "num_trees": 1, "shape": {"type": "t1", "depth": 1},
             "revenue_range": [1.5, 3]},
            {"n": True, "num_trees": 1, "shape": {"type": "t1", "depth": 1}},
            {"n": 4, "num_trees": 1, "shape": {"type": "t3", "leaves": -4}},
            {"configs": [{"n": 4, "num_trees": 1, "shape": {"type": "t3", "leaves": 4}}],
             "seed": 2.5},
            {"configs": [{"n": 4, "num_trees": 1, "shape": {"type": "t3", "leaves": 4}}],
             "seed": "5"},
        ],
        ids=[
            "missing-n", "text-n", "shape-not-object", "list-not-object",
            "configs-entry-not-object", "empty-configs", "negative-seed",
            "fractional-depth", "fractional-n", "fractional-num-trees",
            "fractional-revenue", "bool-n", "negative-leaves",
            "fractional-top-seed", "text-top-seed",
        ],
    )
    def test_malformed_config_exit_code(self, tmp_path, capsys, cfg):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["generate", "--config", str(cfg_path)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("error: ")


#: Edits that make the greedy-gap instance (n = 3, one tree) malformed.
MALFORMED_INSTANCES = {
    "n-mismatch": {"n": 2},
    "weights-sum-to-1.1": {"lambda": [1.1]},
    "missing-lambda": {"lambda": None},
    "text-revenue": {"revenues": ["abc", "19", "18"]},
    "nan-weight": {"lambda": [float("nan")]},
    "inf-revenue": {"revenues": [float("inf"), "19", "18"]},
    "bool-revenue": {"revenues": [True, "19", "18"]},
    "missing-root": {"trees": [{"nodes": [{"leaf": {"option": 0}}]}]},
}


@pytest.mark.parametrize("name", sorted(MALFORMED_INSTANCES))
def test_malformed_instance_exit_code(gap_instance_path, capsys, name):
    obj = json.loads(gap_instance_path.read_text())
    for key, value in MALFORMED_INSTANCES[name].items():
        if value is None:
            del obj[key]
        else:
            obj[key] = value
    gap_instance_path.write_text(json.dumps(obj))
    argv = ["solve", "--instance", str(gap_instance_path), "--method", "brute"]
    assert main(argv) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("error: ")


class TestSolve:
    def test_benders_split(self, gap_instance_path, tmp_path):
        out = tmp_path / "res.json"
        code = main(
            [
                "solve",
                "--instance",
                str(gap_instance_path),
                "--method",
                "benders:split",
                "--out",
                str(out),
            ]
        )
        assert code == EXIT_OK
        res = json.loads(out.read_text())
        assert res["value"] == 20
        assert res["gap"] == 0
        assert res["assortment"] == [1, 2, 3]

    def test_fractional_product_is_refused(self, gap_instance_path, tmp_path):
        # read with int(), product 1.7 was product 1 and the solve exited 0
        obj = json.loads(gap_instance_path.read_text())
        split = next(e["split"] for e in obj["trees"][0]["nodes"] if "split" in e)
        split["product"] += 0.7
        gap_instance_path.write_text(json.dumps(obj))
        argv = ["solve", "--instance", str(gap_instance_path), "--method", "benders:split"]
        assert main(argv + ["--out", str(tmp_path / "res.json")]) == EXIT_CONFIG

    def test_monolithic_product_single_tree_gap_zero(self, gap_instance_path, tmp_path):
        out = tmp_path / "res.json"
        assert (
            main(
                [
                    "solve",
                    "--instance",
                    str(gap_instance_path),
                    "--method",
                    "monolithic:product",
                    "--out",
                    str(out),
                ]
            )
            == EXIT_OK
        )
        res = json.loads(out.read_text())
        assert res["value"] == 20 and res["gap"] == 0

    def test_heuristics_and_brute(self, gap_instance_path, tmp_path):
        for method in ("brute", "ls", "ls10", "roa"):
            out = tmp_path / f"{method}.json"
            assert (
                main(
                    [
                        "solve",
                        "--instance",
                        str(gap_instance_path),
                        "--method",
                        method,
                        "--out",
                        str(out),
                    ]
                )
                == EXIT_OK
            )
            res = json.loads(out.read_text())
            assert res["value"] <= 20

    def test_dnc_requires_cardinality(self, gap_instance_path):
        assert (
            main(["solve", "--instance", str(gap_instance_path), "--method", "dnc"])
            == EXIT_CONFIG
        )

    @pytest.mark.parametrize("method", cli.METHODS)
    def test_every_method_through_solve_one(self, method):
        catalog, tree = greedy_gap_tree()
        row = cli.solve_one(
            catalog,
            single_tree_forest(tree),
            method,
            cardinality=3 if method == "dnc" else None,
            seed=4,
            timings=False,
        )
        assert row["method"] == method and row["seed"] == 4 and row["wall_ms"] == 0.0
        if method in HEURISTICS:
            assert row["optimal"] is False and row["bound"] is None
            assert row["value"] <= 20
        else:
            assert row["optimal"] is True
            assert row["value"] == pytest.approx(20)
            assert row["bound"] == pytest.approx(20)

    @pytest.mark.parametrize("method", ["ls", "ls10", "roa"])
    def test_unconstrained_heuristics_reject_cardinality(
        self, seeded_instance_path, method
    ):
        argv = ["solve", "--instance", str(seeded_instance_path), "--method", method]
        assert main(argv) == EXIT_OK
        assert main(argv + ["--cardinality", "2"]) == EXIT_CONFIG

    @pytest.mark.parametrize("cardinality", ["9", "-1"])
    @pytest.mark.parametrize(
        "method", ["benders:split", "monolithic:split", "brute", "dnc"]
    )
    def test_cardinality_out_of_range(
        self, seeded_instance_path, capsys, method, cardinality
    ):
        argv = ["solve", "--instance", str(seeded_instance_path), "--method", method]
        assert main(argv + ["--cardinality", cardinality]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"cardinality {cardinality} out of range 0..8" in err

    @pytest.mark.parametrize(
        "method, options",
        [("ls10", ["--seed", "-1"]), ("dnc", ["--cardinality", "2", "--seed", "-3"])],
    )
    def test_negative_seed_is_refused(self, seeded_instance_path, capsys, method, options):
        argv = ["solve", "--instance", str(seeded_instance_path), "--method", method]
        assert main(argv + options) == EXIT_CONFIG
        assert "seed must be an integer >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("method", ["benders:split", "monolithic:split", "dnc"])
    def test_zero_cardinality_offers_nothing(self, seeded_instance_path, tmp_path, method):
        out = tmp_path / "res.json"
        argv = ["solve", "--instance", str(seeded_instance_path), "--method", method]
        assert main(argv + ["--cardinality", "0", "--out", str(out)]) == EXIT_OK
        res = json.loads(out.read_text())
        assert res["assortment"] == [] and res["value"] == 0

    @pytest.mark.parametrize(
        "budget", [["--budget-sec", "nan"], ["--budget-sec", "-1"], ["--budget-nodes", "-1"]]
    )
    def test_invalid_budget_is_refused(self, seeded_instance_path, capsys, budget):
        argv = ["solve", "--instance", str(seeded_instance_path), "--method", "benders:split"]
        assert main(argv + budget) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("error: budget max_")

    @pytest.mark.parametrize("method", ["monolithic:leaf", "benders:split"])
    def test_budget_stop_emits_valid_json(self, seeded_instance_path, tmp_path, method):
        out = tmp_path / "res.json"
        argv = ["solve", "--instance", str(seeded_instance_path), "--method", method]
        code = main(argv + ["--budget-nodes", "0", "--out", str(out)])
        assert code == EXIT_BUDGET
        res = json.loads(out.read_text(), parse_constant=_reject_constant)
        assert res["optimal"] is False and res["assortment"] is None
        assert res["value"] is None and res["gap"] is None
        if method.startswith("benders:"):
            # phase 1 finished, so its relaxation value is a proven bound
            assert res["z_lo"] > 0
            assert res["bound"] == res["z_ub"] == res["z_lo"]
        else:
            assert res["bound"] is None

    def test_no_timings_in_either_position(self, seeded_instance_path, tmp_path):
        args = ["solve", "--instance", str(seeded_instance_path)]
        args += ["--method", "benders:split"]
        outs = []
        for name, argv in (
            ("before", ["--no-timings"] + args),
            ("after", args + ["--no-timings"]),
        ):
            out = tmp_path / f"{name}.json"
            assert main(argv + ["--out", str(out)]) == EXIT_OK
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
        assert json.loads(outs[0])["wall_ms"] == 0.0

    def test_unknown_method(self, gap_instance_path):
        assert (
            main(["solve", "--instance", str(gap_instance_path), "--method", "magic"])
            == EXIT_CONFIG
        )


class TestExperiment:
    SPEC = {
        "experiment": "integrality_gap",
        "types": ["t1", "t3"],
        "n": [8],
        "num_trees": [3],
        "leaves": [8],
        "replications": 2,
        "seed": 5,
    }

    def test_integrality_csv(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(self.SPEC))
        out_dir = tmp_path / "out"
        assert (
            main(
                [
                    "--no-timings",
                    "experiment",
                    "--spec",
                    str(spec_path),
                    "--out",
                    str(out_dir),
                ]
            )
            == EXIT_OK
        )
        csv_text = (out_dir / "integrality_gap.csv").read_text()
        lines = csv_text.strip().splitlines()
        assert lines[0].startswith("schema,")
        assert all(l.startswith("dfopt.integrality_gap.v1,") for l in lines[1:])
        # per-rep rows plus one mean row per grid cell
        assert len(lines) == 1 + 2 * (2 + 1)
        mean_rows = [l for l in lines if ",mean," in l]
        header = lines[0].split(",")
        for row in mean_rows:
            vals = dict(zip(header, row.split(",")))
            gaps = [float(vals[f"gap_{k}"]) for k in ("leaf", "split", "product")]
            assert gaps[0] >= gaps[1] - 1e-6
            assert gaps[1] >= gaps[2] - 1e-6

    def test_rerun_byte_identical(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(self.SPEC))
        outs = []
        for d in ("a", "b"):
            out_dir = tmp_path / d
            main(["--no-timings", "experiment", "--spec", str(spec_path), "--out", str(out_dir)])
            outs.append((out_dir / "integrality_gap.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_integral_float_counts_accepted(self, tmp_path):
        floats = dict(self.SPEC, n=[8.0], num_trees=[3.0], leaves=[8.0],
                      replications=2.0, seed=5.0)
        outs = []
        for d, spec in (("ints", self.SPEC), ("floats", floats)):
            spec_path = tmp_path / f"{d}.json"
            spec_path.write_text(json.dumps(spec))
            argv = ["--no-timings", "experiment", "--spec", str(spec_path),
                    "--out", str(tmp_path / d)]
            assert main(argv) == EXIT_OK
            outs.append((tmp_path / d / "integrality_gap.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_replications_in_number_order(self, tmp_path):
        spec = dict(self.SPEC, types=["t3"], replications=12)
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        argv = ["--no-timings", "experiment", "--spec", str(spec_path), "--out", str(tmp_path)]
        assert main(argv) == EXIT_OK
        rows = csv.DictReader(io.StringIO((tmp_path / "integrality_gap.csv").read_text()))
        assert [r["rep"] for r in rows] == [str(i) for i in range(12)] + ["mean"]

    def test_zero_revenue_grid_reports_error_rows(self, tmp_path):
        spec = dict(self.SPEC, revenue_range=[0, 0], types=["t3"], replications=1)
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        out_dir = tmp_path / "zero"
        assert (
            main(
                [
                    "--no-timings",
                    "experiment",
                    "--spec",
                    str(spec_path),
                    "--out",
                    str(out_dir),
                ]
            )
            == EXIT_OK
        )
        lines = (out_dir / "integrality_gap.csv").read_text().strip().splitlines()
        data = [l for l in lines[1:] if ",mean," not in l]
        assert data and all("error" in l for l in data)

    SMALL = {
        "types": ["t1", "t3"],
        "n": [8],
        "num_trees": [3],
        "leaves": [4],
        "replications": 2,
        "seed": 5,
        "rho": [0.25],
    }

    def _run(self, tmp_path, name, out, flag_first=True):
        spec_path = tmp_path / f"{name}.spec.json"
        spec_path.write_text(json.dumps(dict(self.SMALL, experiment=name)))
        args = ["experiment", "--spec", str(spec_path), "--out", str(tmp_path / out)]
        argv = ["--no-timings"] + args if flag_first else args + ["--no-timings"]
        assert main(argv) == EXIT_OK
        return (tmp_path / out / f"{name}.csv").read_text()

    def _rerun_rows(self, tmp_path, name):
        """Per-replication rows, after checking that a rerun is byte-identical."""
        text = self._run(tmp_path, name, "a")
        assert self._run(tmp_path, name, "b") == text
        rows = list(csv.DictReader(io.StringIO(text)))
        assert len(rows) == 2 * (2 + 1)
        return [r for r in rows if r["rep"] != "mean"]

    def test_tractability_rerun_and_status(self, tmp_path):
        for row in self._rerun_rows(tmp_path, "tractability"):
            assert row["status"] == "ok"
            assert float(row["time_leaf"]) == 0.0

    def test_benders_rerun_and_dominance(self, tmp_path):
        for row in self._rerun_rows(tmp_path, "benders"):
            assert float(row["rho0.25_z_b_lb"]) >= float(row["rho0.25_z_dnc"]) - 1e-9
            assert int(row["rho0.25_nu_direct"]) == 0

    def test_heuristics_rerun_and_gaps(self, tmp_path):
        for row in self._rerun_rows(tmp_path, "heuristics"):
            z_leaf = float(row["z_leaf"])
            assert float(row["z_split"]) == pytest.approx(z_leaf, abs=1e-6)
            assert float(row["z_product"]) == pytest.approx(z_leaf, abs=1e-6)
            for key, v in row.items():
                if key.startswith("gbar_"):
                    assert float(v) >= -1e-9, key

    @pytest.mark.parametrize("name", ["tractability", "benders", "heuristics"])
    def test_every_table_draws_revenues_from_the_spec(self, tmp_path, monkeypatch, name):
        # every revenue is 5, so no assortment earns more than 5
        catalogs = []
        solve_one = cli.solve_one

        def recorded(catalog, *args, **kwargs):
            catalogs.append(catalog)
            return solve_one(catalog, *args, **kwargs)

        monkeypatch.setattr(cli, "solve_one", recorded)
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(dict(self.SMALL, experiment=name, revenue_range=[5, 5])))
        argv = ["--no-timings", "experiment", "--spec", str(spec_path), "--out", str(tmp_path)]
        assert main(argv) == EXIT_OK
        assert catalogs and all(set(c.revenues) == {5} for c in catalogs)
        rows = csv.DictReader(io.StringIO((tmp_path / f"{name}.csv").read_text()))
        values = [float(v) for row in rows for key, v in row.items() if "z_" in key and v]
        assert all(v <= 5 + 1e-9 for v in values)
        assert values or name == "tractability"

    @pytest.mark.parametrize("name", ["integrality_gap", "benders"])
    def test_no_timings_in_either_position(self, tmp_path, name):
        before = self._run(tmp_path, name, "before", flag_first=True)
        assert self._run(tmp_path, name, "after", flag_first=False) == before

    def test_benders_without_nodes_reports_relaxation_bound(self, tmp_path):
        # with no B&B node solved the integer phase has proven only phase 1's
        # bound, and an unproven value is an empty cell, never "inf"
        spec = {
            "experiment": "benders",
            "types": ["t3"],
            "n": [8],
            "num_trees": [3],
            "leaves": [8],
            "seed": 5,
            "budget_nodes": 0,
        }
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        argv = ["--no-timings", "experiment", "--spec", str(spec_path), "--out", str(tmp_path)]
        assert main(argv) == EXIT_OK
        rows = list(csv.DictReader(io.StringIO((tmp_path / "benders.csv").read_text())))
        assert len(rows) == 2
        for row in rows:
            assert float(row["rho0.2_z_b_ub"]) == float(row["rho0.2_z_b_lo"])
            assert row["rho0.2_z_b_lb"] == ""
            assert not {"inf", "-inf", "nan"} & set(row.values())

    def test_rho_above_one_is_refused_before_any_cell(self, tmp_path, capsys, monkeypatch):
        def run_cells(spec, worker):
            raise AssertionError("a grid cell ran")

        monkeypatch.setattr(cli, "_run_cells", run_cells)
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(dict(self.SPEC, experiment="benders", rho=[0.2, 1.5])))
        argv = ["experiment", "--spec", str(spec_path), "--out", str(tmp_path)]
        assert main(argv) == EXIT_CONFIG
        assert "rho must be a list of numbers in (0, 1]" in capsys.readouterr().err

    @pytest.mark.parametrize("rho", [[0.2, 0.2], [0.5, 0.2, 0.2000001]])
    def test_rho_values_sharing_a_column_tag_are_refused(
        self, tmp_path, capsys, monkeypatch, rho
    ):
        # each rho names its columns rho{rho:g}_..., so these wrote every
        # column twice, with the last rho's values under both
        def run_cells(spec, worker):
            raise AssertionError("a grid cell ran")

        monkeypatch.setattr(cli, "_run_cells", run_cells)
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(dict(self.SPEC, experiment="benders", rho=rho)))
        argv = ["experiment", "--spec", str(spec_path), "--out", str(tmp_path)]
        assert main(argv) == EXIT_CONFIG
        assert "share the column tag rho0.2" in capsys.readouterr().err

    @pytest.mark.parametrize("out", [5, ["a"], None], ids=["number", "list", "null"])
    def test_non_string_out_is_refused_before_any_cell(
        self, tmp_path, capsys, monkeypatch, out
    ):
        def run_cells(spec, worker):
            raise AssertionError("a grid cell ran")

        monkeypatch.setattr(cli, "_run_cells", run_cells)
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(dict(self.SPEC, out=out)))
        assert main(["experiment", "--spec", str(spec_path)]) == EXIT_CONFIG
        assert "out must be a path string" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name, function",
        [("heuristics", "revenue_ordered"), ("benders", "divide_and_conquer")],
        ids=["heuristics", "benders"],
    )
    def test_failing_replication_becomes_an_error_row(
        self, tmp_path, monkeypatch, name, function
    ):
        spec = dict(self.SMALL, experiment=name, types=["t3"], replications=3)
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))

        def rows(out):
            argv = ["--no-timings", "experiment", "--spec", str(spec_path), "--out", out]
            assert main(argv) == EXIT_OK
            text = (tmp_path / out / f"{name}.csv").read_text()
            return {r["rep"]: r for r in csv.DictReader(io.StringIO(text))}

        clean = rows(str(tmp_path / "clean"))
        calls = []
        real = getattr(heuristics, function)

        def flaky(*args, **kwargs):
            calls.append(1)
            if len(calls) == 2:
                raise SolverError("injected")
            return real(*args, **kwargs)

        monkeypatch.setattr(heuristics, function, flaky)
        got = rows(str(tmp_path / "flaky"))
        assert [r["status"] for r in got.values()] == ["ok", "error: injected", "ok", ""]
        metrics = [k for k in got["1"] if k.startswith(("z_", "rho"))]
        assert metrics and all(got["1"][k] == "" for k in metrics)
        assert got["0"] == clean["0"] and got["2"] == clean["2"]

    @pytest.mark.parametrize(
        "edit, message",
        [
            ({"types": ["t1", "t9"]}, "unknown instance type 't9'"),
            ({"types": ["t3", "t2"], "leaves": [8, 6]}, "t2 needs a power-of-two leaf"),
            ({"types": ["t3"], "n": [8, 2]}, "cannot grow to 8 leaves with n=2"),
        ],
        ids=["unknown-type", "t2-leaves", "t3-too-few-products"],
    )
    def test_invalid_cell_is_refused_before_any_cell_runs(
        self, tmp_path, capsys, monkeypatch, edit, message
    ):
        def solve_one(*args, **kwargs):
            raise AssertionError("a grid cell ran")

        monkeypatch.setattr(cli, "solve_one", solve_one)
        spec = {**self.SPEC, "experiment": "tractability", "n": [8], "num_trees": [2],
                "leaves": [8], **edit}
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        argv = ["experiment", "--spec", str(spec_path), "--out", str(tmp_path / "o")]
        assert main(argv) == EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_unknown_experiment(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"experiment": "nope"}))
        assert main(["experiment", "--spec", str(spec_path)]) == EXIT_CONFIG

    @pytest.mark.parametrize(
        "edit",
        [
            {"n": ["x"]},
            {"cells": 5},
            {"experiment": "tractability", "budget_sec": "x"},
            {"experiment": "tractability", "budget_nodes": "3"},
            {"revenue_range": "ab"},
            {"revenue_range": [1]},
            {"experiment": "benders", "rho": ["nan"]},
            {"n": [6.7]},
            {"num_trees": [2.5]},
            {"leaves": [8.5]},
            {"replications": 1.5},
            {"seed": 5.5},
        ],
        ids=[
            "text-n",
            "unread-key",
            "text-budget-sec",
            "text-budget-nodes",
            "text-revenue-range",
            "short-revenue-range",
            "nan-rho",
            "fractional-n",
            "fractional-num-trees",
            "fractional-leaves",
            "fractional-replications",
            "fractional-seed",
        ],
    )
    def test_malformed_spec_exit_code(self, tmp_path, capsys, edit):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(dict(self.SPEC, **edit)))
        argv = ["experiment", "--spec", str(spec_path), "--out", str(tmp_path / "o")]
        assert main(argv) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "o").exists()


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(
            json.dumps({"n": 4, "num_trees": 1, "shape": {"type": "t3", "leaves": 4}})
        )
        out = tmp_path / "inst.json"
        # the child imports the same dfopt as this process, installed or not
        src = str(Path(cli.__file__).parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "dfopt.cli",
                "generate",
                "--config",
                str(cfg_path),
                "--out",
                str(out),
            ],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0, proc.stderr
        instance_from_json(out.read_text())
