"""Command-line surface: generate/solve/experiment, exit codes, determinism."""

import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from dfopt import cli
from dfopt.cli import EXIT_BUDGET, EXIT_CONFIG, EXIT_OK, main
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

    def test_cnf_reduction(self, tmp_path):
        cnf = tmp_path / "f.cnf"
        cnf.write_text("p cnf 4 2\n1 -2 3 0\n-1 2 4 0\n")
        out = tmp_path / "sat.json"
        assert main(["generate", "--cnf", str(cnf), "--out", str(out)]) == EXIT_OK
        catalog, forest = instance_from_json(out.read_text())
        assert catalog.n == 5 and len(forest.trees) == 2

    def test_bad_config_exit_code(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"n": 0, "num_trees": 1, "shape": {"type": "t1", "depth": 1}}))
        assert main(["generate", "--config", str(cfg_path)]) == EXIT_CONFIG


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

    @pytest.mark.parametrize("name", ["integrality_gap", "benders"])
    def test_no_timings_in_either_position(self, tmp_path, name):
        before = self._run(tmp_path, name, "before", flag_first=True)
        assert self._run(tmp_path, name, "after", flag_first=False) == before

    def test_unknown_experiment(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"experiment": "nope"}))
        assert main(["experiment", "--spec", str(spec_path)]) == EXIT_CONFIG


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
