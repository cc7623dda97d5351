"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest -q perfbench
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, instance  # noqa: E402

COUNTS = (
    "lp.pivots",
    "lp.solves",
    "lp.warm_attempts",
    "lp.warm_hits",
    "lp.rows_max",
    "benders.rounds",
    "benders.bb_nodes",
    "benders.pool_cuts",
    "benders.lazy_cuts",
    "subproblems.oracle_calls",
    "heuristics.moves",
    "model.eval_calls",
    "model.traversals",
    "formulations.build_calls",
    "trace.spans",
)


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def traced_twice(request):
    workload = WORKLOADS[request.param]
    return workload, [run.measure_traced(workload, 3, "tiny") for _ in range(2)]


def test_counts_repeat_exactly(traced_twice):
    _, (first, second) = traced_twice
    for name in COUNTS:
        assert first[0][name] == second[0][name], name
    assert first[3] == [] and second[3] == []


def test_self_times_are_nonnegative_and_add_up_per_operation(traced_twice):
    _, runs = traced_twice
    spans = runs[0][4].spans
    selfs = tracing.self_times(spans)
    assert min(selfs) >= -1e-9
    per_op = {}
    for span, s in zip(spans, selfs):
        per_op[span[tracing.OP]] = per_op.get(span[tracing.OP], 0.0) + s
    roots = [s for s in spans if s[tracing.NAME] == "bench.op"]
    assert len(roots) == len(per_op)
    for root in roots:
        wall = root[tracing.END] - root[tracing.START]
        assert per_op[root[tracing.OP]] == pytest.approx(wall, rel=1e-9, abs=1e-9)


def test_every_layer_shows_up_where_expected(traced_twice):
    workload, runs = traced_twice
    metrics = runs[0][0]
    if workload.name == "heuristics-scale":
        assert metrics["lp.solves"] == 0
        assert metrics["heuristics.moves"] > 0 and metrics["model.eval_calls"] > 0
    else:
        assert metrics["lp.solves"] > 0 and metrics["lp.pivots"] > 0
        assert metrics["benders.rounds"] > 0 and metrics["subproblems.oracle_calls"] > 0
    if workload.name == "desk-exact":
        assert metrics["benders.bb_nodes"] > 0 and metrics["formulations.build_calls"] > 0
        assert metrics["lp.warm_attempts"] > 0
    if workload.name == "benders-relax":
        # every master is a cold solve, one per round
        assert metrics["lp.warm_attempts"] == 0
        masters = runs[0][1]["lp_by_caller"]["benders.relaxation_phase"]["solves"]
        assert masters == metrics["benders.rounds"]


def test_uninstall_restores_every_binding():
    import dfopt
    import dfopt.benders
    import dfopt.lp

    before = (dfopt.lp.solve_lp, dfopt.benders.solve_lp_multi, dfopt.solve_lp)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert dfopt.benders.solve_lp_multi is not before[1]
        assert dfopt.benders.solve_lp_multi.__wrapped__ is before[1]
    finally:
        tracer.uninstall()
    assert (dfopt.lp.solve_lp, dfopt.benders.solve_lp_multi, dfopt.solve_lp) == before


def test_references_agree_with_the_package_on_a_small_instance():
    from dfopt import formulations, model

    catalog, forest = instance("t2", 8, 5, 8, 11)
    best = reference.brute_force(catalog, forest)
    for card in (None, 3):
        x, z = model.brute_force_optimal(catalog, forest, card)
        assert best[card] == pytest.approx(float(z), abs=1e-12)
        walked = reference.Walker(catalog, forest).value(set(x.support()))
        assert walked == pytest.approx(float(z), abs=1e-12)
    pytest.importorskip("scipy")
    for kind in ("split", "product"):
        built = formulations.build(kind, catalog, forest, 3)
        z, _, _ = formulations.solve_relaxation(built)
        assert reference.highs_relaxation(kind, catalog, forest, 3) == pytest.approx(z, abs=1e-7)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "desk-exact",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_threaded_blas_is_refused():
    code = (
        f"import json, sys; sys.path.insert(0, {str(HERE)!r}); import numpy, run; "
        "print(json.dumps(run.blas_threads()), flush=True); run.environment()"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "OPENBLAS_NUM_THREADS": "2"},
        capture_output=True, text=True, timeout=120,
    )
    if not any(v > 1 for v in json.loads(proc.stdout.splitlines()[0]).values()):
        pytest.skip("no multi-threaded OpenBLAS to refuse on this machine")
    assert proc.returncode != 0
    assert "BlasPinError" in proc.stderr


def test_raised_and_wrong_answers_are_told_apart():
    from workloads import Op

    def boom():
        raise RuntimeError("no answer")

    ops = [
        Op("right", lambda: 1, lambda res: None),
        Op("raises", boom, lambda res: None),
        Op("wrong", lambda: 2, lambda res: "not the reference value"),
    ]
    tracer = tracing.Tracer()
    times, failures = run.run_ops(ops, tracer=tracer)
    assert len(times) == 3
    assert [(f[1], f[2]) for f in failures] == [("raises", "raised"), ("wrong", "wrong")]
    metrics, _ = tracing.layer_metrics(tracer.spans, [op.label for op in ops])
    assert metrics["lp.solves"] == 0


def test_untraced_run_reports_every_gated_metric():
    metrics, extra, attempted, failures = run.measure(WORKLOADS["desk-exact"], 3, 0.0, "tiny")
    assert set(metrics) == set(run.END_TO_END_UNITS)
    assert all(v > 0 for v in metrics.values())
    assert attempted == extra["ops_per_pass"] and failures == []
