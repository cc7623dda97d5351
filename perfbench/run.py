"""dfopt benchmark: one closed-loop client, one process, one BLAS thread.

    python3 perfbench/run.py --workload desk-exact --seed 1 --seconds 30 --trace 0

Run from the repository root; dfopt is imported from ``src/`` next to this
directory, never from an installed copy.  One client sends its next solver
call only after the previous one returned.

A run builds its operations from ``--seed`` (set-up: instance generation,
reference answers, warm-up), then runs passes over them while time is left
in ``--seconds``, checking every answer outside the timed region.

``--trace 0`` reports the end-to-end metrics; the gated throughput figure,
``op_geo_rel``, is the geometric mean of each operation's wall time divided
by a fixed host probe timed around it (``host_probe``), so that it follows
the program rather than the shared host's speed.  ``--trace 1`` runs a fixed
prefix of the operations untraced, then with every dfopt layer wrapped in
timing spans, then untraced again, and reports the per-layer metrics plus
the tracing overhead; its counts depend only on the seed.

The last line of standard output is a JSON object ``{"correct",
"attempted", "failed", "metrics"}``; the lines before it print every metric
by name and unit, and the full record (environment, failures, breakdowns)
goes to ``.perfbench_out/``.
"""

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import sys
import time
from importlib import metadata
from pathlib import Path

from tracing import UNITS, Tracer, layer_metrics

# Threaded OpenBLAS doubles CPU time on these dense solves with no wall-clock
# gain, and makes timings depend on the core count: main() pins it before
# numpy is first imported.
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

#: Set-up is timed in this many chunks; ``setup_s`` scales their median.
SETUP_CHUNKS = 3
#: op_ms_p90 needs this many operations in the run.
P90_MIN_OPS = 100

END_TO_END_UNITS = {"op_geo_rel": "probe", "setup_s": "s", "peak_rss_mb": "MB"}


class BlasPinError(RuntimeError):
    pass


def blas_threads() -> dict:
    """Thread count of every OpenBLAS loaded in this process."""
    names = (
        "openblas_get_num_threads",
        "openblas_get_num_threads64_",
        "scipy_openblas_get_num_threads64_",
        "scipy_openblas_get_num_threads",
    )
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()})
    except OSError:
        return {}
    found = {}
    for path in paths:
        lib = ctypes.CDLL(path)
        for name in names:
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[Path(path).name] = fn()
                break
    return found


def environment() -> dict:
    import numpy

    threads = blas_threads()
    if any(v != 1 for v in threads.values()):
        raise BlasPinError(f"BLAS is not single-threaded: {threads}")
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_env": {v: os.environ.get(v) for v in BLAS_VARS},
        "blas_threads": threads or "no OpenBLAS loaded",
    }


def host_probe() -> float:
    """Seconds for a fixed task mixing small dense numpy algebra and
    interpreted Python, the same mix dfopt's solvers run."""
    import numpy as np

    a = (np.arange(2500, dtype=float).reshape(50, 50) % 7) + 50 * np.eye(50)
    start = time.perf_counter()
    for _ in range(4):
        np.linalg.inv(a)
    s = 0
    for i in range(15000):
        s += i % 7
    return time.perf_counter() - start


def run_ops(ops, first_id=0, tracer=None, probes=None):
    """Closed loop over ``ops``: (per-op seconds, failures).

    A failure is ``(op id, label, kind, message)``: kind ``raised`` when the
    solver raised instead of answering, ``wrong`` when its answer failed the
    reference check or could not be checked.
    """
    times, failures = [], []
    for i, op in enumerate(ops, start=first_id):
        if probes is not None:
            probes.append(host_probe())
        start = time.perf_counter()
        try:
            result = tracer.run_op(i, op.call) if tracer else op.call()
        except Exception as exc:  # a failed operation is counted, not fatal
            times.append(time.perf_counter() - start)
            failures.append((i, op.label, "raised", f"{type(exc).__name__}: {exc}"))
            continue
        times.append(time.perf_counter() - start)
        try:
            error = op.check(result)
        except Exception as exc:
            error = f"check raised {type(exc).__name__}: {exc}"
        if error:
            failures.append((i, op.label, "wrong", error))
    if probes is not None:
        probes.append(host_probe())
    return times, failures


def set_up(workload, seed, size_name):
    """Warm-up plus the operation pool: (ops, setup_s, its parts, failures)."""
    start = time.perf_counter()
    tiny = workload.sizes["tiny"]
    _, warm_failures = run_ops(workload.build(seed, tiny, range(tiny["ops"])))
    warm_s = time.perf_counter() - start
    size = workload.sizes[size_name]
    bounds = [size["ops"] * c // SETUP_CHUNKS for c in range(SETUP_CHUNKS + 1)]
    ops, chunk_s = [], []
    for lo, hi in zip(bounds, bounds[1:]):
        start = time.perf_counter()
        ops += workload.build(seed, size, range(lo, hi))
        chunk_s.append(time.perf_counter() - start)
    setup_s = warm_s + SETUP_CHUNKS * statistics.median(chunk_s)
    parts = {"warm_up_s": warm_s, "chunk_s": chunk_s}
    failures = [(-1, label, kind, "warm-up: " + err) for _, label, kind, err in warm_failures]
    return ops, setup_s, parts, failures


def measure(workload, seed, seconds, size_name="full"):
    """Untraced run: passes over the pool while ``seconds`` allow."""
    ops, setup_s, setup_parts, failures = set_up(workload, seed, size_name)
    start = time.perf_counter()
    pass_s, op_times, first_pass, rel = [], [], None, []
    while True:
        began = time.perf_counter()
        # Each operation's time in units of the host probe timed around it:
        # this VM's own speed moves by up to 1.5x within minutes, and the
        # ratio follows the program while cancelling most of the host.
        probes = []
        times, fails = run_ops(ops, probes=probes)
        rel += [t / ((a + b) / 2) for t, a, b in zip(times, probes, probes[1:])]
        wall = time.perf_counter() - began
        pass_s.append(sum(times))
        op_times += times
        first_pass = first_pass or [(op.label, 1e3 * t) for op, t in zip(ops, times)]
        failures += fails
        if time.perf_counter() - start + wall > seconds:
            break
    op_ms = sorted(1e3 * t for t in op_times)
    metrics = {
        "op_geo_rel": statistics.geometric_mean(rel),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    extra = {
        "solve_s": statistics.median(pass_s),
        "op_ms_geo": statistics.geometric_mean(op_ms),
        "op_ms_p50": statistics.median(op_ms),
        "passes": len(pass_s),
        "ops_per_pass": len(ops),
        "op_ms_samples": len(op_ms),
        "op_ms_p90": (
            statistics.quantiles(op_ms, n=10)[-1] if len(op_ms) >= P90_MIN_OPS else None
        ),
        "setup_parts": setup_parts,
        "first_pass_op_ms": first_pass,
    }
    return metrics, extra, len(op_times), failures


def measure_traced(workload, seed, size_name="full"):
    """A fixed prefix of the pool: untraced, traced, untraced again.

    The overhead compares the traced pass with the mean of the untraced
    passes around it, so that a drift in speed over the run cancels.
    """
    ops, _, _, failures = set_up(workload, seed, size_name)
    ops = ops[: workload.trace_ops]
    before, fails = run_ops(ops)
    failures += fails
    tracer = Tracer()
    tracer.install()
    try:
        traced, fails = run_ops(ops, tracer=tracer)
    finally:
        tracer.uninstall()
    failures += fails
    after, fails = run_ops(ops)
    failures += fails
    labels = [op.label for op in ops]
    metrics, details = layer_metrics(tracer.spans, labels)
    untraced_s = (sum(before) + sum(after)) / 2
    metrics["trace.overhead_s"] = sum(traced) - untraced_s
    metrics["trace.spans"] = len(tracer.spans)
    details["untraced_solve_s"] = [sum(before), sum(after)]
    details["traced_solve_s"] = sum(traced)
    return metrics, details, 3 * len(ops), failures, tracer, labels


def _unit(name):
    from tracing import UNITS

    return END_TO_END_UNITS.get(name) or UNITS[name]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    for var in BLAS_VARS:
        os.environ[var] = "1"

    if not (SRC / "dfopt" / "__init__.py").is_file():
        print(f"error: no dfopt sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import dfopt

    if Path(dfopt.__file__).resolve().parent != (SRC / "dfopt").resolve():
        print(f"error: imported dfopt from {dfopt.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r} ({sorted(WORKLOADS)})",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    try:
        env = environment()
        if args.trace:
            metrics, extra, attempted, failures, tracer, labels = measure_traced(
                workload, args.seed
            )
        else:
            metrics, extra, attempted, failures = measure(workload, args.seed, args.seconds)
        env = environment()  # again: set-up may have loaded scipy's own BLAS
    except BlasPinError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    failed = sum(1 for f in failures if f[0] >= 0)
    record = {
        "workload": workload.name,
        "why": workload.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "metrics": metrics,
        "error_rate": failed / attempted,
        "extra": extra,
        "failures": failures,
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    if args.trace:
        tracer.write(OUT / f"{stem}.spans.jsonl", labels)

    print("environment " + json.dumps(env, sort_keys=True))
    for _, label, kind, err in failures:
        print(f"FAILED ({kind}) {label}: {err}")
    for name, value in metrics.items():
        print(f"{workload.name} {name} = {value:.6g} {_unit(name)}")
    if not args.trace:
        print(f"{workload.name} solve_s = {extra['solve_s']:.6g} s "
              f"(median of {extra['passes']} passes of {extra['ops_per_pass']} operations)")
        print(f"{workload.name} op_ms_geo = {extra['op_ms_geo']:.6g} ms")
        print(f"{workload.name} op_ms_p50 = {extra['op_ms_p50']:.6g} ms")
        p90 = extra["op_ms_p90"]
        print(f"{workload.name} op_ms_p90 = "
              + (f"{p90:.6g} ms" if p90 is not None else "absent")
              + f" ({extra['op_ms_samples']} operations)")
    print(f"{workload.name} error_rate = {record['error_rate']:.6g} ratio "
          f"({failed} of {attempted} operations)")
    print(json.dumps({
        # A solver that raises gave no answer to be wrong: it counts in
        # `failed`; `correct` is about the answers that were returned.
        "correct": not any(f[2] == "wrong" for f in failures),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": _unit(k)} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
