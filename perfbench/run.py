"""Seeded benchmark for chordlab.

    python3 perfbench/run.py --workload chordset --seed 1 --seconds 30 --trace 0

Runs one workload (chordset, race, construct or cli) from a single
caller in one process, checks every answer, and prints the metrics named
in BENCHMARK.json as the last line of standard output. ``--trace 0``
reports the end-to-end metrics of an untraced run; ``--trace 1`` reports
the per-layer metrics of a run whose passes alternate untraced and
traced, and writes its spans to perfbench/out/. Times are CPU seconds of
the process and its child processes (see harness.cpu_clock); the detail
line gives the measuring loop's wall and CPU seconds side by side.

chordlab is imported from the ``src`` directory next to this one; the
benchmark fails if it is not there.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import shutil
import statistics
import sys
import time
from pathlib import Path

# One caller on one thread: keep numpy's BLAS pools from adding threads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_REPEATS = 3
WORKLOADS = ("chordset", "race", "construct", "cli")


def load_library() -> float:
    """Import numpy and chordlab from SRC; return the seconds it took."""
    if not (SRC / "chordlab" / "__init__.py").is_file():
        raise FileNotFoundError(f"chordlab sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    t0 = time.process_time()
    importlib.import_module("numpy")
    chordlab = importlib.import_module("chordlab")
    elapsed = time.process_time() - t0
    if Path(chordlab.__file__).resolve().parent != (SRC / "chordlab").resolve():
        raise ImportError(f"chordlab was imported from {chordlab.__file__}, not {SRC}")
    return elapsed


def run_workload(name: str, seed: int, seconds: float, trace: bool, import_s: float, tiny=False, prepare=None):
    """Set up (several times, reporting the median), measure and reduce one
    workload. ``prepare`` may alter the built workload before measuring.
    Returns the result object and a dict of detail for the log."""
    # Imported here because workloads imports chordlab, which
    # load_library has to put on the path first.
    import harness
    import workloads

    tracer = harness.Tracer()
    work = OUT / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            t0 = harness.cpu_clock()
            wl = workloads.BUILDERS[name](seed, work, tiny)
            harness.warm_up(wl.ops, tracer)
            setups.append(harness.cpu_clock() - t0)
        wl.figures.pop("boundary_err", None)  # found by the unmeasured warm-up
        if prepare is not None:
            prepare(wl)
        wall0, cpu0 = time.perf_counter(), harness.cpu_clock()
        samples = harness.measure(wl, seconds, tracer, traced=trace)
        wall_s, cpu_s = time.perf_counter() - wall0, harness.cpu_clock() - cpu0
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failures: dict[str, str] = {}
    for s in samples:
        if s.failure and s.kind not in failures:
            failures[s.kind] = ("known: " if s.known else "") + s.failure
    unexpected = sum(1 for s in samples if s.failure and not s.known)
    known_passed = sorted({s.kind for s in samples if s.known and not s.failure})
    if trace:
        metrics = harness.per_layer(tracer.spans, samples, wl.figures)
        detail = {}
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{name}-{seed}.jsonl")
    else:
        values, detail = harness.end_to_end(samples, import_s + statistics.median(setups))
        units = harness.end_to_end_units()
        metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    detail.update(
        workload=name,
        seed=seed,
        seconds=seconds,
        trace=int(trace),
        import_s=import_s,
        setup_runs_s=setups,
        measure_wall_s=wall_s,
        measure_cpu_s=cpu_s,
        boundary_err=wl.figures.get("boundary_err"),
        failures=failures,
        unexpected_failures=unexpected,
        known_failures_now_passing=known_passed,
        python=platform.python_version(),
        numpy=sys.modules["numpy"].__version__,
        cpu_count=os.cpu_count(),
    )
    result = {
        # Ops with a documented known failure count in "failed" and the ok
        # ratio, but only an unexpected failure makes the run incorrect.
        "correct": unexpected == 0,
        "attempted": len(samples),
        "failed": sum(1 for s in samples if s.failure),
        "metrics": metrics,
    }
    return result, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        import_s = load_library()
    except (FileNotFoundError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    result, detail = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), import_s)
    for kind, why in detail["failures"].items():
        print(f"failed {kind}: {why}")
    print("detail " + json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
