"""Smoke check of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload at a tiny size for one pass, untraced and traced,
and checks that the emitted metric names and units match BENCHMARK.json.
Then it makes one library answer per workload deliberately wrong and
checks that the run counts the failure, lowers ok_ratio and reports
itself incorrect. Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import subprocess
import sys

import run

SEED = 7


def _declared(section: str) -> dict[str, str]:
    spec = json.loads((run.HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def _patch(cl, name, wrap):
    orig = getattr(cl, name)
    setattr(cl, name, wrap(orig))
    return lambda: setattr(cl, name, orig)


def _flip_validate_exit(wl):
    # The CLI runs in a subprocess, so its exit code is altered on the way back.
    op = next(op for op in wl.ops if op.kind == "cli.validate")
    inner = op.run

    def wrong(tr):
        cp = inner(tr)
        return subprocess.CompletedProcess(cp.args, 3 - cp.returncode, cp.stdout, cp.stderr)

    op.run = wrong
    return lambda: None


# Per workload: make one answer wrong after set-up; returns an undo.
CORRUPT = {
    # Claim every length is a guaranteed chord, which the gaps refute.
    "chordset": lambda cl, wl: _patch(cl, "levit_bound", lambda f: lambda g, *a, **k: g.width),
    "race": lambda cl, wl: _patch(
        cl, "find_average_split", lambda f: lambda p, d, *a, **k: f(p, d, *a, **k) + 0.01 * p.total_time
    ),
    "construct": lambda cl, wl: _patch(cl, "build_hopf", lambda f: lambda *a, **k: f(*a, **k).scaled(2.0)),
    "cli": lambda cl, wl: _flip_validate_exit(wl),
}


def main() -> int:
    import_s = run.load_library()
    import chordlab as cl

    problems = []
    declared = {False: _declared("end_to_end"), True: _declared("per_layer")}
    for name in run.WORKLOADS:
        for trace in (False, True):
            res, _ = run.run_workload(name, SEED, 0.0, trace, import_s, tiny=True)
            if {k: v["unit"] for k, v in res["metrics"].items()} != declared[trace]:
                problems.append(f"{name} trace={int(trace)}: metric names or units differ from BENCHMARK.json")
            if not res["correct"] or res["attempted"] < 1:
                problems.append(f"{name} trace={int(trace)}: clean run is not correct")
            if not trace:
                clean = res

        undo = []
        try:
            bad, _ = run.run_workload(
                name, SEED, 0.0, False, import_s, tiny=True,
                prepare=lambda wl: undo.append(CORRUPT[name](cl, wl)),
            )
        finally:
            for u in undo:
                u()
        counted = (
            not bad["correct"]
            and bad["failed"] > clean["failed"]
            and bad["metrics"]["ok_ratio"]["value"] < clean["metrics"]["ok_ratio"]["value"]
        )
        if not counted:
            problems.append(f"{name}: a wrong answer was not counted as a failure")
        print(f"{name}: {len(declared[False])} + {len(declared[True])} metrics checked; "
              f"wrong answer gave {bad['failed']} of {bad['attempted']} failed")

    for p in problems:
        print("FAIL " + p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
