"""Write BENCH_<pr>.json: every metric of every workload for one seed.

    python3 perfbench/record.py --pr 3 --seed 1 [--seconds 30] [--out PATH]

Runs perfbench/run.py once per workload untraced (end-to-end metrics) and
once traced (per-layer metrics), each in its own process, and records the
results with the seed, the Python and numpy versions and the CPU count.
The file goes to the repository root unless --out is given.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import HERE, WORKLOADS


def run_once(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    cp = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True, timeout=600,
    )
    lines = cp.stdout.strip().splitlines()
    detail = next(json.loads(ln[len("detail "):]) for ln in reversed(lines) if ln.startswith("detail "))
    return json.loads(lines[-1]), detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pr", required=True, help="PR number for the file name")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)

    doc = {"pr": args.pr, "seed": args.seed, "seconds": args.seconds, "workloads": {}}
    for wl in WORKLOADS:
        plain, detail = run_once(wl, args.seed, args.seconds, 0)
        traced, _ = run_once(wl, args.seed, args.seconds, 1)
        for key in ("python", "numpy", "cpu_count"):
            doc[key] = detail[key]
        doc["workloads"][wl] = {
            "correct": plain["correct"] and traced["correct"],
            "attempted": plain["attempted"],
            "failed": plain["failed"],
            "end_to_end": plain["metrics"],
            "per_layer": traced["metrics"],
            "detail": {k: detail[k] for k in (
                "tail_percentile", "tail_samples_beyond", "samples", "passes", "fail_ratio",
                "boundary_err", "kind_p50_ms", "failures", "setup_runs_s",
            )},
        }
        print(f"{wl}: done", file=sys.stderr)
    out = args.out or HERE.parent / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
