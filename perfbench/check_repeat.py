"""Check that two traced runs with one seed agree on every exact count.

    python3 perfbench/check_repeat.py --workload flow_full --seed 3

Runs ``run.py --trace 1`` twice with a short time budget, then compares the
case mix digest and every count-valued per-layer metric.  Exits 1 and names
the differences if any.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def traced_run(workload: str, seed: int, seconds: float) -> tuple[str, dict]:
    out = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "1"],
        stdout=subprocess.PIPE, text=True, check=True, timeout=300,
    ).stdout.splitlines()
    mix = next(line.split("case mix sha256 ")[1].split()[0] for line in out
               if line.startswith("workload:"))
    metrics = json.loads(out[-1])["metrics"]
    return mix, {k: v["value"] for k, v in metrics.items() if v["unit"] in ("count", "MB")}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=1.0)
    args = parser.parse_args()
    first = traced_run(args.workload, args.seed, args.seconds)
    second = traced_run(args.workload, args.seed, args.seconds)
    diffs = [] if first[0] == second[0] else [f"case mix {first[0]} != {second[0]}"]
    diffs += [f"{k}: {v} != {second[1].get(k)}" for k, v in first[1].items() if second[1].get(k) != v]
    for line in diffs:
        print(f"differs: {line}")
    print(f"{args.workload} seed {args.seed}: {len(first[1])} exact counts and the case mix "
          + ("repeat" if not diffs else "DIFFER"))
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
