#!/usr/bin/env python3
"""Run every benchmark workload once and record the results in BENCH_<label>.json.

    python3 scripts/bench_record.py LABEL

Each workload listed in BENCHMARK.json runs through bench/run.py with
``--trace 0 --seed 7 --seconds 30``, from the repository root and with the
interpreter running this script.  The file holds each workload's JSON
result line, the seed, the run length, the machine (nproc, python, numpy)
and the git HEAD, with ``dirty`` set when tracked files differ from it.
"""

import json
import os
import platform
import subprocess
import sys
from importlib.metadata import version
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEED = 7
SECONDS = 30


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    results = {}
    for workload in (w["name"] for w in benchmark["workloads"]):
        command = [sys.executable, *benchmark["command"][1:], "--workload", workload,
                   "--trace", "0", "--seed", str(SEED), "--seconds", str(SECONDS)]
        run = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
        if run.returncode != 0:
            print(f"{workload}: exit {run.returncode}\n{run.stderr}", file=sys.stderr)
            return 1
        results[workload] = json.loads(run.stdout.splitlines()[-1])
        print(f"{workload}: {json.dumps(results[workload])}")
    record = {
        "seed": SEED,
        "seconds": SECONDS,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        # numpy is not imported here: a child of this script reports the script's
        # peak RSS as its own when that is the larger (ru_maxrss survives the
        # child's exec), and numpy's import alone would make placement read
        # 27.5 MB instead of about 19.5.
        "numpy": version("numpy"),
        "head": git("rev-parse", "HEAD"),
        "dirty": bool(git("status", "--porcelain", "--untracked-files=no")),
        "results": results,
    }
    target = ROOT / f"BENCH_{argv[0]}.json"
    target.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {target.name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
