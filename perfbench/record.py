"""Measure the baseline stored in perfbench/RECORD.json.

Run from the root of a checkout:

    python3 perfbench/record.py --runs 10 --seconds 20

Every workload runs `--runs` times untraced, seeds 1..runs, and once traced
(seed 1). For each end-to-end metric the median and the spread (distance
between the first and third quartile as a share of the median) go under
"baseline" in RECORD.json, with the traced run's per-layer values and the
environment the numbers were taken on. Nothing else in RECORD.json changes.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RECORD = HERE / "RECORD.json"


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, list[str]]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=20)
    args = parser.parse_args()
    record = json.loads(RECORD.read_text())
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None
    base = {"commit": commit, "runs": args.runs, "seconds": args.seconds,
            "end_to_end": {}, "failed_frac": {}, "per_layer": {}}
    for w in bench["workloads"]:
        name = w["name"]
        values: dict[str, list[float]] = {}
        failed = attempted = 0
        for seed in range(1, args.runs + 1):
            res, lines = run(name, seed, args.seconds, 0)
            if not res["correct"]:
                sys.exit(f"{name} seed {seed}: incorrect output\n" + "\n".join(lines))
            failed += res["failed"]
            attempted += res["attempted"]
            for k, v in res["metrics"].items():
                values.setdefault(k, []).append(v["value"])
            env = [line.split(" ", 2)[1:] for line in lines if line.startswith("env ")]
        base["environment"] = dict(env)
        summary = {}
        for k, vs in values.items():
            q1, _, q3 = statistics.quantiles(vs, n=4)
            med = statistics.median(vs)
            summary[k] = {"median": med, "spread": (q3 - q1) / med, "values": vs}
            print(f"{name:<16} {k:<14} median {med:10.4f}  spread {(q3 - q1) / med:.4f}")
        base["end_to_end"][name] = summary
        base["failed_frac"][name] = failed / attempted
        res, _ = run(name, 1, args.seconds, 1)
        base["per_layer"][name] = {k: v["value"] for k, v in res["metrics"].items()}
    record["baseline"] = base
    RECORD.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
