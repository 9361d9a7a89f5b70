"""Smoke run: each workload once untraced and once traced, minimal passes.

    python3 perfbench/smoke.py [WORKLOAD ...]

Runs the workloads named, or those BENCHMARK.json lists. Checks that each run
exits 0, that its last stdout line has exactly the keys
correct/attempted/failed/metrics with correct true, and that the metrics are
exactly the end_to_end (untraced) or per_layer (traced) names and units of
BENCHMARK.json, each a finite number. Takes about a minute and a half for
the listed workloads, most of it in large-lattice.
"""
import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = argv or [w["name"] for w in spec["workloads"]]
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for name in workloads:
        for trace in (0, 1):
            cmd = spec["command"] + [
                "--workload", name, "--seed", "0", "--seconds", "0", "--trace", str(trace),
            ]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
            label = f"{name} trace={trace}"
            if done.returncode != 0:
                problems.append(f"{label}: exit {done.returncode}: {done.stderr[-500:]}")
                continue
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{label}: keys {sorted(result)}")
                continue
            if result["correct"] is not True or result["attempted"] < 1:
                problems.append(f"{label}: correct={result['correct']} attempted={result['attempted']}")
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            if units != expected[trace]:
                problems.append(f"{label}: metrics differ from BENCHMARK.json")
            bad = [
                k for k, v in result["metrics"].items()
                if not isinstance(v["value"], (int, float)) or not math.isfinite(v["value"])
            ]
            if bad:
                problems.append(f"{label}: non-numeric values {bad}")
            print(f"{label}: attempted={result['attempted']} failed={result['failed']}", flush=True)
    for problem in problems:
        print("FAIL", problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
