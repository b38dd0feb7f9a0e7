"""Run bench/run.py over several seeds and summarise each metric by median and quartiles.

    python3 bench/baseline.py --seeds 101-110 --out bench/baseline/d20c600.json

For every workload: one untraced run per seed (end-to-end metrics, each
summarised by median, quartiles and spread = (q3 - q1) / median, as
statistics.quantiles(values, n=4) gives them) and one traced run on the first
seed (per-layer metrics). Runs are sequential, one process at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (the runner next to this file)


def parse_seeds(text: str) -> list[int]:
    lo, hi = (int(x) for x in text.split("-"))
    return list(range(lo, hi + 1))


def invoke(workload: str, seed: int, trace: int, seconds: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="101-110", help="a-b range")
    parser.add_argument("--out", required=True, help="JSON file to write")
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]

    report = {"seeds": seeds, "run_seconds": seconds, "workloads": {}}
    for workload in run.WORKLOADS:
        runs = []
        for seed in seeds:
            detail, result = invoke(workload, seed, 0, seconds)
            runs.append(result)
            print(workload, seed, json.dumps({k: round(v["value"], 4) for k, v in result["metrics"].items()}), flush=True)
        _, traced = invoke(workload, seeds[0], 1, seconds)
        report["env"] = detail["env"]
        report["workloads"][workload] = {
            "correct": all(r["correct"] for r in runs) and traced["correct"],
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": {
                name: summarise([r["metrics"][name]["value"] for r in runs]) | {"unit": runs[0]["metrics"][name]["unit"]}
                for name in runs[0]["metrics"]
            },
            "per_layer_seed": seeds[0],
            "per_layer": {name: m["value"] for name, m in traced["metrics"].items()},
        }
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
