"""svetbound benchmark: run one workload (or all) in fresh processes and print its metrics.

    python3 bench/run.py --workload bound-generic --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout. Each workload runs in its own fresh
`python3 -m bench.worker` process with PYTHONPATH=src and BLAS pinned to one
thread. With --trace 0 the untraced timed loop gives the end-to-end metrics,
and set-up time is the median over that process and SETUP_PROBES extra
processes that only set up. With --trace 1 a fixed request list runs untraced
and then traced, giving the per-layer metrics. The last line of stdout is
the result object; the line before it records the environment and details.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("bound-generic", "bound-ghz-class", "scan-grid", "cli-mixed")
SETUP_PROBES = 4
WORKER_TIMEOUT_S = 170
WORK_DIR = ".bench_work"
BLAS_THREADS = "1"


class BenchError(RuntimeError):
    pass


def source_digest(src: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode() + b"\0" + path.read_bytes())
    return "sha256:" + digest.hexdigest()


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def machine() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "git_commit": git_commit(),
        "source_digest": source_digest(ROOT / "src"),
    }


def worker_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def run_worker(args, workload: str, mode: str, spans: Path | None = None) -> tuple[dict, float]:
    """Run one worker process to completion; returns its result and its set-up seconds."""
    cmd = [
        sys.executable, "-m", "bench.worker",
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--mode", mode,
        "--population", args.population,
        "--workdir", str(ROOT / WORK_DIR),
    ]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=worker_env(), capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} worker ({mode}) did not finish in {WORKER_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{workload} worker ({mode}) exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        raise BenchError(f"{workload} worker ({mode}) printed no result:\n{proc.stdout[-2000:]}") from None
    return result, result["ready_at"] - spawned


def run_workload(args, workload: str, host: dict, spec: dict) -> tuple[dict, dict]:
    if args.trace:
        spans = ROOT / WORK_DIR / f"spans-{workload}-seed{args.seed}.jsonl"
        result, _ = run_worker(args, workload, "traced", spans)
        setups = []
    else:
        setups = [run_worker(args, workload, "setup")[1] for _ in range(SETUP_PROBES)]
        result, setup = run_worker(args, workload, "timed")
        setups.append(setup)
        result["metrics"]["setup_s"] = statistics.median(setups)
    detail = {
        "workload": workload,
        "seed": args.seed,
        "population": args.population,
        "trace": args.trace,
        "seconds": args.seconds,
        "closed_loop_clients": 1,
        "env": {**host, **result["env"]},
        "setup_samples_s": setups,
        "problems": result["problems"],
        **result["detail"],
    }
    units = spec["per_layer" if args.trace else "end_to_end"]
    if set(result["metrics"]) != set(units):
        raise BenchError(f"{workload} reported {sorted(result['metrics'])}, BENCHMARK.json lists {sorted(units)}")
    summary = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": result["metrics"][name], "unit": unit} for name, unit in units.items()},
    }
    return detail, summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--held-out", dest="population", action="store_const", const="held-out", default="tune",
                        help="draw states from the held-out population instead of the tuning one")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    src = ROOT / "src"
    if not (src / "svetbound" / "__init__.py").is_file():
        print(f"bench: no svetbound sources under {src}", file=sys.stderr)
        return 2
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        print(f"bench: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    spec = {kind: {m["name"]: m["unit"] for m in spec[kind]} for kind in ("end_to_end", "per_layer")}
    compileall.compile_dir(str(src), quiet=1)
    (ROOT / WORK_DIR).mkdir(exist_ok=True)
    host = machine()
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        try:
            detail, summary = run_workload(args, workload, host, spec)
        except BenchError as exc:
            print(f"bench: {exc}", file=sys.stderr)
            return 1
        print(json.dumps({"detail": detail}))
        print(json.dumps(summary), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
