"""One workload in one fresh process: set up, then a timed or a traced closed loop.

Run by bench/run.py as `python3 -m bench.worker ...` with PYTHONPATH=src and
BLAS pinned to one thread; prints one JSON object on stdout. `ready_at` is the
CLOCK_MONOTONIC time at which the first request was ready, so the parent can
measure set-up from the moment it spawned this process.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import tempfile
import time

import numpy as np
import scipy

import svetbound as sb

from . import trace
from .workloads import POPULATION_SEEDS, WORKLOADS

MIN_REQUESTS = 100
MAX_PROBLEMS = 5
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class Loop:
    """Closed loop with one client: the next request is sent when the last one returned."""

    def __init__(self, workload):
        self.workload = workload
        self.latencies: list[float] = []
        self.raised = 0
        self.failed = 0
        self.decided = 0
        self.check_s = 0.0
        self.problems: list[str] = []

    def one(self, request) -> None:
        wl = self.workload
        t0 = time.perf_counter()
        try:
            output = wl.execute(request)
            error = None
        except Exception as exc:  # a request that raises counts as failed
            output, error = None, exc
        t1 = time.perf_counter()
        self.latencies.append(t1 - t0)
        if error is not None:
            self.raised += 1
            problem = f"raised {type(error).__name__}: {error}"
        else:
            problem = wl.check(request, output)
        if problem is None and wl.decided(request, output):
            self.decided += 1
        if problem is not None:
            self.failed += 1
            if len(self.problems) < MAX_PROBLEMS:
                self.problems.append(problem)
        self.check_s += time.perf_counter() - t1


def timed(workload, seconds: float, min_requests: int = MIN_REQUESTS) -> dict:
    """Whole passes over the request list, ending at the pass boundary nearest to `seconds`.

    Whole passes keep the set of timed requests the same from run to run; at
    least `min_requests` run, so p90 has ten samples beyond it.
    """
    loop = Loop(workload)
    start = time.perf_counter()
    passes = 0
    while True:
        for request in workload.requests:
            loop.one(request)
        passes += 1
        elapsed = time.perf_counter() - start
        next_end = elapsed * (passes + 1) / passes
        if len(loop.latencies) >= min_requests and (elapsed >= seconds or next_end - seconds > seconds - elapsed):
            break
    wall = time.perf_counter() - start - loop.check_s
    lat_ms = sorted(x * 1e3 for x in loop.latencies)
    p90 = statistics.quantiles(lat_ms, n=10, method="inclusive")[8]
    attempted = len(lat_ms)
    metrics = {
        "setup_s": None,
        "latency_p50_ms": statistics.median(lat_ms),
        "latency_p90_ms": p90,
        "throughput_rps": (attempted - loop.raised) / wall,
        "ok_ratio": (attempted - loop.failed) / attempted,
        "decided_share": loop.decided / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    detail = {
        "samples": attempted,
        "beyond_p90": sum(1 for x in lat_ms if x > p90),
        "failed_ratio": loop.failed / attempted,
        "passes": passes,
        "loop_wall_s": wall,
        "check_s": loop.check_s,
    }
    return {"attempted": attempted, "failed": loop.failed, "problems": loop.problems, "metrics": metrics, "detail": detail}


def traced(workload, spans_path) -> dict:
    """The first `trace_requests` requests, each run once untraced and once traced.

    A fixed request list makes every count exact. The two copies of a request
    run back to back, in alternating order, so both see the same machine load
    and their time ratio is the tracing overhead.
    """
    requests = workload.requests[: workload.trace_requests]
    plain, loop = Loop(workload), Loop(workload)
    tracer = trace.Tracer()

    def traced_one(index, request):
        tracer.request = index
        tracer.install()
        try:
            loop.one(request)
        finally:
            tracer.uninstall()

    for index, request in enumerate(requests):
        if index % 2:
            traced_one(index, request)
            plain.one(request)
        else:
            plain.one(request)
            traced_one(index, request)
    if spans_path:
        tracer.write(spans_path)
    plain_s, traced_s = sum(plain.latencies), sum(loop.latencies)
    metrics = trace.layer_metrics(tracer, len(requests))
    metrics["trace.overhead_ratio"] = plain_s / traced_s
    return {
        "attempted": 2 * len(requests),
        "failed": plain.failed + loop.failed,
        "problems": plain.problems + loop.problems,
        "metrics": metrics,
        "detail": {"requests": len(requests), "spans": len(tracer.spans), "untraced_s": plain_s, "traced_s": traced_s},
    }


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "svetbound": sb.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "timed", "traced"), required=True)
    parser.add_argument("--population", choices=sorted(POPULATION_SEEDS), default="tune")
    parser.add_argument("--workdir", required=True, help="directory for the files a workload writes")
    parser.add_argument("--spans", help="write the traced run's spans here as JSON lines")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(dir=args.workdir) as tmpdir:
        workload = WORKLOADS[args.workload](args.seed, args.population, tmpdir)
        workload.warmup()
        ready_at = time.monotonic()
        if args.mode == "setup":
            result = {}
        elif args.mode == "timed":
            result = timed(workload, args.seconds)
        else:
            result = traced(workload, args.spans)
    result["ready_at"] = ready_at
    result["env"] = environment()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
