"""Tests of the benchmark itself: generators, exact trace counts, smoke runs, the checker.

    PYTHONPATH=src python3 -m pytest -q bench/tests
"""

import dataclasses
import json
import math
import shutil
import subprocess
import sys

import numpy as np
import pytest

import svetbound as sb
from bench import oracle, run, trace, worker
from bench.workloads import WORKLOADS, ScanRequest

ROOT = run.ROOT
EXACT_METRICS = ("calls_per_req", "subspace_solves_per_req", "winner_sweeps_mean")


def _fingerprint(workload) -> list:
    out = []
    for req in workload.requests:
        if isinstance(req, ScanRequest):
            out.append((req.kind, req.thetas, req.theta3s, req.ps))
        elif hasattr(req, "argv"):
            out.append((tuple(req.argv), None if req.rho is None else req.rho.tobytes()))
        else:
            out.append((req.rho.tobytes(), req.opt_seed, req.closed_form))
    return out


def _make(name, seed, tmp_path, population="tune"):
    workdir = tmp_path / f"{name}-{seed}-{population}-{len(list(tmp_path.iterdir()))}"
    workdir.mkdir()
    return WORKLOADS[name](seed, population, str(workdir))


def _comparable(workload) -> str:
    text = json.dumps(_fingerprint(workload), default=str)
    return text.replace(workload.workdir, "<dir>") if hasattr(workload, "workdir") else text


def test_workload_names_match_runner():
    assert tuple(WORKLOADS) == run.WORKLOADS


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generator_is_deterministic_per_seed(name, tmp_path):
    first, again, other = (_make(name, seed, tmp_path) for seed in (7, 7, 8))
    assert _comparable(first) == _comparable(again)
    assert _comparable(first) != _comparable(other)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_held_out_population_differs(name, tmp_path):
    assert _comparable(_make(name, 7, tmp_path)) != _comparable(_make(name, 7, tmp_path, "held-out"))


def test_generated_states_are_density_matrices(tmp_path):
    for name in ("bound-generic", "bound-ghz-class"):
        for req in _make(name, 3, tmp_path).requests[:12]:
            assert np.allclose(req.rho, req.rho.conj().T, atol=1e-12)
            assert abs(np.trace(req.rho) - 1.0) < 1e-12
            assert np.linalg.eigvalsh(req.rho)[0] > -1e-12
            if req.closed_form is not None:
                assert abs(oracle.lambda1(req.rho) - req.closed_form) < 1e-9


def _trim(workload, count):
    workload.requests = workload.requests[:count]
    workload.trace_requests = count
    return workload


@pytest.mark.parametrize("name,count", [("bound-generic", 2), ("bound-ghz-class", 3), ("scan-grid", 2), ("cli-mixed", 10)])
def test_trace_counts_repeat_exactly(name, count, tmp_path):
    results = []
    for _ in range(2):
        workload = _trim(_make(name, 11, tmp_path), count)
        workload.warmup()
        results.append(worker.traced(workload, None))
    assert results[0]["failed"] == 0 and results[1]["failed"] == 0, results[0]["problems"] + results[1]["problems"]
    first, second = results[0]["metrics"], results[1]["metrics"]
    exact = [k for k in first if k.endswith(EXACT_METRICS)]
    assert len(exact) == len(trace.TRACED) + 2
    assert {k: first[k] for k in exact} == {k: second[k] for k in exact}
    assert set(first) == {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_timed_run(name, tmp_path):
    workload = _trim(_make(name, 5, tmp_path), 3)
    workload.warmup()
    result = worker.timed(workload, 0.0, min_requests=1)
    assert result["failed"] == 0, result["problems"]
    assert result["attempted"] == 3
    metrics = result["metrics"]
    assert metrics["latency_p50_ms"] > 0 and metrics["throughput_rps"] > 0 and metrics["ok_ratio"] == 1.0


def test_tracer_rebinds_and_restores():
    originals = (sb.quantum_bound, sb.bounds.maximize, sb.seesaw.validate_density, sb.bounds.minimize)
    tracer = trace.Tracer()
    tracer.install()
    try:
        assert sb.quantum_bound is not originals[0] and sb.bounds.maximize is not originals[1]
        assert sb.seesaw.validate_density is not originals[2] and sb.bounds.minimize is not originals[3]
        tracer.request = 0
        sb.quantum_bound(oracle.ghz_color_state(1.0), sb.OptimizerConfig(starts=4, seed=0))
    finally:
        tracer.uninstall()
    assert (sb.quantum_bound, sb.bounds.maximize, sb.seesaw.validate_density, sb.bounds.minimize) == originals
    names = [s.name for s in tracer.spans]
    assert names[0] == "bounds.quantum_bound" and "seesaw.maximize" in names
    top = tracer.spans[0]
    assert all(s.parent is not None and s.start >= top.start and s.end <= top.end for s in tracer.spans[1:])
    metrics = trace.layer_metrics(tracer, 1)
    assert metrics["bounds.quantum_bound.calls_per_req"] == 1
    assert metrics["seesaw.maximize.calls_per_req"] == 1
    assert sum(v for k, v in metrics.items() if k.endswith("self_ms_per_req")) == pytest.approx(
        (top.end - top.start) * 1e3, rel=1e-9
    )


class _Corrupting:
    """Wraps a workload so that `execute` returns a corrupted output."""

    def __init__(self, workload, corrupt):
        self.inner, self.corrupt = workload, corrupt

    def execute(self, req):
        return self.corrupt(self.inner.execute(req))

    def check(self, req, out):
        return self.inner.check(req, out)

    def decided(self, req, out):
        return self.inner.decided(req, out)


def _loop_failures(workload, corrupt) -> int:
    loop = worker.Loop(_Corrupting(workload, corrupt))
    loop.one(workload.requests[0])
    return loop.failed


def test_checker_counts_corrupted_bound_results(tmp_path):
    workload = _trim(_make("bound-ghz-class", 2, tmp_path), 1)
    assert _loop_failures(workload, lambda r: r) == 0

    def bump_lambda(report):
        spectrum = dataclasses.replace(report.spectrum, lambda1=report.spectrum.lambda1 + 1e-6)
        return dataclasses.replace(report, spectrum=spectrum, q_bound=4.0 * spectrum.lambda1)

    def bad_certificate(report):
        cert = report.certificate
        flipped = dataclasses.replace(cert.settings, b=-cert.settings.b)
        return dataclasses.replace(report, certificate=dataclasses.replace(cert, settings=flipped))

    def overclaim(report):
        return dataclasses.replace(report, optimizer_value=report.q_bound + 1e-3)

    def no_violation(report):
        return dataclasses.replace(report, classification=sb.CERTIFIED_NO_VIOLATION)

    for corrupt in (bump_lambda, bad_certificate, overclaim, no_violation):
        assert _loop_failures(workload, corrupt) == 1, corrupt.__name__


def test_checker_counts_corrupted_scan_rows(tmp_path):
    workload = _trim(_make("scan-grid", 2, tmp_path), 1)
    assert _loop_failures(workload, lambda rows: rows) == 0

    def flip_violates(rows):
        return [dataclasses.replace(rows[0], violates=not rows[0].violates)] + rows[1:]

    def swap_rows(rows):
        return [rows[1], rows[0]] + rows[2:]

    def drop_row(rows):
        return rows[:-1]

    def shift_lambda(rows):
        return rows[:-1] + [dataclasses.replace(rows[-1], lambda1=rows[-1].lambda1 * (1 + 1e-8))]

    for corrupt in (flip_violates, swap_rows, drop_row, shift_lambda):
        assert _loop_failures(workload, corrupt) == 1, corrupt.__name__


def test_checker_counts_corrupted_cli_output(tmp_path):
    workload = _make("cli-mixed", 2, tmp_path)
    certify = next(r for r in workload.requests if r.argv[0] == "certify")
    workload.requests = [certify]
    assert _loop_failures(workload, lambda out: out) == 0

    def exit_code(out):
        return (3,) + out[1:]

    def not_json(out):
        return (out[0], out[1][:-5] + "\n", out[2])

    def wrong_bound(out):
        report = json.loads(out[1])
        report["result"]["q_bound"] += 1e-6
        return (out[0], json.dumps(report) + "\n", out[2])

    for corrupt in (exit_code, not_json, wrong_bound):
        workload.first_output.clear()
        assert _loop_failures(workload, corrupt) == 1, corrupt.__name__


def test_cli_repeat_must_be_byte_identical(tmp_path):
    workload = _make("cli-mixed", 2, tmp_path)
    gme = workload.requests[0]
    code, stdout, stderr = workload.execute(gme)
    assert workload.check(gme, (code, stdout, stderr)) is None
    changed = stdout.replace('"seed":0', '"seed":0 ')
    assert changed != stdout
    assert workload.check(gme, (code, changed, stderr)) is not None


def test_oracle_matches_readme_closed_forms():
    theta, theta3, p = 0.4, 1.1, 0.9
    assert oracle.lambda1(oracle.ghz_white_state(theta, theta3, p)) == pytest.approx(
        oracle.ghz_white_lambda1(theta, theta3, p), abs=1e-12
    )
    assert oracle.lambda1(oracle.ghz_color_state(p)) == pytest.approx(math.sqrt(2.0) * p, abs=1e-12)
    ghz = oracle.ghz_color_state(1.0)
    x, y = np.array([1.0, 0, 0]), np.array([0, 1.0, 0])
    # Optimal GHZ settings for this operator give 4*sqrt(2).
    b = (x - y) / math.sqrt(2.0)
    bp = (x + y) / math.sqrt(2.0)
    assert abs(oracle.svetlichny_value(ghz, x, y, b, bp, x, y)) == pytest.approx(4.0 * math.sqrt(2.0))


def test_run_refuses_without_sources(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "scan-grid", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_run_prints_contract_result_for_traced_cli(tmp_path):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cli-mixed", "--seed", "3", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert result["metrics"]["cli.main.calls_per_req"]["value"] == 1.0
