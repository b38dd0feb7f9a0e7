"""The four benchmark workloads: seeded inputs, one request, and its correctness check.

Every workload is a closed loop with one client. A workload object owns its
generated requests; `execute` makes one call into the library and `check`
returns a description of what is wrong with the output, or None.

State-based workloads draw everything that sets a request's cost once from
a fixed *population* (a constant seed, or a second constant for a held-out
population): the states, a random local unitary frame per member and each
member's optimizer seed. The workload seed draws the order of the requests
and the parameters of requests whose cost does not depend on them (scan
grids, file names). A member's see-saw cost moves with its frame and its
optimizer seed (one slow ghz-white member took 0.5-1.7 s over four frames),
so drawing either from the workload seed made the ten-seed spread of p90
and throughput a property of the draw rather than of the code; with both
fixed, a run's work is the same for every seed and its spread is the
machine's.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
from dataclasses import dataclass

import numpy as np

import svetbound as sb
from svetbound import cli as sb_cli

from . import oracle

POPULATION_SEEDS = {"tune": 1001, "held-out": 1002}
STARTS = 50
HALF_PI = math.pi / 2.0

LAMBDA_ATOL = 1e-9
BOUND_SLACK = 1e-7
CERT_TOL = 1e-6
VALUE_ATOL = 1e-9


def _population_rng(population: str, stream: int) -> np.random.Generator:
    return np.random.default_rng([POPULATION_SEEDS[population], stream])


@dataclass(frozen=True)
class BoundRequest:
    rho: np.ndarray
    opt_seed: int
    closed_form: float | None


def check_spectrum(rho, lambda1, q_bound, closed_form=None) -> str | None:
    """lambda1 against the SVD of the oracle's unfolding (and a closed form), and q_bound = 4*lambda1."""
    lam = oracle.lambda1(rho)
    if abs(lambda1 - lam) > LAMBDA_ATOL:
        return f"lambda1 {lambda1!r} != svd {lam!r}"
    if closed_form is not None and abs(lambda1 - closed_form) > LAMBDA_ATOL:
        return f"lambda1 {lambda1!r} != closed form {closed_form!r}"
    if abs(q_bound - 4.0 * lam) > 4.0 * LAMBDA_ATOL:
        return f"q_bound {q_bound!r} != 4*lambda1"
    return None


def check_classification(q_bound, classification, value) -> str | None:
    """The README's three-valued classification against q_bound and the optimizer value."""
    if classification == sb.CERTIFIED_VIOLATION:
        if value is None or not 4.0 < value <= q_bound + BOUND_SLACK:
            return f"CertifiedViolation with optimizer_value {value!r}, q_bound {q_bound!r}"
    elif classification == sb.CERTIFIED_NO_VIOLATION:
        if q_bound > 4.0:
            return f"CertifiedNoViolation with q_bound {q_bound!r} > 4"
    elif classification == sb.INCONCLUSIVE:
        if q_bound <= 4.0 or value is None or value > q_bound + BOUND_SLACK:
            return f"Inconclusive with q_bound {q_bound!r}, optimizer_value {value!r}"
    else:
        return f"unknown classification {classification!r}"
    return None


def check_certificate(rho, vectors, achieved, q_bound) -> str | None:
    """Certificate settings re-evaluated as tr(S rho) from the oracle's Pauli products."""
    if oracle.unit_norm_error(vectors) > 1e-9:
        return "certificate settings are not unit vectors"
    value = oracle.svetlichny_value(rho, *vectors)
    if abs(value - achieved) > VALUE_ATOL:
        return f"certificate achieved {achieved!r} != tr(S rho) {value!r}"
    if abs(value) < q_bound - CERT_TOL - 1e-12:
        return f"certificate |tr(S rho)| {abs(value)!r} below q_bound - tol ({q_bound!r})"
    return None


def check_bound_report(rho, report, closed_form=None) -> str | None:
    """Problems with a BoundReport, judged only by the oracle and the README contract."""
    problem = check_spectrum(rho, report.spectrum.lambda1, report.q_bound, closed_form) or check_classification(
        report.q_bound, report.classification, report.optimizer_value
    )
    if problem is None and report.certificate is not None:
        s = report.certificate.settings
        vectors = (s.a, s.a_prime, s.b, s.b_prime, s.c, s.c_prime)
        problem = check_certificate(rho, vectors, report.certificate.achieved, report.q_bound)
    return problem


def stratified_order(rng: np.random.Generator, labels: list) -> list[int]:
    """A seeded order that takes the strata (labels) in turn, so every prefix is balanced."""
    strata: dict = {}
    for idx, label in enumerate(labels):
        strata.setdefault(label, []).append(idx)
    columns = [[int(i) for i in rng.permutation(indices)] for indices in strata.values()]
    depth = max(len(column) for column in columns)
    return [column[i] for i in range(depth) for column in columns if i < len(column)]


class _BoundWorkload:
    """quantum_bound(rho, OptimizerConfig(starts=50, seed=k), certify=True) per request."""

    require_certificate = False

    def __init__(self, seed: int, population: str = "tune", workdir=None):
        members = self.population(population)
        opt_seeds = _population_rng(population, 4).integers(2**32, size=len(members))
        frame_rng = _population_rng(population, 6)
        framed = [oracle.conjugate(rho, oracle.random_local_unitary(frame_rng)) for rho, _, _ in members]
        rng = np.random.default_rng(seed)
        self.requests = [
            BoundRequest(framed[idx], int(opt_seeds[idx]), members[idx][1])
            for idx in stratified_order(rng, [label for _, _, label in members])
        ]

    @staticmethod
    def population(population: str) -> list:
        raise NotImplementedError

    def warmup(self) -> None:
        sb.quantum_bound(oracle.ghz_color_state(1.0), sb.OptimizerConfig(starts=STARTS, seed=0), certify=True)

    def execute(self, req: BoundRequest):
        return sb.quantum_bound(req.rho, sb.OptimizerConfig(starts=STARTS, seed=req.opt_seed), certify=True)

    def check(self, req: BoundRequest, report) -> str | None:
        return check_bound_report(req.rho, report, req.closed_form)

    def decided(self, req: BoundRequest, report) -> bool:
        if report.classification == sb.INCONCLUSIVE:
            return False
        return report.certificate is not None or not self.require_certificate


class BoundGeneric(_BoundWorkload):
    """Random mixed states of rank 1-4, 25 of each rank."""

    name = "bound-generic"
    trace_requests = 24
    POPULATION = 100

    @staticmethod
    def population(population: str) -> list:
        rng = _population_rng(population, 1)
        return [
            (oracle.random_mixed_state(rng, 1 + i % 4), None, f"rank{1 + i % 4}")
            for i in range(BoundGeneric.POPULATION)
        ]


def draw_ghz_white_above_threshold(rng: np.random.Generator) -> tuple[float, float, float]:
    """Angles with q_bound(p=1) > 4 by the closed form, and p drawn in (p*, 1]."""
    while True:
        theta, theta3 = rng.uniform(0.0, HALF_PI, 2)
        lam_unit = oracle.ghz_white_lambda1(theta, theta3, 1.0)
        if 4.0 * lam_unit > 4.0:
            break
    p_star = 1.0 / lam_unit
    return float(theta), float(theta3), float(1.0 - (1.0 - p_star) * rng.random())


def draw_ghz_color_above_threshold(rng: np.random.Generator) -> float:
    p_star = 1.0 / oracle.ghz_color_lambda1(1.0)
    return float(1.0 - (1.0 - p_star) * rng.random())


def ghz_population(population: str, size: int) -> list:
    """(kind, theta, theta3, p) for members above p*: one ghz-white, then two ghz-color.

    A ghz-color request takes 30-60 ms and a ghz-white one 80-1500 ms, so
    with two color members to each white one p50 lies inside the color
    group and p90 inside the white group, not on the boundary between them.
    """
    rng = _population_rng(population, 2)
    members = []
    for i in range(size):
        if i % 3 == 0:
            members.append((sb.GHZ_WHITE, *draw_ghz_white_above_threshold(rng)))
        else:
            members.append((sb.GHZ_COLOR, None, None, draw_ghz_color_above_threshold(rng)))
    return members


def ghz_member_state(kind, theta, theta3, p) -> tuple[np.ndarray, float]:
    """The member's density matrix and its closed-form lambda1."""
    if kind == sb.GHZ_WHITE:
        return oracle.ghz_white_state(theta, theta3, p), oracle.ghz_white_lambda1(theta, theta3, p)
    return oracle.ghz_color_state(p), oracle.ghz_color_lambda1(p)


class BoundGhzClass(_BoundWorkload):
    """ghz-white and ghz-color members above their threshold p*, 72 and 144."""

    name = "bound-ghz-class"
    trace_requests = 48
    require_certificate = True
    POPULATION = 216

    @staticmethod
    def population(population: str) -> list:
        return [
            (*ghz_member_state(*member), member[0])
            for member in ghz_population(population, BoundGhzClass.POPULATION)
        ]


@dataclass(frozen=True)
class ScanRequest:
    kind: str
    thetas: list | None
    theta3s: list | None
    ps: list

    @property
    def rows(self) -> int:
        if self.kind == sb.GHZ_WHITE:
            return len(self.thetas) * len(self.theta3s) * len(self.ps)
        return len(self.ps)


def check_scan_rows(req: ScanRequest, rows) -> str | None:
    if len(rows) != req.rows:
        return f"scan returned {len(rows)} rows, expected {req.rows}"
    keys = [(r.theta, r.theta3, r.p) for r in rows]
    if keys != sorted(keys):
        return "scan rows are not ordered by (theta, theta3, p)"
    if req.kind == sb.GHZ_WHITE:
        expected_keys = [(t, t3, p) for t in sorted(req.thetas) for t3 in sorted(req.theta3s) for p in sorted(req.ps)]
    else:
        expected_keys = [(math.pi / 4.0, HALF_PI, p) for p in sorted(req.ps)]
    if keys != expected_keys:
        return "scan rows do not enumerate the requested grid"
    for row in rows:
        if req.kind == sb.GHZ_WHITE:
            lam = oracle.ghz_white_lambda1(row.theta, row.theta3, row.p)
        else:
            lam = oracle.ghz_color_lambda1(row.p)
        if abs(row.lambda1 - lam) > LAMBDA_ATOL:
            return f"row {row!r}: lambda1 != closed form {lam!r}"
        if abs(row.q_bound - 4.0 * row.lambda1) > 4.0 * LAMBDA_ATOL:
            return f"row {row!r}: q_bound != 4*lambda1"
        if row.violates != (row.q_bound > 4.0):
            return f"row {row!r}: violates != (q_bound > 4)"
    for row in (rows[0], rows[-1]):
        rho = (
            oracle.ghz_white_state(row.theta, row.theta3, row.p)
            if req.kind == sb.GHZ_WHITE
            else oracle.ghz_color_state(row.p)
        )
        if abs(row.lambda1 - oracle.lambda1(rho)) > LAMBDA_ATOL:
            return f"row {row!r}: lambda1 != svd of the unfolding"
    return None


class ScanGrid:
    """families.scan on 6x6x20 ghz-white grids alternating with 720-point ghz-color p-grids.

    Both kinds have 720 rows, so request cost is nearly constant and the
    median does not sit between two modes. The grids are drawn from the
    seed together with the population, so --held-out gives other grids.
    """

    name = "scan-grid"
    trace_requests = 24
    POOL = 96
    WHITE_SHAPE = (6, 6, 20)

    def __init__(self, seed: int, population: str = "tune", workdir=None):
        rng = np.random.default_rng([POPULATION_SEEDS[population], 3, seed])
        n_t, n_t3, n_p = self.WHITE_SHAPE
        self.requests = []
        for i in range(self.POOL):
            if i % 2 == 0:
                self.requests.append(
                    ScanRequest(
                        sb.GHZ_WHITE,
                        [float(x) for x in rng.uniform(0.0, HALF_PI, n_t)],
                        [float(x) for x in rng.uniform(0.0, HALF_PI, n_t3)],
                        [float(x) for x in rng.random(n_p)],
                    )
                )
            else:
                self.requests.append(ScanRequest(sb.GHZ_COLOR, None, None, [float(x) for x in rng.random(n_t * n_t3 * n_p)]))

    def warmup(self) -> None:
        sb.scan(sb.GHZ_WHITE, [math.pi / 4.0], [HALF_PI], [0.5, 1.0])

    def execute(self, req: ScanRequest):
        return sb.scan(req.kind, req.thetas, req.theta3s, req.ps)

    def check(self, req: ScanRequest, rows) -> str | None:
        return check_scan_rows(req, rows)

    def decided(self, req: ScanRequest, rows) -> bool:
        return True


_RESULT_KEYS = {
    "bound": ({"lambda", "q_bound", "classification"}, {"optimizer_value", "certificate"}),
    "optimize": ({"best_value", "best_settings", "iterations_used", "converged", "per_start_values"}, set()),
    "threshold": ({"p_star", "method"}, set()),
    "scan": ({"out", "rows", "annotations", "annotations_note"}, set()),
    "certify": ({"q_bound", "certificate"}, {"gap"}),
    "gme": ({"hs_norm_sq", "lb_value", "chain_value", "clamped_lb"}, set()),
}
_REPORT_KEYS = {"command", "input_digest", "seed", "version", "result"}
_SETTING_KEYS = ("a", "a_prime", "b", "b_prime", "c", "c_prime")


@dataclass(frozen=True)
class CliRequest:
    argv: list
    rho: np.ndarray | None = None
    expect: dict | None = None


def write_state_file(path: str, rho: np.ndarray) -> None:
    """The README state format; repr floats round-trip exactly."""
    matrix = [[[float(z.real), float(z.imag)] for z in row] for row in rho]
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"dim": 8, "matrix": matrix}, handle)


def _fmt(value: float) -> str:
    return repr(float(value))


class CliMixed:
    """svetbound.cli.main(argv) in-process over all six subcommands.

    Each of the GROUPS request groups is 11 requests: 3 fast (gme,
    closed-form threshold: 2-5 ms), 5 medium (40-row scans, bisection
    thresholds: 8-15 ms) and 3 slow (optimize on a ghz-white member, bound
    --certify and certify on a generic --state file: 15-1000 ms), so p50 lies
    among the medium requests and p90 among the slow ones. A group ends by
    repeating its ghz-white bisection threshold, whose output must be
    byte-identical to the first.
    """

    name = "cli-mixed"
    trace_requests = 30
    GROUPS = 36

    def __init__(self, seed: int, population: str = "tune", workdir=None):
        if workdir is None:
            raise ValueError("cli-mixed needs a work directory for state files and CSVs")
        self.workdir = workdir
        self.first_output: dict[tuple, str] = {}
        rng = np.random.default_rng(seed)
        frame_rng = _population_rng(population, 7)
        generic = [
            oracle.conjugate(member[0], oracle.random_local_unitary(frame_rng))
            for member in BoundGeneric.population(population)[: 2 * self.GROUPS]
        ]
        family = ghz_population(population, 3 * self.GROUPS)
        white = [m for m in family if m[0] == sb.GHZ_WHITE]
        color = [m for m in family if m[0] == sb.GHZ_COLOR]
        opt_seeds = _population_rng(population, 5).integers(2**31, size=self.GROUPS)
        self.requests = []
        for k in rng.permutation(self.GROUPS):
            self.requests.extend(
                self._group(int(k), rng, generic[2 * k : 2 * k + 2], (white[k], color[k]), str(opt_seeds[k]))
            )

    def _group(self, k: int, rng: np.random.Generator, states: list, family: tuple, seed: str) -> list:
        files = []
        for j, rho in enumerate(states):
            files.append(os.path.join(self.workdir, f"state-{k}-{j}.json"))
            write_state_file(files[-1], rho)
        (_, theta, theta3, p_white), (_, _, _, p_color) = family
        white = ["--family", "ghz-white", "--theta", _fmt(theta), "--theta3", _fmt(theta3)]
        white_threshold = ["threshold", *white]
        white_rho = oracle.ghz_white_state(theta, theta3, p_white)
        color_rho = oracle.ghz_color_state(p_color)
        grid_t = ",".join(_fmt(x) for x in np.sort(rng.uniform(0.0, HALF_PI, 2)))
        grid_t3 = ",".join(_fmt(x) for x in np.sort(rng.uniform(0.0, HALF_PI, 2)))
        out_white = os.path.join(self.workdir, f"scan-white-{k}.csv")
        out_color = os.path.join(self.workdir, f"scan-color-{k}.csv")
        return [
            CliRequest(["gme", "--state", files[0]], states[0]),
            CliRequest(white_threshold, expect={"lambda_unit": oracle.ghz_white_lambda1(theta, theta3, 1.0)}),
            CliRequest(["gme", "--family", "ghz-color", "--p", _fmt(p_color)], color_rho),
            CliRequest(
                ["scan", "--family", "ghz-white", "--thetas", grid_t, "--theta3s", grid_t3, "--ps", "0:1:10", "--out", out_white],
                expect={"rows": 40},
            ),
            CliRequest(["scan", "--family", "ghz-color", "--ps", "0:1:40", "--out", out_color], expect={"rows": 40}),
            CliRequest(["threshold", "--family", "ghz-color", "--method", "bisection"], expect={"lambda_unit": oracle.ghz_color_lambda1(1.0)}),
            CliRequest([*white_threshold, "--method", "bisection"], expect={"lambda_unit": oracle.ghz_white_lambda1(theta, theta3, 1.0)}),
            CliRequest(["optimize", *white, "--p", _fmt(p_white), "--seed", seed], white_rho),
            CliRequest(["bound", "--state", files[1], "--certify", "--seed", seed], states[1]),
            CliRequest(["certify", "--state", files[0], "--seed", seed], states[0]),
            CliRequest([*white_threshold, "--method", "bisection"], expect={"lambda_unit": oracle.ghz_white_lambda1(theta, theta3, 1.0)}),
        ]

    def warmup(self) -> None:
        self._run(["gme", "--family", "ghz-color", "--p", "1"])

    @staticmethod
    def _run(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = sb_cli.main(list(argv))
            except SystemExit as exc:
                code = exc.code
        return code, out.getvalue(), err.getvalue()

    def execute(self, req: CliRequest):
        return self._run(req.argv)

    def check(self, req: CliRequest, output) -> str | None:
        code, stdout, stderr = output
        if code != 0:
            return f"{req.argv[0]} exited {code}: {stderr.strip()[:200]}"
        key = tuple(req.argv)
        first = self.first_output.setdefault(key, stdout)
        if first != stdout:
            return f"{req.argv[0]}: repeated request is not byte-identical"
        lines = stdout.splitlines()
        if len(lines) != 1:
            return f"{req.argv[0]}: expected one JSON line, got {len(lines)}"
        try:
            report = json.loads(lines[0])
        except json.JSONDecodeError as exc:
            return f"{req.argv[0]}: stdout is not JSON ({exc})"
        if set(report) != _REPORT_KEYS or report["command"] != req.argv:
            return f"{req.argv[0]}: report keys {sorted(report)} or command echo differ"
        required, optional = _RESULT_KEYS[req.argv[0]]
        result = report["result"]
        if not required <= set(result) <= required | optional:
            return f"{req.argv[0]}: result keys {sorted(result)}"
        return getattr(self, "_check_" + req.argv[0])(req, result)

    @staticmethod
    def _check_certificate(rho, certificate, q_bound) -> str | None:
        vectors = [certificate["settings"][k] for k in _SETTING_KEYS]
        return check_certificate(rho, vectors, certificate["achieved"], q_bound)

    def _check_bound(self, req, result) -> str | None:
        problem = check_spectrum(req.rho, result["lambda"][0], result["q_bound"]) or check_classification(
            result["q_bound"], result["classification"], result.get("optimizer_value")
        )
        if problem is None and "certificate" in result:
            problem = self._check_certificate(req.rho, result["certificate"], result["q_bound"])
        return problem

    def _check_certify(self, req, result) -> str | None:
        problem = check_spectrum(req.rho, result["q_bound"] / 4.0, result["q_bound"])
        if problem is None and result["certificate"] is None and "gap" not in result:
            problem = "certify: null certificate without gap"
        if problem is None and result["certificate"] is not None:
            problem = self._check_certificate(req.rho, result["certificate"], result["q_bound"])
        return problem

    def _check_optimize(self, req, result) -> str | None:
        best = result["best_value"]
        if not best <= 4.0 * oracle.lambda1(req.rho) + BOUND_SLACK:
            return f"optimize: best_value {best!r} above 4*lambda1"
        vectors = [result["best_settings"][k] for k in _SETTING_KEYS]
        value = oracle.svetlichny_value(req.rho, *vectors)
        if abs(value - best) > VALUE_ATOL or max(result["per_start_values"]) != best:
            return f"optimize: best_value {best!r} != tr(S rho) {value!r} or per-start maximum"
        return None

    def _check_threshold(self, req, result) -> str | None:
        expected = 1.0 / req.expect["lambda_unit"]
        tol = 1e-12 if result["method"] == sb.CLOSED_FORM else 1e-8
        if result["p_star"] is None or abs(result["p_star"] - expected) > tol:
            return f"threshold: p_star {result['p_star']!r} != 1/lambda1(p=1) {expected!r}"
        return None

    def _check_gme(self, req, result) -> str | None:
        m = oracle.unfolding(req.rho)
        hs = float(np.sum(m * m))
        if abs(result["hs_norm_sq"] - hs) > 1e-9:
            return f"gme: hs_norm_sq {result['hs_norm_sq']!r} != {hs!r}"
        if abs(result["lb_value"] - (math.sqrt(hs / 8.0) - 0.5)) > 1e-9:
            return "gme: lb_value != sqrt(hs/8) - 1/2"
        return None

    def _check_scan(self, req, result) -> str | None:
        if result["rows"] != req.expect["rows"]:
            return f"scan: {result['rows']} rows, expected {req.expect['rows']}"
        with open(result["out"], encoding="utf-8", newline="") as handle:
            table = list(csv.reader(handle))
        if table[0] != ["theta", "theta3", "p", "lambda1", "q_bound", "violates", "gme_lb"] or len(table) != 1 + result["rows"]:
            return "scan: CSV header or row count differs"
        return None

    def decided(self, req: CliRequest, output) -> bool:
        report = json.loads(output[1])["result"]
        if req.argv[0] == "bound":
            return report["classification"] != sb.INCONCLUSIVE
        if req.argv[0] == "certify":
            return report["certificate"] is not None
        return True


WORKLOADS = {cls.name: cls for cls in (BoundGeneric, BoundGhzClass, ScanGrid, CliMixed)}
