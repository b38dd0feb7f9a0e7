"""Acceptance suite: every criterion at its stated tolerance, one line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the printed PASS lines;
a criterion that fails raises before printing.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np

import svetbound.seesaw
from svetbound import (
    CERTIFIED_NO_VIOLATION,
    CERTIFIED_VIOLATION,
    FamilySpec,
    GHZ_COLOR,
    GHZ_WHITE,
    GhzClassParams,
    OptimizerConfig,
    correlation_tensor,
    ghz_state,
    gme_lower_bound,
    maximize,
    pure_to_density,
    quantum_bound,
    realize,
    singular_spectrum,
    svetlichny_value,
    unfold,
    violation_threshold,
)
from svetbound.cli import read_state_file, write_state_file

from support import (
    analytic_singular_values,
    bilinear_value,
    biseparable_state,
    exit_code,
    random_density,
    random_settings,
    rng,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
GHZ_OPT = 4.0 * np.sqrt(2.0)
GRID = np.linspace(0.0, np.pi / 2.0, 9)


def _passed(number, name):
    print(f"[acceptance] criterion {number} ({name}): PASS")


def test_criterion_1_ghz_maximum():
    ghz = pure_to_density(ghz_state())
    report = quantum_bound(ghz, OptimizerConfig(starts=50, seed=0))
    assert abs(report.q_bound - GHZ_OPT) <= 1e-9
    result = maximize(ghz, OptimizerConfig(starts=50, seed=0))
    assert result.best_value >= GHZ_OPT - 1e-6
    _passed(1, "GHZ maximum 4*sqrt(2)")


def test_criterion_2_white_noise_threshold():
    params = GhzClassParams(np.pi / 4.0, np.pi / 2.0)
    report = violation_threshold(GHZ_WHITE, params)
    assert abs(report.p_star - 0.707107) <= 1e-6
    cfg = OptimizerConfig(starts=8, seed=1)
    below = quantum_bound(realize(FamilySpec(GHZ_WHITE, report.p_star - 0.01, params)), cfg)
    above = quantum_bound(realize(FamilySpec(GHZ_WHITE, report.p_star + 0.01, params)), cfg)
    assert below.classification == CERTIFIED_NO_VIOLATION
    assert above.classification == CERTIFIED_VIOLATION
    _passed(2, "white-noise threshold 0.707107 with classification flip")


def test_criterion_3_color_noise_family():
    for p in (0.3, 0.7, 1.0):
        matrix = unfold(correlation_tensor(realize(FamilySpec(GHZ_COLOR, p))))
        expected = np.zeros((3, 9))
        expected[0, 0] = p
        expected[0, 4] = -p
        expected[1, 1] = -p
        expected[1, 3] = -p
        assert np.max(np.abs(matrix - expected)) <= 1e-12
        q_bound = 4.0 * singular_spectrum(matrix).lambda1
        assert abs(q_bound - GHZ_OPT * p) <= 1e-9
    threshold = violation_threshold(GHZ_COLOR)
    assert abs(threshold.p_star - 0.707107) <= 1e-6
    _passed(3, "color-noise matrix, q_bound = 4*sqrt(2)*p, threshold")


def test_criterion_4_family_iff_law(monkeypatch):
    monkeypatch.setattr(svetbound.seesaw, "CONVERGENCE_TOL", 1e-12)
    cfg = OptimizerConfig(starts=8, seed=11)
    checked = 0
    for theta in GRID:
        for theta3 in GRID:
            strength = abs(np.sin(2.0 * theta)) * np.sqrt(1.0 + np.sin(theta3) ** 2)
            for p in (0.4, 0.8, 1.0):
                params = GhzClassParams(float(theta), float(theta3))
                rho = realize(FamilySpec(GHZ_WHITE, p, params))
                report = quantum_bound(rho, cfg)
                q_opt = report.optimizer_value
                if q_opt is None:
                    q_opt = maximize(rho, cfg).best_value
                assert abs(q_opt - report.q_bound) <= 1e-6  # saturation everywhere
                if abs(p * strength - 1.0) <= 1e-9:
                    continue  # boundary points are exempt from the iff check
                expected = p * strength > 1.0
                observed = report.classification == CERTIFIED_VIOLATION
                assert observed == expected, (theta, theta3, p, report.classification)
                checked += 1
    assert checked >= 240
    _passed(4, "grid iff-law with optimizer saturation")


def test_criterion_5_analytic_spectrum_cross_check():
    for theta in GRID:
        for theta3 in GRID:
            params = GhzClassParams(float(theta), float(theta3))
            for p in (0.4, 0.8, 1.0):
                rho = realize(FamilySpec(GHZ_WHITE, p, params))
                numerical = singular_spectrum(unfold(correlation_tensor(rho))).values
                analytic = analytic_singular_values(params, p)
                assert np.max(np.abs(np.array(numerical) - np.array(analytic))) <= 1e-9
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    assert "cos(2*theta3)" in readme  # the reconciled diagonal entry is documented
    assert "cos(2*theta3)^2" in readme  # and the inconsistent quoted form is called out
    _passed(5, "analytic spectrum matches numerics; discrepancy documented")


def test_criterion_6_bound_property_suite():
    gen = rng(600)
    cfg = OptimizerConfig(starts=6, seed=60)
    for _ in range(200):
        rho = random_density(gen)
        lam1 = singular_spectrum(unfold(correlation_tensor(rho))).lambda1
        result = maximize(rho, cfg)
        assert result.best_value <= 4.0 * lam1 + 1e-7

    settings_rng = rng(601)
    for _ in range(1000):
        rho = random_density(gen)
        settings = random_settings(settings_rng)
        direct = svetlichny_value(rho, settings)
        via_matrix = bilinear_value(unfold(correlation_tensor(rho)), settings)
        assert abs(direct - via_matrix) <= 1e-10

    for _ in range(1000):
        rows = int(gen.integers(1, 10))
        cols = int(gen.integers(1, 10))
        a = gen.standard_normal((rows, cols))
        x = gen.standard_normal(rows)
        y = gen.standard_normal(cols)
        top = np.linalg.svd(a, compute_uv=False)[0]
        assert abs(x @ a @ y) <= top * np.linalg.norm(x) * np.linalg.norm(y) + 1e-10
    _passed(6, "bound on 200 random states; 1000 dual evaluations; 1000 bilinear-bound triples")


def test_criterion_7_biseparable_sanity():
    gen = rng(700)
    cfg = OptimizerConfig(starts=6, seed=70)
    placements = ("AB", "AC", "BC")
    for idx in range(50):
        rho = pure_to_density(biseparable_state(gen, placements[idx % 3]))
        result = maximize(rho, cfg)
        assert result.best_value <= 4.0 + 1e-6
    _passed(7, "50 biseparable states stay within the hybrid bound")


def test_criterion_8_gme_chain():
    cfg = OptimizerConfig(starts=8, seed=80)
    for theta, theta3 in [(np.pi / 4, np.pi / 2), (np.pi / 4, np.pi / 4), (np.pi / 3, np.pi / 2)]:
        for p in (0.75, 0.9, 1.0):
            rho = realize(FamilySpec(GHZ_WHITE, p, GhzClassParams(theta, theta3)))
            spectrum = singular_spectrum(unfold(correlation_tensor(rho)))
            assert spectrum.degenerate_top
            report = gme_lower_bound(rho)
            assert report.lb_value >= report.chain_value - 1e-10
            q_opt = maximize(rho, cfg).best_value
            if q_opt > 4.0:
                assert report.lb_value > 0.0
    ghz_report = gme_lower_bound(pure_to_density(ghz_state()))
    assert abs(ghz_report.lb_value - 0.207107) <= 1e-6
    _passed(8, "GME chain inequality and GHZ value 0.207107")


def test_criterion_9_determinism_and_io(tmp_path, capsys):
    # Only the cross-process repeats need fresh processes; the exit-code and
    # round-trip checks run main in-process.
    def run_cli(*args):
        return subprocess.run(
            [sys.executable, "-m", "svetbound", *args], capture_output=True, text=True
        )

    bound_args = ("bound", "--family", "ghz-white", "--theta", "0.785398",
                  "--theta3", "1.570796", "--p", "0.9", "--starts", "6", "--seed", "5")
    assert run_cli(*bound_args).stdout == run_cli(*bound_args).stdout

    csv_a = tmp_path / "a.csv"
    csv_b = tmp_path / "b.csv"
    scan_args = ("scan", "--family", "ghz-color", "--ps", "0.2:1:9")
    run_cli(*scan_args, "--out", str(csv_a))
    run_cli(*scan_args, "--out", str(csv_b))
    assert csv_a.read_bytes() == csv_b.read_bytes()

    gen = rng(900)
    rho = random_density(gen)
    state_path = tmp_path / "state.json"
    write_state_file(state_path, rho)
    assert np.array_equal(read_state_file(state_path), np.asarray(rho, dtype=complex))

    assert exit_code("bound") == 1  # usage
    bad = np.zeros((8, 8), dtype=complex)
    bad[0, 0] = 2.0
    bad_path = tmp_path / "bad.json"
    write_state_file(bad_path, bad)
    capsys.readouterr()
    assert exit_code("bound", "--state", str(bad_path)) == 2
    assert "residual" in capsys.readouterr().err
    assert exit_code("scan", "--family", "ghz-color", "--ps", "0.5",
                     "--out", str(tmp_path / "no" / "dir.csv")) == 3
    capsys.readouterr()
    assert exit_code("gme", "--state", str(state_path)) == 0
    assert json.loads(capsys.readouterr().out)["result"]["hs_norm_sq"] >= 0.0
    _passed(9, "byte-identical reruns, exact round-trip, exit-code contract")
