import json
from pathlib import Path

import numpy as np
import pytest

import svetbound.bounds
import svetbound.seesaw
from svetbound import (
    CERTIFIED_NO_VIOLATION,
    CERTIFIED_VIOLATION,
    INCONCLUSIVE,
    FamilySpec,
    GHZ_COLOR,
    GHZ_WHITE,
    GhzClassParams,
    MeasurementSettings,
    OptimizationResult,
    OptimizerConfig,
    correlation_tensor,
    ghz_state,
    maximize,
    pure_to_density,
    quantum_bound,
    realize,
    singular_spectrum,
    svetlichny_value,
    tightness_certificate,
    unfold,
)
from svetbound.bounds import VIOLATION_MARGIN
from svetbound.correlation import analyze

from support import (
    GHZ_OPTIMUM,
    W_STATE_MAXIMUM,
    biseparable_state,
    count_calls,
    random_density,
    random_pure,
    random_qubit_unitary,
    reference_svetlichny_value,
    rng,
    states_above_four,
    w_density,
)

CFG = OptimizerConfig(starts=8, seed=1)
# A witness decides a CertifiedViolation only with a trace value above this.
WITNESS_FLOOR = 4.0 + VIOLATION_MARGIN
ALONG_Z = MeasurementSettings(*[np.array([0.0, 0.0, 1.0])] * 6)


def mixed_biseparable():
    """Equal mix of Bell(A,B) x |0>_C and Bell(A,C) x |0>_B.

    Its bound 4*lambda1 = 4*sqrt(3/2) exceeds 4 while the true maximum stays at
    the hybrid local bound, so classification must land on Inconclusive.
    """
    psi1 = np.zeros(8, dtype=complex)
    psi1[0] = psi1[6] = 1.0 / np.sqrt(2.0)
    psi2 = np.zeros(8, dtype=complex)
    psi2[0] = psi2[5] = 1.0 / np.sqrt(2.0)
    return 0.5 * (np.outer(psi1, psi1.conj()) + np.outer(psi2, psi2.conj()))


class TestQuantumBound:
    def test_ghz(self):
        report = quantum_bound(pure_to_density(ghz_state()), CFG)
        assert report.q_bound == pytest.approx(GHZ_OPTIMUM, abs=1e-9)
        assert report.classification == CERTIFIED_VIOLATION
        assert report.optimizer_value > 4.0 + 1e-9

    def test_maximally_mixed(self):
        report = quantum_bound(np.eye(8) / 8.0, CFG)
        assert report.q_bound == pytest.approx(0.0, abs=1e-12)
        assert report.classification == CERTIFIED_NO_VIOLATION
        assert report.optimizer_value is None

    def test_white_noise_half(self):
        rho = realize(FamilySpec(GHZ_WHITE, 0.5, GhzClassParams(np.pi / 4, np.pi / 2)))
        report = quantum_bound(rho, CFG)
        assert report.q_bound == pytest.approx(2.0 * np.sqrt(2.0), abs=1e-9)
        assert report.classification == CERTIFIED_NO_VIOLATION

    def test_inconclusive_state(self):
        report = quantum_bound(mixed_biseparable(), OptimizerConfig(starts=12, seed=4))
        assert report.q_bound == pytest.approx(4.0 * np.sqrt(1.5), abs=1e-9)
        assert report.classification == INCONCLUSIVE
        assert report.optimizer_value <= 4.0 + 1e-9

    @pytest.mark.parametrize("certify", [False, True])
    def test_violation_needs_trace_checked_witness(self, monkeypatch, certify):
        # W violates but has no certificate, so step 3's candidate settings
        # decide: the see-saw's without certify, the Lambda iteration's with it.
        # Settings all along z give it a trace value of 0, whatever is claimed.
        rho = w_density()
        assert tightness_certificate(rho) is None
        assert svetlichny_value(rho, ALONG_Z) < 4.0
        candidates = []

        def claim(*args, **kwargs):
            candidates.append(args)
            return OptimizationResult(4.5, ALONG_Z, 1, True, (4.5,)) if not certify else ALONG_Z

        monkeypatch.setattr(svetbound.bounds, "_settings" if certify else "maximize", claim)
        report = quantum_bound(rho, CFG, certify=certify)
        assert len(candidates) == 1
        assert report.classification == INCONCLUSIVE
        # Without certify it is the see-saw's claim; with it, the settings' trace value.
        assert report.optimizer_value == (abs(svetlichny_value(rho, ALONG_Z)) if certify else 4.5)
        assert report.witness is None

    def test_q_bound_is_four_lambda1(self):
        gen = rng(500)
        for _ in range(20):
            rho = random_density(gen)
            report = quantum_bound(rho, CFG)
            assert report.q_bound == 4.0 * report.spectrum.lambda1

    def test_certify_flag_attaches_certificate(self):
        report = quantum_bound(pure_to_density(ghz_state()), CFG, certify=True)
        assert report.certificate is not None
        assert abs(report.certificate.achieved) >= report.q_bound - 1e-6

    def test_without_certify_the_seesaw_runs_to_convergence(self, monkeypatch):
        # No certificate is built, and the see-saw, run to convergence, decides GHZ.
        def refuse(state):
            raise AssertionError("tightness_certificate called without certify")

        monkeypatch.setattr(svetbound.bounds, "tightness_certificate", refuse)
        rho = pure_to_density(ghz_state())
        calls = count_maximize(monkeypatch)
        report = quantum_bound(rho, CFG)
        assert calls == [CFG]
        assert report.classification == CERTIFIED_VIOLATION
        assert report.certificate is None
        assert report.optimizer_value == maximize(rho, CFG).best_value
        assert abs(reference_svetlichny_value(rho, report.witness)) > WITNESS_FLOOR

    def test_certificate_within_the_margin_does_not_decide(self, monkeypatch):
        # ghz-color just above p*: the certificate attains 4*lambda1 = 4 + 5e-10,
        # which no settings can push past 4 + 1e-9, so the iteration runs, with
        # no see-saw, and the state stays Inconclusive.
        rho = realize(FamilySpec(GHZ_COLOR, (4.0 + 5e-10) / (4.0 * np.sqrt(2.0))))
        calls = count_maximize(monkeypatch)
        iterations = count_calls(monkeypatch, ["bounds._lambda_iterate"])
        report = quantum_bound(rho, CFG, certify=True)
        assert 4.0 < report.q_bound <= WITNESS_FLOOR
        assert report.certificate is not None
        assert calls == [] and iterations["_lambda_iterate"] == 1
        assert report.classification == INCONCLUSIVE
        assert report.witness is None
        # The iteration's settings attain the bound here too, and optimizer_value is their trace value.
        assert report.optimizer_value == pytest.approx(report.q_bound, abs=1e-12)
        assert report.optimizer_value <= WITNESS_FLOOR

    def test_certificate_short_of_the_bound_leaves_the_label_to_the_iteration(self, monkeypatch):
        # Settings all along z give GHZ a trace value of 0, far below 4*lambda1:
        # the certificate's trace check turns them down, and the Lambda
        # iteration's trace-checked witness decides, with no see-saw.
        monkeypatch.setattr(svetbound.bounds, "_rank_one_settings", lambda state: ALONG_Z)
        rho = pure_to_density(ghz_state())
        assert tightness_certificate(rho) is None
        calls = count_maximize(monkeypatch)
        iterations = count_calls(monkeypatch, ["bounds._lambda_iterate"])
        report = quantum_bound(rho, CFG, certify=True)
        assert calls == [] and iterations["_lambda_iterate"] == 1
        assert report.certificate is None
        assert report.classification == CERTIFIED_VIOLATION
        assert report.optimizer_value == abs(svetlichny_value(rho, report.witness))
        assert report.optimizer_value == pytest.approx(GHZ_OPTIMUM, abs=1e-12)
        assert abs(reference_svetlichny_value(rho, report.witness)) > WITNESS_FLOOR


def product_state():
    """|000>: lambda1 = 1 is simple and q_bound = 4, so classification needs no see-saw;
    the top singular vector is rank 1 as a 3x3 matrix, so the bound is attained."""
    rho = np.zeros((8, 8), dtype=complex)
    rho[0, 0] = 1.0
    return rho


def count_maximize(monkeypatch):
    """Route svetbound.bounds.maximize through a counter; returns the list of the
    configs it was called with."""
    calls = []

    def counting(rho, config=None):
        calls.append(config)
        return maximize(rho, config)

    monkeypatch.setattr(svetbound.bounds, "maximize", counting)
    return calls


class TestOneSearchPerRequest:
    @pytest.mark.parametrize(
        "make_state, classification, iterations",
        [
            (lambda: pure_to_density(ghz_state()), CERTIFIED_VIOLATION, 0),
            (w_density, CERTIFIED_VIOLATION, 1),
            (mixed_biseparable, INCONCLUSIVE, 1),
            (product_state, CERTIFIED_NO_VIOLATION, 0),
        ],
    )
    def test_certify_runs_the_iteration_once(self, monkeypatch, make_state, classification, iterations):
        calls = count_maximize(monkeypatch)
        runs = count_calls(monkeypatch, ["bounds._lambda_iterate"])
        rho = make_state()
        report = quantum_bound(rho, CFG, certify=True)
        assert report.classification == classification
        # No see-saw runs; the Lambda iteration runs once, and only when neither
        # the bound (q_bound <= 4) nor the certificate decides.
        assert calls == []
        assert runs["_lambda_iterate"] == iterations
        assert (report.witness is None) == (classification != CERTIFIED_VIOLATION)
        if report.witness is not None:
            assert abs(reference_svetlichny_value(rho, report.witness)) > WITNESS_FLOOR
        # The certificate is the public one, built with no see-saw at all.
        calls.clear()
        alone = tightness_certificate(rho)
        assert calls == []
        assert (report.certificate is None) == (alone is None)
        if alone is not None:
            assert report.certificate.achieved == alone.achieved
            assert np.array_equal(report.certificate.settings.as_matrix(), alone.settings.as_matrix())


class TestTightnessCertificate:
    def test_white_noise_p08(self):
        rho = realize(FamilySpec(GHZ_WHITE, 0.8, GhzClassParams(np.pi / 4, np.pi / 2)))
        cert = tightness_certificate(rho)
        assert cert is not None
        assert abs(cert.achieved) == pytest.approx(4.525483399593905, abs=1e-6)

    def test_color_noise_p1(self):
        rho = realize(FamilySpec(GHZ_COLOR, 1.0))
        cert = tightness_certificate(rho)
        assert cert is not None
        assert abs(cert.achieved) == pytest.approx(GHZ_OPTIMUM, abs=1e-6)

    def test_certificate_sound(self):
        for spec in [
            FamilySpec(GHZ_WHITE, 0.8, GhzClassParams(np.pi / 4, np.pi / 2)),
            FamilySpec(GHZ_COLOR, 0.9),
            FamilySpec(GHZ_WHITE, 1.0, GhzClassParams(np.pi / 6, np.pi / 3)),
        ]:
            rho = realize(spec)
            cert = tightness_certificate(rho)
            assert cert is not None
            assert svetlichny_value(rho, cert.settings) == pytest.approx(
                cert.achieved, abs=1e-12
            )
            lam1 = singular_spectrum(unfold(correlation_tensor(rho))).lambda1
            assert cert.residual == pytest.approx(4.0 * lam1 - abs(cert.achieved), abs=1e-12)

    def test_generic_state_may_return_none(self):
        gen = rng(501)
        rho = random_density(gen, max_rank=4)
        spec = singular_spectrum(unfold(correlation_tensor(rho)))
        cert = tightness_certificate(rho)
        if cert is None:
            best = maximize(rho, OptimizerConfig(starts=6, seed=2)).best_value
            assert best < 4.0 * spec.lambda1 - 1e-6
        else:
            assert abs(cert.achieved) >= 4.0 * spec.lambda1 - 1e-6

    def test_zero_bound_state(self):
        cert = tightness_certificate(np.eye(8) / 8.0)
        assert cert is not None
        assert cert.achieved == pytest.approx(0.0, abs=1e-12)

    def test_nondegenerate_saturable_state(self):
        # Pure product |000>: lambda1 = 1 is simple yet the bound 4 is attained.
        rho = np.zeros((8, 8), dtype=complex)
        rho[0, 0] = 1.0
        cert = tightness_certificate(rho)
        assert cert is not None
        assert abs(cert.achieved) == pytest.approx(4.0, abs=1e-6)


def bell_like_ac_times_zero_b(s):
    """(cos t|00> + sin t|11>)_AC (x) |0>_B with sin 2t = s. The unfolding has one
    nonzero row, the AC correlations diag(s, -s, 1), so lambda1 = sqrt(1 + 2 s^2)
    is simple and right9_1 read as a 3x3 matrix has rank ratio s. The state is
    biseparable, so its maximum |<S>| is 4, below 4*lambda1 ~ 4 + 4 s^2."""
    t = 0.5 * np.arcsin(s)
    psi = np.zeros(8, dtype=complex)
    psi[0], psi[5] = np.cos(t), np.sin(t)  # |000> and |101> in A, B, C order
    return pure_to_density(psi)


def settings_short_of_the_bound(rho, shortfall):
    """rho's certificate settings with b turned so that |<S>| falls by about shortfall."""
    cert = tightness_certificate(rho)
    s = cert.settings
    m = analyze(rho).matrix
    z = np.kron(s.a + 1j * s.a_prime, s.c + 1j * s.c_prime)
    # b is unit(M(u+v)); turning it by delta lowers <S> by |M(u+v)| (1 - cos delta).
    norm = np.linalg.norm(m @ (z.real + z.imag))
    delta = np.arccos(1.0 - shortfall / norm)
    side = np.cross(s.b, s.b_prime if abs(s.b @ s.b_prime) < 0.9 else [1.0, 0.0, 0.0])
    side /= np.linalg.norm(side)
    b = np.cos(delta) * s.b + np.sin(delta) * side
    return MeasurementSettings(s.a, s.a_prime, b, s.b_prime, s.c, s.c_prime)


class TestCertificateTolerances:
    @pytest.mark.parametrize("ratio", [1e-5, 1e-4])
    def test_candidate_not_close_to_rank_one_gives_none(self, ratio):
        # Ratios above 1e-6 are refused before any trace check, although the
        # candidate's settings reach |<S>| = 4, within 1e-6 of 4*lambda1.
        rho = bell_like_ac_times_zero_b(ratio)
        state = analyze(rho)
        assert not state.spectrum.degenerate_top
        assert 0.0 < state.q_bound - 4.0 < 1e-6
        assert svetbound.bounds._rank_one_settings(state) is None
        assert tightness_certificate(rho) is None

    def test_candidate_close_to_rank_one_is_the_certificate(self):
        rho = bell_like_ac_times_zero_b(1e-7)
        cert = tightness_certificate(rho)
        assert cert is not None
        assert abs(cert.achieved) == pytest.approx(4.0, abs=1e-12)
        assert 0.0 <= cert.residual < 1e-12

    @pytest.mark.parametrize("shortfall, certified", [(1e-5, False), (2e-6, False), (1e-7, True)])
    def test_settings_short_of_the_bound_are_refused(self, monkeypatch, shortfall, certified):
        # GHZ's own certificate settings, turned to fall shortfall below q_bound:
        # a certificate must reach q_bound - 1e-6.
        rho = pure_to_density(ghz_state())
        settings = settings_short_of_the_bound(rho, shortfall)
        q_bound = analyze(rho).q_bound
        assert q_bound - abs(svetlichny_value(rho, settings)) == pytest.approx(shortfall, rel=1e-3)
        monkeypatch.setattr(svetbound.bounds, "_rank_one_settings", lambda state: settings)
        cert = tightness_certificate(rho)
        assert (cert is not None) == certified
        if certified:
            assert cert.residual == pytest.approx(shortfall, rel=1e-3)


def local_frame(rho, gen):
    """rho conjugated by a random product of three single-qubit unitaries."""
    u = np.kron(np.kron(random_qubit_unitary(gen), random_qubit_unitary(gen)), random_qubit_unitary(gen))
    return u @ rho @ u.conj().T


def random_rank3(gen):
    weights = gen.random(3)
    weights /= weights.sum()
    return sum(w * pure_to_density(random_pure(gen)) for w in weights)


def refuse_maximize(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the certificate must not run the see-saw")

    monkeypatch.setattr(svetbound.bounds, "maximize", refuse)


def assert_certified(rho, residual_tol):
    cert = tightness_certificate(rho)
    assert cert is not None
    lam1 = singular_spectrum(unfold(correlation_tensor(rho))).lambda1
    assert cert.residual == 4.0 * lam1 - abs(cert.achieved)
    assert cert.residual <= residual_tol
    assert svetlichny_value(rho, cert.settings) == pytest.approx(cert.achieved, abs=1e-12)


class TestCertificateRoutes:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_subspace_fallback_when_witness_misses(self, monkeypatch, seed):
        # Degenerate top value, 4*lambda1 = 4.5255; one start and one sweep
        # leave the see-saw witness at 3.7-4.5, below the target. The
        # closed-form subspace certificate attains it without any see-saw.
        monkeypatch.setattr(svetbound.seesaw, "MAX_SWEEPS", 1)
        rho = realize(FamilySpec(GHZ_WHITE, 0.8, GhzClassParams(np.pi / 4, np.pi / 2)))
        cfg = OptimizerConfig(starts=1, seed=seed)
        lam1 = singular_spectrum(unfold(correlation_tensor(rho))).lambda1
        assert maximize(rho, cfg).best_value < 4.0 * lam1 - 1e-6
        report = quantum_bound(rho, cfg, certify=True)
        direct = tightness_certificate(rho)
        assert report.certificate.achieved == direct.achieved
        assert np.array_equal(report.certificate.settings.as_matrix(), direct.settings.as_matrix())
        refuse_maximize(monkeypatch)
        assert_certified(rho, 1e-6)

    @pytest.mark.parametrize(
        "make_state",
        [lambda: pure_to_density(ghz_state()), lambda: realize(FamilySpec(GHZ_COLOR, 1.0))],
    )
    def test_witness_certifies_without_subspace_solve(self, monkeypatch, make_state):
        # The certificate classifies and is the witness, so no see-saw runs.
        rho = make_state()
        calls = count_maximize(monkeypatch)
        report = quantum_bound(rho, CFG, certify=True)
        assert report.certificate is not None
        assert report.classification == CERTIFIED_VIOLATION
        assert report.witness is report.certificate.settings
        assert calls == []
        cert = tightness_certificate(rho)
        assert cert is not None
        assert calls == []

    @pytest.mark.parametrize("p", [0.8, 1.0])
    def test_ghz_white_grid_in_local_frames(self, monkeypatch, p):
        refuse_maximize(monkeypatch)
        gen = rng(505)
        angles = np.linspace(0.1, 1.5, 8)
        for theta in angles:
            for theta3 in angles:
                rho = realize(FamilySpec(GHZ_WHITE, p, GhzClassParams(theta, theta3)))
                assert_certified(local_frame(rho, gen), 1e-12)

    def test_ghz_color_in_local_frames(self, monkeypatch):
        refuse_maximize(monkeypatch)
        gen = rng(506)
        for p in (0.75, 0.9, 1.0):
            assert_certified(local_frame(realize(FamilySpec(GHZ_COLOR, p)), gen), 1e-12)

    @pytest.mark.parametrize(
        "make_state",
        [w_density, mixed_biseparable] + [lambda seed=s: random_rank3(rng(seed)) for s in (507, 508, 509)],
        ids=["w", "mixed_biseparable", "rank3-507", "rank3-508", "rank3-509"],
    )
    def test_no_certificate_agrees_with_seesaw(self, make_state):
        rho = make_state()
        assert tightness_certificate(rho) is None
        lam1 = singular_spectrum(unfold(correlation_tensor(rho))).lambda1
        best = maximize(rho, OptimizerConfig(starts=12, seed=3)).best_value
        assert best < 4.0 * lam1 - 1e-6

    def test_certificate_does_not_depend_on_seed(self):
        rho = realize(FamilySpec(GHZ_WHITE, 0.8, GhzClassParams(np.pi / 5, np.pi / 3)))
        reports = [quantum_bound(rho, OptimizerConfig(starts=8, seed=s), certify=True) for s in range(4)]
        first = reports[0].certificate
        assert first is not None
        for report in reports[1:]:
            assert report.certificate.achieved == first.achieved
            assert np.array_equal(report.certificate.settings.as_matrix(), first.settings.as_matrix())


class TestBiseparableSanity:
    def test_bell_pair_times_qubit_stays_classical(self):
        gen = rng(502)
        for placement in ("AB", "AC", "BC"):
            for _ in range(3):
                rho = pure_to_density(biseparable_state(gen, placement))
                result = maximize(rho, OptimizerConfig(starts=6, seed=8))
                assert result.best_value <= 4.0 + 1e-6


LABELS = json.loads((Path(__file__).parent / "fixtures" / "bound_labels.json").read_text(encoding="utf-8"))


def label_population():
    """The fixture's states."""
    population = LABELS["population"]
    return states_above_four(population["rng_seed"], population["states"])


def assert_same_report(report, other):
    assert report.classification == other.classification
    assert report.optimizer_value == other.optimizer_value
    assert (report.witness is None) == (other.witness is None)
    if report.witness is not None:
        assert np.array_equal(report.witness.as_matrix(), other.witness.as_matrix())


def w_with_white_noise(gap):
    """W mixed with white noise so that its maximum |<S>| lies gap above 4."""
    p = (4.0 + gap) / W_STATE_MAXIMUM
    return p * w_density() + (1.0 - p) * np.eye(8) / 8.0


class TestLambdaIteration:
    """quantum_bound(certify=True) decides step 3 with the seed-free Lambda
    iteration. Its labels are those of the see-saw run to convergence, which
    tests/fixtures/bound_labels.json records for three seeds."""

    def test_labels_match_the_seesaw_run_to_convergence(self):
        population = LABELS["population"]
        for rho, labels in zip(label_population(), LABELS["classifications"], strict=True):
            reports = [
                quantum_bound(rho, OptimizerConfig(starts=population["starts"], seed=seed), certify=True)
                for seed in population["optimizer_seeds"]
            ]
            for report, label in zip(reports, labels, strict=True):
                assert report.classification == label
                assert_same_report(report, reports[0])
            if labels[0] == CERTIFIED_VIOLATION:
                assert abs(reference_svetlichny_value(rho, reports[0].witness)) > WITNESS_FLOOR
            else:
                assert reports[0].witness is None
                assert reports[0].optimizer_value <= WITNESS_FLOOR

    @pytest.mark.parametrize(
        "make_state",
        [w_density, mixed_biseparable, lambda: random_rank3(rng(507)), lambda: label_population()[1]],
        ids=["w", "mixed_biseparable", "rank3-507", "labels-1"],
    )
    def test_report_does_not_depend_on_the_config(self, make_state):
        rho = make_state()
        reports = [quantum_bound(rho, OptimizerConfig(starts=1 + s, seed=s), certify=True) for s in range(8)]
        assert reports[0].certificate is None
        for report in reports[1:]:
            assert_same_report(report, reports[0])
        assert_same_report(quantum_bound(rho, certify=True), reports[0])

    @pytest.mark.parametrize("gap", [2e-7, 2e-8, 5e-9])
    def test_label_near_the_boundary(self, monkeypatch, gap):
        # The maximum lies only gap above 4, and the witness must exceed 4 + 1e-9.
        # W has no certificate, so the iteration decides, with no see-saw.
        rho = w_with_white_noise(gap)
        calls = count_maximize(monkeypatch)
        report = quantum_bound(rho, CFG, certify=True)
        assert calls == []
        assert report.certificate is None
        assert report.classification == CERTIFIED_VIOLATION
        # The witness lies within 1e-11 of the maximum.
        assert abs(reference_svetlichny_value(rho, report.witness)) == pytest.approx(4.0 + gap, abs=1e-11)
        assert report.optimizer_value == pytest.approx(4.0 + gap, abs=1e-11)

    def test_values_never_fall(self, monkeypatch):
        # Each step's per-start values, read by capping the steps at 1, 2, ...:
        # an alternating maximization, so none falls beyond rounding.
        for rho in (w_density(), mixed_biseparable(), random_rank3(rng(508)), label_population()[0]):
            state = analyze(rho)
            previous = None
            for steps in range(1, 16):
                monkeypatch.setattr(svetbound.bounds, "LAMBDA_MAX_STEPS", steps)
                values = svetbound.bounds._lambda_iterate(state)[0]
                assert values.shape == (5,)
                assert np.all(values <= state.spectrum.lambda1 + 1e-12)
                if previous is not None:
                    assert np.all(values >= previous - 1e-14)
                previous = values

    def test_search_goes_on_while_another_start_climbs(self, monkeypatch):
        # Here the leading start settles while another one still climbs past it.
        state = analyze(states_above_four(2, 7)[6])

        def best(others_tol):
            with monkeypatch.context() as patched:
                patched.setattr(svetbound.bounds, "LAMBDA_OTHERS_TOL", others_tol)
                return svetbound.bounds._lambda_iterate(state)[0].max()

        every_start = best(svetbound.bounds.LAMBDA_TOL)
        assert best(np.inf) < every_start - 1e-5
        assert best(svetbound.bounds.LAMBDA_OTHERS_TOL) == pytest.approx(every_start, abs=1e-11)

    def test_steps_run_until_the_values_settle(self, monkeypatch):
        # W near the boundary needs more than one step to reach a witness above
        # 4 + 1e-9, and the leader's tight tolerance to come within 1e-11 of
        # its maximum.
        gap = 5e-9
        rho = w_with_white_noise(gap)
        with monkeypatch.context() as patched:
            patched.setattr(svetbound.bounds, "LAMBDA_MAX_STEPS", 1)
            assert quantum_bound(rho, certify=True).classification == INCONCLUSIVE
        with monkeypatch.context() as patched:
            patched.setattr(svetbound.bounds, "LAMBDA_TOL", 1e-3)
            assert quantum_bound(rho, certify=True).optimizer_value < 4.0 + gap - 1e-11
        report = quantum_bound(rho, certify=True)
        assert report.classification == CERTIFIED_VIOLATION
        assert report.optimizer_value == pytest.approx(4.0 + gap, abs=1e-11)
