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

from support import (
    GHZ_OPTIMUM,
    biseparable_state,
    random_density,
    random_pure,
    random_qubit_unitary,
    rng,
    w_density,
)

CFG = OptimizerConfig(starts=8, seed=1)


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

    def test_violation_needs_trace_checked_witness(self, monkeypatch):
        # Settings all along z give GHZ a trace value of 0, whatever the see-saw claims.
        z = np.array([0.0, 0.0, 1.0])
        settings = MeasurementSettings(z, z, z, z, z, z)
        rho = pure_to_density(ghz_state())
        assert svetlichny_value(rho, settings) < 4.0
        claimed = OptimizationResult(4.5, settings, 1, True, (4.5,))
        monkeypatch.setattr(svetbound.bounds, "maximize", lambda *args: claimed)
        report = quantum_bound(rho, CFG)
        assert report.classification == INCONCLUSIVE
        assert report.optimizer_value == 4.5

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


def product_state():
    """|000>: lambda1 = 1 is simple and q_bound = 4, so classification needs no see-saw;
    the top singular vector is rank 1 as a 3x3 matrix, so the bound is attained."""
    rho = np.zeros((8, 8), dtype=complex)
    rho[0, 0] = 1.0
    return rho


def count_maximize(monkeypatch):
    """Route svetbound.bounds.maximize through a counter; returns the list of its configs."""
    calls = []

    def counting(rho, config=None):
        calls.append(config)
        return maximize(rho, config)

    monkeypatch.setattr(svetbound.bounds, "maximize", counting)
    return calls


class TestOneSeesawPerRequest:
    @pytest.mark.parametrize(
        "make_state, classification",
        [
            (lambda: pure_to_density(ghz_state()), CERTIFIED_VIOLATION),
            (w_density, CERTIFIED_VIOLATION),
            (mixed_biseparable, INCONCLUSIVE),
            (product_state, CERTIFIED_NO_VIOLATION),
        ],
    )
    def test_certify_runs_maximize_once(self, monkeypatch, make_state, classification):
        calls = count_maximize(monkeypatch)
        rho = make_state()
        report = quantum_bound(rho, CFG, certify=True)
        assert report.classification == classification
        # The see-saw runs once to classify, and not at all when q_bound <= 4.
        assert len(calls) == (0 if classification == CERTIFIED_NO_VIOLATION else 1)
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
        # The see-saw runs once, to classify; the certificate itself runs none.
        rho = make_state()
        calls = count_maximize(monkeypatch)
        report = quantum_bound(rho, CFG, certify=True)
        assert report.certificate is not None
        assert len(calls) == 1
        calls.clear()
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
