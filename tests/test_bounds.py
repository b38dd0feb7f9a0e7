import numpy as np
import pytest

import svetbound.bounds
from svetbound import (
    CERTIFIED_NO_VIOLATION,
    CERTIFIED_VIOLATION,
    INCONCLUSIVE,
    FamilySpec,
    GHZ_COLOR,
    GHZ_WHITE,
    GhzClassParams,
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

from support import GHZ_OPTIMUM, biseparable_state, random_density, rng, w_density

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
    """|000>: lambda1 = 1 is simple, so q_bound = 4 and the certificate needs the see-saw."""
    rho = np.zeros((8, 8), dtype=complex)
    rho[0, 0] = 1.0
    return rho


class TestOneSeesawPerRequest:
    @pytest.mark.parametrize(
        "make_state, classification",
        [
            (lambda: pure_to_density(ghz_state()), CERTIFIED_VIOLATION),
            (w_density, CERTIFIED_VIOLATION),  # simple top value: certificate needs the see-saw
            (mixed_biseparable, INCONCLUSIVE),
            (product_state, CERTIFIED_NO_VIOLATION),
        ],
    )
    def test_certify_runs_maximize_once(self, monkeypatch, make_state, classification):
        calls = []

        def counting(rho, config=None):
            calls.append(config)
            return maximize(rho, config)

        monkeypatch.setattr(svetbound.bounds, "maximize", counting)
        rho = make_state()
        report = quantum_bound(rho, CFG, certify=True)
        assert report.classification == classification
        assert len(calls) == 1
        # The shared see-saw result gives the same certificate as the public route.
        alone = tightness_certificate(rho, config=CFG)
        assert (report.certificate is None) == (alone is None)
        if alone is not None:
            assert report.certificate.achieved == alone.achieved
            assert np.array_equal(report.certificate.settings.as_matrix(), alone.settings.as_matrix())


    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0])
    def test_bad_certificate_tol_rejected_before_seesaw(self, monkeypatch, tol):
        calls = []
        monkeypatch.setattr(svetbound.bounds, "maximize", lambda *args: calls.append(args))
        with pytest.raises(ValueError, match="tol"):
            quantum_bound(pure_to_density(ghz_state()), CFG, certify=True, certificate_tol=tol)
        assert calls == []


class TestTightnessCertificate:
    def test_white_noise_p08(self):
        rho = realize(FamilySpec(GHZ_WHITE, 0.8, GhzClassParams(np.pi / 4, np.pi / 2)))
        cert = tightness_certificate(rho, config=CFG)
        assert cert is not None
        assert abs(cert.achieved) == pytest.approx(4.525483399593905, abs=1e-6)

    def test_color_noise_p1(self):
        rho = realize(FamilySpec(GHZ_COLOR, 1.0))
        cert = tightness_certificate(rho, config=CFG)
        assert cert is not None
        assert abs(cert.achieved) == pytest.approx(GHZ_OPTIMUM, abs=1e-6)

    def test_certificate_sound(self):
        for spec in [
            FamilySpec(GHZ_WHITE, 0.8, GhzClassParams(np.pi / 4, np.pi / 2)),
            FamilySpec(GHZ_COLOR, 0.9),
            FamilySpec(GHZ_WHITE, 1.0, GhzClassParams(np.pi / 6, np.pi / 3)),
        ]:
            rho = realize(spec)
            cert = tightness_certificate(rho, config=CFG)
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
        cert = tightness_certificate(rho, config=OptimizerConfig(starts=6, seed=2))
        if cert is None:
            best = maximize(rho, OptimizerConfig(starts=6, seed=2)).best_value
            assert best < 4.0 * spec.lambda1 - 1e-6
        else:
            assert abs(cert.achieved) >= 4.0 * spec.lambda1 - 1e-6

    def test_rejects_bad_tol(self):
        with pytest.raises(ValueError):
            tightness_certificate(np.eye(8) / 8.0, tol=0.0)

    @pytest.mark.parametrize("tol", [float("nan"), float("inf")])
    def test_rejects_non_finite_tol(self, tol):
        with pytest.raises(ValueError):
            tightness_certificate(np.eye(8) / 8.0, tol=tol)
        with pytest.raises(ValueError):
            quantum_bound(pure_to_density(ghz_state()), CFG, certify=True, certificate_tol=tol)

    def test_zero_bound_state(self):
        cert = tightness_certificate(np.eye(8) / 8.0, config=OptimizerConfig(starts=3, seed=0))
        assert cert is not None
        assert cert.achieved == pytest.approx(0.0, abs=1e-12)

    def test_nondegenerate_saturable_state(self):
        # Pure product |000>: lambda1 = 1 is simple yet the bound 4 is attained.
        rho = np.zeros((8, 8), dtype=complex)
        rho[0, 0] = 1.0
        cert = tightness_certificate(rho, config=OptimizerConfig(starts=6, seed=1))
        assert cert is not None
        assert abs(cert.achieved) == pytest.approx(4.0, abs=1e-6)


def record_subspace_calls(monkeypatch):
    """Replace bounds._subspace_certificate by a wrapper; returns the list of its results."""
    results = []
    real = svetbound.bounds._subspace_certificate

    def recording(*args, **kwargs):
        results.append(real(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(svetbound.bounds, "_subspace_certificate", recording)
    return results


class TestCertificateRoutes:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_subspace_fallback_when_witness_misses(self, monkeypatch, seed):
        # Degenerate top value, 4*lambda1 = 4.5255; one start and one sweep
        # leave the witness at 3.7-4.5, below the target.
        rho = realize(FamilySpec(GHZ_WHITE, 0.8, GhzClassParams(np.pi / 4, np.pi / 2)))
        cfg = OptimizerConfig(starts=1, max_iterations=1, seed=seed)
        lam1 = singular_spectrum(unfold(correlation_tensor(rho))).lambda1
        assert maximize(rho, cfg).best_value < 4.0 * lam1 - 1e-6
        subspace = record_subspace_calls(monkeypatch)
        cert = tightness_certificate(rho, config=cfg)
        assert len(subspace) == 1 and subspace[0] is not None
        assert cert is not None
        assert np.array_equal(cert.settings.as_matrix(), subspace[0].as_matrix())
        assert abs(cert.achieved) >= 4.0 * lam1 - 1e-6
        assert svetlichny_value(rho, cert.settings) == pytest.approx(cert.achieved, abs=1e-12)

    @pytest.mark.parametrize(
        "make_state",
        [lambda: pure_to_density(ghz_state()), lambda: realize(FamilySpec(GHZ_COLOR, 1.0))],
    )
    def test_witness_certifies_without_subspace_solve(self, monkeypatch, make_state):
        rho = make_state()
        subspace = record_subspace_calls(monkeypatch)
        calls = []

        def counting(rho, config=None):
            calls.append(config)
            return maximize(rho, config)

        monkeypatch.setattr(svetbound.bounds, "maximize", counting)
        report = quantum_bound(rho, CFG, certify=True)
        assert report.certificate is not None
        calls.clear()
        cert = tightness_certificate(rho, config=CFG)
        assert cert is not None
        assert len(calls) == 1
        assert subspace == []


class TestBiseparableSanity:
    def test_bell_pair_times_qubit_stays_classical(self):
        gen = rng(502)
        for placement in ("AB", "AC", "BC"):
            for _ in range(3):
                rho = pure_to_density(biseparable_state(gen, placement))
                result = maximize(rho, OptimizerConfig(starts=6, seed=8))
                assert result.best_value <= 4.0 + 1e-6
