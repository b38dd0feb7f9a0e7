import numpy as np
import pytest

from svetbound import (
    MeasurementSettings,
    build_operator,
    correlation_tensor,
    kron3,
    svetlichny_value,
    unfold,
)

from support import bilinear_value, observable, random_density, random_settings, rng


class TestMeasurementSettings:
    def test_rejects_non_unit(self):
        good = [1.0, 0.0, 0.0]
        with pytest.raises(ValueError):
            MeasurementSettings(good, good, good, good, good, [0.5, 0.0, 0.0])

    def test_vectors_read_only(self):
        s = MeasurementSettings(*[np.array([1.0, 0.0, 0.0])] * 6)
        assert not s.a.flags.writeable

    def test_matrix_roundtrip(self):
        gen = rng(300)
        s = random_settings(gen)
        again = MeasurementSettings.from_matrix(s.as_matrix())
        assert np.array_equal(again.as_matrix(), s.as_matrix())


class TestBuildOperator:
    def test_cancellation(self):
        x = [1.0, 0.0, 0.0]
        s = MeasurementSettings(x, x, x, x, x, x)
        assert np.max(np.abs(build_operator(s))) < 1e-14

    def test_matches_kronecker_sum(self):
        gen = rng(309)
        for _ in range(20):
            s = random_settings(gen)
            a, ap, b, bp, c, cp = (
                observable(v) for v in (s.a, s.a_prime, s.b, s.b_prime, s.c, s.c_prime)
            )
            expected = (
                kron3(a, b + bp, c) + kron3(a, b - bp, cp) + kron3(ap, b - bp, c) - kron3(ap, b + bp, cp)
            )
            assert np.max(np.abs(build_operator(s) - expected)) <= 1e-15

    def test_hermitian(self):
        gen = rng(301)
        for _ in range(50):
            op = build_operator(random_settings(gen))
            assert np.max(np.abs(op - op.conj().T)) <= 1e-12

    def test_swap_maps_to_family_member(self):
        # b <-> b' together with (c -> -c', c' -> c) equals the negated operator
        # of the relabeled settings (a -> a', a' -> a, c' -> -c').
        gen = rng(302)
        for _ in range(50):
            s = random_settings(gen)
            swapped = MeasurementSettings(
                s.a, s.a_prime, s.b_prime, s.b, -np.asarray(s.c_prime), s.c
            )
            relabeled = MeasurementSettings(
                s.a_prime, s.a, s.b, s.b_prime, s.c, -np.asarray(s.c_prime)
            )
            assert np.allclose(build_operator(swapped), -build_operator(relabeled), atol=1e-12)


class TestSvetlichnyValue:
    def test_maximally_mixed(self):
        gen = rng(303)
        for _ in range(10):
            assert svetlichny_value(np.eye(8) / 8.0, random_settings(gen)) == pytest.approx(
                0.0, abs=1e-12
            )

    def test_trace_vs_bilinear(self):
        gen = rng(304)
        for _ in range(1000):
            rho = random_density(gen)
            s = random_settings(gen)
            direct = svetlichny_value(rho, s)
            via_matrix = bilinear_value(unfold(correlation_tensor(rho)), s)
            assert abs(direct - via_matrix) <= 1e-10

    def test_full_relabel_flips_sign(self):
        # (a<->a', b<->b', c<->c') negates the mean value pointwise.
        gen = rng(305)
        for _ in range(100):
            rho = random_density(gen)
            s = random_settings(gen)
            flipped = MeasurementSettings(s.a_prime, s.a, s.b_prime, s.b, s.c_prime, s.c)
            assert svetlichny_value(rho, flipped) == pytest.approx(
                -svetlichny_value(rho, s), abs=1e-10
            )


class TestBilinearValue:
    def test_zero_matrix(self):
        gen = rng(306)
        for _ in range(10):
            assert bilinear_value(np.zeros((3, 9)), random_settings(gen)) == 0.0

    def test_vanishing_bracket_vectors(self):
        # b = b' kills one bracket; a(x)c = a'(x)c' kills the other.
        x = [1.0, 0.0, 0.0]
        z = [0.0, 0.0, 1.0]
        s = MeasurementSettings(x, x, z, z, x, x)
        gen = rng(307)
        m = gen.standard_normal((3, 9))
        assert bilinear_value(m, s) == pytest.approx(0.0, abs=1e-14)

    def test_rejects_bad_shape(self):
        gen = rng(308)
        with pytest.raises(ValueError):
            bilinear_value(np.zeros((9, 3)), random_settings(gen))

