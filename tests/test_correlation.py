import numpy as np
import pytest

from svetbound import (
    FamilySpec,
    GHZ_WHITE,
    GhzClassParams,
    correlation_tensor,
    kron3,
    pauli,
    pure_to_density,
    realize,
    singular_spectrum,
    unfold,
)

from svetbound.correlation import _tensors

from support import random_density, random_qubit_unitary, rng


GHZ = pure_to_density(
    np.array([1 / np.sqrt(2), 0, 0, 0, 0, 0, 0, 1 / np.sqrt(2)], dtype=complex)
)


class TestCorrelationTensor:
    def test_maximally_mixed_is_zero(self):
        assert np.max(np.abs(correlation_tensor(np.eye(8) / 8.0))) < 1e-15

    def test_product_basis_state(self):
        rho = np.zeros((8, 8), dtype=complex)
        rho[0, 0] = 1.0
        t = correlation_tensor(rho)
        expected = np.zeros((3, 3, 3))
        expected[2, 2, 2] = 1.0
        assert np.allclose(t, expected, atol=1e-15)

    def test_ghz_nonzeros(self):
        t = correlation_tensor(GHZ)
        expected = np.zeros((3, 3, 3))
        expected[0, 0, 0] = 1.0
        expected[0, 1, 1] = expected[1, 0, 1] = expected[1, 1, 0] = -1.0
        assert np.allclose(t, expected, atol=1e-12)

    def test_entries_bounded(self):
        gen = rng(201)
        for _ in range(200):
            t = correlation_tensor(random_density(gen))
            assert np.max(np.abs(t)) <= 1.0 + 1e-9

    def test_unfolding_frobenius_bounded(self):
        gen = rng(202)
        for _ in range(100):
            m = unfold(correlation_tensor(random_density(gen)))
            assert np.linalg.norm(m) <= np.sqrt(27.0) + 1e-9


class TestStackedTensors:
    def test_members_match_contracting_each_alone(self):
        gen = rng(203)
        states = [random_density(gen) for _ in range(30)]
        hermitian = np.stack([(rho + rho.conj().T) / 2.0 for rho in states])
        for rho, tensor in zip(states, _tensors(hermitian)):
            assert tensor.tobytes() == correlation_tensor(rho).tobytes()

    def test_imaginary_residue_names_its_stack_member(self):
        # Unvalidated, an anti-Hermitian residue of 1e-8 at (0, 1) leaves an
        # imaginary part of 1e-8 in the correlation entries.
        stack = np.stack([np.eye(8, dtype=complex) / 8.0] * 3)
        stack[1, 0, 1] = 1e-8j
        with pytest.raises(ValueError, match=r"correlation entries of stack member 1 carry imaginary residue"):
            _tensors(stack)
        with pytest.raises(ValueError, match=r"^correlation entries carry imaginary residue 1\.000e-08$"):
            _tensors(stack[1:2])


class TestUnfold:
    def test_ghz_matches_displayed_matrix(self):
        m = unfold(correlation_tensor(GHZ))
        expected = np.zeros((3, 9))
        expected[0, 0] = 1.0
        expected[0, 4] = -1.0
        expected[1, 1] = -1.0
        expected[1, 3] = -1.0
        assert np.allclose(m, expected, atol=1e-12)

    def test_zero_tensor(self):
        assert np.array_equal(unfold(np.zeros((3, 3, 3))), np.zeros((3, 9)))

    def test_fold_inverts_unfold(self):
        # Folding back (rows on B, columns (A, C) with A major) recovers every entry.
        gen = rng(203)
        for _ in range(50):
            t = gen.standard_normal((3, 3, 3))
            assert np.array_equal(unfold(t).reshape(3, 3, 3).transpose(1, 0, 2), t)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            unfold(np.zeros((3, 3)))
        with pytest.raises(ValueError):
            unfold(np.zeros((3, 9)))


class TestSingularSpectrum:
    def test_ghz_values(self):
        spec = singular_spectrum(unfold(correlation_tensor(GHZ)))
        assert spec.lambda1 == pytest.approx(np.sqrt(2.0), abs=1e-12)
        assert spec.lambda2 == pytest.approx(np.sqrt(2.0), abs=1e-12)
        assert spec.lambda3 == pytest.approx(0.0, abs=1e-12)
        assert spec.degenerate_top
        assert spec.right9_2 is not None

    def test_zero_matrix(self):
        spec = singular_spectrum(np.zeros((3, 9)))
        assert spec.values == (0.0, 0.0, 0.0)
        assert spec.degenerate_top
        # The SVD's right vectors stay orthonormal where the singular values vanish.
        assert np.linalg.norm(spec.right9_1) == pytest.approx(1.0, abs=1e-12)
        assert abs(spec.right9_1 @ spec.right9_2) < 1e-12

    def test_white_noise_family_value(self):
        rho = realize(FamilySpec(GHZ_WHITE, 1.0, GhzClassParams(np.pi / 6, np.pi / 4)))
        spec = singular_spectrum(unfold(correlation_tensor(rho)))
        assert spec.lambda1 == pytest.approx(1.0606601717798212, abs=1e-9)

    def test_descending_and_nonnegative(self):
        gen = rng(204)
        for _ in range(100):
            spec = singular_spectrum(unfold(correlation_tensor(random_density(gen))))
            assert spec.lambda1 >= spec.lambda2 >= spec.lambda3 >= 0.0

    def test_matches_lapack_svd(self):
        gen = rng(205)
        for _ in range(100):
            m = gen.standard_normal((3, 9))
            spec = singular_spectrum(m)
            reference = np.linalg.svd(m, compute_uv=False)
            assert np.allclose(spec.values, reference, atol=1e-10)

    def test_transpose_invariance(self):
        gen = rng(206)
        for _ in range(100):
            m = gen.standard_normal((3, 9))
            ours = singular_spectrum(m).values
            transposed = np.linalg.svd(m.T, compute_uv=False)
            assert np.allclose(ours, transposed, atol=1e-10)

    def test_right_vectors_back_substitute(self):
        gen = rng(207)
        for _ in range(50):
            m = gen.standard_normal((3, 9))
            spec = singular_spectrum(m)
            r1 = spec.right9_1
            assert np.linalg.norm(r1) == pytest.approx(1.0, abs=1e-10)
            assert np.linalg.norm(m @ r1) == pytest.approx(spec.lambda1, abs=1e-9)
            assert np.allclose(m.T @ (m @ r1), spec.lambda1**2 * r1, atol=1e-9)
            if not spec.degenerate_top:
                assert spec.right9_2 is None

    def test_product_states_are_rank_one_to_rounding(self):
        # A product state's unfolding is r_B (r_A (x) r_C)^T. Forming M M^T would
        # square its condition number and leave lambda2 near 1e-8.
        gen = rng(209)
        for _ in range(50):
            rs = [v / np.linalg.norm(v) for v in gen.standard_normal((3, 3))]
            rho = kron3(*[(np.eye(2) + sum(r[k] * pauli(k + 1) for k in range(3))) / 2 for r in rs])
            spec = singular_spectrum(unfold(correlation_tensor(rho)))
            assert spec.lambda2 <= 1e-12 and spec.lambda3 <= 1e-12
            assert spec.right9_2 is None
            assert abs(np.linalg.norm(spec.right9_1) - 1.0) <= 1e-12
            assert abs(abs(spec.right9_1 @ np.kron(rs[0], rs[2])) - 1.0) <= 1e-12

    def test_top_pair_orthonormal_when_degenerate(self):
        spec = singular_spectrum(unfold(correlation_tensor(GHZ)))
        r1, r2 = spec.right9_1, spec.right9_2
        assert np.linalg.norm(r1) == pytest.approx(1.0, abs=1e-10)
        assert np.linalg.norm(r2) == pytest.approx(1.0, abs=1e-10)
        assert abs(r1 @ r2) < 1e-10


class TestBilinearSingularBound:
    def test_bilinear_bound_and_equality(self):
        # |x^T A y| <= sigma_1 |x| |y| with equality at the top singular pair.
        gen = rng(208)
        for _ in range(1000):
            rows = int(gen.integers(1, 10))
            cols = int(gen.integers(1, 10))
            a = gen.standard_normal((rows, cols))
            x = gen.standard_normal(rows)
            y = gen.standard_normal(cols)
            u, s, vt = np.linalg.svd(a)
            top = s[0]
            lhs = abs(x @ a @ y)
            assert lhs <= top * np.linalg.norm(x) * np.linalg.norm(y) + 1e-10
            attained = abs(u[:, 0] @ a @ vt[0])
            assert attained == pytest.approx(top, abs=1e-8)


class TestLocalRotate:
    def test_spectrum_invariant(self):
        # A local unitary rotates its party's index of the tensor, which leaves
        # the singular values of the unfolding unchanged.
        gen = rng(210)
        for _ in range(100):
            rho = random_density(gen)
            u = kron3(*(random_qubit_unitary(gen) for _ in range(3)))
            before = singular_spectrum(unfold(correlation_tensor(rho))).values
            after = singular_spectrum(unfold(correlation_tensor(u @ rho @ u.conj().T))).values
            assert np.allclose(before, after, atol=1e-9)
