import numpy as np
import pytest

from svetbound import (
    GHZ_COLOR,
    GHZ_WHITE,
    FamilySpec,
    GhzClassParams,
    StateValidationError,
    expectation,
    kron3,
    pauli,
    pure_state,
    pure_to_density,
    realize,
    unit_vector,
    validate_density,
)
from svetbound.qcore import NOT_FINITE, NOT_HERMITIAN, NOT_POSITIVE_SEMIDEFINITE, TRACE_NOT_ONE, _validate_stack

from support import observable, random_density, random_pure, rng


def ghz_vector():
    psi = np.zeros(8, dtype=complex)
    psi[0] = psi[7] = 1.0 / np.sqrt(2.0)
    return psi


class TestPauli:
    def test_sigma_1(self):
        assert np.array_equal(pauli(1), np.array([[0, 1], [1, 0]], dtype=complex))

    def test_sigma_2(self):
        assert np.array_equal(pauli(2), np.array([[0, -1j], [1j, 0]], dtype=complex))

    def test_sigma_3(self):
        assert np.array_equal(pauli(3), np.array([[1, 0], [0, -1]], dtype=complex))

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_involution_traceless_hermitian(self, k):
        sigma = pauli(k)
        assert np.allclose(sigma @ sigma, np.eye(2), atol=1e-15)
        assert abs(np.trace(sigma)) < 1e-15
        assert np.allclose(sigma, sigma.conj().T, atol=1e-15)

    @pytest.mark.parametrize("k", [0, 4, -1])
    def test_index_out_of_range(self, k):
        with pytest.raises(ValueError):
            pauli(k)


class TestObservable:
    """The reference observable g . sigma that build_operator is compared against."""

    def test_z_axis(self):
        assert np.allclose(observable([0, 0, 1]), np.diag([1.0, -1.0]), atol=1e-15)

    def test_x_axis(self):
        assert np.allclose(observable([1, 0, 0]), pauli(1), atol=1e-15)

    def test_rejects_non_unit(self):
        with pytest.raises(ValueError):
            observable([1.0, 1.0, 0.0])

    def test_squares_to_identity_random(self):
        gen = rng(101)
        for _ in range(1000):
            g = gen.standard_normal(3)
            g /= np.linalg.norm(g)
            obs = observable(g)
            assert np.max(np.abs(obs @ obs - np.eye(2))) <= 1e-12

    def test_eigenvalues_plus_minus_one(self):
        gen = rng(102)
        for _ in range(50):
            g = gen.standard_normal(3)
            g /= np.linalg.norm(g)
            eigs = np.linalg.eigvalsh(observable(g))
            assert np.allclose(sorted(eigs), [-1.0, 1.0], atol=1e-12)


class TestKron3:
    def test_identity(self):
        eye = np.eye(2)
        assert np.array_equal(kron3(eye, eye, eye), np.eye(8))

    def test_index_convention(self):
        # sigma_3 on party A acts on the most significant bit.
        out = kron3(pauli(3), np.eye(2), np.eye(2))
        assert np.allclose(out, np.diag([1, 1, 1, 1, -1, -1, -1, -1]), atol=1e-15)

    def test_trace_multiplicative(self):
        gen = rng(103)
        for _ in range(25):
            mats = gen.standard_normal((3, 2, 2)) + 1j * gen.standard_normal((3, 2, 2))
            lhs = np.trace(kron3(*mats))
            rhs = np.trace(mats[0]) * np.trace(mats[1]) * np.trace(mats[2])
            assert abs(lhs - rhs) < 1e-12

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            kron3(np.eye(2), np.eye(3), np.eye(2))


class TestExpectation:
    def test_maximally_mixed_traceless(self):
        op = kron3(pauli(1), pauli(2), pauli(3))
        assert expectation(np.eye(8) / 8.0, op) == pytest.approx(0.0, abs=1e-15)

    def test_computational_basis(self):
        rho = np.zeros((8, 8), dtype=complex)
        rho[0, 0] = 1.0
        assert expectation(rho, kron3(pauli(3), pauli(3), pauli(3))) == pytest.approx(1.0)

    def test_ghz_zzz_vanishes(self):
        # Oracle: direct trace of the projector against the diagonal operator.
        rho = pure_to_density(ghz_vector())
        op = kron3(pauli(3), pauli(3), pauli(3))
        oracle = float(np.trace(op @ rho).real)
        assert oracle == pytest.approx(0.0, abs=1e-15)
        assert expectation(rho, op) == pytest.approx(oracle, abs=1e-12)

    def test_rejects_non_hermitian(self):
        op = np.zeros((8, 8), dtype=complex)
        op[0, 1] = 1.0
        with pytest.raises(ValueError, match="Hermitian"):
            expectation(np.eye(8) / 8.0, op)

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError):
            expectation(np.eye(8) / 8.0, np.eye(4))

    def test_linear_in_state(self):
        gen = rng(104)
        op = kron3(pauli(1), pauli(1), pauli(3))
        for _ in range(100):
            rho1 = np.outer(random_pure(gen), random_pure(gen).conj())
            rho1 = (rho1 + rho1.conj().T) / 2
            rho1 += np.eye(8) * (1 - np.trace(rho1).real) / 8
            rho2 = np.eye(8) / 8.0
            alpha = float(gen.random())
            mixed = alpha * rho1 + (1 - alpha) * rho2
            combined = alpha * expectation(rho1, op) + (1 - alpha) * expectation(rho2, op)
            assert expectation(mixed, op) == pytest.approx(combined, abs=1e-10)


class TestValidateDensity:
    def test_accepts_maximally_mixed(self):
        out = validate_density(np.eye(8) / 8.0)
        assert out.shape == (8, 8)
        assert not out.flags.writeable

    def test_trace_not_one(self):
        bad = np.zeros((8, 8), dtype=complex)
        bad[0, 0] = 2.0
        with pytest.raises(StateValidationError) as err:
            validate_density(bad)
        kinds = {v.kind: v.residual for v in err.value.violations}
        assert kinds == {TRACE_NOT_ONE: pytest.approx(1.0)}

    def test_not_positive_semidefinite(self):
        bad = np.zeros((8, 8), dtype=complex)
        bad[0, 0] = 1.5
        bad[1, 1] = -0.5
        with pytest.raises(StateValidationError) as err:
            validate_density(bad)
        kinds = {v.kind: v.residual for v in err.value.violations}
        assert kinds == {NOT_POSITIVE_SEMIDEFINITE: pytest.approx(0.5)}

    def test_not_hermitian(self):
        bad = np.eye(8, dtype=complex) / 8.0
        bad[0, 1] = 0.25
        with pytest.raises(StateValidationError) as err:
            validate_density(bad)
        assert any(v.kind == NOT_HERMITIAN for v in err.value.violations)

    def test_lists_every_violation(self):
        bad = np.zeros((8, 8), dtype=complex)
        bad[0, 0] = 3.0
        bad[1, 1] = -0.5
        bad[0, 2] = 1.0
        with pytest.raises(StateValidationError) as err:
            validate_density(bad)
        kinds = {v.kind for v in err.value.violations}
        assert kinds == {NOT_HERMITIAN, TRACE_NOT_ONE, NOT_POSITIVE_SEMIDEFINITE}

    def test_rejects_non_finite(self):
        bad = np.eye(8, dtype=complex) / 8.0
        bad[3, 3] = np.nan
        with pytest.raises(StateValidationError):
            validate_density(bad)

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            validate_density(np.eye(4) / 4.0)

    def test_exactly_hermitian_input_comes_back_bit_for_bit(self):
        gen = rng(150)
        states = [np.eye(8) / 8.0, pure_to_density(ghz_vector())]
        states += [realize(FamilySpec(GHZ_WHITE, 0.37, GhzClassParams(0.2, 1.1)))]
        states += [realize(FamilySpec(GHZ_COLOR, 0.5))]
        # Sums of np.outer products keep an imaginary diagonal of ~1e-19, so the
        # random mixtures are symmetrized first, as the benchmark's states are.
        states += [(x + x.conj().T) / 2.0 for x in (random_density(gen) for _ in range(20))]
        for rho in states:
            rho = np.asarray(rho, dtype=complex)
            assert np.array_equal(rho, rho.conj().T)
            assert validate_density(rho).tobytes() == rho.tobytes()

    def test_returns_the_hermitian_part(self):
        # An anti-Hermitian residue under the tolerance passes and is dropped.
        rho = np.eye(8, dtype=complex) / 8.0
        rho[0, 1] = 0.9e-9j
        out = validate_density(rho)
        assert np.array_equal(out, (rho + rho.conj().T) / 2.0)
        assert out[0, 1] == 0.45e-9j
        assert np.array_equal(out, out.conj().T)
        assert not out.flags.writeable


def _off_hermitian(dev):
    # I/8 with one off-diagonal entry dev: deviates from Hermitian by exactly dev.
    rho = np.eye(8, dtype=complex) / 8.0
    rho[0, 1] = dev
    return rho


def _off_trace(dev):
    # (1 + dev) I/8: trace 1 + dev.
    return np.eye(8, dtype=complex) * ((1.0 + dev) / 8.0)


def _below_zero(dev):
    # Diagonal, unit trace, lowest eigenvalue -dev.
    return np.diag([-dev] + [(1.0 + dev) / 7.0] * 7).astype(complex)


# Each invariant's matrix just inside its 1e-9 tolerance and just outside it.
EDGES = [
    pytest.param(_off_hermitian, NOT_HERMITIAN, id="hermitian"),
    pytest.param(_off_trace, TRACE_NOT_ONE, id="trace"),
    pytest.param(_below_zero, NOT_POSITIVE_SEMIDEFINITE, id="psd"),
]
INSIDE, OUTSIDE = 0.99e-9, 1.01e-9


def _stack_around(rho):
    # The matrix as member 2 of a stack whose other members are valid states.
    return np.stack([np.eye(8) / 8.0, pure_to_density(ghz_vector()), rho, np.eye(8) / 8.0]).astype(complex)


@pytest.mark.parametrize("make, kind", EDGES)
class TestToleranceEdges:
    def test_inside_is_accepted(self, make, kind):
        rho = make(INSIDE)
        assert np.array_equal(validate_density(rho), (rho + rho.conj().T) / 2.0)
        assert np.array_equal(_validate_stack(_stack_around(rho))[2], validate_density(rho))

    def test_outside_is_rejected_with_its_residual(self, make, kind):
        with pytest.raises(StateValidationError) as err:
            validate_density(make(OUTSIDE))
        assert [v.kind for v in err.value.violations] == [kind]
        assert err.value.violations[0].residual == pytest.approx(OUTSIDE, rel=1e-6)
        assert err.value.member is None
        assert str(err.value) == f"invalid density matrix: {kind} (residual {err.value.violations[0].residual:.6e})"

    def test_outside_names_its_stack_member(self, make, kind):
        with pytest.raises(StateValidationError) as err:
            _validate_stack(_stack_around(make(OUTSIDE)))
        assert [v.kind for v in err.value.violations] == [kind]
        assert err.value.violations[0].residual == pytest.approx(OUTSIDE, rel=1e-6)
        assert err.value.member == 2
        assert str(err.value).startswith("invalid density matrix (stack member 2): ")


class TestValidateStack:
    def test_members_match_validating_each_alone(self):
        gen = rng(151)
        stack = np.stack([random_density(gen) for _ in range(40)])
        out = _validate_stack(stack)
        assert not out.flags.writeable
        for rho, hermitian in zip(stack, out):
            assert hermitian.tobytes() == validate_density(rho).tobytes()

    def test_first_failing_member_is_named(self):
        stack = _stack_around(_off_trace(1e-3))
        stack[3] = _below_zero(1e-3)
        with pytest.raises(StateValidationError) as err:
            _validate_stack(stack)
        assert err.value.member == 2
        assert [v.kind for v in err.value.violations] == [TRACE_NOT_ONE]

    def test_non_finite_member_after_a_failing_one(self):
        stack = _stack_around(_off_trace(1e-3))
        stack[3, 4, 4] = np.nan
        with pytest.raises(StateValidationError) as err:
            _validate_stack(stack)
        assert (err.value.member, [v.kind for v in err.value.violations]) == (2, [TRACE_NOT_ONE])
        stack[2] = np.eye(8) / 8.0
        with pytest.raises(StateValidationError) as err:
            _validate_stack(stack)
        assert (err.value.member, [v.kind for v in err.value.violations]) == (3, [NOT_FINITE])


class TestUnitToleranceEdges:
    """unit_vector's norm and pure_state's squared norm must be 1 within 1e-12:
    a deviation of 1e-13 is accepted and one of 1e-9 rejected, either way."""

    @pytest.mark.parametrize("dev", [1e-13, -1e-13])
    def test_inside_is_accepted(self, dev):
        assert unit_vector([0.0, 1.0 + dev, 0.0])[1] == 1.0 + dev
        psi = np.zeros(8, dtype=complex)
        psi[0] = np.sqrt(1.0 + dev)
        assert np.array_equal(pure_state(psi), psi)

    @pytest.mark.parametrize("dev", [1e-9, -1e-9])
    def test_outside_is_rejected(self, dev):
        with pytest.raises(ValueError, match=r"vector norm .* is not 1 within 1e-12"):
            unit_vector([0.0, 1.0 + dev, 0.0])
        psi = np.zeros(8, dtype=complex)
        psi[0] = np.sqrt(1.0 + dev)
        with pytest.raises(ValueError, match=r"squared norm .* is not 1 within 1e-12"):
            pure_state(psi)


class TestPureToDensity:
    def test_basis_state(self):
        psi = np.zeros(8, dtype=complex)
        psi[0] = 1.0
        expected = np.zeros((8, 8))
        expected[0, 0] = 1.0
        assert np.allclose(pure_to_density(psi), expected, atol=1e-15)

    def test_ghz_corners(self):
        rho = pure_to_density(ghz_vector())
        for i, j in [(0, 0), (0, 7), (7, 0), (7, 7)]:
            assert rho[i, j] == pytest.approx(0.5)
        assert abs(rho[1, 1]) < 1e-15

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            pure_to_density(np.ones(8))

    def test_idempotent_and_valid(self):
        gen = rng(105)
        for _ in range(100):
            rho = pure_to_density(random_pure(gen))
            assert np.max(np.abs(rho @ rho - rho)) <= 1e-10
            validate_density(rho)


def test_unit_vector_roundtrip():
    vec = unit_vector([0.0, 1.0, 0.0])
    assert not vec.flags.writeable
    with pytest.raises(ValueError):
        unit_vector([0.0, 0.5, 0.0])
