"""Three-qubit operator primitives: Pauli matrices, tensor products, state validation.

Basis convention: computational basis |abc> ordered with party A as the most
significant bit, so index = 4a + 2b + c. Every function here is pure and every
returned array is read-only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

HERMITICITY_ATOL = 1e-9
TRACE_ATOL = 1e-9
EIGENVALUE_FLOOR = -1e-9
UNIT_ATOL = 1e-12
IMAG_RESIDUE_ATOL = 1e-9

_PAULI = (
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
)
for _m in _PAULI:
    _m.setflags(write=False)


def _readonly(arr: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(arr)
    if out is arr:
        out = arr.copy()
    out.setflags(write=False)
    return out


def pauli(k: int) -> np.ndarray:
    """Return the 2x2 Pauli matrix sigma_k, k in {1, 2, 3}."""
    if k not in (1, 2, 3):
        raise ValueError(f"Pauli index must be 1, 2 or 3, got {k!r}")
    return _PAULI[k - 1]


def unit_vector(v) -> np.ndarray:
    """Validate a real 3-vector of unit Euclidean norm; returns a read-only copy."""
    arr = np.asarray(v, dtype=float)
    if arr.shape != (3,):
        raise ValueError(f"expected a 3-vector, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("vector components must be finite")
    norm = float(np.linalg.norm(arr))
    if abs(norm - 1.0) > UNIT_ATOL:
        raise ValueError(f"vector norm {norm!r} is not 1 within {UNIT_ATOL}")
    return _readonly(arr)


def kron3(a, b, c) -> np.ndarray:
    """Kronecker product A (x) B (x) C of 2x2 factors, party A slowest-varying."""
    mats = []
    for m in (a, b, c):
        m = np.asarray(m, dtype=complex)
        if m.shape != (2, 2):
            raise ValueError(f"kron3 expects 2x2 factors, got shape {m.shape}")
        mats.append(m)
    return _readonly(np.kron(np.kron(mats[0], mats[1]), mats[2]))


def expectation(rho, op) -> float:
    """Real expectation value tr(op rho) for a Hermitian operator op.

    Raises if op deviates from Hermitian by more than 1e-9 or if the trace
    carries an imaginary residue of 1e-9 or more.
    """
    rho = np.asarray(rho, dtype=complex)
    op = np.asarray(op, dtype=complex)
    if op.shape != rho.shape or op.ndim != 2 or op.shape[0] != op.shape[1]:
        raise ValueError(f"operator shape {op.shape} does not match state shape {rho.shape}")
    dev = float(np.max(np.abs(op - op.conj().T)))
    if dev > HERMITICITY_ATOL:
        raise ValueError(f"operator deviates from Hermitian by {dev:.3e}")
    value = complex(np.einsum("ij,ji->", op, rho))
    if abs(value.imag) >= IMAG_RESIDUE_ATOL:
        raise ValueError(f"expectation value has imaginary residue {value.imag:.3e}")
    return float(value.real)


@dataclass(frozen=True)
class InvariantViolation:
    """One violated density-matrix invariant together with its measured residual."""

    kind: str
    residual: float


class StateValidationError(ValueError):
    """Raised when a matrix fails the density-matrix invariants.

    Carries every violated invariant, not just the first, so callers can report
    all residuals at once. When the matrix was one member of a stack validated
    together, member is its index in that stack and the message names it;
    otherwise member is None.
    """

    def __init__(self, violations, member: int | None = None):
        self.violations: tuple[InvariantViolation, ...] = tuple(violations)
        self.member = member
        where = "" if member is None else f" (stack member {member})"
        detail = "; ".join(f"{v.kind} (residual {v.residual:.6e})" for v in self.violations)
        super().__init__(f"invalid density matrix{where}: {detail}")


NOT_FINITE = "not_finite"
NOT_HERMITIAN = "not_hermitian"
TRACE_NOT_ONE = "trace_not_one"
NOT_POSITIVE_SEMIDEFINITE = "not_positive_semidefinite"


def _hermitian_part(rhos: np.ndarray) -> np.ndarray:
    """(rho + rho^dagger)/2 of each member of an (n, 8, 8) stack, as a new read-only
    stack; bit for bit rho when rho is exactly Hermitian."""
    out = (rhos + rhos.conj().swapaxes(1, 2)) / 2.0
    out.setflags(write=False)
    return out


def _member_index(stack: np.ndarray, k: int) -> int | None:
    """The index an error names: member k of a stack of more than one, else None."""
    return k if len(stack) > 1 else None


def _validate_stack(rhos: np.ndarray) -> np.ndarray:
    """Validate an (n, 8, 8) complex stack of density matrices; returns the
    read-only stack of their Hermitian parts.

    The one home of the four density checks and their tolerances. The first
    failing member raises StateValidationError with every invariant it
    violates; in a stack of more than one, the error names that member. Each
    member's values are those of checking it alone: numpy runs the same
    reductions and LAPACK routine on every matrix of the stack.
    """
    if not np.isfinite(rhos).all():
        first = int(np.argmin(np.isfinite(rhos).all(axis=(1, 2))))
        _validate_stack(rhos[:first])  # an earlier member that fails another check is named first
        raise StateValidationError([InvariantViolation(NOT_FINITE, float("inf"))], _member_index(rhos, first))
    herm_dev = np.abs(rhos - rhos.conj().swapaxes(1, 2)).max(axis=(1, 2))
    trace_dev = np.abs(rhos.trace(axis1=1, axis2=2) - 1.0)
    hermitian = _hermitian_part(rhos)
    lowest = np.linalg.eigvalsh(hermitian)[:, 0]
    not_hermitian = herm_dev > HERMITICITY_ATOL
    trace_not_one = trace_dev > TRACE_ATOL
    not_psd = lowest < EIGENVALUE_FLOOR
    failing = not_hermitian | trace_not_one | not_psd
    if np.count_nonzero(failing):
        k = int(np.argmax(failing))
        checks = (
            (NOT_HERMITIAN, not_hermitian, herm_dev),
            (TRACE_NOT_ONE, trace_not_one, trace_dev),
            (NOT_POSITIVE_SEMIDEFINITE, not_psd, -lowest),
        )
        violations = [InvariantViolation(kind, float(residual[k])) for kind, failed, residual in checks if failed[k]]
        raise StateValidationError(violations, _member_index(rhos, k))
    return hermitian


def validate_density(raw) -> np.ndarray:
    """Validate an 8x8 three-qubit density matrix; returns its Hermitian part
    (rho + rho^dagger)/2, read-only.

    Checks Hermiticity (atol 1e-9), unit trace (atol 1e-9) and positive
    semidefiniteness (eigenvalue floor -1e-9). Raises StateValidationError
    listing every violated invariant with its residual. The PSD check runs on
    the Hermitian part so it stays independent of the Hermiticity check. The
    Hermitian part is what every later trace reads: an anti-Hermitian residue
    the check tolerates would otherwise add up inside traces into an imaginary
    part that the expectation and correlation checks reject. For an exactly
    Hermitian input it equals the input bit for bit.
    """
    rho = np.asarray(raw, dtype=complex)
    if rho.shape != (8, 8):
        raise ValueError(f"expected an 8x8 matrix, got shape {rho.shape}")
    return _validate_stack(rho[np.newaxis])[0]


def pure_state(amplitudes) -> np.ndarray:
    """Validate an 8-component normalized state vector; returns a read-only copy."""
    psi = np.asarray(amplitudes, dtype=complex)
    if psi.shape != (8,):
        raise ValueError(f"expected 8 amplitudes, got shape {psi.shape}")
    if not np.all(np.isfinite(psi)):
        raise ValueError("amplitudes must be finite")
    norm_sq = float(np.sum(np.abs(psi) ** 2))
    if abs(norm_sq - 1.0) > UNIT_ATOL:
        raise ValueError(f"squared norm {norm_sq!r} is not 1 within {UNIT_ATOL}")
    return _readonly(psi)


def pure_to_density(psi) -> np.ndarray:
    """Rank-1 projector |psi><psi| of a normalized 8-component state vector."""
    psi = pure_state(psi)
    return _readonly(np.outer(psi, psi.conj()))
