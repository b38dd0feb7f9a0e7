"""Pauli correlation tensor of a three-qubit state, its 3x9 unfolding and singular spectrum.

Unfolding convention, fixed here and used everywhere: entry (i, j, k) of the
tensor is tr[rho (sigma_i (x) sigma_j (x) sigma_k)] for parties (A, B, C); the
3x9 matrix has row index j and column index 3(i-1) + (k-1), i.e. rows follow
party B and columns pair (A, C) with A major. Singular values are insensitive
to transposing this layout.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .qcore import IMAG_RESIDUE_ATOL, _member_index, _readonly, kron3, pauli, validate_density

DEGENERACY_RTOL = 1e-7

_TRIPLES = np.stack(
    [kron3(pauli(i), pauli(j), pauli(k)) for i in (1, 2, 3) for j in (1, 2, 3) for k in (1, 2, 3)]
)
_TRIPLES.setflags(write=False)


def _tensors(hermitian: np.ndarray) -> np.ndarray:
    """Correlation tensors, shape (n, 3, 3, 3), of a validated (n, 8, 8) stack.

    The 27 traces of each member are evaluated in one vectorized contraction
    with a fixed summation order, the same for every member and stack size, so
    a member's tensor is bit-identical to contracting it alone. Raises if any
    entry carries an imaginary residue of 1e-9 or more; in a stack of more than
    one, the error names the member.
    """
    values = np.einsum("nij,mji->mn", _TRIPLES, hermitian)
    residue = np.abs(values.imag).max(axis=1)
    failing = residue >= IMAG_RESIDUE_ATOL
    if np.count_nonzero(failing):
        k = int(np.argmax(failing))
        member = _member_index(hermitian, k)
        where = "" if member is None else f" of stack member {member}"
        raise ValueError(f"correlation entries{where} carry imaginary residue {residue[k]:.3e}")
    return values.real.reshape(-1, 3, 3, 3)


def correlation_tensor(rho) -> np.ndarray:
    """Full three-Pauli correlation tensor of a density matrix, shape (3, 3, 3).

    The state is validated first, and the tensor is that of its Hermitian part.
    Repeated calls are bit-identical.
    """
    return _readonly(_tensors(validate_density(rho)[np.newaxis])[0])


def _unfoldings(tensors: np.ndarray) -> np.ndarray:
    """3x9 unfoldings, shape (n, 3, 9), of an (n, 3, 3, 3) stack of tensors."""
    return tensors.transpose(0, 2, 1, 3).reshape(-1, 3, 9)


def unfold(tensor) -> np.ndarray:
    """Rearrange the (3, 3, 3) tensor into the 3x9 matrix with rows on party B."""
    t = np.asarray(tensor, dtype=float)
    if t.shape != (3, 3, 3):
        raise ValueError(f"expected a (3, 3, 3) tensor, got shape {t.shape}")
    return _readonly(_unfoldings(t[np.newaxis])[0])


@dataclass(frozen=True)
class SingularSpectrum:
    """Descending singular values of the unfolding plus top right-singular vectors.

    right9_1 spans the top singular direction on the 9-dimensional side;
    right9_2 is present only when the top value is reported degenerate, and the
    tolerance used for that call is recorded in degeneracy_tol.
    """

    lambda1: float
    lambda2: float
    lambda3: float
    right9_1: np.ndarray
    right9_2: np.ndarray | None
    degenerate_top: bool
    degeneracy_tol: float

    @property
    def values(self) -> tuple[float, float, float]:
        return (self.lambda1, self.lambda2, self.lambda3)


def singular_spectrum(matrix) -> SingularSpectrum:
    """Singular spectrum of the 3x9 unfolding from one LAPACK SVD.

    right9_1 is the first row of V^T; when the top value is degenerate,
    right9_2 is the second. The rows of V^T are orthonormal even where the
    singular values vanish.
    """
    m = np.asarray(matrix, dtype=float)
    if m.shape != (3, 9):
        raise ValueError(f"expected a 3x9 matrix, got shape {m.shape}")
    _, lams, vt = np.linalg.svd(m, full_matrices=False)
    tol = DEGENERACY_RTOL * max(float(lams[0]), 1.0)
    degenerate = bool(lams[0] - lams[1] <= tol)
    return SingularSpectrum(
        lambda1=float(lams[0]),
        lambda2=float(lams[1]),
        lambda3=float(lams[2]),
        right9_1=_readonly(vt[0]),
        right9_2=_readonly(vt[1]) if degenerate else None,
        degenerate_top=degenerate,
        degeneracy_tol=tol,
    )


def _top_singular_values(matrices: np.ndarray) -> np.ndarray:
    """Top singular value of each 3x9 matrix of an (n, 3, 9) stack, from one
    batched SVD. It is the call singular_spectrum makes, so each value is
    bit-identical to that matrix's lambda1; compute_uv=False would take
    another LAPACK path, whose values differ in the last bits."""
    return np.linalg.svd(matrices, full_matrices=False)[1][:, 0]


@dataclass(frozen=True)
class StateAnalysis:
    """A validated state with its correlation tensor, 3x9 unfolding and spectrum.

    Only rho is given; the rest is derived from it when the object is built, so
    every StateAnalysis holds the tensor of its own rho. rho is validated once,
    and kept as the Hermitian part (rho + rho^dagger)/2 that validation returns
    and the tensor is computed from, read-only; for an exactly Hermitian input
    that is the input bit for bit.
    """

    rho: np.ndarray
    tensor: np.ndarray = field(init=False)
    matrix: np.ndarray = field(init=False)
    spectrum: SingularSpectrum = field(init=False)

    def __post_init__(self):
        rho = validate_density(self.rho)
        tensor = _readonly(_tensors(rho[np.newaxis])[0])
        matrix = unfold(tensor)
        object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "tensor", tensor)
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "spectrum", singular_spectrum(matrix))

    @property
    def q_bound(self) -> float:
        """The bound 4*lambda1 on the Svetlichny value."""
        return 4.0 * self.spectrum.lambda1


def analyze(rho) -> StateAnalysis:
    """Validate a density matrix and build its tensor, unfolding and spectrum once.

    This is where every request validates its state. A StateAnalysis is
    returned unchanged.
    """
    return rho if isinstance(rho, StateAnalysis) else StateAnalysis(rho)
