"""Pauli correlation tensor of a three-qubit state, its 3x9 unfolding and singular spectrum.

Unfolding convention, fixed here and used everywhere: entry (i, j, k) of the
tensor is tr[rho (sigma_i (x) sigma_j (x) sigma_k)] for parties (A, B, C); the
3x9 matrix has row index j and column index 3(i-1) + (k-1), i.e. rows follow
party B and columns pair (A, C) with A major. Singular values are insensitive
to transposing this layout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qcore import IMAG_RESIDUE_ATOL, _readonly, kron3, pauli, validate_density

DEGENERACY_RTOL = 1e-7
_ROTATION_ATOL = 1e-10

_TRIPLES = np.stack(
    [kron3(pauli(i), pauli(j), pauli(k)) for i in (1, 2, 3) for j in (1, 2, 3) for k in (1, 2, 3)]
)
_TRIPLES.setflags(write=False)


def correlation_tensor(rho) -> np.ndarray:
    """Full three-Pauli correlation tensor of a density matrix, shape (3, 3, 3).

    The 27 traces are evaluated in a single vectorized contraction with a fixed
    summation order, so repeated calls are bit-identical.
    """
    rho = validate_density(rho)
    values = np.einsum("nij,ji->n", _TRIPLES, rho)
    residue = float(np.max(np.abs(values.imag)))
    if residue >= IMAG_RESIDUE_ATOL:
        raise ValueError(f"correlation entries carry imaginary residue {residue:.3e}")
    return _readonly(values.real.reshape(3, 3, 3))


def unfold(tensor) -> np.ndarray:
    """Rearrange the (3, 3, 3) tensor into the 3x9 matrix with rows on party B."""
    t = np.asarray(tensor, dtype=float)
    if t.shape != (3, 3, 3):
        raise ValueError(f"expected a (3, 3, 3) tensor, got shape {t.shape}")
    return _readonly(t.transpose(1, 0, 2).reshape(3, 9))


def fold(matrix) -> np.ndarray:
    """Inverse of unfold: rebuild the (3, 3, 3) tensor from the 3x9 matrix."""
    m = np.asarray(matrix, dtype=float)
    if m.shape != (3, 9):
        raise ValueError(f"expected a 3x9 matrix, got shape {m.shape}")
    return _readonly(m.reshape(3, 3, 3).transpose(1, 0, 2))


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


@dataclass(frozen=True)
class StateAnalysis:
    """A validated state with its correlation tensor, 3x9 unfolding and spectrum."""

    rho: np.ndarray
    tensor: np.ndarray
    matrix: np.ndarray
    spectrum: SingularSpectrum

    @property
    def q_bound(self) -> float:
        """The bound 4*lambda1 on the Svetlichny value."""
        return 4.0 * self.spectrum.lambda1


def analyze(rho) -> StateAnalysis:
    """Validate a density matrix and build its tensor, unfolding and spectrum once.

    This is where every request validates its state: correlation_tensor does the
    validation, and rho is kept as the read-only complex copy validate_density
    returns. A StateAnalysis is returned unchanged.
    """
    if isinstance(rho, StateAnalysis):
        return rho
    tensor = correlation_tensor(rho)
    matrix = unfold(tensor)
    rho = _readonly(np.asarray(rho, dtype=complex))
    return StateAnalysis(rho, tensor, matrix, singular_spectrum(matrix))


def local_rotate(tensor, rot_a, rot_b, rot_c) -> np.ndarray:
    """Contract one proper rotation into each party index of the tensor."""
    t = np.asarray(tensor, dtype=float)
    if t.shape != (3, 3, 3):
        raise ValueError(f"expected a (3, 3, 3) tensor, got shape {t.shape}")
    mats = []
    for r in (rot_a, rot_b, rot_c):
        r = np.asarray(r, dtype=float)
        if r.shape != (3, 3):
            raise ValueError(f"expected a 3x3 rotation, got shape {r.shape}")
        if float(np.max(np.abs(r @ r.T - np.eye(3)))) > _ROTATION_ATOL:
            raise ValueError("rotation matrix is not orthogonal")
        if abs(float(np.linalg.det(r)) - 1.0) > _ROTATION_ATOL:
            raise ValueError("rotation matrix must have determinant +1")
        mats.append(r)
    return _readonly(np.einsum("il,jm,kn,lmn->ijk", mats[0], mats[1], mats[2], t))
