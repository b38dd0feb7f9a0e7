"""Svetlichny operator construction and its mean value for three-qubit states."""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .correlation import StateAnalysis
from .qcore import expectation, pauli, unit_vector, validate_density

#: Mean-value bound satisfied by every hybrid local-nonlocal (bi-LHV) model.
CLASSICAL_BOUND = 4.0

_PAULIS = np.stack([pauli(1), pauli(2), pauli(3)])


@dataclass(frozen=True)
class MeasurementSettings:
    """Six unit directions (a, a', b, b', c, c') defining the dichotomic observables."""

    a: np.ndarray
    a_prime: np.ndarray
    b: np.ndarray
    b_prime: np.ndarray
    c: np.ndarray
    c_prime: np.ndarray

    def __post_init__(self):
        for f in fields(self):
            object.__setattr__(self, f.name, unit_vector(getattr(self, f.name)))

    def as_matrix(self) -> np.ndarray:
        """The six vectors stacked as rows in declaration order."""
        return np.stack([self.a, self.a_prime, self.b, self.b_prime, self.c, self.c_prime])

    @classmethod
    def from_matrix(cls, matrix) -> "MeasurementSettings":
        m = np.asarray(matrix, dtype=float)
        if m.shape != (6, 3):
            raise ValueError(f"expected a (6, 3) array of directions, got shape {m.shape}")
        return cls(m[0], m[1], m[2], m[3], m[4], m[5])


def build_operator(settings: MeasurementSettings) -> np.ndarray:
    """8x8 Hermitian operator A(B+B')C + A(B-B')C' + A'(B-B')C - A'(B+B')C'."""
    a, ap, b, bp, c, cp = np.tensordot(settings.as_matrix(), _PAULIS, axes=1)
    # Entry ((i,k,m), (j,l,n)) of X (x) Y (x) Z is X_ij Y_kl Z_mn, so the four
    # Kronecker products are one contraction over the stacked factors.
    first = np.stack([a, a, ap, -ap])
    second = np.stack([b + bp, b - bp, b - bp, b + bp])
    third = np.stack([c, cp, c, cp])
    return np.einsum("tij,tkl,tmn->ikmjln", first, second, third).reshape(8, 8)


def svetlichny_value(rho, settings: MeasurementSettings) -> float:
    """Mean value tr(S rho) of the Svetlichny operator for the given settings.

    rho is a density matrix, validated here, or a StateAnalysis, whose validated
    rho is used as it is; the trace never reads the tensor, so it stays an oracle.
    """
    rho = rho.rho if isinstance(rho, StateAnalysis) else validate_density(rho)
    return expectation(rho, build_operator(settings))
