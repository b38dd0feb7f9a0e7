"""Reference computations the benchmark checks the library against.

Nothing here imports svetbound: states, Pauli correlations, the singular
value lambda1 and the Svetlichny mean value are rebuilt from explicit Pauli
Kronecker products and numpy.linalg.svd, and the GHZ-class closed forms are
the ones the README states.
"""

from __future__ import annotations

import math

import numpy as np

PAULI = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)

# _TRIPLES[i, j, k] = sigma_i (x) sigma_j (x) sigma_k, party A slowest.
_TRIPLES = np.array(
    [[[np.kron(np.kron(a, b), c) for c in PAULI] for b in PAULI] for a in PAULI]
)


def random_unit_complex(rng: np.random.Generator, dim: int) -> np.ndarray:
    vec = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return vec / np.linalg.norm(vec)


def random_mixed_state(rng: np.random.Generator, rank: int) -> np.ndarray:
    """Random convex mixture of `rank` Haar-like pure three-qubit states."""
    weights = rng.random(rank)
    weights /= weights.sum()
    rho = np.zeros((8, 8), dtype=complex)
    for w in weights:
        psi = random_unit_complex(rng, 8)
        rho += w * np.outer(psi, psi.conj())
    return rho


def random_local_unitary(rng: np.random.Generator) -> np.ndarray:
    """u_A (x) u_B (x) u_C with each factor a QR-drawn 2x2 unitary."""
    factors = []
    for _ in range(3):
        q, r = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        factors.append(q * (np.diag(r) / np.abs(np.diag(r))))
    return np.kron(np.kron(factors[0], factors[1]), factors[2])


def conjugate(rho: np.ndarray, unitary: np.ndarray) -> np.ndarray:
    out = unitary @ rho @ unitary.conj().T
    return (out + out.conj().T) / 2.0


def ghz_white_state(theta: float, theta3: float, p: float) -> np.ndarray:
    psi = np.zeros(8, dtype=complex)
    psi[0] = math.cos(theta)
    psi[6] = math.sin(theta) * math.cos(theta3)
    psi[7] = math.sin(theta) * math.sin(theta3)
    return p * np.outer(psi, psi.conj()) + (1.0 - p) / 8.0 * np.eye(8)


def ghz_color_state(p: float) -> np.ndarray:
    psi = np.zeros(8, dtype=complex)
    psi[0] = psi[7] = 1.0 / math.sqrt(2.0)
    noise = np.kron(np.eye(2), np.diag([1.0, 0.0, 0.0, 1.0]))
    return p * np.outer(psi, psi.conj()) + (1.0 - p) / 4.0 * noise


def unfolding(rho: np.ndarray) -> np.ndarray:
    """3x9 matrix M[j, 3i + k] = tr(rho sigma_i (x) sigma_j (x) sigma_k)."""
    tensor = np.einsum("ijkab,ba->ijk", _TRIPLES, rho).real
    return tensor.transpose(1, 0, 2).reshape(3, 9)


def lambda1(rho: np.ndarray) -> float:
    return float(np.linalg.svd(unfolding(rho), compute_uv=False)[0])


def ghz_white_lambda1(theta: float, theta3: float, p: float) -> float:
    """Largest of the README closed-form singular values of the ghz-white member."""
    s2t = math.sin(2.0 * theta)
    s3 = math.sin(theta3)
    pair = p * abs(s2t) * math.sqrt(1.0 + s3 * s3)
    third = p * math.sqrt(max(0.0, 1.0 - s2t * s2t * s3 * s3))
    return max(pair, third)


def ghz_color_lambda1(p: float) -> float:
    return math.sqrt(2.0) * p


def _spin(direction) -> np.ndarray:
    x, y, z = (float(v) for v in direction)
    return x * PAULI[0] + y * PAULI[1] + z * PAULI[2]


def svetlichny_value(rho: np.ndarray, a, a_prime, b, b_prime, c, c_prime) -> float:
    """tr(S rho) for S = A(B+B')C + A(B-B')C' + A'(B-B')C - A'(B+B')C'."""
    A, Ap, C, Cp = _spin(a), _spin(a_prime), _spin(c), _spin(c_prime)
    b_plus = _spin(b) + _spin(b_prime)
    b_minus = _spin(b) - _spin(b_prime)

    def k3(x, y, z):
        return np.kron(np.kron(x, y), z)

    op = k3(A, b_plus, C) + k3(A, b_minus, Cp) + k3(Ap, b_minus, C) - k3(Ap, b_plus, Cp)
    return float(np.trace(op @ rho).real)


def unit_norm_error(vectors) -> float:
    return max(abs(float(np.linalg.norm(v)) - 1.0) for v in vectors)
