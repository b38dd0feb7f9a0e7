"""Shared helpers for the test suite: seeded random states and settings, reference
observables and formulas, call counters, the in-process CLI exit code.

pytest does not rewrite assert statements in this module, so python -O would
strip them; helpers here raise instead (test_support_holds_no_assert).
"""

import collections
import math
import sys

import numpy as np

from svetbound import MeasurementSettings, pauli, unit_vector
from svetbound.cli import main

GHZ_OPTIMUM = 4.0 * np.sqrt(2.0)


def exit_code(*argv):
    """In-process CLI main; usage errors raised by the parser come back as their exit code."""
    try:
        return main(list(argv))
    except SystemExit as exc:
        return exc.code


def count_calls(monkeypatch, qualnames):
    """Count calls of the svetbound functions named "module.name" under every name
    a svetbound module binds them to; the counts are keyed by the bare name."""
    counts = collections.Counter()
    modules = [m for n, m in sys.modules.items() if n == "svetbound" or n.startswith("svetbound.")]
    for qualname in qualnames:
        module_name, attr = qualname.rsplit(".", 1)
        original = getattr(sys.modules[f"svetbound.{module_name}"], attr)

        def counting(*args, _fn=original, _name=attr, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, counting)
    return counts


def rng(seed):
    return np.random.Generator(np.random.PCG64(seed))


def random_settings(gen):
    """Six directions a, a', b, b', c, c', each three standard normals divided by
    their np.linalg.norm: the per-start stream layout that maximize draws."""
    return MeasurementSettings.from_matrix([v / np.linalg.norm(v) for v in gen.standard_normal((6, 3))])


def observable(g):
    """Spin observable g . sigma for a unit direction g: the reference for build_operator."""
    g = unit_vector(g)
    return g[0] * pauli(1) + g[1] * pauli(2) + g[2] * pauli(3)


def bilinear_value(matrix, settings):
    """Svetlichny mean value evaluated against the 3x9 correlation unfolding:
    (b+b') . M (a(x)c - a'(x)c') + (b-b') . M (a(x)c' + a'(x)c), which equals
    svetlichny_value whenever matrix is the unfolding of the state's tensor."""
    m = np.asarray(matrix, dtype=float)
    if m.shape != (3, 9):
        raise ValueError(f"expected a 3x9 matrix, got shape {m.shape}")
    s = settings
    u = np.kron(s.a, s.c) - np.kron(s.a_prime, s.c_prime)
    v = np.kron(s.a, s.c_prime) + np.kron(s.a_prime, s.c)
    return float((s.b + s.b_prime) @ (m @ u) + (s.b - s.b_prime) @ (m @ v))


def analytic_singular_values(params, p):
    """Closed-form singular values of the white-noised GHZ-class unfolding, descending.

    The degenerate pair is p |sin(2 theta)| sqrt(1 + sin^2(theta3)); the third
    value is p sqrt(1 - sin^2(2 theta) sin^2(theta3)), consistent with the
    diagonal correlation entry cos^2(theta) + sin^2(theta) cos(2 theta3).
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p!r}")
    sin_two_theta = math.sin(2.0 * params.theta)
    sin_theta3 = math.sin(params.theta3)
    pair = p * abs(sin_two_theta) * math.sqrt(1.0 + sin_theta3 * sin_theta3)
    third = p * math.sqrt(max(0.0, 1.0 - sin_two_theta**2 * sin_theta3**2))
    values = sorted((pair, pair, third), reverse=True)
    return (values[0], values[1], values[2])


def random_pure(gen):
    vec = gen.standard_normal(8) + 1j * gen.standard_normal(8)
    return vec / np.linalg.norm(vec)


def random_density(gen, max_rank=4):
    rank = int(gen.integers(1, max_rank + 1))
    weights = gen.random(rank)
    weights /= weights.sum()
    rho = np.zeros((8, 8), dtype=complex)
    for w in weights:
        psi = random_pure(gen)
        rho += w * np.outer(psi, psi.conj())
    return rho


def w_density():
    """W state (|001> + |010> + |100>)/sqrt(3) as a density matrix."""
    w = np.zeros(8, dtype=complex)
    w[1] = w[2] = w[4] = 1.0 / np.sqrt(3.0)
    return np.outer(w, w.conj())


def random_qubit_unitary(gen):
    q, r = np.linalg.qr(gen.standard_normal((2, 2)) + 1j * gen.standard_normal((2, 2)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def permute_qubits(psi, order):
    """Reorder the three qubit slots of an 8-amplitude vector, |abc> -> permuted."""
    return np.ascontiguousarray(np.transpose(psi.reshape(2, 2, 2), order)).reshape(8)


def biseparable_state(gen, placement):
    """Random (maximally entangled pair) x (pure qubit) pure state.

    placement selects which parties share the pair: "AB", "AC" or "BC".
    """
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1.0 / np.sqrt(2.0)
    u = random_qubit_unitary(gen)
    v = random_qubit_unitary(gen)
    pair = (np.kron(u, v) @ bell).reshape(2, 2)
    single = gen.standard_normal(2) + 1j * gen.standard_normal(2)
    single /= np.linalg.norm(single)
    # Build with the pair on (first, second) slots then permute into place.
    psi = np.einsum("xy,z->xyz", pair, single).reshape(8)
    if placement == "AB":
        return psi
    if placement == "AC":
        return permute_qubits(psi, (0, 2, 1))
    if placement == "BC":
        return permute_qubits(psi, (2, 0, 1))
    raise ValueError(placement)
