"""Shared helpers for the test suite: seeded random states and settings, reference
observables, call counters, the in-process CLI exit code.

pytest does not rewrite assert statements in this module, so python -O would
strip them; helpers here raise instead (test_support_holds_no_assert).
"""

import collections
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
