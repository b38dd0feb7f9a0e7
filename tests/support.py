"""Shared helpers for the test suite: seeded random states and settings, reference
observables and formulas, call counters, the in-process CLI exit code.

pytest does not rewrite assert statements in this module, so python -O would
strip them; helpers here raise instead (test_support_holds_no_assert).
"""

import collections
import math
import sys

import numpy as np

from svetbound import (
    GHZ_COLOR,
    GHZ_WHITE,
    FamilySpec,
    GhzClassParams,
    MeasurementSettings,
    ScanRow,
    pauli,
    realize,
    unit_vector,
)
from svetbound.cli import main
from svetbound.correlation import analyze

GHZ_OPTIMUM = 4.0 * np.sqrt(2.0)
# Frozen see-saw oracle value for the W state, recorded from a 50-start run;
# seed-to-seed spread is below 1e-12.
W_STATE_MAXIMUM = 4.3546484316045


def exit_code(*argv):
    """In-process CLI main; usage errors raised by the parser come back as their exit code."""
    try:
        return main(list(argv))
    except SystemExit as exc:
        return exc.code


def _record_calls(monkeypatch, qualnames, record):
    """Wrap the svetbound functions named "module.name" under every name a
    svetbound module binds them to; each call's bare name and result go to record."""
    modules = [m for n, m in sys.modules.items() if n == "svetbound" or n.startswith("svetbound.")]
    for qualname in qualnames:
        module_name, attr = qualname.rsplit(".", 1)
        original = getattr(sys.modules[f"svetbound.{module_name}"], attr)

        def recording(*args, _fn=original, _name=attr, **kwargs):
            result = _fn(*args, **kwargs)
            record(_name, result)
            return result

        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, recording)


def count_calls(monkeypatch, qualnames):
    """Count the calls of the named svetbound functions; keyed by the bare name."""
    counts = collections.Counter()
    _record_calls(monkeypatch, qualnames, lambda name, _: counts.update([name]))
    return counts


def stack_sizes(monkeypatch, qualnames):
    """The length of each result of the named svetbound functions, in call order;
    keyed by the bare name. For a stacked pass that is the number of members."""
    sizes = collections.defaultdict(list)
    _record_calls(monkeypatch, qualnames, lambda name, result: sizes[name].append(len(result)))
    return sizes


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


def reference_svetlichny_value(rho, settings):
    """tr(S rho) for S = A(B+B')C + A(B-B')C' + A'(B-B')C - A'(B+B')C', built here
    from observable() and np.kron rather than by build_operator."""
    a, ap, b, bp, c, cp = (observable(v) for v in settings.as_matrix())

    def k3(x, y, z):
        return np.kron(np.kron(x, y), z)

    op = k3(a, b + bp, c) + k3(a, b - bp, cp) + k3(ap, b - bp, c) - k3(ap, b + bp, cp)
    return float(np.trace(op @ np.asarray(rho)).real)


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


def per_member_scan_rows(kind, thetas=None, theta3s=None, ps=()):
    """families.scan's rows by the per-member route: each angle pair realized and
    analysed alone at p = 1 with analyze, then scaled row by row in Python floats."""
    if kind == GHZ_COLOR:
        thetas, theta3s = [math.pi / 4.0], [math.pi / 2.0]
    rows = []
    for theta in sorted(float(t) for t in thetas):
        for theta3 in sorted(float(t) for t in theta3s):
            params = GhzClassParams(theta, theta3) if kind == GHZ_WHITE else None
            state = analyze(realize(FamilySpec(kind, 1.0, params)))
            lambda1 = state.spectrum.lambda1
            norm = math.sqrt(float(np.sum(state.matrix * state.matrix)) / 8.0)
            for p in sorted(float(p) for p in ps):
                lambda1_p = p * lambda1
                q_bound = 4.0 * lambda1_p
                rows.append(ScanRow(theta, theta3, p, lambda1_p, q_bound, q_bound > 4.0, p * norm - 0.5))
    return rows


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


def states_above_four(seed, count):
    """The first count random_density draws from rng(seed) whose bound 4*lambda1 exceeds 4."""
    gen = rng(seed)
    states = []
    while len(states) < count:
        rho = random_density(gen)
        if analyze(rho).q_bound > 4.0:
            states.append(rho)
    return states


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
