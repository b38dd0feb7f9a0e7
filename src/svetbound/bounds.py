"""Upper bound 4*lambda1 on the maximal Svetlichny value, violation classification,
and tightness certificates.

A mean value above 4 witnesses genuine tripartite nonlocality, but 4*lambda1 is
only an upper bound: exceeding 4 does not by itself certify a violation, so the
classification is three-valued and the see-saw optimizer supplies the witness.
Whether the bound itself is attained is decided in closed form, from the top
right-singular subspace of the unfolding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .correlation import SingularSpectrum, StateAnalysis, analyze
from .seesaw import OptimizerConfig, maximize
from .svetlichny import CLASSICAL_BOUND, MeasurementSettings, svetlichny_value

CERTIFIED_VIOLATION = "CertifiedViolation"
CERTIFIED_NO_VIOLATION = "CertifiedNoViolation"
INCONCLUSIVE = "Inconclusive"

VIOLATION_MARGIN = 1e-9
#: A certificate's settings must reach |<S>| >= 4*lambda1 - CERTIFICATE_TOL.
CERTIFICATE_TOL = 1e-6

_RANK_ONE_RTOL = 1e-6
_TINY_NORM = 1e-12
_FALLBACK_AXIS = np.array([0.0, 0.0, 1.0])


def __getattr__(name: str):
    # The benchmark tracer binds svetbound.bounds.minimize by name, so the name
    # resolves to scipy.optimize.minimize on first access and stays in the
    # module globals, where the tracer can rebind and restore it. Nothing here
    # calls it, and importing the package loads no SciPy. Delete this alias, do
    # not extend it, once the tracer stops binding the name.
    if name == "minimize":
        from scipy.optimize import minimize

        globals()["minimize"] = minimize
        return minimize
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass(frozen=True)
class Certificate:
    """Settings attaining the bound, the signed value achieved, and the gap left."""

    settings: MeasurementSettings
    achieved: float
    residual: float


@dataclass(frozen=True)
class BoundReport:
    """Singular spectrum, the bound 4*lambda1, and the violation classification."""

    spectrum: SingularSpectrum
    q_bound: float
    classification: str
    optimizer_value: float | None = None
    certificate: Certificate | None = None


def quantum_bound(rho, config: OptimizerConfig | None = None, certify: bool = False) -> BoundReport:
    """Bound 4*lambda1 on |<S>| over all measurement settings, with classification.

    CertifiedNoViolation when the bound itself stays at or below 4. Otherwise
    the see-saw optimizer runs: CertifiedViolation when the independent trace
    oracle svetlichny_value confirms |<S>| above 4 + 1e-9 at its best settings,
    else Inconclusive (the bound exceeds 4 but no violating settings were
    found). optimizer_value is the see-saw's own best value: it agrees with the
    trace value only to rounding, and where the bound is attained it may lie an
    ulp above q_bound. The see-saw runs only to classify, so at most once and
    never when the bound is at most 4. Pass certify=True to also attach
    tightness_certificate(rho), which needs no see-saw and no seed.
    """
    state = analyze(rho)
    optimizer_value = None
    if state.q_bound <= CLASSICAL_BOUND:
        classification = CERTIFIED_NO_VIOLATION
    else:
        result = maximize(state, config)
        optimizer_value = result.best_value
        if abs(svetlichny_value(state, result.best_settings)) > CLASSICAL_BOUND + VIOLATION_MARGIN:
            classification = CERTIFIED_VIOLATION
        else:
            classification = INCONCLUSIVE
    certificate = tightness_certificate(state) if certify else None
    return BoundReport(state.spectrum, state.q_bound, classification, optimizer_value, certificate)


def tightness_certificate(rho) -> Certificate | None:
    """Measurement settings whose |<S>| reaches 4*lambda1 - CERTIFICATE_TOL, or
    None when the bound is not attained.

    rho is a density matrix or a StateAnalysis. Write x = a + i a' and
    y = c + i c'; then u + i v = x (x) y holds u = a(x)c - a'(x)c' and
    v = a(x)c' + a'(x)c, and |<S>| <= |M(u+v)| + |M(u-v)| <= 4*lambda1. The
    bound is attained exactly when the complexified top right-singular subspace
    holds a rank-1 element x y^T, read as a 3x3 matrix (rows party A, columns
    party C). With R1, R2 the top right-singular vectors as 3x3 matrices, the
    candidates are R1, and when the top value is degenerate also R2 and
    R1 + t R2 at the roots t of a 2x2 minor, which is quadratic in t. The
    candidate closest to rank 1 is used if its second singular value is below
    1e-6 of its first. Its singular vectors x, y are rotated in phase so that
    |Re| = |Im| and scaled to |x|^2 = |y|^2 = 2, which makes a, a', c, c' unit
    vectors; b = unit(M(u+v)) and b' = unit(M(u-v)) are then optimal. The
    result is deterministic and needs no see-saw and no seed. The settings are
    the certificate only when the independent trace oracle svetlichny_value
    confirms |<S>| >= 4*lambda1 - CERTIFICATE_TOL (1e-6).
    """
    state = analyze(rho)
    settings = _rank_one_settings(state)
    if settings is None:
        return None
    achieved = svetlichny_value(state, settings)
    if abs(achieved) < state.q_bound - CERTIFICATE_TOL:
        return None
    return Certificate(settings, achieved, state.q_bound - abs(achieved))


def _minors(m: np.ndarray) -> np.ndarray:
    # The nine 2x2 minors of each 3x3 matrix, up to sign: cross products of its rows.
    rows, cols = m[:, [1, 2, 0]], m[:, [2, 0, 1]]
    return rows[..., [1, 2, 0]] * cols[..., [2, 0, 1]] - rows[..., [2, 0, 1]] * cols[..., [1, 2, 0]]


def _candidates(spectrum: SingularSpectrum) -> np.ndarray:
    r1 = spectrum.right9_1.reshape(3, 3)
    if not spectrum.degenerate_top:
        return r1[None].astype(complex)
    r2 = spectrum.right9_2.reshape(3, 3)
    # Each minor of r1 + t r2 is c2 t^2 + c1 t + c0. A rank-1 combination is a
    # common root of all nine; the largest minor is not identically zero unless
    # every combination has rank at most 1, and t = infinity is r2 itself.
    c2, c0, c_sum = _minors(np.stack([r2, r1, r1 + r2])).reshape(3, 9)
    coeffs = np.stack([c2, c_sum - c0 - c2, c0], axis=1)
    roots = np.roots(coeffs[np.argmax(np.einsum("ij,ij->i", coeffs, coeffs))])
    roots = roots[np.isfinite(roots)]
    return np.concatenate([np.stack([r1, r2]), r1 + roots[:, None, None] * r2]).astype(complex)


def _balanced(x: np.ndarray) -> np.ndarray:
    # For unit x, e^{i phi} x with Re(e^{2i phi} x.x) = 0 has |Re| = |Im|; sqrt(2) makes both unit.
    phase = np.exp(0.5j * (0.5 * np.pi - np.angle(x @ x)))
    return np.sqrt(2.0) * phase * x


def _unit_or_axis(x: np.ndarray) -> np.ndarray:
    # A vanished coefficient gives its direction zero weight, so any unit vector serves.
    norm = float(np.linalg.norm(x))
    return x / norm if norm > _TINY_NORM else _FALLBACK_AXIS


def _rank_one_settings(state: StateAnalysis) -> MeasurementSettings | None:
    left, sing, right = np.linalg.svd(_candidates(state.spectrum))
    best = int(np.argmin(sing[:, 1] / sing[:, 0]))
    if not sing[best, 1] <= _RANK_ONE_RTOL * sing[best, 0]:
        return None
    x, y = _balanced(left[best, :, 0]), _balanced(right[best, 0])
    z = np.kron(x, y)
    b = _unit_or_axis(state.matrix @ (z.real + z.imag))
    bp = _unit_or_axis(state.matrix @ (z.real - z.imag))
    return MeasurementSettings(x.real, x.imag, b, bp, y.real, y.imag)
