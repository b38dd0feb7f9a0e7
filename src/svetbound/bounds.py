"""Upper bound 4*lambda1 on the maximal Svetlichny value, violation classification,
and tightness certificates.

A mean value above 4 witnesses genuine tripartite nonlocality, but 4*lambda1 is
only an upper bound: exceeding 4 does not by itself certify a violation, so the
classification is three-valued and the see-saw optimizer supplies the witness.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .correlation import SingularSpectrum, StateAnalysis, analyze
from .seesaw import OptimizationResult, OptimizerConfig, maximize
from .svetlichny import CLASSICAL_BOUND, MeasurementSettings, svetlichny_value

CERTIFIED_VIOLATION = "CertifiedViolation"
CERTIFIED_NO_VIOLATION = "CertifiedNoViolation"
INCONCLUSIVE = "Inconclusive"

VIOLATION_MARGIN = 1e-9
DEFAULT_CERTIFICATE_TOL = 1e-6

_SUBSPACE_RESIDUAL_TOL = 1e-8
_DECOMPOSE_STARTS = 50
_TINY_NORM = 1e-12
_FALLBACK_AXIS = np.array([0.0, 0.0, 1.0])


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


def quantum_bound(
    rho,
    config: OptimizerConfig | None = None,
    certify: bool = False,
    certificate_tol: float = DEFAULT_CERTIFICATE_TOL,
) -> BoundReport:
    """Bound 4*lambda1 on |<S>| over all measurement settings, with classification.

    CertifiedNoViolation when the bound itself stays at or below 4. Otherwise
    the see-saw optimizer runs: CertifiedViolation when it exhibits a value
    above 4 + 1e-9, else Inconclusive (the bound exceeds 4 but no violating
    settings were found). Pass certify=True to also attach a tightness
    certificate when one exists; certificate_tol is then checked before any work.
    """
    if certify and not 0.0 < certificate_tol < np.inf:
        raise ValueError("certificate_tol must be finite and positive")
    state = analyze(rho)
    cfg = config if config is not None else OptimizerConfig()
    witness: OptimizationResult | None = None
    if state.q_bound <= CLASSICAL_BOUND:
        classification = CERTIFIED_NO_VIOLATION
    else:
        witness = maximize(state, cfg)
        if witness.best_value > CLASSICAL_BOUND + VIOLATION_MARGIN:
            classification = CERTIFIED_VIOLATION
        else:
            classification = INCONCLUSIVE
    optimizer_value = witness.best_value if witness is not None else None
    certificate = None
    if certify:
        certificate, _ = _certify(state, certificate_tol, cfg, witness)
    return BoundReport(state.spectrum, state.q_bound, classification, optimizer_value, certificate)


def tightness_certificate(
    rho,
    tol: float = DEFAULT_CERTIFICATE_TOL,
    config: OptimizerConfig | None = None,
) -> Certificate | None:
    """Measurement settings whose |<S>| reaches 4*lambda1 - tol, if any are found.

    Strategy: the see-saw optimizer's best settings are the certificate when
    they reach the target. Otherwise, when the top singular value is
    (numerically) degenerate, the top singular subspace is searched for two
    orthogonal 9-vectors u = a(x)c - a'(x)c' and v = a(x)c' + a'(x)c with unit
    3-vectors; b and b' are then the closed-form see-saw update
    b = unit(M(u+v)), b' = unit(M(u-v)). Returns None when neither route
    attains the target; absence is a valid answer since the bound need not be
    tight. tol must be finite and positive.
    """
    cfg = config if config is not None else OptimizerConfig()
    return _certify(analyze(rho), tol, cfg)[0]


def _certify(
    state: StateAnalysis,
    tol: float,
    cfg: OptimizerConfig,
    witness: OptimizationResult | None = None,
) -> tuple[Certificate | None, OptimizationResult]:
    """tightness_certificate for an analysed state, returned with the see-saw
    result it started from.

    witness, when given, must be maximize(state, cfg); it is then used instead
    of running the see-saw again. Only svetlichny_value, the independent
    check, revalidates state.rho.
    """
    if not 0.0 < tol < np.inf:
        raise ValueError("tol must be finite and positive")
    spectrum = state.spectrum
    target = state.q_bound - tol
    if witness is None:
        witness = maximize(state, cfg)
    settings = witness.best_settings
    achieved = svetlichny_value(state.rho, settings)
    if abs(achieved) < target and spectrum.degenerate_top and spectrum.right9_2 is not None:
        subspace = _subspace_certificate(state, seed=cfg.seed)
        if subspace is not None:
            settings, achieved = subspace, svetlichny_value(state.rho, subspace)
    if abs(achieved) >= target:
        return Certificate(settings, achieved, state.q_bound - abs(achieved)), witness
    return None, witness


def _split_unit(x: np.ndarray) -> tuple[np.ndarray, ...]:
    blocks = []
    for idx in range(4):
        block = x[3 * idx : 3 * idx + 3]
        norm = float(np.linalg.norm(block))
        blocks.append(block / max(norm, _TINY_NORM))
    return tuple(blocks)


def _decompose_top_subspace(basis: np.ndarray, rng: np.random.Generator) -> tuple[np.ndarray, ...] | None:
    # Multistart minimization of the squared component of u and v outside span(basis).
    def residual(x: np.ndarray) -> float:
        a, ap, c, cp = _split_unit(x)
        u = np.kron(a, c) - np.kron(ap, cp)
        v = np.kron(a, cp) + np.kron(ap, c)
        pu = u - basis.T @ (basis @ u)
        pv = v - basis.T @ (basis @ v)
        return float(pu @ pu + pv @ pv)

    for _ in range(_DECOMPOSE_STARTS):
        x0 = rng.standard_normal(12)
        result = minimize(residual, x0, method="L-BFGS-B")
        if result.fun < _SUBSPACE_RESIDUAL_TOL:
            blocks = _split_unit(result.x)
            if all(float(np.linalg.norm(b)) > 0.5 for b in blocks):
                return blocks
    return None


def _unit_or_axis(x: np.ndarray) -> np.ndarray:
    # A vanished coefficient gives its direction zero weight, so any unit vector serves.
    norm = float(np.linalg.norm(x))
    return x / norm if norm > _TINY_NORM else _FALLBACK_AXIS


def _subspace_certificate(state: StateAnalysis, seed: int) -> MeasurementSettings | None:
    basis = np.stack([state.spectrum.right9_1, state.spectrum.right9_2])
    rng = np.random.Generator(np.random.PCG64(int(seed)))
    blocks = _decompose_top_subspace(basis, rng)
    if blocks is None:
        return None
    a, ap, c, cp = blocks
    u = np.kron(a, c) - np.kron(ap, cp)
    v = np.kron(a, cp) + np.kron(ap, c)
    # For fixed a, a', c, c' the value is b.M(u+v) + b'.M(u-v): maximal at these b, b'.
    b = _unit_or_axis(state.matrix @ (u + v))
    bp = _unit_or_axis(state.matrix @ (u - v))
    return MeasurementSettings(a, ap, b, bp, c, cp)
