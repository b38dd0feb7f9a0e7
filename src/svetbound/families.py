"""Noisy GHZ-class state families: states, analytic spectra, violation thresholds,
genuine-multipartite-entanglement lower bounds, and grid scans."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .correlation import StateAnalysis, analyze
from .qcore import _readonly, pure_to_density
from .svetlichny import CLASSICAL_BOUND

GHZ_WHITE = "ghz-white"
GHZ_COLOR = "ghz-color"

CLOSED_FORM = "ClosedForm"
BISECTION = "Bisection"

# Literature constants attached to scan metadata as annotations only; they are
# quoted from published results and never recomputed here.
GME_THRESHOLD_LITERATURE = 0.428571
BILOCAL_BOUND_LITERATURE = 0.416667

_HALF_PI = math.pi / 2.0
_BISECTION_P_TOL = 1e-9


@dataclass(frozen=True)
class GhzClassParams:
    """Angles (theta, theta3) of cos(theta)|000> + sin(theta)|11>(cos(theta3)|0> + sin(theta3)|1>)."""

    theta: float
    theta3: float

    def __post_init__(self):
        for name, value in (("theta", self.theta), ("theta3", self.theta3)):
            if not 0.0 <= value <= _HALF_PI:
                raise ValueError(f"{name} must lie in [0, pi/2], got {value!r}")


def _check_weight(p: float) -> None:
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p!r}")


@dataclass(frozen=True)
class FamilySpec:
    """A parameterized noisy state: kind, mixing weight p, and angles for ghz-white."""

    kind: str
    p: float
    params: GhzClassParams | None = None

    def __post_init__(self):
        if self.kind not in (GHZ_WHITE, GHZ_COLOR):
            raise ValueError(f"unknown family kind {self.kind!r}")
        _check_weight(self.p)
        if self.kind == GHZ_WHITE and self.params is None:
            raise ValueError("ghz-white requires GhzClassParams")
        if self.kind == GHZ_COLOR and self.params is not None:
            raise ValueError("ghz-color takes no angle parameters")


def ghz_class_state(params: GhzClassParams) -> np.ndarray:
    """Amplitudes cos(theta) on |000>, sin(theta)cos(theta3) on |110>,
    sin(theta)sin(theta3) on |111>, zero elsewhere."""
    psi = np.zeros(8, dtype=complex)
    psi[0] = math.cos(params.theta)
    psi[6] = math.sin(params.theta) * math.cos(params.theta3)
    psi[7] = math.sin(params.theta) * math.sin(params.theta3)
    psi.setflags(write=False)
    return psi


def ghz_state() -> np.ndarray:
    """The GHZ state (|000> + |111>)/sqrt(2)."""
    psi = np.zeros(8, dtype=complex)
    psi[0] = psi[7] = 1.0 / math.sqrt(2.0)
    psi.setflags(write=False)
    return psi


def realize(spec: FamilySpec) -> np.ndarray:
    """Read-only density matrix of the family member. It is not validated here;
    analyze validates it, as it does every state.

    ghz-white: p |psi><psi| + (1-p)/8 I with the GHZ-class pure state.
    ghz-color: p |GHZ><GHZ| + (1-p)/4 I_2 (x) diag(1, 0, 0, 1); the A-party
    marginal of the noise term is maximally mixed, so its full three-body
    correlations vanish.
    """
    if spec.kind == GHZ_WHITE:
        rho = spec.p * pure_to_density(ghz_class_state(spec.params))
        rho = rho + (1.0 - spec.p) / 8.0 * np.eye(8, dtype=complex)
    else:
        rho = spec.p * pure_to_density(ghz_state())
        noise = np.kron(np.eye(2), np.diag([1.0, 0.0, 0.0, 1.0])).astype(complex)
        rho = rho + (1.0 - spec.p) / 4.0 * noise
    return _readonly(rho)


def analytic_singular_values(params: GhzClassParams, p: float) -> tuple[float, float, float]:
    """Closed-form singular values of the white-noised GHZ-class unfolding, descending.

    The degenerate pair is p |sin(2 theta)| sqrt(1 + sin^2(theta3)); the third
    value is p sqrt(1 - sin^2(2 theta) sin^2(theta3)), consistent with the
    diagonal correlation entry cos^2(theta) + sin^2(theta) cos(2 theta3).
    """
    _check_weight(p)
    sin_two_theta = math.sin(2.0 * params.theta)
    sin_theta3 = math.sin(params.theta3)
    pair = p * abs(sin_two_theta) * math.sqrt(1.0 + sin_theta3 * sin_theta3)
    third = p * math.sqrt(max(0.0, 1.0 - sin_two_theta**2 * sin_theta3**2))
    values = sorted((pair, pair, third), reverse=True)
    return (values[0], values[1], values[2])


@dataclass(frozen=True)
class ThresholdReport:
    """Critical mixing weight p* in (0, 1], or None when no p yields a violation."""

    p_star: float | None
    method: str


def _analyze_member(kind: str, p: float, params: GhzClassParams | None) -> StateAnalysis:
    return analyze(realize(FamilySpec(kind, p, params)))


def violation_threshold(
    kind: str, params: GhzClassParams | None = None, method: str = CLOSED_FORM
) -> ThresholdReport:
    """Mixing weight above which the bound 4*lambda1 exceeds the bi-LHV bound 4.

    Both families have correlation tensors linear in p, so the closed form is
    p* = 4 / q_bound(p=1) whenever q_bound(p=1) > 4, and no p in (0, 1] can
    violate otherwise. The bisection path solves q_bound(p) = 4 on [0, 1] to
    1e-9 in p and agrees with the closed form to that accuracy.
    """
    if method not in (CLOSED_FORM, BISECTION):
        raise ValueError(f"unknown threshold method {method!r}")
    q_bound = _analyze_member(kind, 1.0, params).q_bound
    if q_bound <= CLASSICAL_BOUND:
        return ThresholdReport(None, method)
    if method == CLOSED_FORM:
        return ThresholdReport(CLASSICAL_BOUND / q_bound, method)
    lo, hi = 0.0, 1.0
    while hi - lo > _BISECTION_P_TOL:
        mid = 0.5 * (lo + hi)
        if _analyze_member(kind, mid, params).q_bound > CLASSICAL_BOUND:
            hi = mid
        else:
            lo = mid
    return ThresholdReport(0.5 * (lo + hi), method)


@dataclass(frozen=True)
class GmeReport:
    """Concurrence lower bounds: from the unfolding norm and from the 4*lambda1 chain.

    lb_value may be negative; clamped_lb is the usable nonnegative bound. For
    states whose top singular value is degenerate, lb_value >= chain_value.
    """

    hs_norm_sq: float
    lb_value: float
    chain_value: float
    clamped_lb: float


def _unfolding_norm(state: StateAnalysis) -> tuple[float, float]:
    # Squared Hilbert-Schmidt norm hs of the unfolding, and sqrt(hs/8) = GME bound + 1/2.
    hs_norm_sq = float(np.sum(state.matrix * state.matrix))
    return hs_norm_sq, math.sqrt(hs_norm_sq / 8.0)


def gme_lower_bound(rho) -> GmeReport:
    """Genuine-multipartite-entanglement concurrence lower bounds for a state."""
    state = analyze(rho)
    hs_norm_sq, norm = _unfolding_norm(state)
    lb_value = norm - 0.5
    chain_value = state.q_bound / 8.0 - 0.5
    return GmeReport(hs_norm_sq, lb_value, chain_value, max(0.0, lb_value))


@dataclass(frozen=True)
class ScanRow:
    theta: float
    theta3: float
    p: float
    lambda1: float
    q_bound: float
    violates: bool
    gme_lb: float


def scan(
    kind: str,
    thetas=None,
    theta3s=None,
    ps=None,
) -> list[ScanRow]:
    """Grid evaluation of the family: one row per (theta, theta3, p), sorted ascending
    with p varying fastest.

    Each angle pair is analysed once, at p = 1; since T(p) = p*T(1), every row scales
    that member: lambda1 = p*lambda1(1), gme_lb = p*sqrt(||M(1)||_HS^2/8) - 1/2.
    The violates flag records q_bound > 4; on these two families the bound is
    attained, so the flag coincides with certified violation. The p grid and
    every angle pair are checked before any member is analysed. ghz-color takes
    only a p grid and echoes the GHZ angles (pi/4, pi/2) in the angle columns.
    """
    ps = sorted(float(p) for p in (ps if ps is not None else []))
    if not ps:
        raise ValueError("p grid must be nonempty")
    for p in ps:
        _check_weight(p)
    if kind == GHZ_WHITE:
        thetas = sorted(float(t) for t in (thetas if thetas is not None else []))
        theta3s = sorted(float(t) for t in (theta3s if theta3s is not None else []))
        if not thetas or not theta3s:
            raise ValueError("theta and theta3 grids must be nonempty")
        # Every angle pair is checked here, before any member is analysed.
        pairs = [(t, t3, GhzClassParams(t, t3)) for t in thetas for t3 in theta3s]
    elif kind == GHZ_COLOR:
        if thetas or theta3s:
            raise ValueError("ghz-color takes no angle grids")
        pairs = [(math.pi / 4.0, _HALF_PI, None)]
    else:
        raise ValueError(f"unknown family kind {kind!r}")

    rows = []
    for theta, theta3, params in pairs:
        state = _analyze_member(kind, 1.0, params)
        lambda1, norm = state.spectrum.lambda1, _unfolding_norm(state)[1]
        for p in ps:
            lambda1_p = p * lambda1
            q_bound = 4.0 * lambda1_p
            violates = q_bound > CLASSICAL_BOUND
            rows.append(ScanRow(theta, theta3, p, lambda1_p, q_bound, violates, p * norm - 0.5))
    return rows
