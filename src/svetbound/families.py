"""Noisy GHZ-class state families: states, violation thresholds,
genuine-multipartite-entanglement lower bounds, and grid scans."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from itertools import repeat

import numpy as np

from .correlation import StateAnalysis, _tensors, _top_singular_values, _unfoldings, analyze
from .qcore import _readonly, _validate_stack
from .svetlichny import CLASSICAL_BOUND

GHZ_WHITE = "ghz-white"
GHZ_COLOR = "ghz-color"

CLOSED_FORM = "ClosedForm"
BISECTION = "Bisection"

# Literature constants attached to scan metadata as annotations only; they are
# quoted from published results and never recomputed here.
GME_THRESHOLD_LITERATURE = 0.428571
BILOCAL_BOUND_LITERATURE = 0.416667

#: Largest number of rows scan produces; it holds every row in memory at once.
MAX_SCAN_ROWS = 1_000_000
#: Angle pairs scan builds and analyses per stacked pass: 1 MiB per (n, 8, 8)
#: complex stack, whatever the grid size.
_SCAN_CHUNK = 1024

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


def _members(kind: str, p: float, params) -> np.ndarray:
    """Density matrices of the family members at weight p, one per entry of
    params (a GhzClassParams for ghz-white, None for ghz-color), as an
    (n, 8, 8) stack. The one home of the family formulas.

    ghz-white: p |psi><psi| + (1-p)/8 I with the GHZ-class pure state.
    ghz-color: p |GHZ><GHZ| + (1-p)/4 I_2 (x) diag(1, 0, 0, 1); the A-party
    marginal of the noise term is maximally mixed, so its full three-body
    correlations vanish.
    """
    if kind == GHZ_WHITE:
        psi = np.stack([ghz_class_state(q) for q in params])
        noise = (1.0 - p) / 8.0 * np.eye(8, dtype=complex)
    else:
        psi = np.stack([ghz_state() for _ in params])
        noise = (1.0 - p) / 4.0 * np.kron(np.eye(2), np.diag([1.0, 0.0, 0.0, 1.0])).astype(complex)
    return p * (psi[:, :, np.newaxis] * psi.conj()[:, np.newaxis, :]) + noise


def realize(spec: FamilySpec) -> np.ndarray:
    """Read-only density matrix of the family member, built by _members. It is
    not validated here; analyze validates it, as it does every state."""
    return _readonly(_members(spec.kind, spec.p, [spec.params])[0])


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


def _unfolding_norm(matrices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Squared Hilbert-Schmidt norm hs of each 3x9 unfolding in the trailing two
    # axes, and sqrt(hs/8) = GME bound + 1/2.
    hs_norm_sq = np.sum(matrices * matrices, axis=(-2, -1))
    return hs_norm_sq, np.sqrt(hs_norm_sq / 8.0)


def gme_lower_bound(rho) -> GmeReport:
    """Genuine-multipartite-entanglement concurrence lower bounds for a state."""
    state = analyze(rho)
    hs_norm_sq, norm = (float(x) for x in _unfolding_norm(state.matrix))
    lb_value = norm - 0.5
    chain_value = state.q_bound / 8.0 - 0.5
    return GmeReport(hs_norm_sq, lb_value, chain_value, max(0.0, lb_value))


@dataclass(frozen=True, slots=True, init=False)
class ScanRow:
    """One row of a scan, in the columns of the scan CSV: the angles theta and
    theta3, the mixing weight p, lambda1 and q_bound = 4*lambda1 of that member,
    violates = q_bound > 4, and the raw GME lower bound gme_lb.

    Rows are frozen and slotted: a field cannot be set, and a row has no
    __dict__. __init__ is written by hand, with the same seven parameters the
    dataclass would generate: it stores each field through the class's own slot
    descriptor, bound once below, not through the object.__setattr__ call per
    field that a frozen dataclass makes, which halves the cost of a row.
    """

    theta: float
    theta3: float
    p: float
    lambda1: float
    q_bound: float
    violates: bool
    gme_lb: float

    def __init__(self, theta, theta3, p, lambda1, q_bound, violates, gme_lb):
        _set_theta(self, theta)
        _set_theta3(self, theta3)
        _set_p(self, p)
        _set_lambda1(self, lambda1)
        _set_q_bound(self, q_bound)
        _set_violates(self, violates)
        _set_gme_lb(self, gme_lb)


_set_theta, _set_theta3, _set_p, _set_lambda1, _set_q_bound, _set_violates, _set_gme_lb = (
    getattr(ScanRow, field.name).__set__ for field in fields(ScanRow)
)


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
    The pairs are built, validated and analysed as stacks of up to _SCAN_CHUNK
    members, and every row is bit for bit the row of analysing its pair alone.
    The violates flag records q_bound > 4; on these two families the bound is
    attained, so the flag coincides with certified violation. ghz-white takes
    both angle grids; ghz-color takes neither (None) and echoes the GHZ angles
    (pi/4, pi/2) in the angle columns. A grid of more than MAX_SCAN_ROWS rows
    is rejected from the grid lengths alone; then the p grid and every angle
    pair are checked, all before any member is built.
    """
    if kind == GHZ_WHITE:
        if thetas is None or theta3s is None:
            raise ValueError("ghz-white requires theta and theta3 grids")
    elif kind == GHZ_COLOR:
        if thetas is not None or theta3s is not None:
            raise ValueError("ghz-color takes no angle grids")
        thetas, theta3s = [math.pi / 4.0], [_HALF_PI]
    else:
        raise ValueError(f"unknown family kind {kind!r}")
    thetas = sorted(float(t) for t in thetas)
    theta3s = sorted(float(t) for t in theta3s)
    ps = sorted(float(p) for p in (ps if ps is not None else []))
    if len(thetas) * len(theta3s) * len(ps) > MAX_SCAN_ROWS:
        raise ValueError(f"the grid has more than {MAX_SCAN_ROWS} rows")
    if not ps:
        raise ValueError("p grid must be nonempty")
    # One range check over the column. NaN fails both comparisons; the first
    # offending p in sorted order gets _check_weight's message.
    ps_column = np.array(ps)
    in_range = (ps_column >= 0.0) & (ps_column <= 1.0)
    if not in_range.all():
        _check_weight(ps[int(np.argmin(in_range))])
    if not thetas or not theta3s:
        raise ValueError("theta and theta3 grids must be nonempty")
    # Every angle pair is checked here, before any member is built.
    white = kind == GHZ_WHITE
    pairs = [(t, t3, GhzClassParams(t, t3) if white else None) for t in thetas for t3 in theta3s]

    rows = []
    for start in range(0, len(pairs), _SCAN_CHUNK):
        chunk = pairs[start : start + _SCAN_CHUNK]
        members = _members(kind, 1.0, [params for _, _, params in chunk])
        matrices = _unfoldings(_tensors(_validate_stack(members)))
        # Row columns, pairs by p: the same IEEE operations as scaling each member alone.
        lambda1 = np.multiply.outer(_top_singular_values(matrices), ps_column)
        q_bound = 4.0 * lambda1
        violates = q_bound > CLASSICAL_BOUND
        gme_lb = np.multiply.outer(_unfolding_norm(matrices)[1], ps_column) - 0.5
        columns = zip(chunk, lambda1.tolist(), q_bound.tolist(), violates.tolist(), gme_lb.tolist())
        for (theta, theta3, _), lambda1_row, q_row, violates_row, gme_row in columns:
            rows.extend(map(ScanRow, repeat(theta), repeat(theta3), ps, lambda1_row, q_row, violates_row, gme_row))
    return rows
