"""Multistart see-saw ascent for the maximal Svetlichny value of a fixed state.

The mean value is multilinear in the six measurement directions, so with five
of them held fixed the objective is linear in the sixth and the optimal update
is the normalized coefficient vector. A sweep updates all six in the fixed
order (a, a', b, b', c, c'), computed as one complex update per party for all
starts at once; the objective never decreases.

Flipping b and b' negates the Svetlichny operator, so the largest mean value
is also the largest absolute one, and each start needs only one ascent: the
a-update reads only b, b', c, c', so a start with b and b' flipped takes -a,
then -b, then the same c, and from then on mirrors the unflipped ascent with
the same value.

Randomness comes from numpy's PCG64 generator with an explicit seed. Stream
layout: for each start, six directions are drawn in the order a, a', b, b',
c, c', each as three standard normals that get normalized. Identical
(state, config) pairs therefore produce bit-identical results.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .correlation import analyze
# Not called here; kept because bench/trace.py binds svetbound.seesaw.validate_density by name.
from .qcore import validate_density  # noqa: F401
from .svetlichny import MeasurementSettings

#: Largest start count OptimizerConfig accepts; maximize holds every start's settings in memory at once.
MAX_STARTS = 10_000
#: Sweeps a start runs at most before maximize stops it unconverged.
MAX_SWEEPS = 500
#: A start stops once an iteration improves its value by less than this.
CONVERGENCE_TOL = 1e-10

_MIN_COEFF_NORM = 1e-14
_BOUND_SLACK = 1e-7
_EXTRAPOLATION_PERIOD = 10
_EXTRAPOLATION_BETAS = (4.0, 16.0, 64.0, 256.0)


class SeesawError(RuntimeError):
    """A see-saw run broke one of its numerical invariants: its objective fell,
    or its best value exceeded the singular-value bound 4*lambda1."""


@dataclass(frozen=True)
class OptimizerConfig:
    """Knobs for the multistart see-saw: start count and seed. Every start stops
    at CONVERGENCE_TOL or after MAX_SWEEPS sweeps."""

    starts: int = 50
    seed: int = 0

    def __post_init__(self):
        values = (self.starts, self.seed)
        if not all(isinstance(v, (int, np.integer)) and not isinstance(v, bool) for v in values):
            raise ValueError("starts and seed must be integers")
        if not 1 <= self.starts <= MAX_STARTS:
            raise ValueError(f"starts must lie in [1, {MAX_STARTS}]")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in an unsigned 64-bit integer")


@dataclass(frozen=True)
class OptimizationResult:
    """Outcome of maximize: best absolute mean value and the settings achieving it.

    iterations_used and converged describe the winning start; per_start_values
    holds every start's best value in draw order.
    """

    best_value: float
    best_settings: MeasurementSettings
    iterations_used: int
    converged: bool
    per_start_values: tuple[float, ...]


def _draw_directions(rng: np.random.Generator, n: int) -> np.ndarray:
    # n starts of six unit directions, in the stream order of the module
    # docstring. The stacked 1x3 @ 3x1 products are the dot product that
    # np.linalg.norm takes of each vector, so the draw matches a per-vector
    # loop bit for bit; np.linalg.norm(axis=-1) and einsum round differently.
    raw = rng.standard_normal((n, 6, 3))
    return raw / np.sqrt(raw[..., None, :] @ raw[..., :, None])[..., 0]


def _blocks(t: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # The tensor as three (9, 3) matrices: rows pair the two parties held
    # fixed, columns index the party being updated (A, B, C in turn).
    return (
        t.transpose(1, 2, 0).reshape(9, 3).astype(complex),
        t.transpose(0, 2, 1).reshape(9, 3).astype(complex),
        t.reshape(9, 3).astype(complex),
    )


def _contract(x: np.ndarray, y: np.ndarray, block: np.ndarray) -> np.ndarray:
    return (x[:, :, None] * y[:, None, :]).reshape(-1, 9) @ block


# Inside the ascent each party's pair of directions is one complex 3-vector:
# a + i a', b + i b', c + i c'. Stored as floats the settings of S starts have
# shape (S, 3, 3, 2): start, party, component, (unprimed, primed) direction.


def _to_pairs(s: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(s.reshape(-1, 3, 2, 3).transpose(0, 1, 3, 2))


def _from_pairs(p: np.ndarray) -> np.ndarray:
    return p.transpose(0, 1, 3, 2).reshape(-1, 6, 3)


def _beta(x: np.ndarray) -> np.ndarray:
    # (1+i)(b - i b') = (b+b') + i(b-b')
    return (1 + 1j) * x[:, 1].conj()


def _mean_values(x: np.ndarray, z: np.ndarray) -> np.ndarray:
    # c . Re z + c' . Im z, where z = T(alpha, beta, .) are the (c, c') coefficients.
    return np.einsum("si,si->s", x[:, 2].conj(), z).real


def _values(blocks, p: np.ndarray) -> np.ndarray:
    x = p.view(complex)[..., 0]
    return _mean_values(x, _contract(x[:, 0].conj(), _beta(x), blocks[2]))


def _renorm_pair(p: np.ndarray, party: int, coeff: np.ndarray, active: np.ndarray) -> None:
    # Each active start's pair of directions takes the real and imaginary parts
    # of coeff, normalized separately, unless a part's norm is below _MIN_COEFF_NORM.
    parts = coeff.view(float).reshape(-1, 3, 2)
    norms = np.sqrt(np.einsum("sip,sip->sp", parts, parts))
    take = active[:, None] & (norms >= _MIN_COEFF_NORM)
    scaled = parts / np.maximum(norms, _MIN_COEFF_NORM)[:, None, :]
    p[:, party] = np.where(take[:, None, :], scaled, p[:, party])


def _block_sweep(blocks, p: np.ndarray, active: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One see-saw sweep for every start; inactive starts keep their settings.

    With alpha = a - i a', beta = (b+b') + i(b-b') and gamma = c - i c' the mean
    value is Re T(alpha, beta, gamma). The coefficients of (a, a') are (Re, Im)
    of T(., beta, gamma), those of (b, b') are (Re - Im, Re + Im) of
    T(alpha, ., gamma), that is (Re, Im) of (1+i) T(alpha, ., gamma), and those
    of (c, c') are (Re, Im) of T(alpha, beta, .). Neither direction of a pair
    enters the other's coefficients, so the Gauss-Seidel order
    a, a', b, b', c, c' is exactly three block updates. In the pair layout
    alpha and gamma are the conjugated pairs and beta is (1+i) times one.
    Returns the updated settings and their mean values.
    """
    p = p.copy()
    x = p.view(complex)[..., 0]  # a view: sees each block update
    gamma = x[:, 2].conj()
    w = _contract(_beta(x), gamma, blocks[0])
    _renorm_pair(p, 0, w, active)
    alpha = x[:, 0].conj()
    y = _contract(alpha, gamma, blocks[1])
    _renorm_pair(p, 1, (1 + 1j) * y, active)
    z = _contract(alpha, _beta(x), blocks[2])
    _renorm_pair(p, 2, z, active)
    return p, _mean_values(x, z)


def maximize(rho, config: OptimizerConfig | None = None) -> OptimizationResult:
    """Best absolute Svetlichny mean value found by seeded multistart see-saw.

    rho is a density matrix, which analyze validates and decomposes, or a
    StateAnalysis, whose tensor and spectrum are used as they are.

    Each drawn start runs one ascent of the signed mean value; a start with
    b and b' flipped would only mirror it (see the module docstring), so the
    returned settings have signed value +best_value. All ascents run batched,
    each sweep being three complex block updates (see _block_sweep), with a
    per-start active mask; a start stops, and its settings freeze, once an
    iteration improves it by less than CONVERGENCE_TOL, or after MAX_SWEEPS
    sweeps. Plain coordinate sweeps crawl along the flat valley created by a
    degenerate top singular value, so every few sweeps (and whenever a start
    stalls) a secant extrapolation through an earlier snapshot is tried at
    several step lengths and kept only when it improves the objective; the
    ascent therefore stays monotone and fully deterministic. Ties between
    starts resolve to the lowest start index.

    Raises SeesawError when a sweep lowers an active start's objective by more
    than 1e-12, or when the result exceeds the singular-value bound
    4 lambda1 + 1e-7; both would mean a numerical failure.
    """
    state = analyze(rho)
    cfg = config if config is not None else OptimizerConfig()
    blocks = _blocks(state.tensor)
    rng = np.random.Generator(np.random.PCG64(int(cfg.seed)))

    n = cfg.starts
    settings = _to_pairs(_draw_directions(rng, n))

    values = _values(blocks, settings)
    active = np.ones(n, dtype=bool)
    converged = np.zeros(n, dtype=bool)
    iterations = np.full(n, MAX_SWEEPS, dtype=int)
    snapshot = settings.copy()
    for sweep in range(1, MAX_SWEEPS + 1):
        settings, new_values = _block_sweep(blocks, settings, active)
        if not np.all(new_values[active] >= values[active] - 1e-12):
            raise SeesawError(f"see-saw objective decreased in sweep {sweep}")
        attempt = active & (new_values - values < CONVERGENCE_TOL)
        if sweep % _EXTRAPOLATION_PERIOD == 0:
            attempt = attempt | active
        if attempt.any():
            for beta in _EXTRAPOLATION_BETAS:
                candidate = settings + beta * (settings - snapshot)
                norms = np.sqrt(np.einsum("sxip,sxip->sxp", candidate, candidate))[:, :, None]
                usable = np.all(norms > 1e-8, axis=(1, 2, 3))
                candidate = candidate / np.maximum(norms, _MIN_COEFF_NORM)
                cand_values = _values(blocks, candidate)
                take = attempt & usable & (cand_values > new_values)
                if take.any():
                    settings = np.where(take[:, None, None, None], candidate, settings)
                    new_values = np.where(take, cand_values, new_values)
            snapshot = np.where(attempt[:, None, None, None], settings, snapshot)
        improved = new_values - values
        values = np.where(active, new_values, values)
        # A start stops only after an extrapolation attempt failed to rescue it.
        stopped = attempt & (improved < CONVERGENCE_TOL)
        iterations[stopped] = sweep
        converged[stopped] = True
        active &= ~stopped
        if not active.any():
            break

    best = int(np.argmax(values))
    best_value = float(values[best])

    if not best_value <= state.q_bound + _BOUND_SLACK:
        raise SeesawError(
            f"see-saw value {best_value!r} exceeds the singular-value bound {state.q_bound!r}"
        )
    return OptimizationResult(
        best_value=best_value,
        best_settings=MeasurementSettings.from_matrix(_from_pairs(settings)[best]),
        iterations_used=int(iterations[best]),
        converged=bool(converged[best]),
        per_start_values=tuple(float(v) for v in values),
    )
