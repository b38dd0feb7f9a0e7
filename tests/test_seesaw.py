import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import svetbound.bounds
import svetbound.seesaw
from svetbound import (
    FamilySpec,
    GHZ_WHITE,
    GhzClassParams,
    MeasurementSettings,
    OptimizerConfig,
    SeesawError,
    correlation_tensor,
    ghz_state,
    maximize,
    pure_to_density,
    realize,
    singular_spectrum,
    svetlichny_value,
    unfold,
)
from svetbound.seesaw import MAX_STARTS, SETTLE_STARTS, SETTLE_TOL, _draw_directions

from support import (
    GHZ_OPTIMUM,
    W_STATE_MAXIMUM,
    bilinear_value,
    random_density,
    random_settings,
    rng,
    states_above_four,
    w_density,
)

# per_start_values of maximize(random_density(rng(606)), starts=8, seed=606),
# recorded from the six-direction einsum see-saw that the complex block kernel
# replaced; the kernel only reorders floating-point operations.
FROZEN_PER_START = (
    3.12274757428561,
    3.1227475743637187,
    3.122747574304459,
    3.1227475743282262,
    3.1227475743310613,
    3.12274757428741,
    3.1227475743142135,
    3.1227475742851336,
)
# An unstopped 50-start maximize on the first state of the label fixture.
PINNED_MAXIMIZE = json.loads((Path(__file__).parent / "fixtures" / "bound_labels.json").read_text(encoding="utf-8"))[
    "pinned_maximize"
]


class TestOptimizerConfig:
    def test_defaults(self):
        cfg = OptimizerConfig()
        assert [f.name for f in dataclasses.fields(cfg)] == ["starts", "seed"]
        assert cfg.starts == 50
        assert cfg.seed == 0
        assert svetbound.seesaw.CONVERGENCE_TOL == 1e-10
        assert svetbound.seesaw.MAX_SWEEPS == 500
        assert svetbound.bounds.CERTIFICATE_TOL == 1e-6

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(starts=0),
            dict(starts=True),
            dict(seed=False),
            dict(seed=-1),
            dict(seed=True),
            dict(starts=np.True_),
            dict(starts=2.5),
            dict(seed=2**64),
            dict(seed=1.5),
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        # bool is an int subclass, so it is refused by name: maximize would fail on it later.
        with pytest.raises(ValueError):
            OptimizerConfig(**kwargs)

    def test_starts_cap(self):
        # maximize holds every start's settings at once, so the config refuses more starts.
        assert OptimizerConfig(starts=MAX_STARTS).starts == MAX_STARTS
        with pytest.raises(ValueError, match=r"starts must lie in \[1, 10000\]"):
            OptimizerConfig(starts=MAX_STARTS + 1)

    def test_accepts_numpy_integers(self):
        cfg = OptimizerConfig(starts=np.int32(2), seed=np.uint64(2**64 - 1))
        result = maximize(np.eye(8) / 8.0, cfg)
        assert len(result.per_start_values) == 2


def _sweep(blocks, settings):
    # One see-saw sweep of a single start; returns the new settings and value.
    pairs = svetbound.seesaw._to_pairs(settings.as_matrix()[None])
    updated, values = svetbound.seesaw._block_sweep(blocks, pairs, np.ones(1, dtype=bool))
    return MeasurementSettings.from_matrix(svetbound.seesaw._from_pairs(updated)[0]), float(values[0])


def _ghz_blocks():
    return svetbound.seesaw._blocks(correlation_tensor(pure_to_density(ghz_state())))


class TestRandomSettings:
    """The seeded draw of start settings that maximize makes."""

    def test_seeded_reproducibility(self):
        assert np.array_equal(_draw_directions(rng(42), 3), _draw_directions(rng(42), 3))

    @pytest.mark.parametrize("starts", [1, 7, 2000])
    def test_stream_layout_matches_per_vector_draw(self, starts):
        # The reference: per start a, a', b, b', c, c', each three standard
        # normals divided by np.linalg.norm; the batched draw must match bit for bit.
        gen = rng(404)
        expected = np.empty((starts, 6, 3))
        for start in range(starts):
            for idx in range(6):
                vec = gen.standard_normal(3)
                expected[start, idx] = vec / np.linalg.norm(vec)
        assert np.array_equal(_draw_directions(rng(404), starts), expected)
        assert np.array_equal(random_settings(rng(404)).as_matrix(), expected[0])

    def test_unit_vectors(self):
        m = _draw_directions(rng(401), 200)
        assert np.max(np.abs(np.linalg.norm(m, axis=-1) - 1.0)) <= 1e-12

    def test_sphere_uniformity(self):
        means = _draw_directions(rng(402), 10_000).mean(axis=0)  # (6, 3) per-vector component means
        assert np.max(np.abs(means)) < 0.05


class TestSeesawStep:
    def test_zero_matrix_fixed(self, monkeypatch):
        # I/8 has a zero tensor: every coefficient vanishes, so one sweep keeps
        # the first drawn start exactly.
        monkeypatch.setattr(svetbound.seesaw, "MAX_SWEEPS", 1)
        result = maximize(np.eye(8) / 8.0, OptimizerConfig(starts=1, seed=403))
        assert result.best_value == 0.0
        expected = _draw_directions(rng(403), 1)[0]
        assert np.array_equal(result.best_settings.as_matrix(), expected)

    def test_optimal_settings_are_fixed_point(self, monkeypatch):
        monkeypatch.setattr(svetbound.seesaw, "CONVERGENCE_TOL", 1e-14)
        ghz = pure_to_density(ghz_state())
        result = maximize(ghz, OptimizerConfig(starts=8, seed=5))
        _, value = _sweep(_ghz_blocks(), result.best_settings)
        assert value == pytest.approx(result.best_value, abs=1e-12)

    def test_monotone_from_random_start(self):
        blocks = _ghz_blocks()
        s = random_settings(rng(404))
        previous = -np.inf
        for _ in range(30):
            s, value = _sweep(blocks, s)
            assert value >= previous - 1e-12
            previous = value


class TestBlockKernel:
    def test_sweep_value_matches_trace_and_bilinear_forms(self, monkeypatch):
        # One sweep from one start: the kernel's value against the trace oracle.
        monkeypatch.setattr(svetbound.seesaw, "MAX_SWEEPS", 1)
        gen = rng(406)
        for seed in range(20):
            rho = random_density(gen)
            result = maximize(rho, OptimizerConfig(starts=1, seed=seed))
            updated = result.best_settings
            assert result.best_value == pytest.approx(svetlichny_value(rho, updated), abs=1e-12)
            assert result.best_value == pytest.approx(
                bilinear_value(unfold(correlation_tensor(rho)), updated), abs=1e-12
            )

    def test_batched_values_match_trace_form(self):
        gen = rng(407)
        rho = random_density(gen)
        settings = [random_settings(gen) for _ in range(12)]
        blocks = svetbound.seesaw._blocks(np.asarray(correlation_tensor(rho)))
        pairs = svetbound.seesaw._to_pairs(np.stack([s.as_matrix() for s in settings]))
        values = svetbound.seesaw._values(blocks, pairs)
        expected = [svetlichny_value(rho, s) for s in settings]
        assert np.max(np.abs(values - expected)) <= 1e-12

    def test_flipped_b_pair_mirrors_the_sweep(self):
        # Flipping b, b' negates the value; one sweep later the flipped start
        # holds (-a, -a', -b, -b', c, c') of the unflipped one with the same
        # value, so maximize needs only one ascent per start.
        gen = rng(408)
        for _ in range(10):
            blocks = svetbound.seesaw._blocks(np.asarray(correlation_tensor(random_density(gen))))
            drawn = random_settings(gen).as_matrix()
            flipped = drawn * np.array([1.0, 1.0, -1.0, -1.0, 1.0, 1.0])[:, None]
            pairs = svetbound.seesaw._to_pairs(np.stack([drawn, flipped]))
            active = np.ones(2, dtype=bool)
            updated, values = svetbound.seesaw._block_sweep(blocks, pairs, active)
            plain, mirrored = svetbound.seesaw._from_pairs(updated)
            assert values[0] == values[1]
            sign = np.array([-1.0, -1.0, -1.0, -1.0, 1.0, 1.0])[:, None]
            assert np.array_equal(mirrored, sign * plain)

    def test_one_row_per_start(self, monkeypatch):
        widths = []
        real = svetbound.seesaw._block_sweep

        def recording(blocks, p, active):
            widths.append((len(p), len(active)))
            return real(blocks, p, active)

        monkeypatch.setattr(svetbound.seesaw, "_block_sweep", recording)
        rho = random_density(rng(409), max_rank=4)
        for starts in (1, 7):
            widths.clear()
            maximize(rho, OptimizerConfig(starts=starts, seed=1))
            assert widths and set(widths) == {(starts, starts)}

    @pytest.mark.parametrize("run", ["8-starts", "50-starts"])
    def test_frozen_per_start_values(self, run):
        if run == "8-starts":
            rho, cfg = random_density(rng(606), max_rank=4), OptimizerConfig(starts=8, seed=606)
            frozen, frozen_settings = FROZEN_PER_START, None
        else:
            pinned = PINNED_MAXIMIZE
            rho = states_above_four(pinned["rng_seed"], pinned["state"] + 1)[pinned["state"]]
            cfg = OptimizerConfig(starts=pinned["starts"], seed=pinned["seed"])
            frozen, frozen_settings = pinned["per_start_values"], pinned["best_settings"]
        result = maximize(rho, cfg)
        assert np.max(np.abs(np.array(result.per_start_values) - frozen)) <= 1e-12
        if frozen_settings is not None:
            assert np.max(np.abs(result.best_settings.as_matrix() - frozen_settings)) <= 1e-12


def _tiny_spectrum(matrix):
    return dataclasses.replace(singular_spectrum(matrix), lambda1=1e-3)


class TestInvariantChecks:
    def test_bound_violation_raises(self, monkeypatch):
        monkeypatch.setattr(svetbound.correlation, "singular_spectrum", _tiny_spectrum)
        with pytest.raises(SeesawError, match="singular-value bound"):
            maximize(pure_to_density(ghz_state()), OptimizerConfig(starts=2, seed=0))

    def test_check_survives_optimize_flag(self):
        # python -O strips assert statements; the check must still fire.
        script = (
            "import dataclasses, sys\n"
            "import svetbound.correlation as c, svetbound.seesaw as s\n"
            "real = c.singular_spectrum\n"
            "c.singular_spectrum = lambda m: dataclasses.replace(real(m), lambda1=1e-3)\n"
            "from svetbound import ghz_state, pure_to_density, OptimizerConfig, SeesawError\n"
            "try:\n"
            "    s.maximize(pure_to_density(ghz_state()), OptimizerConfig(starts=2))\n"
            "except SeesawError:\n"
            "    sys.exit(7)\n"
        )
        proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True)
        assert proc.returncode == 7, proc.stderr

    @pytest.mark.parametrize("below, raises", [(1e-6, True), (1e-8, False)])
    def test_bound_slack_edge(self, below, raises, monkeypatch):
        # q_bound just below the best value: 1e-6 is past the 1e-7 slack, 1e-8 inside it.
        rho, config = pure_to_density(ghz_state()), OptimizerConfig(starts=2, seed=0)
        best = maximize(rho, config).best_value

        def lowered(matrix):
            return dataclasses.replace(singular_spectrum(matrix), lambda1=(best - below) / 4.0)

        monkeypatch.setattr(svetbound.correlation, "singular_spectrum", lowered)
        if raises:
            with pytest.raises(SeesawError, match="singular-value bound"):
                maximize(rho, config)
        else:
            assert maximize(rho, config).best_value == best

    @pytest.mark.parametrize("drop, raises", [(1e-9, True), (1e-13, False)])
    def test_decrease_slack_edge(self, drop, raises, monkeypatch):
        # The first sweep reports start 0 at drop below its starting value: 1e-9 is
        # past the 1e-12 slack, 1e-13 inside it.
        real = svetbound.seesaw._block_sweep
        sweeps = 0

        def lowering(blocks, p, active):
            nonlocal sweeps
            sweeps += 1
            settings, values = real(blocks, p, active)
            if sweeps == 1:
                assert active[0]
                values = values.copy()
                values[0] = svetbound.seesaw._values(blocks, p)[0] - drop
            return settings, values

        monkeypatch.setattr(svetbound.seesaw, "_block_sweep", lowering)
        rho, config = pure_to_density(ghz_state()), OptimizerConfig(starts=3, seed=0)
        if raises:
            with pytest.raises(SeesawError, match="decreased in sweep 1"):
                maximize(rho, config)
        else:
            assert maximize(rho, config).best_value == pytest.approx(GHZ_OPTIMUM, abs=1e-6)
            assert sweeps > 1


class TestMaximize:
    def test_ghz_reaches_optimum(self):
        result = maximize(pure_to_density(ghz_state()), OptimizerConfig(starts=10, seed=0))
        assert result.best_value == pytest.approx(GHZ_OPTIMUM, abs=1e-6)

    def test_maximally_mixed(self):
        result = maximize(np.eye(8) / 8.0, OptimizerConfig(starts=5, seed=0))
        assert result.best_value == pytest.approx(0.0, abs=1e-12)
        assert result.converged

    def test_w_state_regression(self):
        result = maximize(w_density(), OptimizerConfig(starts=50, seed=0))
        assert result.best_value == pytest.approx(W_STATE_MAXIMUM, abs=1e-9)
        assert result.best_value > 4.0
        lam1 = singular_spectrum(unfold(correlation_tensor(w_density()))).lambda1
        assert result.best_value <= 4.0 * lam1

    def test_seed_determinism(self):
        rho = realize(FamilySpec(GHZ_WHITE, 0.9, GhzClassParams(0.6, 1.1)))
        cfg = OptimizerConfig(starts=12, seed=77)
        first = maximize(rho, cfg)
        second = maximize(rho, cfg)
        assert first.best_value == second.best_value
        assert np.array_equal(first.best_settings.as_matrix(), second.best_settings.as_matrix())
        assert first.per_start_values == second.per_start_values
        assert first.iterations_used == second.iterations_used
        assert first.converged == second.converged

    def test_result_invariants(self):
        rho = realize(FamilySpec(GHZ_WHITE, 0.8, GhzClassParams(0.7, 0.9)))
        result = maximize(rho, OptimizerConfig(starts=6, seed=3))
        assert result.best_value == max(result.per_start_values)
        assert result.best_value >= 0.0
        assert len(result.per_start_values) == 6
        # Returned settings reproduce the signed value.
        assert svetlichny_value(rho, result.best_settings) == pytest.approx(
            result.best_value, abs=1e-9
        )

    def test_white_noise_scaling(self):
        params = GhzClassParams(0.9, 0.7)
        full = maximize(
            realize(FamilySpec(GHZ_WHITE, 1.0, params)), OptimizerConfig(starts=8, seed=21)
        ).best_value
        for p in (0.3, 0.6):
            partial = maximize(
                realize(FamilySpec(GHZ_WHITE, p, params)), OptimizerConfig(starts=8, seed=21)
            ).best_value
            assert partial == pytest.approx(p * full, abs=1e-6)

    def test_bounded_by_spectrum(self):
        gen = rng(405)
        for _ in range(30):
            rho = random_density(gen)
            lam1 = singular_spectrum(unfold(correlation_tensor(rho))).lambda1
            result = maximize(rho, OptimizerConfig(starts=4, seed=13))
            assert result.best_value <= 4.0 * lam1 + 1e-7

    def test_family_tightness(self):
        # On the white-noise family the bound is attained.
        for theta, theta3, p in [(np.pi / 4, np.pi / 2, 1.0), (np.pi / 6, np.pi / 3, 0.9)]:
            rho = realize(FamilySpec(GHZ_WHITE, p, GhzClassParams(theta, theta3)))
            lam1 = singular_spectrum(unfold(correlation_tensor(rho))).lambda1
            result = maximize(rho, OptimizerConfig(starts=8, seed=2))
            assert result.best_value == pytest.approx(4.0 * lam1, abs=1e-6)


def _at_best(result):
    return sum(v >= result.best_value - SETTLE_TOL for v in result.per_start_values)


def _assert_same_run(first, second):
    assert first.per_start_values == second.per_start_values
    assert np.array_equal(first.best_settings.as_matrix(), second.best_settings.as_matrix())
    assert first.iterations_used == second.iterations_used
    assert first.converged == second.converged


class TestStopAbove:
    """maximize(..., stop_above=x) ends after the first sweep in which a start
    exceeds x or SETTLE_STARTS starts lie within SETTLE_TOL of the best; the
    run up to there is the unstopped run cut at that sweep."""

    def _cut(self, monkeypatch, rho, cfg, sweeps):
        monkeypatch.setattr(svetbound.seesaw, "MAX_SWEEPS", sweeps)
        result = maximize(rho, cfg)
        monkeypatch.undo()
        return result

    def test_stops_after_the_first_sweep_above(self, monkeypatch):
        # W's maximum is 4.3546...; the starts pass 4.354 only after a few sweeps.
        rho, cfg = w_density(), OptimizerConfig(starts=50, seed=0)
        stopped = maximize(rho, cfg, stop_above=4.354)
        assert stopped.best_value > 4.354
        sweeps = stopped.iterations_used
        assert 1 < sweeps < maximize(rho, cfg).iterations_used
        _assert_same_run(stopped, self._cut(monkeypatch, rho, cfg, sweeps))
        assert self._cut(monkeypatch, rho, cfg, sweeps - 1).best_value <= 4.354

    def test_stops_once_the_starts_settle(self, monkeypatch):
        # No value exceeds infinity, so only the settle rule can end the run early.
        rho, cfg = random_density(rng(606), max_rank=4), OptimizerConfig(starts=20, seed=3)
        full = maximize(rho, cfg)
        stopped = maximize(rho, cfg, stop_above=np.inf)
        sweeps = stopped.iterations_used
        assert not stopped.converged and sweeps < full.iterations_used
        assert _at_best(stopped) >= SETTLE_STARTS
        assert _at_best(self._cut(monkeypatch, rho, cfg, sweeps - 1)) < SETTLE_STARTS
        assert 0.0 <= full.best_value - stopped.best_value <= SETTLE_TOL

    def test_a_stop_that_never_fires_changes_nothing(self):
        # Fewer starts than SETTLE_STARTS and no value above infinity: the run
        # goes on until every start converges, exactly as with no stop.
        rho, cfg = random_density(rng(607), max_rank=4), OptimizerConfig(starts=SETTLE_STARTS - 1, seed=5)
        _assert_same_run(maximize(rho, cfg, stop_above=np.inf), maximize(rho, cfg))
