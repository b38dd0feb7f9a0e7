import dataclasses
import pickle
import tracemalloc

import numpy as np
import pytest

import svetbound.families
from svetbound import (
    BISECTION,
    CLOSED_FORM,
    FamilySpec,
    GHZ_COLOR,
    GHZ_WHITE,
    GhzClassParams,
    ScanRow,
    correlation_tensor,
    ghz_class_state,
    ghz_state,
    gme_lower_bound,
    pure_to_density,
    realize,
    scan,
    singular_spectrum,
    unfold,
    validate_density,
    violation_threshold,
)
from svetbound.correlation import analyze
from svetbound.families import _SCAN_CHUNK, MAX_SCAN_ROWS

from support import analytic_singular_values, count_calls, per_member_scan_rows, rng, stack_sizes

GHZ_PARAMS = GhzClassParams(np.pi / 4, np.pi / 2)

# The per-member work of the bisection threshold: one realized member and one
# analysis, which is also its one validation and contraction.
MEMBER_WORK = (
    "qcore.validate_density",
    "correlation.analyze",
    "correlation._tensors",
    "correlation.singular_spectrum",
    "families.realize",
)
# The stacked passes of a scan: members built, validated, contracted and their
# top singular values taken, once per chunk of angle pairs.
STACKED_WORK = (
    "families._members",
    "qcore._validate_stack",
    "correlation._tensors",
    "correlation._top_singular_values",
)
MEMBER_ONLY_WORK = tuple(name for name in MEMBER_WORK if name not in STACKED_WORK)
ANY_WORK = MEMBER_ONLY_WORK + STACKED_WORK
EDGE_ANGLES = [0.0, np.pi / 8, np.pi / 4, np.pi / 2]
EDGE_PS = [k / 10 for k in range(11)]


class TestGhzClassState:
    def test_ghz_point(self):
        psi = ghz_class_state(GHZ_PARAMS)
        assert np.allclose(psi, ghz_state(), atol=1e-15)

    def test_theta_zero_is_product(self):
        psi = ghz_class_state(GhzClassParams(0.0, 0.3))
        expected = np.zeros(8, dtype=complex)
        expected[0] = 1.0
        assert np.allclose(psi, expected, atol=1e-15)

    def test_theta3_zero_has_unit_lambda1(self):
        psi = ghz_class_state(GhzClassParams(np.pi / 4, 0.0))
        expected = np.zeros(8, dtype=complex)
        expected[0] = expected[6] = 1.0 / np.sqrt(2.0)
        assert np.allclose(psi, expected, atol=1e-15)
        spec = singular_spectrum(unfold(correlation_tensor(pure_to_density(psi))))
        assert spec.lambda1 == pytest.approx(1.0, abs=1e-12)
        assert 4.0 * spec.lambda1 == pytest.approx(4.0, abs=1e-12)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            GhzClassParams(-0.1, 0.0)
        with pytest.raises(ValueError):
            GhzClassParams(0.0, np.pi)


class TestFamilySpec:
    def test_white_requires_params(self):
        with pytest.raises(ValueError):
            FamilySpec(GHZ_WHITE, 0.5)

    def test_color_forbids_params(self):
        with pytest.raises(ValueError):
            FamilySpec(GHZ_COLOR, 0.5, GHZ_PARAMS)

    def test_p_range(self):
        with pytest.raises(ValueError):
            FamilySpec(GHZ_COLOR, 1.5)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            FamilySpec("ghz-pink", 0.5)


class TestRealize:
    def test_white_full_weight_is_projector(self):
        rho = realize(FamilySpec(GHZ_WHITE, 1.0, GHZ_PARAMS))
        assert np.allclose(rho, pure_to_density(ghz_state()), atol=1e-15)

    def test_color_zero_weight_kills_correlations(self):
        rho = realize(FamilySpec(GHZ_COLOR, 0.0))
        tensor = correlation_tensor(rho)
        assert np.max(np.abs(tensor)) < 1e-14
        spec = singular_spectrum(unfold(tensor))
        assert 4.0 * spec.lambda1 == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("p", [0.3, 0.7, 1.0])
    def test_color_unfolding_matches_display(self, p):
        m = unfold(correlation_tensor(realize(FamilySpec(GHZ_COLOR, p))))
        expected = np.zeros((3, 9))
        expected[0, 0] = p
        expected[0, 4] = -p
        expected[1, 1] = -p
        expected[1, 3] = -p
        assert np.max(np.abs(m - expected)) <= 1e-12

    def test_outputs_validate(self):
        for spec in [
            FamilySpec(GHZ_WHITE, 0.0, GHZ_PARAMS),
            FamilySpec(GHZ_WHITE, 0.37, GhzClassParams(0.2, 1.1)),
            FamilySpec(GHZ_COLOR, 0.5),
        ]:
            validate_density(realize(spec))


class TestAnalyticSingularValues:
    def test_ghz_point(self):
        values = analytic_singular_values(GHZ_PARAMS, 1.0)
        assert values[0] == pytest.approx(np.sqrt(2.0), abs=1e-15)
        assert values[1] == pytest.approx(np.sqrt(2.0), abs=1e-15)
        assert values[2] == pytest.approx(0.0, abs=1e-15)

    def test_zero_weight(self):
        assert analytic_singular_values(GhzClassParams(0.5, 0.5), 0.0) == (0.0, 0.0, 0.0)

    def test_derived_point(self):
        values = analytic_singular_values(GhzClassParams(np.pi / 6, np.pi / 4), 0.9)
        assert values[0] == pytest.approx(0.954594154601839, abs=1e-12)
        assert values[1] == pytest.approx(0.954594154601839, abs=1e-12)
        assert values[2] == pytest.approx(0.7115124735378854, abs=1e-12)

    def test_matches_numerical_spectrum_on_grid(self):
        angles = np.linspace(0.0, np.pi / 2, 9)
        for theta in angles:
            for theta3 in angles:
                params = GhzClassParams(float(theta), float(theta3))
                for p in (0.3, 0.7, 1.0):
                    rho = realize(FamilySpec(GHZ_WHITE, p, params))
                    numerical = singular_spectrum(unfold(correlation_tensor(rho))).values
                    analytic = analytic_singular_values(params, p)
                    assert np.allclose(numerical, analytic, atol=1e-9)

    def test_rejects_bad_p(self):
        with pytest.raises(ValueError):
            analytic_singular_values(GHZ_PARAMS, 1.5)


class TestViolationThreshold:
    def test_ghz_white(self):
        report = violation_threshold(GHZ_WHITE, GHZ_PARAMS)
        assert report.method == CLOSED_FORM
        assert report.p_star == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-9)
        assert report.p_star == pytest.approx(0.707107, abs=1e-6)

    def test_ghz_color(self):
        report = violation_threshold(GHZ_COLOR)
        assert report.p_star == pytest.approx(0.707107, abs=1e-6)

    def test_formula_point(self):
        report = violation_threshold(GHZ_WHITE, GhzClassParams(np.pi / 6, np.pi / 2))
        assert report.p_star == pytest.approx(0.8164965809277259, abs=1e-9)

    def test_no_violation_family(self):
        report = violation_threshold(GHZ_WHITE, GhzClassParams(0.1, 0.1))
        assert report.p_star is None

    def test_bisection_agrees(self):
        cases = [
            (GHZ_WHITE, GHZ_PARAMS),
            (GHZ_WHITE, GhzClassParams(np.pi / 6, np.pi / 2)),
            (GHZ_WHITE, GhzClassParams(1.0, 1.2)),
            (GHZ_COLOR, None),
        ]
        for kind, params in cases:
            closed = violation_threshold(kind, params, method=CLOSED_FORM)
            bisect = violation_threshold(kind, params, method=BISECTION)
            assert bisect.method == BISECTION
            assert bisect.p_star == pytest.approx(closed.p_star, abs=1e-9)
        none_closed = violation_threshold(GHZ_WHITE, GhzClassParams(0.1, 0.1), method=BISECTION)
        assert none_closed.p_star is None

    def test_bisection_analyses_every_member(self, monkeypatch):
        # The reference path: the p = 1 member, then one member per halving of [0, 1] down to 1e-9.
        calls = count_calls(monkeypatch, MEMBER_WORK)
        violation_threshold(GHZ_COLOR, method=BISECTION)
        assert dict(calls) == {name.split(".")[1]: 31 for name in MEMBER_WORK}

    @pytest.mark.parametrize("method", [CLOSED_FORM, BISECTION])
    def test_ghz_color_rejects_angles(self, monkeypatch, method):
        calls = count_calls(monkeypatch, ["correlation.analyze"])
        with pytest.raises(ValueError, match="ghz-color takes no angle parameters"):
            violation_threshold(GHZ_COLOR, GhzClassParams(0.1, 0.2), method=method)
        assert calls["analyze"] == 0

    def test_threshold_sits_on_boundary(self):
        report = violation_threshold(GHZ_WHITE, GHZ_PARAMS)
        rho = realize(FamilySpec(GHZ_WHITE, report.p_star, GHZ_PARAMS))
        q_at_star = 4.0 * singular_spectrum(unfold(correlation_tensor(rho))).lambda1
        assert q_at_star == pytest.approx(4.0, abs=1e-9)


class TestGmeLowerBound:
    def test_ghz(self):
        report = gme_lower_bound(pure_to_density(ghz_state()))
        assert report.hs_norm_sq == pytest.approx(4.0, abs=1e-12)
        assert report.lb_value == pytest.approx(0.20710678118654757, abs=1e-9)
        assert report.clamped_lb == report.lb_value

    def test_maximally_mixed(self):
        report = gme_lower_bound(np.eye(8) / 8.0)
        assert report.lb_value == pytest.approx(-0.5, abs=1e-12)
        assert report.clamped_lb == 0.0

    def test_white_noise_09(self):
        rho = realize(FamilySpec(GHZ_WHITE, 0.9, GHZ_PARAMS))
        report = gme_lower_bound(rho)
        assert report.hs_norm_sq == pytest.approx(3.24, abs=1e-10)
        assert report.lb_value == pytest.approx(0.13639610306789274, abs=1e-9)

    def test_hs_norm_matches_spectrum(self):
        rho = realize(FamilySpec(GHZ_WHITE, 0.8, GhzClassParams(0.6, 0.9)))
        report = gme_lower_bound(rho)
        spec = singular_spectrum(unfold(correlation_tensor(rho)))
        assert report.hs_norm_sq == pytest.approx(
            spec.lambda1**2 + spec.lambda2**2 + spec.lambda3**2, abs=1e-10
        )

    def test_chain_inequality_on_degenerate_top(self):
        for theta, theta3 in [(np.pi / 4, np.pi / 2), (np.pi / 4, np.pi / 4), (np.pi / 3, np.pi / 2)]:
            for p in (0.75, 0.9, 1.0):
                rho = realize(FamilySpec(GHZ_WHITE, p, GhzClassParams(theta, theta3)))
                spec = singular_spectrum(unfold(correlation_tensor(rho)))
                assert spec.degenerate_top
                report = gme_lower_bound(rho)
                assert report.lb_value >= report.chain_value - 1e-10


class TestScan:
    def test_ghz_q_bound_column(self):
        rows = scan(GHZ_WHITE, [np.pi / 4], [np.pi / 2], [0.0, 0.5, 1.0])
        q = [row.q_bound for row in rows]
        assert q[0] == pytest.approx(0.0, abs=1e-12)
        assert q[1] == pytest.approx(2.0 * np.sqrt(2.0), abs=1e-9)
        assert q[2] == pytest.approx(4.0 * np.sqrt(2.0), abs=1e-9)

    def test_single_point(self):
        rows = scan(GHZ_COLOR, ps=[0.5])
        assert len(rows) == 1
        assert (rows[0].theta, rows[0].theta3) == (np.pi / 4, np.pi / 2)
        assert rows[0].q_bound == pytest.approx(2.0 * np.sqrt(2.0), abs=1e-9)

    def test_row_ordering(self):
        rows = scan(GHZ_WHITE, [0.8, 0.2], [0.5], [0.9, 0.1])
        keys = [(row.theta, row.theta3, row.p) for row in rows]
        assert keys == sorted(keys)

    def test_strictly_increasing_in_p(self):
        rows = scan(GHZ_WHITE, [0.7], [1.0], list(np.linspace(0.1, 1.0, 7)))
        q = [row.q_bound for row in rows]
        assert all(b > a for a, b in zip(q, q[1:]))

    def test_violates_flips_at_threshold(self):
        p_star = violation_threshold(GHZ_WHITE, GHZ_PARAMS).p_star
        rows = scan(GHZ_WHITE, [np.pi / 4], [np.pi / 2], list(np.linspace(0.6, 0.8, 21)))
        for row in rows:
            assert row.violates == (row.p > p_star)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            scan(GHZ_WHITE, [], [0.5], [0.5])
        with pytest.raises(ValueError):
            scan(GHZ_COLOR, ps=[])

    def test_angle_grids_follow_the_family(self):
        with pytest.raises(ValueError, match="ghz-white requires theta and theta3 grids"):
            scan(GHZ_WHITE, [0.5], None, [0.5])
        # An empty grid is still a grid given to a family that takes none.
        with pytest.raises(ValueError, match="ghz-color takes no angle grids"):
            scan(GHZ_COLOR, [], None, [0.5])

    def test_rows_above_cap_rejected_before_any_member(self, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("the row cap must fire before any member is built")

        for name in ("GhzClassParams", "_members"):
            monkeypatch.setattr(svetbound.families, name, no_work)
        # 101 * 9901 = MAX_SCAN_ROWS + 1 rows, each grid alone under the cap.
        assert 101 * 9901 == MAX_SCAN_ROWS + 1
        thetas = list(np.linspace(0.0, 0.5, 101))
        theta3s = list(np.linspace(0.0, 1.0, 9901))
        with pytest.raises(ValueError, match=f"the grid has more than {MAX_SCAN_ROWS} rows"):
            scan(GHZ_WHITE, thetas, theta3s, [0.5])
        with pytest.raises(ValueError, match=f"the grid has more than {MAX_SCAN_ROWS} rows"):
            scan(GHZ_COLOR, ps=[0.5] * (MAX_SCAN_ROWS + 1))

    def test_deterministic(self):
        a = scan(GHZ_WHITE, [0.4], [0.9], [0.3, 0.8])
        b = scan(GHZ_WHITE, [0.4], [0.9], [0.3, 0.8])
        assert a == b

    @pytest.mark.parametrize("kind", [GHZ_WHITE, GHZ_COLOR])
    def test_rows_match_each_member(self, kind):
        angles = EDGE_ANGLES if kind == GHZ_WHITE else None
        rows = scan(kind, angles, angles, EDGE_PS)
        assert len(rows) == (len(EDGE_ANGLES) ** 2 if kind == GHZ_WHITE else 1) * len(EDGE_PS)
        for row in rows:
            params = GhzClassParams(row.theta, row.theta3) if kind == GHZ_WHITE else None
            member = analyze(realize(FamilySpec(kind, row.p, params)))
            assert abs(row.lambda1 - member.spectrum.lambda1) <= 1e-12
            assert abs(row.q_bound - member.q_bound) <= 1e-12
            assert abs(row.gme_lb - gme_lower_bound(member).lb_value) <= 1e-12
            assert row.violates == (member.q_bound > 4.0)

    def test_one_stacked_pass_per_chunk(self, monkeypatch):
        # No member goes the per-member route; each chunk of angle pairs is built,
        # validated, contracted and decomposed once, and the chunks cover every pair.
        calls = count_calls(monkeypatch, MEMBER_ONLY_WORK)
        sizes = stack_sizes(monkeypatch, STACKED_WORK)
        angles = list(np.linspace(0.1, 1.5, 6))
        ps = list(np.linspace(0.0, 1.0, 20))
        assert len(scan(GHZ_WHITE, angles, angles, ps)) == 720
        assert dict(sizes) == {name.split(".")[1]: [36] for name in STACKED_WORK}
        for count in (1, 720):
            sizes.clear()
            assert len(scan(GHZ_COLOR, ps=list(np.linspace(0.0, 1.0, count)))) == count
            assert dict(sizes) == {name.split(".")[1]: [1] for name in STACKED_WORK}
        assert not calls
        reference = per_member_scan_rows(GHZ_WHITE, angles, angles, ps)
        monkeypatch.setattr(svetbound.families, "_SCAN_CHUNK", 10)
        calls.clear()
        sizes.clear()
        assert scan(GHZ_WHITE, angles, angles, ps) == reference
        assert dict(sizes) == {name.split(".")[1]: [10, 10, 10, 6] for name in STACKED_WORK}
        assert not calls

    def test_bad_angle_rejected_before_any_analysis(self, monkeypatch):
        calls = count_calls(monkeypatch, ANY_WORK)
        with pytest.raises(ValueError, match=r"theta must lie in \[0, pi/2\]"):
            scan(GHZ_WHITE, [0.1, 0.2, 0.3, 2.0], [0.1, 0.2, 0.3], [0.5])
        with pytest.raises(ValueError, match=r"theta3 must lie in \[0, pi/2\]"):
            scan(GHZ_WHITE, [0.1, 0.2], [0.3, -0.1], [0.5])
        assert not calls

    @pytest.mark.parametrize("bad", [1.5, -0.1, float("nan")])
    def test_bad_weight_rejected_before_any_analysis(self, monkeypatch, bad):
        calls = count_calls(monkeypatch, ANY_WORK)
        with pytest.raises(ValueError, match=r"p must lie in \[0, 1\]"):
            scan(GHZ_WHITE, [0.4], [0.9], [0.5, bad])
        with pytest.raises(ValueError, match=r"p must lie in \[0, 1\]"):
            scan(GHZ_COLOR, ps=[0.5, bad])
        assert not calls

    @pytest.mark.parametrize(
        "ps, named",
        [([0.5, 1.5, -0.1], "-0.1"), ([0.5, float("nan"), 1.5, -0.1], "nan")],
    )
    def test_first_bad_weight_in_sorted_order_is_named(self, monkeypatch, ps, named):
        # The message of checking each sorted p in turn: sorted() puts -0.1 first
        # in the one grid and leaves nan before it in the other.
        def no_work(*args, **kwargs):
            raise AssertionError("the p grid must be checked before any member is built")

        monkeypatch.setattr(svetbound.families, "_members", no_work)
        for kind, angles in ((GHZ_WHITE, [0.4]), (GHZ_COLOR, None)):
            with pytest.raises(ValueError) as err:
                scan(kind, angles, angles, ps)
            assert str(err.value) == f"p must lie in [0, 1], got {named}"


@dataclasses.dataclass(frozen=True)
class _GeneratedRow:
    """ScanRow's fields in a frozen dataclass whose __init__ is generated."""

    theta: float
    theta3: float
    p: float
    lambda1: float
    q_bound: float
    violates: bool
    gme_lb: float


class TestScanRow:
    ROW = ScanRow(0.25, 0.5, 0.75, 0.5, 2.0, False, -0.125)

    def test_scan_rows_equal_rows_built_directly(self):
        thetas, theta3s, ps = _seeded_white_grid(6)
        rows = scan(GHZ_WHITE, thetas, theta3s, ps)
        built = [ScanRow(*dataclasses.astuple(row)) for row in rows]
        assert rows == built == per_member_scan_rows(GHZ_WHITE, thetas, theta3s, ps)
        assert [repr(row) for row in rows] == [repr(row) for row in built]
        assert [hash(row) for row in rows] == [hash(row) for row in built]

    def test_repr_and_hash_match_a_generated_init(self):
        values = dataclasses.astuple(self.ROW)
        generated = _GeneratedRow(*values)
        assert repr(self.ROW) == repr(generated).replace("_GeneratedRow", "ScanRow")
        assert hash(self.ROW) == hash(generated)
        assert ScanRow(**dataclasses.asdict(generated)) == self.ROW

    def test_fields_cannot_be_set(self):
        for field in dataclasses.fields(ScanRow):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(self.ROW, field.name, 1.0)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(self.ROW, field.name)
        assert self.ROW == ScanRow(0.25, 0.5, 0.75, 0.5, 2.0, False, -0.125)

    def test_dataclass_protocol(self):
        names = ("theta", "theta3", "p", "lambda1", "q_bound", "violates", "gme_lb")
        assert tuple(field.name for field in dataclasses.fields(ScanRow)) == names
        flipped = dataclasses.replace(self.ROW, violates=True)
        assert type(flipped) is ScanRow
        assert dataclasses.astuple(flipped) == (0.25, 0.5, 0.75, 0.5, 2.0, True, -0.125)
        back = pickle.loads(pickle.dumps(self.ROW))
        assert back == self.ROW and repr(back) == repr(self.ROW) and hash(back) == hash(self.ROW)
        assert not hasattr(self.ROW, "__dict__")
        with pytest.raises(TypeError):
            ScanRow(0.25, 0.5, 0.75, 0.5, 2.0, False)


def _seeded_white_grid(seed):
    gen = rng(seed)
    return list(gen.uniform(0.0, np.pi / 2, 6)), list(gen.uniform(0.0, np.pi / 2, 6)), list(gen.random(20))


class TestScanMatchesPerMemberRoute:
    """The stacked scan's rows are repr-equal, so bit for bit equal, to analysing
    each angle pair alone at p = 1 and scaling it row by row."""

    @pytest.mark.parametrize(
        "kind, thetas, theta3s, ps",
        [
            pytest.param(GHZ_WHITE, EDGE_ANGLES, EDGE_ANGLES, EDGE_PS, id="white-edges"),
            pytest.param(GHZ_COLOR, None, None, EDGE_PS, id="color-edges"),
            *(pytest.param(GHZ_WHITE, *_seeded_white_grid(seed), id=f"white-6x6x20-seed{seed}") for seed in (1, 2, 3)),
            pytest.param(GHZ_COLOR, None, None, [*EDGE_PS, *rng(4).random(720)], id="color-p-grid"),
        ],
    )
    def test_rows_are_repr_equal(self, kind, thetas, theta3s, ps):
        rows = scan(kind, thetas, theta3s, ps)
        assert repr(rows) == repr(per_member_scan_rows(kind, thetas, theta3s, ps))

    def test_grid_larger_than_one_chunk(self):
        gen = rng(5)
        thetas, theta3s = list(gen.uniform(0.0, np.pi / 2, 33)), list(gen.uniform(0.0, np.pi / 2, 32))
        assert len(thetas) * len(theta3s) > _SCAN_CHUNK
        ps = [0.25, 0.75, 1.0]
        assert repr(scan(GHZ_WHITE, thetas, theta3s, ps)) == repr(per_member_scan_rows(GHZ_WHITE, thetas, theta3s, ps))


def test_scan_memory_is_bounded_by_its_chunk():
    # 128 x 128 angle pairs are 16 chunks: about 9.5 MB at peak, of which the
    # 16384 rows hold 3.5 MB. Stacking every pair at once peaks at about 51 MB.
    angles = list(np.linspace(0.0, np.pi / 2, 128))
    tracemalloc.start()
    try:
        rows = scan(GHZ_WHITE, angles, angles, [0.5])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(rows) == 128 * 128
    assert peak < 20 * 2**20
