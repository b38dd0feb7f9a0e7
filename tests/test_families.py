import numpy as np
import pytest

from svetbound import (
    BISECTION,
    CLOSED_FORM,
    FamilySpec,
    GHZ_COLOR,
    GHZ_WHITE,
    GhzClassParams,
    analytic_singular_values,
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

from support import count_calls

GHZ_PARAMS = GhzClassParams(np.pi / 4, np.pi / 2)

# The per-angle-pair work of a scan: one realized member and one analysis, which
# is also its one validation.
SCAN_WORK = (
    "qcore.validate_density",
    "correlation.analyze",
    "correlation.correlation_tensor",
    "correlation.singular_spectrum",
    "families.realize",
)
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
        calls = count_calls(monkeypatch, SCAN_WORK)
        violation_threshold(GHZ_COLOR, method=BISECTION)
        assert dict(calls) == {name.split(".")[1]: 31 for name in SCAN_WORK}

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

    def test_one_analysis_per_angle_pair(self, monkeypatch):
        calls = count_calls(monkeypatch, SCAN_WORK)
        angles = list(np.linspace(0.1, 1.5, 6))
        ps = list(np.linspace(0.0, 1.0, 20))
        assert len(scan(GHZ_WHITE, angles, angles, ps)) == 720
        assert dict(calls) == {name.split(".")[1]: 36 for name in SCAN_WORK}
        for count in (1, 720):
            calls.clear()
            assert len(scan(GHZ_COLOR, ps=list(np.linspace(0.0, 1.0, count)))) == count
            assert dict(calls) == {name.split(".")[1]: 1 for name in SCAN_WORK}

    def test_bad_angle_rejected_before_any_analysis(self, monkeypatch):
        calls = count_calls(monkeypatch, SCAN_WORK)
        with pytest.raises(ValueError, match=r"theta must lie in \[0, pi/2\]"):
            scan(GHZ_WHITE, [0.1, 0.2, 0.3, 2.0], [0.1, 0.2, 0.3], [0.5])
        with pytest.raises(ValueError, match=r"theta3 must lie in \[0, pi/2\]"):
            scan(GHZ_WHITE, [0.1, 0.2], [0.3, -0.1], [0.5])
        assert not calls

    @pytest.mark.parametrize("bad", [1.5, -0.1, float("nan")])
    def test_bad_weight_rejected_before_any_analysis(self, monkeypatch, bad):
        calls = count_calls(monkeypatch, SCAN_WORK)
        with pytest.raises(ValueError, match=r"p must lie in \[0, 1\]"):
            scan(GHZ_WHITE, [0.4], [0.9], [0.5, bad])
        with pytest.raises(ValueError, match=r"p must lie in \[0, 1\]"):
            scan(GHZ_COLOR, ps=[0.5, bad])
        assert not calls
