"""StateAnalysis: one validation, tensor and spectrum per request, shared by every layer."""

import numpy as np
import pytest

from svetbound import (
    GHZ_COLOR,
    FamilySpec,
    OptimizerConfig,
    StateValidationError,
    correlation_tensor,
    quantum_bound,
    realize,
    singular_spectrum,
    tightness_certificate,
    unfold,
    validate_density,
)
from svetbound.cli import main, write_state_file
from svetbound.correlation import StateAnalysis, analyze

from support import count_calls, random_density, rng

CFG = OptimizerConfig(starts=8, seed=0)

COUNTED = (
    "qcore.validate_density",
    "correlation.correlation_tensor",
    "correlation.unfold",
    "correlation.singular_spectrum",
    "seesaw.maximize",
    "svetlichny.svetlichny_value",
)


@pytest.fixture
def calls(monkeypatch):
    return count_calls(monkeypatch, COUNTED)


def _rank4_state():
    # First rank-4 draw with 4*lambda1 > 4, so quantum_bound runs the see-saw.
    gen = rng(11)
    while True:
        rho = random_density(gen)
        if np.linalg.matrix_rank(rho, tol=1e-10) == 4 and analyze(rho).q_bound > 4.0:
            return rho


# (state, whether 4*lambda1 is attained): the certificate runs no see-saw, and CLI
# certify runs one only to report the gap when there is no certificate.
STATES = [
    pytest.param(lambda: realize(FamilySpec(GHZ_COLOR, 1.0)), True, id="ghz-color-p1"),
    pytest.param(_rank4_state, False, id="random-rank4"),
]


def _assert_once(counts, seesaws):
    assert counts["correlation_tensor"] == 1
    assert counts["unfold"] == 1
    assert counts["singular_spectrum"] == 1
    assert counts["maximize"] == seesaws
    # One validation by analyze, plus one inside each trace-oracle check.
    assert counts["validate_density"] == 1 + counts["svetlichny_value"]


@pytest.mark.parametrize("make_state, attained", STATES)
class TestOneAnalysisPerRequest:
    def test_quantum_bound_certify(self, calls, make_state, attained):
        rho = make_state()
        calls.clear()
        report = quantum_bound(rho, CFG, certify=True)
        assert report.q_bound > 4.0
        assert (report.certificate is not None) == attained
        _assert_once(calls, seesaws=1)

    def test_tightness_certificate(self, calls, make_state, attained):
        rho = make_state()
        calls.clear()
        assert (tightness_certificate(rho) is not None) == attained
        _assert_once(calls, seesaws=0)

    def test_cli_certify(self, calls, make_state, attained, tmp_path, capsys):
        path = tmp_path / "state.json"
        write_state_file(path, make_state())
        calls.clear()
        assert main(["certify", "--state", str(path), "--starts", "8"]) == 0
        _assert_once(calls, seesaws=0 if attained else 1)


GHZ_FLAGS = ["--family", "ghz-white", "--theta", "0.785398", "--theta3", "1.570796"]


@pytest.mark.parametrize(
    "argv, validations",
    [
        pytest.param(["optimize", *GHZ_FLAGS, "--p", "1", "--starts", "4"], 1, id="optimize"),
        # The trace-oracle checks of the see-saw witness and of the certificate
        # validate the state once more each.
        pytest.param(
            ["bound", *GHZ_FLAGS, "--p", "0.9", "--certify", "--starts", "4"], 3, id="bound-certify"
        ),
        # The p = 1 member, then one member per halving of [0, 1] down to 1e-9.
        pytest.param(["threshold", *GHZ_FLAGS, "--method", "bisection"], 31, id="threshold-bisection"),
        # One member per angle pair, 2 x 3 of them.
        pytest.param(
            ["scan", "--family", "ghz-white", "--thetas", "0.3,0.5", "--theta3s", "0.1,0.2,0.4",
             "--ps", "0.1:1:5"],
            6,
            id="scan",
        ),
    ],
)
def test_cli_validates_each_state_once(calls, argv, validations, tmp_path, capsys):
    if argv[0] == "scan":
        argv = [*argv, "--out", str(tmp_path / "scan.csv")]
    assert main(argv) == 0
    assert calls["validate_density"] == validations


class TestAnalyze:
    def test_analysis_passes_through_unchanged(self):
        state = analyze(realize(FamilySpec(GHZ_COLOR, 1.0)))
        assert analyze(state) is state
        assert state.q_bound == 4.0 * state.spectrum.lambda1
        assert not state.rho.flags.writeable

    def test_invalid_matrix_is_rejected(self):
        bad = np.zeros((8, 8), dtype=complex)
        bad[0, 0] = 2.0
        with pytest.raises(StateValidationError):
            analyze(bad)

    def test_pieces_match_the_public_chain(self):
        rho = random_density(rng(3))
        state = analyze(rho)
        tensor = correlation_tensor(rho)
        matrix = unfold(tensor)
        assert np.array_equal(state.rho, validate_density(rho))
        assert np.array_equal(state.tensor, tensor)
        assert np.array_equal(state.matrix, matrix)
        assert state.spectrum.values == singular_spectrum(matrix).values
