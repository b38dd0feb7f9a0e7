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


STATES = [
    pytest.param(lambda: realize(FamilySpec(GHZ_COLOR, 1.0)), id="ghz-color-p1"),
    pytest.param(_rank4_state, id="random-rank4"),
]


def _assert_once(counts):
    assert counts["correlation_tensor"] == 1
    assert counts["unfold"] == 1
    assert counts["singular_spectrum"] == 1
    assert counts["maximize"] == 1
    assert counts["validate_density"] <= 3


@pytest.mark.parametrize("make_state", STATES)
class TestOneAnalysisPerRequest:
    def test_quantum_bound_certify(self, calls, make_state):
        rho = make_state()
        calls.clear()
        report = quantum_bound(rho, CFG, certify=True)
        assert report.q_bound > 4.0
        _assert_once(calls)

    def test_tightness_certificate(self, calls, make_state):
        rho = make_state()
        calls.clear()
        tightness_certificate(rho, config=CFG)
        _assert_once(calls)

    def test_cli_certify(self, calls, make_state, tmp_path, capsys):
        path = tmp_path / "state.json"
        write_state_file(path, make_state())
        calls.clear()
        assert main(["certify", "--state", str(path), "--starts", "8"]) == 0
        _assert_once(calls)


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
