"""StateAnalysis: one validation, tensor and spectrum per request, shared by every layer."""

import json

import numpy as np
import pytest

import svetbound.cli
from svetbound import (
    CERTIFIED_NO_VIOLATION,
    CERTIFIED_VIOLATION,
    GHZ_COLOR,
    FamilySpec,
    OptimizerConfig,
    StateValidationError,
    correlation_tensor,
    ghz_state,
    pure_to_density,
    quantum_bound,
    realize,
    singular_spectrum,
    tightness_certificate,
    unfold,
    validate_density,
)
from svetbound.cli import main, read_state_file, state_payload, write_state_file
from svetbound.correlation import StateAnalysis, analyze

from support import count_calls, random_density, rng

CFG = OptimizerConfig(starts=8, seed=0)

# Every validation runs the stacked core once, and builds the Hermitian part
# once; _tensors is the 27-Pauli contraction of every state, alone or stacked.
COUNTED = (
    "qcore._validate_stack",
    "qcore._hermitian_part",
    "correlation._tensors",
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


# (state, whether 4*lambda1 is attained): the certificate runs no see-saw, and
# decides the classification where it is attained; quantum_bound and CLI certify
# run one see-saw only when there is no certificate.
STATES = [
    pytest.param(lambda: realize(FamilySpec(GHZ_COLOR, 1.0)), True, id="ghz-color-p1"),
    pytest.param(_rank4_state, False, id="random-rank4"),
]


def _assert_once(counts, seesaws):
    assert counts["_tensors"] == 1
    assert counts["unfold"] == 1
    assert counts["singular_spectrum"] == 1
    assert counts["maximize"] == seesaws
    # analyze validates; the trace-oracle checks reuse its validated rho.
    assert counts["_validate_stack"] == 1
    assert counts["_hermitian_part"] == 1


@pytest.mark.parametrize("make_state, attained", STATES)
class TestOneAnalysisPerRequest:
    def test_quantum_bound_certify(self, calls, make_state, attained):
        rho = make_state()
        calls.clear()
        report = quantum_bound(rho, CFG, certify=True)
        assert report.q_bound > 4.0
        assert (report.certificate is not None) == attained
        _assert_once(calls, seesaws=0 if attained else 1)

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
        # reuse the analysed state.
        pytest.param(
            ["bound", *GHZ_FLAGS, "--p", "0.9", "--certify", "--starts", "4"], 1, id="bound-certify"
        ),
        # The p = 1 member, then one member per halving of [0, 1] down to 1e-9.
        pytest.param(["threshold", *GHZ_FLAGS, "--method", "bisection"], 31, id="threshold-bisection"),
        # The 2 x 3 angle pairs are validated as one stack.
        pytest.param(
            ["scan", "--family", "ghz-white", "--thetas", "0.3,0.5", "--theta3s", "0.1,0.2,0.4",
             "--ps", "0.1:1:5"],
            1,
            id="scan",
        ),
    ],
)
def test_cli_validates_each_state_once(calls, argv, validations, tmp_path, capsys):
    if argv[0] == "scan":
        argv = [*argv, "--out", str(tmp_path / "scan.csv")]
    assert main(argv) == 0
    assert calls["_validate_stack"] == validations
    assert calls["_hermitian_part"] == validations


def _mixed_with_two_residues():
    # I/8 with anti-Hermitian residues of 0.9e-9 at (0, 1) and (2, 3), under the
    # 1e-9 Hermiticity tolerance; taken raw, they add up to an imaginary part of
    # 1.8e-9 in a correlation entry.
    rho = np.eye(8, dtype=complex) / 8.0
    rho[0, 1] = 0.9e-9j
    rho[2, 3] = -0.9e-9j
    return rho


def _ghz_with_corner_residue():
    # The GHZ projector with 0.45e-9j added at (0, 7) and (7, 0): anti-Hermitian
    # by 0.9e-9, and taken raw, the witness trace gets an imaginary part of 5.1e-9.
    rho = np.array(pure_to_density(ghz_state()))
    rho[0, 7] += 0.45e-9j
    rho[7, 0] += 0.45e-9j
    return rho


@pytest.mark.parametrize(
    "make_state, classification",
    [
        pytest.param(_mixed_with_two_residues, CERTIFIED_NO_VIOLATION, id="mixed-two-residues"),
        pytest.param(_ghz_with_corner_residue, CERTIFIED_VIOLATION, id="ghz-corner-residue"),
    ],
)
class TestStatesThatPassValidation:
    """A state that validate_density accepts is analysed from its Hermitian part,
    so no later trace check can fail on it."""

    def test_analysis_holds_the_hermitian_part(self, make_state, classification):
        rho = make_state()
        state = analyze(rho)
        assert np.array_equal(state.rho, (rho + rho.conj().T) / 2.0)
        assert np.array_equal(state.rho, state.rho.conj().T)
        assert np.array_equal(state.rho, validate_density(rho))
        assert not state.rho.flags.writeable
        assert np.array_equal(correlation_tensor(rho), state.tensor)

    def test_quantum_bound_certify(self, calls, make_state, classification):
        rho = make_state()
        calls.clear()
        report = quantum_bound(rho, CFG, certify=True)
        assert report.classification == classification
        assert report.certificate is not None
        # Both states' bounds are attained: the bound or the certificate decides, with no see-saw.
        _assert_once(calls, seesaws=0)
        if classification == CERTIFIED_VIOLATION:
            assert report.witness is report.certificate.settings

    def test_cli_exits_zero(self, make_state, classification, tmp_path, capsys):
        path = tmp_path / "state.json"
        write_state_file(path, make_state())
        raw = read_state_file(str(path))
        # The digest hashes the file's matrix, not its Hermitian part.
        digest = svetbound.cli._digest(state_payload(raw))
        assert digest != svetbound.cli._digest(state_payload(analyze(raw).rho))
        for argv in (["gme", "--state", str(path)], ["bound", "--state", str(path), "--certify", "--starts", "8"]):
            assert main(argv) == 0
            out, err = capsys.readouterr()
            assert err == ""
            assert json.loads(out)["input_digest"] == digest


class TestAnalyze:
    def test_analysis_passes_through_unchanged(self):
        state = analyze(realize(FamilySpec(GHZ_COLOR, 1.0)))
        assert analyze(state) is state
        assert state.q_bound == 4.0 * state.spectrum.lambda1
        assert not state.rho.flags.writeable

    def test_pieces_come_only_from_rho(self):
        # A StateAnalysis derives its tensor, unfolding and spectrum from its own
        # rho, so none can pair a state with another state's tensor.
        ghz = analyze(realize(FamilySpec(GHZ_COLOR, 1.0)))
        with pytest.raises(TypeError):
            StateAnalysis(3 * np.eye(8), ghz.tensor, ghz.matrix, ghz.spectrum)
        with pytest.raises(StateValidationError):
            StateAnalysis(3 * np.eye(8))
        assert StateAnalysis(ghz.rho).spectrum.values == ghz.spectrum.values

    def test_hermitian_part_is_built_once(self, monkeypatch):
        # Validation builds it, and the analysis keeps that array as its rho.
        rho = _mixed_with_two_residues()
        calls = count_calls(monkeypatch, ["qcore._hermitian_part"])
        state = analyze(rho)
        assert calls["_hermitian_part"] == 1
        assert state.rho.tobytes() == ((rho + rho.conj().T) / 2.0).tobytes()

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
