import dataclasses
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import svetbound.bounds
import svetbound.cli
import svetbound.families
import svetbound.seesaw
from svetbound import OptimizerConfig, maximize
from svetbound.cli import main, read_state_file, state_payload, write_state_file

from support import exit_code, random_density, rng

FIXTURES = Path(__file__).parent / "fixtures"
GHZ_FLAGS = ["--family", "ghz-white", "--theta", "0.785398", "--theta3", "1.570796"]
# A valid state or family source for each subcommand.
SOURCE_FLAGS = {
    "bound": [*GHZ_FLAGS, "--p", "1"],
    "optimize": [*GHZ_FLAGS, "--p", "1"],
    "threshold": GHZ_FLAGS,
    "scan": ["--family", "ghz-color", "--ps", "0.5", "--out", "unused.csv"],
    "certify": [*GHZ_FLAGS, "--p", "1"],
    "gme": [*GHZ_FLAGS, "--p", "1"],
}


def run_cli(*args):
    """A fresh `python -m svetbound` process, for the few checks that need one."""
    return subprocess.run(
        [sys.executable, "-m", "svetbound", *args],
        capture_output=True,
        text=True,
    )


@pytest.fixture
def run_json(capsys):
    """In-process main that must exit 0; returns the JSON report it printed."""

    def run(*argv):
        code = exit_code(*argv)
        out, err = capsys.readouterr()
        assert code == 0, err
        return json.loads(out)

    return run


def _no_work(*args, **kwargs):
    raise AssertionError("the input check must fire before any work")


class TestBound:
    def test_ghz_value_and_classification(self, run_json):
        out = run_json("bound", *GHZ_FLAGS, "--p", "1", "--starts", "8", "--seed", "1")
        assert out["result"]["q_bound"] == pytest.approx(5.656854, abs=1e-5)
        assert out["result"]["classification"] == "CertifiedViolation"
        assert out["result"]["optimizer_value"] > 4.0
        assert out["seed"] == 1
        assert out["input_digest"].startswith("sha256:")

    def test_below_threshold(self, run_json):
        out = run_json("bound", *GHZ_FLAGS, "--p", "0.5", "--starts", "4")
        assert out["result"]["classification"] == "CertifiedNoViolation"
        assert "optimizer_value" not in out["result"]

    def test_state_file_input(self, tmp_path, run_json):
        path = tmp_path / "mixed.json"
        write_state_file(path, np.eye(8) / 8.0)
        out = run_json("bound", "--state", str(path))
        assert out["result"]["q_bound"] == pytest.approx(0.0, abs=1e-12)

    def test_repeat_runs_byte_identical(self):
        args = ("bound", *GHZ_FLAGS, "--p", "0.9", "--starts", "6", "--seed", "3")
        first = run_cli(*args)
        second = run_cli(*args)
        assert first.stdout == second.stdout

    def test_seesaw_decides_a_state_without_certificate(self, monkeypatch, capsys):
        # W violates but 4*lambda1 is not attained, so one stopped see-saw
        # decides; reruns print the same bytes.
        stops = []

        def counting(rho, config=None, stop_above=None):
            stops.append(stop_above)
            return maximize(rho, config, stop_above=stop_above)

        monkeypatch.setattr(svetbound.bounds, "maximize", counting)
        argv = ["bound", "--state", str(FIXTURES / "w_state.json"), "--certify", "--starts", "8"]
        outputs = []
        for _ in range(2):
            assert main(argv) == 0
            outputs.append(capsys.readouterr().out)
        assert stops == [4.0 + 1e-9] * 2
        assert outputs[1] == outputs[0]
        result = json.loads(outputs[0])["result"]
        assert result["classification"] == "CertifiedViolation"
        assert 4.0 + 1e-9 < result["optimizer_value"] <= result["q_bound"]
        assert "certificate" not in result

    def test_degrees_flag(self, run_json):
        radians = run_json("bound", *GHZ_FLAGS, "--p", "0.5")
        degrees = run_json(
            "bound", "--family", "ghz-white", "--theta", "45", "--theta3", "90",
            "--degrees", "--p", "0.5",
        )
        # math.radians(45) == pi/4 exactly, so the results coincide bit for bit.
        assert degrees["result"]["q_bound"] == pytest.approx(
            radians["result"]["q_bound"], abs=1e-9
        )


class TestOptimize:
    def test_ghz(self, run_json):
        out = run_json("optimize", *GHZ_FLAGS, "--p", "1", "--starts", "8", "--seed", "7")
        assert out["result"]["best_value"] == pytest.approx(4 * math.sqrt(2), abs=1e-6)
        assert len(out["result"]["per_start_values"]) == 8
        settings = out["result"]["best_settings"]
        assert set(settings) == {"a", "a_prime", "b", "b_prime", "c", "c_prime"}
        for vec in settings.values():
            assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-12)

    def test_maximally_mixed(self, tmp_path, run_json):
        path = tmp_path / "mixed.json"
        write_state_file(path, np.eye(8) / 8.0)
        out = run_json("optimize", "--state", str(path), "--starts", "3")
        assert out["result"]["best_value"] == pytest.approx(0.0, abs=1e-12)

    def test_byte_identical(self):
        args = ("optimize", *GHZ_FLAGS, "--p", "1", "--starts", "5", "--seed", "9")
        assert run_cli(*args).stdout == run_cli(*args).stdout


class TestThreshold:
    def test_ghz_white(self, run_json):
        out = run_json("threshold", *GHZ_FLAGS)
        assert out["result"]["p_star"] == pytest.approx(0.707107, abs=1e-5)
        assert out["result"]["method"] == "ClosedForm"

    def test_ghz_color(self, run_json):
        out = run_json("threshold", "--family", "ghz-color")
        assert out["result"]["p_star"] == pytest.approx(0.707107, abs=1e-6)

    def test_no_violation(self, run_json):
        out = run_json("threshold", "--family", "ghz-white", "--theta", "0.1", "--theta3", "0.1")
        assert out["result"]["p_star"] is None

    def test_bisection_method(self, run_json):
        out = run_json("threshold", *GHZ_FLAGS, "--method", "bisection")
        assert out["result"]["method"] == "Bisection"
        assert out["result"]["p_star"] == pytest.approx(0.707107, abs=1e-5)

    def test_rejects_p_flag(self, capsys):
        assert exit_code("threshold", *GHZ_FLAGS, "--p", "0.5") == 1


class TestScan:
    def test_csv_contents(self, tmp_path, run_json):
        out_path = tmp_path / "scan.csv"
        result = run_json(
            "scan", "--family", "ghz-white", "--thetas", "0.785398",
            "--theta3s", "1.570796", "--ps", "0.6:0.8:21", "--out", str(out_path),
        )
        assert result["result"]["rows"] == 21
        assert result["result"]["annotations"]["gme_threshold_literature"] == pytest.approx(0.428571)
        text = out_path.read_text(encoding="utf-8")
        lines = text.split("\n")
        assert lines[0] == "theta,theta3,p,lambda1,q_bound,violates,gme_lb"
        assert len(lines) == 23  # header + 21 rows + trailing newline
        assert "\r" not in text
        flips = ["true" in line for line in lines[1:-1]]
        # violates flips exactly once, at the first p above 0.707107
        assert flips == sorted(flips)
        first_true = flips.index(True)
        p_col = [float(line.split(",")[2]) for line in lines[1:-1]]
        assert p_col[first_true] > 0.707107
        assert p_col[first_true - 1] <= 0.707107

    def test_color_annotations(self, tmp_path, run_json):
        out_path = tmp_path / "color.csv"
        result = run_json("scan", "--family", "ghz-color", "--ps", "0.2,0.9", "--out", str(out_path))
        assert result["result"]["annotations"]["bilocal_model_bound_literature"] == pytest.approx(0.416667)
        assert result["result"]["rows"] == 2

    def test_single_point(self, tmp_path, run_json):
        out_path = tmp_path / "one.csv"
        result = run_json("scan", "--family", "ghz-color", "--ps", "0.5", "--out", str(out_path))
        assert result["result"]["rows"] == 1

    def test_rerun_byte_identical(self, tmp_path):
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        args = ["scan", "--family", "ghz-white", "--thetas", "0.3,0.7", "--theta3s",
                "0.5", "--ps", "0.2:1:5"]
        json_a = run_cli(*args, "--out", str(first)).stdout
        json_b = run_cli(*args, "--out", str(second)).stdout
        assert first.read_bytes() == second.read_bytes()
        # stdout differs only in the echoed --out path
        assert json.loads(json_a)["result"]["rows"] == json.loads(json_b)["result"]["rows"]

    def test_readme_example_matches_recorded_csv(self, tmp_path, capsys):
        out_path = tmp_path / "scan.csv"
        assert main(["scan", "--family", "ghz-white", "--thetas", "0.785398", "--theta3s",
                     "1.570796", "--ps", "0.6:0.8:21", "--out", str(out_path)]) == 0
        assert out_path.read_bytes() == (FIXTURES / "scan_readme_example.csv").read_bytes()

    def test_weight_out_of_range(self, tmp_path, capsys):
        out_path = tmp_path / "x.csv"
        assert exit_code("scan", "--family", "ghz-color", "--ps", "0.5,1.5", "--out", str(out_path)) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: svetbound scan ")
        assert "p must lie in [0, 1], got 1.5" in err
        assert not out_path.exists()

    def test_unwritable_out_path(self, tmp_path, capsys):
        code = exit_code("scan", "--family", "ghz-color", "--ps", "0.5",
                         "--out", str(tmp_path / "missing" / "x.csv"))
        assert code == 3

    def test_successful_scan_leaves_only_the_csv(self, tmp_path, capsys):
        assert main(["scan", "--family", "ghz-color", "--ps", "0.2,0.9",
                     "--out", str(tmp_path / "scan.csv")]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["scan.csv"]

    def test_rerun_replaces_existing_csv(self, tmp_path, capsys):
        out_path = tmp_path / "scan.csv"
        out_path.write_text("stale contents that are longer than nothing\n" * 50)
        assert main(["scan", "--family", "ghz-color", "--ps", "0.5", "--out", str(out_path)]) == 0
        lines = out_path.read_text(encoding="utf-8").split("\n")
        assert lines[0] == "theta,theta3,p,lambda1,q_bound,violates,gme_lb"
        assert len(lines) == 3  # header + 1 row + trailing newline
        assert sorted(p.name for p in tmp_path.iterdir()) == ["scan.csv"]

    def test_missing_directory_leaves_nothing(self, tmp_path, capsys):
        code = main(["scan", "--family", "ghz-color", "--ps", "0.5",
                     "--out", str(tmp_path / "missing" / "x.csv")])
        assert code == 3
        assert list(tmp_path.iterdir()) == []


class TestCertify:
    def test_white_noise_family(self, run_json):
        out = run_json("certify", *GHZ_FLAGS, "--p", "0.8", "--starts", "6", "--seed", "2")
        cert = out["result"]["certificate"]
        assert cert is not None
        assert abs(cert["achieved"]) == pytest.approx(4.525483, abs=1e-5)
        assert cert["residual"] <= 1e-6

    def test_color_noise_full_weight(self, run_json):
        out = run_json("certify", "--family", "ghz-color", "--p", "1", "--starts", "6")
        assert abs(out["result"]["certificate"]["achieved"]) == pytest.approx(
            5.656854, abs=1e-5
        )

    def test_certificate_ignores_starts_and_seed(self, capsys):
        outputs = []
        for starts, seed in (("6", "0"), ("6", "7"), ("20", "0")):
            assert main(["certify", *GHZ_FLAGS, "--p", "0.8", "--starts", starts, "--seed", seed]) == 0
            outputs.append(json.loads(capsys.readouterr().out)["result"])
        assert outputs[0]["certificate"] is not None
        assert outputs[1] == outputs[0] and outputs[2] == outputs[0]

    def test_random_dense_fixture_reports_gap(self, run_json):
        out = run_json(
            "certify", "--state", str(FIXTURES / "random_dense_state.json"),
            "--starts", "10", "--seed", "5",
        )
        assert out["result"]["certificate"] is None
        assert out["result"]["gap"] > 0.0

    def test_gap_reuses_the_certificate_seesaw(self, monkeypatch, capsys):
        calls = []

        def counting(rho, config=None):
            calls.append(config)
            return maximize(rho, config)

        monkeypatch.setattr(svetbound.bounds, "maximize", counting)
        monkeypatch.setattr(svetbound.cli, "maximize", counting)
        state = FIXTURES / "random_dense_state.json"
        code = main(["certify", "--state", str(state), "--starts", "10", "--seed", "5"])
        assert code == 0
        assert len(calls) == 1
        out = json.loads(capsys.readouterr().out)
        best = maximize(read_state_file(state), OptimizerConfig(starts=10, seed=5)).best_value
        assert out["result"]["gap"] == out["result"]["q_bound"] - best


class TestGme:
    def test_ghz(self, run_json):
        out = run_json("gme", *GHZ_FLAGS, "--p", "1")
        assert out["result"]["lb_value"] == pytest.approx(0.207107, abs=1e-5)

    def test_maximally_mixed(self, tmp_path, run_json):
        path = tmp_path / "mixed.json"
        write_state_file(path, np.eye(8) / 8.0)
        out = run_json("gme", "--state", str(path))
        assert out["result"]["lb_value"] == pytest.approx(-0.5, abs=1e-12)
        assert out["result"]["clamped_lb"] == 0.0

    def test_white_noise_09(self, run_json):
        out = run_json("gme", *GHZ_FLAGS, "--p", "0.9")
        assert out["result"]["lb_value"] == pytest.approx(0.136396, abs=1e-5)


class TestExitCodes:
    def test_no_subcommand_is_usage(self, capsys):
        assert exit_code() == 1

    def test_missing_state_source(self, capsys):
        assert exit_code("bound") == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: svetbound bound ")
        assert "one of the arguments --state --family is required" in err

    def test_both_state_sources(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(svetbound.cli, "read_state_file", _no_work)
        path = tmp_path / "mixed.json"
        write_state_file(path, np.eye(8) / 8.0)
        assert exit_code("bound", "--state", str(path), "--family", "ghz-color", "--p", "1") == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: svetbound bound ")
        assert "argument --family: not allowed with argument --state" in err

    @pytest.mark.parametrize("flag", [["--theta", "0.5"], ["--theta3", "0.5"], ["--p", "0.5"], ["--degrees"]])
    def test_family_flag_with_state_is_a_usage_error(self, flag, tmp_path, monkeypatch, capsys):
        path = tmp_path / "mixed.json"
        write_state_file(path, np.eye(8) / 8.0)
        assert exit_code("bound", "--state", str(path)) == 0
        capsys.readouterr()
        monkeypatch.setattr(svetbound.cli, "read_state_file", _no_work)
        assert exit_code("bound", "--state", str(path), *flag) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: svetbound bound ")
        assert f"{flag[0]} only applies to --family input" in err

    def test_unknown_family(self, capsys):
        assert exit_code("threshold", "--family", "ghz-pink") == 1

    def test_out_of_range_angle(self, capsys):
        code = exit_code("bound", "--family", "ghz-white", "--theta", "2.0", "--theta3", "0.5", "--p", "1")
        assert code == 1

    def test_invalid_state_lists_residuals(self, tmp_path):
        # A fresh `python -m svetbound`, so the exit code main returns is seen to reach the shell.
        bad = np.zeros((8, 8), dtype=complex)
        bad[0, 0] = 2.0
        path = tmp_path / "bad.json"
        write_state_file(path, bad)
        proc = run_cli("bound", "--state", str(path))
        assert proc.returncode == 2
        assert "trace_not_one" in proc.stderr
        assert "residual" in proc.stderr

    def test_missing_state_file(self, capsys):
        assert exit_code("bound", "--state", "/nonexistent/state.json") == 3

    def test_malformed_json_state(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert exit_code("bound", "--state", str(path)) == 2

    def test_non_utf8_state_file(self, tmp_path, capsys):
        path = tmp_path / "utf16.json"
        path.write_bytes(b"\xff\xfe")
        assert main(["bound", "--state", str(path)]) == 2
        assert capsys.readouterr().err.startswith("svetbound: bad state file: ")

    def test_seesaw_check_failure_is_numerical(self, monkeypatch, capsys):
        real = svetbound.correlation.singular_spectrum
        monkeypatch.setattr(
            svetbound.correlation,
            "singular_spectrum",
            lambda m: dataclasses.replace(real(m), lambda1=1e-3),
        )
        assert main(["optimize", *GHZ_FLAGS, "--p", "1", "--starts", "2"]) == 3
        assert "numerical failure" in capsys.readouterr().err

    @pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
    def test_bad_tol_checked_before_the_state_is_read(self, tol, tmp_path, capsys):
        # Both tolerances are library constants, so --tol is an unrecognized
        # argument; the state alone would exit 2, and the flag is refused first.
        bad = np.zeros((8, 8), dtype=complex)
        bad[0, 0] = 2.0
        path = tmp_path / "bad.json"
        write_state_file(path, bad)
        for subcommand in ("certify", "optimize"):
            assert exit_code(subcommand, "--state", str(path)) == 2
            capsys.readouterr()
            assert exit_code(subcommand, "--state", str(path), "--tol", tol) == 1
            err = capsys.readouterr().err
            assert err.startswith(f"usage: svetbound {subcommand} ")
            assert err.endswith(f"svetbound {subcommand}: error: unrecognized arguments: --tol {tol}\n")

    @pytest.mark.parametrize("subcommand", ["bound", "optimize", "certify"])
    def test_starts_above_cap(self, subcommand, monkeypatch, capsys):
        monkeypatch.setattr(svetbound.cli, "_resolve_state", _no_work)
        starts = str(svetbound.seesaw.MAX_STARTS + 1)
        assert exit_code(subcommand, *GHZ_FLAGS, "--p", "1", "--starts", starts) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"usage: svetbound {subcommand} ")
        assert err.endswith(f"svetbound {subcommand}: error: starts must lie in [1, 10000]\n")

    @pytest.mark.parametrize("subcommand", ["bound", "optimize", "certify"])
    def test_starts_below_one(self, subcommand, monkeypatch, capsys):
        monkeypatch.setattr(svetbound.cli, "_resolve_state", _no_work)
        assert exit_code(subcommand, *GHZ_FLAGS, "--p", "1", "--starts", "0") == 1
        err = capsys.readouterr().err
        assert err.startswith(f"usage: svetbound {subcommand} ")
        assert err.endswith(f"svetbound {subcommand}: error: starts must lie in [1, 10000]\n")

    @pytest.mark.parametrize("subcommand", list(SOURCE_FLAGS))
    @pytest.mark.parametrize(
        "seed, message",
        [("-1", "seed must fit in an unsigned 64-bit integer"),
         (str(2**64), "seed must fit in an unsigned 64-bit integer"),
         ("1.5", "invalid int value: '1.5'")],
    )
    def test_bad_seed_is_a_usage_error(self, subcommand, seed, message, monkeypatch, capsys):
        for name in ("_resolve_state", "violation_threshold", "scan"):
            monkeypatch.setattr(svetbound.cli, name, _no_work)
        assert exit_code(subcommand, *SOURCE_FLAGS[subcommand], "--seed", seed) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"usage: svetbound {subcommand} ")
        assert message in err

    @pytest.mark.parametrize("subcommand", list(SOURCE_FLAGS))
    def test_seed_range_ends_are_accepted(self, subcommand, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)  # scan writes its CSV to the working directory
        for seed in (0, 2**64 - 1):
            assert exit_code(subcommand, *SOURCE_FLAGS[subcommand], "--seed", str(seed)) == 0
            assert json.loads(capsys.readouterr().out)["seed"] == seed

    def test_library_value_error_prints_the_subcommand_usage(self, monkeypatch, capsys):
        # Every library ValueError reaches the user in one format: the usage error.
        def boom(state):
            raise ValueError("boom")

        monkeypatch.setattr(svetbound.cli, "gme_lower_bound", boom)
        assert exit_code("gme", "--family", "ghz-color", "--p", "1") == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: svetbound gme ")
        assert err.endswith("svetbound gme: error: boom\n")

    def test_subcommand_error_prints_the_subcommand_usage(self, capsys):
        assert exit_code("threshold", "--family", "ghz-white") == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: svetbound threshold ")
        assert "ghz-white requires --theta and --theta3" in err

    @pytest.mark.parametrize("subcommand", ["bound", "optimize", "threshold", "certify", "gme"])
    def test_degrees_with_ghz_color_is_a_usage_error(self, subcommand, monkeypatch, capsys):
        # ghz-color takes no angles, so --degrees is refused as --theta is; scan's
        # case is in test_scan_family_grid_rules.
        flags = ["--family", "ghz-color"] + ([] if subcommand == "threshold" else ["--p", "1"])
        assert exit_code(subcommand, *flags) == 0
        capsys.readouterr()
        for name in ("realize", "violation_threshold"):
            monkeypatch.setattr(svetbound.cli, name, _no_work)
        assert exit_code(subcommand, *flags, "--degrees") == 1
        err = capsys.readouterr().err
        assert err.startswith(f"usage: svetbound {subcommand} ")
        assert "ghz-color takes no --theta, --theta3 or --degrees" in err

    def test_grid_count_above_cap(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(svetbound.cli, "scan", _no_work)
        ps = f"0:1:{svetbound.families.MAX_SCAN_ROWS + 1}"
        out_path = tmp_path / "x.csv"
        assert exit_code("scan", "--family", "ghz-color", "--ps", ps, "--out", str(out_path)) == 1
        assert "count must be at most" in capsys.readouterr().err
        assert not out_path.exists()

    def test_grid_rows_above_cap(self, tmp_path, monkeypatch, capsys):
        # 101 * 9901 = MAX_SCAN_ROWS + 1 rows, each grid alone under the cap; scan
        # refuses the grid before it builds any member.
        assert 101 * 9901 == svetbound.families.MAX_SCAN_ROWS + 1
        for name in ("GhzClassParams", "_analyze_member"):
            monkeypatch.setattr(svetbound.families, name, _no_work)
        out_path = tmp_path / "x.csv"
        code = exit_code("scan", "--family", "ghz-white", "--thetas", "0:0.5:101",
                         "--theta3s", "0:1:9901", "--ps", "0.5", "--out", str(out_path))
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: svetbound scan ")
        assert "the grid has more than 1000000 rows" in err
        assert not out_path.exists()

    @pytest.mark.parametrize(
        "family, grids, message",
        [("ghz-white", ["--thetas", "0.5"], "ghz-white requires theta and theta3 grids"),
         ("ghz-color", ["--theta3s", ""], "ghz-color takes no angle grids"),
         ("ghz-color", ["--degrees"], "ghz-color takes no --degrees")],
    )
    def test_scan_family_grid_rules(self, family, grids, message, tmp_path, capsys):
        out_path = tmp_path / "x.csv"
        assert exit_code("scan", "--family", family, *grids, "--ps", "0.5", "--out", str(out_path)) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: svetbound scan ")
        assert message in err
        assert not out_path.exists()

    def test_empty_grid_is_a_usage_error(self, tmp_path, capsys):
        out_path = tmp_path / "x.csv"
        assert exit_code("scan", "--family", "ghz-color", "--ps", "0:1:0", "--out", str(out_path)) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: svetbound scan ")
        assert err.endswith("svetbound scan: error: p grid must be nonempty\n")
        assert not out_path.exists()

    def test_wrong_schema(self, tmp_path, capsys):
        path = tmp_path / "schema.json"
        path.write_text(json.dumps({"dim": 4, "matrix": []}))
        assert exit_code("bound", "--state", str(path)) == 2

    @pytest.mark.parametrize("entry", ["0.125", True, None, 10**400])
    def test_matrix_entry_that_is_no_float_is_a_bad_state_file(self, entry, tmp_path, capsys):
        # The maximally mixed state with one entry a JSON string, boolean or null,
        # or an integer too large for a float.
        payload = state_payload(np.eye(8) / 8.0)
        payload["matrix"][0][0][0] = entry
        path = tmp_path / "state.json"
        path.write_text(json.dumps(payload))
        assert exit_code("gme", "--state", str(path)) == 2
        assert capsys.readouterr().err.startswith("svetbound: bad state file: ")

    @pytest.mark.parametrize(
        "change, message",
        [
            pytest.param({"dim": 8.0}, "field 'dim' must be 8", id="float-dim"),
            pytest.param({"extra": 1}, "keys must be exactly 'dim' and 'matrix'", id="extra-key"),
        ],
    )
    def test_schema_is_exact(self, change, message, tmp_path, capsys):
        # The maximally mixed state, with dim a JSON float or one key too many.
        payload = {**state_payload(np.eye(8) / 8.0), **change}
        path = tmp_path / "state.json"
        path.write_text(json.dumps(payload))
        assert exit_code("gme", "--state", str(path)) == 2
        err = capsys.readouterr().err
        assert err.startswith("svetbound: bad state file: ")
        assert message in err


class TestParser:
    def test_built_once_per_process(self, monkeypatch, capsys):
        built = []
        real = svetbound.cli.build_parser

        def counting():
            built.append(1)
            return real()

        monkeypatch.setattr(svetbound.cli, "build_parser", counting)
        svetbound.cli._parser.cache_clear()
        assert main(["gme", "--family", "ghz-color", "--p", "1"]) == 0
        assert main(["gme", "--family", "ghz-color", "--p", "0.5"]) == 0
        assert len(built) == 1

    def test_not_built_at_import(self):
        script = "import svetbound.cli as c; print(c._parser.cache_info().currsize)"
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.stdout.strip() == "0", proc.stderr


class TestStateRoundTrip:
    def test_writer_reader_bit_identical(self, tmp_path):
        gen = rng(600)
        for idx in range(5):
            rho = random_density(gen)
            # normalize through the validator wrapper used by the writer
            path = tmp_path / f"state_{idx}.json"
            write_state_file(path, rho)
            back = read_state_file(path)
            assert np.array_equal(back, np.asarray(rho, dtype=complex))

    def test_failed_write_keeps_the_old_file(self, tmp_path):
        path = tmp_path / "state.json"
        write_state_file(path, np.eye(8) / 8.0)
        before = path.read_bytes()
        with pytest.raises((TypeError, ValueError)):
            write_state_file(path, "not a matrix")
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["state.json"]

    def test_payload_shape(self):
        payload = state_payload(np.eye(8) / 8.0)
        assert payload["dim"] == 8
        assert len(payload["matrix"]) == 8
        assert len(payload["matrix"][0]) == 8
        assert payload["matrix"][0][0] == [0.125, 0.0]
