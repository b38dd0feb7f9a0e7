"""Command-line interface: bound, optimize, threshold, scan, certify and gme subcommands.

Output contract: one JSON report per invocation on stdout, floats printed with
17 significant digits; scan additionally writes a CSV (9 significant digits,
UTF-8, LF line endings). Identical inputs and seed produce byte-identical
output. Exit codes: 0 success, 1 usage error, 2 state validation failure,
3 numerical or I/O failure.

The optimize, threshold and gme results, and every certificate, are the
library's result objects written field by field: OptimizationResult,
ThresholdReport, GmeReport and Certificate (its settings a MeasurementSettings),
each with its fields as keys in declaration order.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import hashlib
import json
import math
import os
import secrets
import sys

import numpy as np

from . import __version__
from .bounds import quantum_bound, tightness_certificate
from .correlation import StateAnalysis, analyze
from .families import (
    BILOCAL_BOUND_LITERATURE,
    BISECTION,
    CLOSED_FORM,
    GHZ_COLOR,
    GHZ_WHITE,
    GME_THRESHOLD_LITERATURE,
    MAX_SCAN_ROWS,
    FamilySpec,
    GhzClassParams,
    gme_lower_bound,
    realize,
    scan,
    violation_threshold,
)
from .qcore import StateValidationError
from .seesaw import OptimizerConfig, SeesawError, maximize

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3


class StateFormatError(ValueError):
    """Raised when a state file does not match the documented JSON schema."""


def _fmt17(value: float) -> str:
    return format(float(value), ".17g")


def _fmt9(value: float) -> str:
    return format(float(value), ".9g")


def _to_json(value) -> str:
    # Hand-rolled emitter so floats are always rendered with 17 significant digits.
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "null"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return _fmt17(value)
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_to_json(item) for item in value) + "]"
    if isinstance(value, dict):
        return "{" + ",".join(f"{json.dumps(str(k))}:{_to_json(v)}" for k, v in value.items()) + "}"
    # After the list and dict branches, so the nested lists of a state digest skip these checks.
    if isinstance(value, np.ndarray):
        return _to_json(value.tolist())
    if dataclasses.is_dataclass(value):
        return _to_json({f.name: getattr(value, f.name) for f in dataclasses.fields(value)})
    raise TypeError(f"cannot serialize {type(value)!r}")


def _digest(payload) -> str:
    return "sha256:" + hashlib.sha256(_to_json(payload).encode("utf-8")).hexdigest()


def state_payload(rho) -> dict:
    """Canonical JSON payload for a density matrix: keys dim and matrix of [re, im] pairs.
    Raises ValueError for a matrix that is not 8x8 or holds a non-finite entry, which
    state_from_payload would reject or JSON cannot spell."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (8, 8):
        raise ValueError(f"state matrix must be 8x8, got shape {rho.shape}")
    if not np.isfinite(rho).all():
        raise ValueError("state matrix entries must be finite")
    return {"dim": 8, "matrix": np.stack([rho.real, rho.imag], axis=-1).tolist()}


def state_from_payload(payload) -> np.ndarray:
    """Parse a StateFile payload into a complex 8x8 matrix. Only the schema is
    checked here; analyze validates the matrix as a density matrix."""
    if not isinstance(payload, dict):
        raise StateFormatError("state file must contain a JSON object")
    if set(payload) != {"dim", "matrix"}:
        raise StateFormatError(f"state file keys must be exactly 'dim' and 'matrix', got {sorted(payload)}")
    # 8.0 == 8 in Python, but the schema asks for the JSON integer 8.
    if type(payload["dim"]) is not int or payload["dim"] != 8:
        raise StateFormatError("state file field 'dim' must be 8")
    try:
        arr = np.asarray(payload["matrix"], dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise StateFormatError(f"state file matrix is not numeric: {exc}") from None
    if arr.shape != (8, 8, 2):
        raise StateFormatError(
            f"state file matrix must be 8x8 entries of [re, im] pairs, got shape {arr.shape}"
        )
    # numpy would also read strings such as "0.125", true and null as floats.
    if not all(type(x) in (int, float) for row in payload["matrix"] for pair in row for x in pair):
        raise StateFormatError("state file matrix entries must be JSON numbers")
    return arr[..., 0] + 1j * arr[..., 1]


@contextlib.contextmanager
def _atomic_open(path):
    """Text handle (UTF-8, newlines untranslated) whose contents replace path only
    once the block completes; on any failure path is untouched and the temporary
    file beside it is removed."""
    tmp = f"{path}.{secrets.token_hex(4)}.tmp"
    try:
        with open(tmp, "x", encoding="utf-8", newline="") as handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def write_state_file(path: str, rho) -> None:
    """Canonical state writer; written files re-parse to a bit-identical matrix.
    The file is written atomically: a reader sees the old file or the whole new one."""
    text = _to_json(state_payload(rho)) + "\n"
    with _atomic_open(path) as handle:
        handle.write(text)


def _reject_constant(token: str):
    raise StateFormatError(f"state file holds {token}, which is not a JSON number")


def _finite_float(token: str) -> float:
    value = float(token)
    if not math.isfinite(value):
        raise StateFormatError(f"state file number {token} is too large for a double")
    return value


def read_state_file(path: str) -> np.ndarray:
    """Read a state file into a complex 8x8 matrix (see state_from_payload); a
    file that is not UTF-8 JSON raises StateFormatError, and so does one holding
    NaN, Infinity or -Infinity, which Python's json module would otherwise read,
    or a number such as 1e400 that a double cannot hold."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            payload = json.load(handle, parse_constant=_reject_constant, parse_float=_finite_float)
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise StateFormatError(f"state file is not valid JSON: {exc}") from None
    return state_from_payload(payload)


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; the documented contract is 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _family_params(args, parser: _Parser) -> tuple[GhzClassParams | None, dict]:
    """--family angles (both for ghz-white, none for ghz-color; in radians, converted
    when --degrees is given) and the family's digest payload."""
    theta, theta3 = args.theta, args.theta3
    if args.family == GHZ_COLOR:
        if theta is not None or theta3 is not None or args.degrees:
            parser.error("ghz-color takes no --theta, --theta3 or --degrees")
        return None, {"family": GHZ_COLOR}
    if theta is None or theta3 is None:
        parser.error("ghz-white requires --theta and --theta3")
    if args.degrees:
        theta, theta3 = math.radians(theta), math.radians(theta3)
    return GhzClassParams(theta, theta3), {"family": GHZ_WHITE, "theta": theta, "theta3": theta3}


def _resolve_state(args, parser: _Parser) -> tuple[StateAnalysis, str]:
    """The analysed state and its input digest, from --state or --family flags.
    The state is analysed before the digest is taken, so an invalid matrix fails first."""
    if args.state is not None:
        for flag in ("theta", "theta3", "p"):
            if getattr(args, flag) is not None:
                parser.error(f"--{flag} only applies to --family input")
        if args.degrees:
            parser.error("--degrees only applies to --family input")
        rho = read_state_file(args.state)
        return analyze(rho), _digest(state_payload(rho))
    if args.p is None:
        parser.error("--family requires --p")
    params, payload = _family_params(args, parser)
    spec = FamilySpec(args.family, args.p, params)
    return analyze(realize(spec)), _digest({**payload, "p": args.p})


def _emit(args, digest: str, result) -> int:
    report = {
        "command": list(args.argv),
        "input_digest": digest,
        "seed": args.config.seed,
        "version": __version__,
        "result": result,
    }
    sys.stdout.write(_to_json(report) + "\n")
    return EXIT_OK


def _cmd_bound(args, parser):
    state, digest = _resolve_state(args, parser)
    report = quantum_bound(state, args.config, certify=args.certify)
    result = {
        "lambda": report.spectrum.values,
        "q_bound": report.q_bound,
        "classification": report.classification,
    }
    if report.optimizer_value is not None:
        result["optimizer_value"] = report.optimizer_value
    if report.certificate is not None:
        result["certificate"] = report.certificate
    return _emit(args, digest, result)


def _cmd_optimize(args, parser):
    state, digest = _resolve_state(args, parser)
    return _emit(args, digest, maximize(state, args.config))


def _cmd_threshold(args, parser):
    method = CLOSED_FORM if args.method == "closed-form" else BISECTION
    params, payload = _family_params(args, parser)
    return _emit(args, _digest(payload), violation_threshold(args.family, params, method=method))


def _parse_grid(
    text: str | None, parser: _Parser, flag: str, degrees: bool = False
) -> list[float] | None:
    """A comma list or lo:hi:count grid, converted to radians when degrees is set;
    None when the flag was not given."""
    if text is None:
        return None
    try:
        if ":" in text:
            lo, hi, count = text.split(":")
            lo, hi, count = float(lo), float(hi), int(count)
            # scan checks the row count, but a single grid this long is refused before it is built.
            if count > MAX_SCAN_ROWS:
                raise ValueError(f"count must be at most {MAX_SCAN_ROWS}")
            values = [float(v) for v in np.linspace(lo, hi, count)]
        else:
            values = [float(token) for token in text.split(",") if token.strip()]
    except ValueError as exc:
        parser.error(f"bad grid for {flag}: {exc}")
    return [math.radians(v) for v in values] if degrees else values


def _cmd_scan(args, parser):
    if args.degrees and args.family == GHZ_COLOR:
        parser.error("ghz-color takes no --degrees")
    ps = _parse_grid(args.ps, parser, "--ps")
    thetas = _parse_grid(args.thetas, parser, "--thetas", args.degrees)
    theta3s = _parse_grid(args.theta3s, parser, "--theta3s", args.degrees)
    rows = scan(args.family, thetas, theta3s, ps)
    if args.family == GHZ_WHITE:
        digest = _digest({"family": args.family, "thetas": thetas, "theta3s": theta3s, "ps": ps})
        annotations = {"gme_threshold_literature": GME_THRESHOLD_LITERATURE}
    else:
        digest = _digest({"family": args.family, "ps": ps})
        annotations = {"bilocal_model_bound_literature": BILOCAL_BOUND_LITERATURE}
    with _atomic_open(args.out) as handle:
        handle.write("theta,theta3,p,lambda1,q_bound,violates,gme_lb\n")
        for row in rows:
            cells = [_fmt9(v) for v in (row.theta, row.theta3, row.p, row.lambda1, row.q_bound)]
            cells += ["true" if row.violates else "false", _fmt9(row.gme_lb)]
            handle.write(",".join(cells) + "\n")
    result = {
        "out": args.out,
        "rows": len(rows),
        "annotations": annotations,
        "annotations_note": "cited literature values, quoted not computed",
    }
    return _emit(args, digest, result)


def _cmd_certify(args, parser):
    state, digest = _resolve_state(args, parser)
    certificate = tightness_certificate(state)
    q_bound = state.q_bound
    if certificate is not None:
        result = {"q_bound": q_bound, "certificate": certificate}
    else:
        # Without a certificate the see-saw's best value measures how far the bound is from attained.
        best = maximize(state, args.config).best_value
        result = {"q_bound": q_bound, "certificate": None, "gap": q_bound - best}
    return _emit(args, digest, result)


def _cmd_gme(args, parser):
    state, digest = _resolve_state(args, parser)
    return _emit(args, digest, gme_lower_bound(state))


def _add_family(container, required: bool = False) -> None:
    choices = [GHZ_WHITE, GHZ_COLOR]
    container.add_argument("--family", choices=choices, required=required, help="parameterized family")


def build_parser() -> _Parser:
    parser = _Parser(prog="svetbound", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"svetbound {__version__}")
    subs = parser.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)

    # Parent parsers: each flag is declared once and shared by the subcommands that take it.
    # --seed and --starts have no default here: main hands the given ones to OptimizerConfig,
    # which owns their defaults and ranges.
    seed = _Parser(add_help=False)
    seed.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    starts = _Parser(add_help=False)
    starts.add_argument("--starts", type=int, default=argparse.SUPPRESS)
    degrees = _Parser(add_help=False)
    degrees.add_argument("--degrees", action="store_true", help="interpret angles in degrees")
    angles = _Parser(add_help=False, parents=[degrees])
    angles.add_argument("--theta", type=float, help="family angle theta (radians)")
    angles.add_argument("--theta3", type=float, help="family angle theta3 (radians)")
    family = _Parser(add_help=False)
    _add_family(family, required=True)
    source = _Parser(add_help=False)
    either = source.add_mutually_exclusive_group(required=True)
    either.add_argument("--state", metavar="FILE", help="density matrix JSON file")
    _add_family(either)
    source.add_argument("--p", type=float, help="family mixing weight in [0, 1]")

    def command(name, func, help_text, *parents):
        sub = subs.add_parser(name, parents=[*parents, seed], help=help_text)
        sub.set_defaults(func=func, parser=sub)
        return sub

    bound = command("bound", _cmd_bound, "singular-value bound 4*lambda1 and classification",
                    source, angles, starts)
    bound.add_argument("--certify", action="store_true", help="also attach a tightness certificate")
    command("optimize", _cmd_optimize, "multistart see-saw maximal value", source, angles, starts)
    threshold = command("threshold", _cmd_threshold, "critical mixing weight p*", family, angles)
    threshold.add_argument("--method", choices=["closed-form", "bisection"], default="closed-form")
    scan_cmd = command("scan", _cmd_scan, "grid scan to CSV", family, degrees)
    scan_cmd.add_argument("--thetas", help="grid: comma list or lo:hi:count")
    scan_cmd.add_argument("--theta3s", help="grid: comma list or lo:hi:count")
    scan_cmd.add_argument("--ps", required=True, help="grid: comma list or lo:hi:count")
    scan_cmd.add_argument("--out", required=True, metavar="FILE", help="CSV output path")
    command("certify", _cmd_certify, "settings attaining 4*lambda1, if any", source, angles, starts)
    command("gme", _cmd_gme, "entanglement concurrence lower bounds", source, angles)
    return parser


@functools.cache
def _parser() -> _Parser:
    # Built by the first main call, not at import, and reused by every later call.
    return build_parser()


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    args, unknown = _parser().parse_known_args(argv)
    if unknown:
        # Reported by the subcommand's parser, as every other usage error is.
        args.parser.error(f"unrecognized arguments: {' '.join(unknown)}")
    args.argv = argv
    try:
        # Built before any work, so a bad --seed or --starts is a usage error found first.
        given = {name: value for name, value in vars(args).items() if name in ("starts", "seed")}
        args.config = OptimizerConfig(**given)
        return args.func(args, args.parser)
    except StateValidationError as exc:
        print(f"svetbound: state validation failed: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except StateFormatError as exc:
        print(f"svetbound: bad state file: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"svetbound: i/o failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (np.linalg.LinAlgError, SeesawError) as exc:
        print(f"svetbound: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        # Every other library ValueError is an input rule the flags broke.
        args.parser.error(str(exc))


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
