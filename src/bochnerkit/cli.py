"""Command-line interface.

Subcommands:

* ``validate <file>``            full structural + geometric validation of a
                                 tensor document
* ``tensor <model> [--dump F]``  emit the model tensor bundle (curvature, its
                                 symmetrized companion, both corrected tensors,
                                 Ricci traces) as JSON
* ``identities <chart> [--points N]``  identity residuals on a chart
* ``scenario <id> [params]``     one verification scenario
* ``all``                        the full scenario suite

Exit codes: 0 all checks passed, 1 at least one check failed, 2 usage or
input-validation error.  Output is plain ASCII (nothing to disable for
NO_COLOR); reports are byte-identical across runs with equal seeds.
"""

from __future__ import annotations

import argparse
import functools
import pathlib
import re
import sys
from typing import Callable, Sequence

import numpy as np

from .bochner import DimensionTooSmallError, generalized_bochner, rk_bochner
from .charts import (
    ChartSpec,
    ChartSpecError,
    NKIdentityReport,
    make_chart,
    nk_identity_suite,
    parse_model_spec,
    _DECIMAL,
    _INTEGER,
    _KINDS,
)
from .curvature import PointValidationError, ricci_family, star
from .multilinear import InputError, SymmetryError
from .scenarios import (
    SCENARIO_IDS,
    ScenarioParams,
    ScenarioReport,
    make_model,
    run_all,
    run_scenario,
    _json_number,
    _worst,
)
from .serialization import (
    DocumentFormatError,
    TensorDocument,
    canonical_json,
    dump_tensor,
    load_tensor,
)

__all__ = ["cli_dispatch", "main"]

_STATUS_TAG = {
    "pass": "[PASS]",
    "fail": "[FAIL]",
    "expected-fail": "[XFAIL]",
}


def _write(line: str, stream=None) -> None:
    """Print one line to ``stream`` (stdout unless given) with every non-ASCII
    character backslash-escaped, so all output is plain ASCII."""
    print(line.encode("ascii", "backslashreplace").decode("ascii"), file=stream or sys.stdout)


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one ``error:`` line, like every other bad input."""

    def error(self, message: str):
        _write(f"error: {message} (see {self.prog} --help)", sys.stderr)
        raise SystemExit(2)


def _flag(integer: bool, admits=lambda v: True, needs: str = "") -> Callable[[str], float]:
    """The reader of a numeric flag: one number of the descriptor grammar (whitespace
    around it allowed) that ``admits``; with no ``needs``, its error is argparse's own."""
    cast = int if integer else float

    def read(text: str) -> float:
        match = re.fullmatch(rf"\s*({_INTEGER if integer else _DECIMAL})\s*", text, re.ASCII)
        value = match and cast(match[1])
        if value is None or not admits(value):
            raise argparse.ArgumentTypeError(f"must be {needs}, got {text!r}" if needs
                                             else f"invalid {cast.__name__} value: {text!r}")
        return value
    return read


_seed = _flag(True, lambda v: v >= 0, "a non-negative integer")
_count = _flag(True, lambda v: v >= 1, "an integer >= 1")
_integer, _real = _flag(True), _flag(False)


@functools.cache  # one parser per process; parsing leaves no state on it
def _build_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    common.add_argument("--json", metavar="PATH", help="write the JSON report to PATH")
    common.add_argument("--quiet", action="store_true", help="suppress console output")
    sampled = _Parser(add_help=False, parents=[common])  # the commands that sample
    sampled.add_argument("--seed", type=_seed, default=0,
                         help="non-negative seed for all sampling")

    parser = _Parser(
        prog="bochnerkit",
        description="curvature algebra and verification for almost Hermitian model spaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", parents=[common],
                                help="validate a tensor document")
    p_validate.add_argument("file")

    p_tensor = sub.add_parser("tensor", parents=[common],
                              help="emit the tensor bundle of a model")
    p_tensor.add_argument("model",
                          help="descriptor like CP(3,4) or PRODUCT(CD(1,-1),S6(1)), or a "
                               "bare name ce, s6, cp, cd for CE(3), S6(1), CP(3,1), CD(3,-1)")
    p_tensor.add_argument("--dump", metavar="PATH",
                          help="also write the bare tensor document to PATH")

    p_ident = sub.add_parser("identities", parents=[sampled],
                             help="identity residuals on a chart")
    p_ident.add_argument("chart", help="chart descriptor, e.g. S6(1) or CP(3,4)")
    p_ident.add_argument("--points", type=_count, default=2, help="sampled points (default 2)")

    p_scen = sub.add_parser("scenario", parents=[sampled], help="run one scenario")
    p_scen.add_argument("id", help="scenario id; one of: " + ", ".join(SCENARIO_IDS))
    _add_scenario_params(p_scen)

    p_all = sub.add_parser("all", parents=[sampled], help="run the full scenario suite")
    _add_scenario_params(p_all)
    return parser


def _add_scenario_params(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--m", type=_integer, default=ScenarioParams.m)
    parser.add_argument("--k", type=_integer, default=ScenarioParams.k)
    parser.add_argument("--c", type=_real, default=ScenarioParams.c)
    parser.add_argument("--mu", type=_real, default=ScenarioParams.mu)
    parser.add_argument("--points", type=_count, default=ScenarioParams.chart_points,
                        help="chart points per scenario (default %(default)s)")


def _scenario_params(args: argparse.Namespace) -> ScenarioParams:
    return ScenarioParams(m=args.m, k=args.k, c=args.c, mu=args.mu, seed=args.seed,
                          chart_points=args.points)


def _say(args: argparse.Namespace, line: str) -> None:
    if not args.quiet:
        _write(line)


def _write_json(args: argparse.Namespace, payload: dict) -> None:
    if args.json:  # serialized first, so a payload canonical JSON refuses leaves no file
        pathlib.Path(args.json).write_text(canonical_json(payload) + "\n", encoding="ascii")


def _print_report(args: argparse.Namespace, report: ScenarioReport) -> None:
    for check in report.checks:
        _say(args, f"{_STATUS_TAG[check.status]:8s} {report.scenario}.{check.name}  "
                   f"defect={check.defect:.3e}  tol={check.tolerance:.1e}")
    _say(args, f"scenario {report.scenario}: {'pass' if report.passed else 'FAIL'} "
               f"({report.wall_time_s:.2f}s)")


def _cmd_validate(args: argparse.Namespace) -> int:
    try:
        doc = load_tensor(args.file)
    except FileNotFoundError:
        _write(f"error: no such file: {args.file}", sys.stderr)
        return 2
    except DocumentFormatError as exc:
        _write(f"error: {exc}", sys.stderr)
        return 2
    except (PointValidationError, SymmetryError) as exc:
        _say(args, f"invalid: {exc}")
        _write_json(args, {"file": str(args.file), "status": "invalid", "error": str(exc)})
        return 1
    label = f" ({doc.label})" if doc.label else ""
    _say(args, f"valid tensor document{label}: dim {doc.dim}")
    _write_json(args, {"file": str(args.file), "dim": doc.dim, "status": "valid"})
    return 0


def _tensor_spec(model: str) -> ChartSpec:
    """A descriptor, or a bare kind name, which stands for that kind at m = 3 and
    curvature 1 signed as the kind admits: CE(3), S6(1), CP(3,1), CD(3,-1)."""
    name = model.strip()
    if "(" in name:
        return parse_model_spec(name)
    kind = name.upper()
    if kind not in _KINDS or not name.isascii():  # a long s upper-cases to S
        raise ChartSpecError(f"unknown model {name!r}; use one of "
                             f"{', '.join(k.lower() for k in _KINDS)} or a descriptor")
    return ChartSpec(kind, **{a: 3 if a == "m" else sign * 1.0
                              for a, (sign, _) in _KINDS[kind].args.items()})


def _cmd_tensor(args: argparse.Namespace) -> int:
    spec = _tensor_spec(args.model)
    point, R, label = make_model(spec)
    doc = TensorDocument.from_point_tensor(point, R, label=label)
    star_tensor = star(point, R)
    fam = ricci_family(point, R)
    gen = generalized_bochner(point, R)
    bundle = {
        "schema_version": 1,
        "model": label,
        "document": doc.to_dict(),
        "star": star_tensor.components.reshape(-1),
        "ricci": {
            "S": fam.S.reshape(-1),
            "S_prime": fam.S_prime.reshape(-1),
            "S_star": fam.S_star.reshape(-1),
            "tau": fam.tau,
            "tau_prime": fam.tau_prime,
            "tau_star": fam.tau_star,
        },
        "generalized_bochner": {
            "norm": gen.norm,
            "coefficients_used": gen.coefficients_used,
            "tensor": gen.tensor.components.reshape(-1),
        },
    }
    try:
        rk = rk_bochner(point, R)
        bundle["rk_bochner"] = {
            "norm": rk.norm,
            "coefficients_used": rk.coefficients_used,
            "tensor": rk.tensor.components.reshape(-1),
        }
    except DimensionTooSmallError as exc:
        bundle["rk_bochner"] = None
        bundle["rk_bochner_status"] = str(exc)
    if not args.quiet and not args.json:
        _write(canonical_json(bundle))
    _write_json(args, bundle)
    if args.dump:
        dump_tensor(doc, args.dump)
    return 0


def _cmd_identities(args: argparse.Namespace) -> int:
    chart = make_chart(args.chart)
    suites = [nk_identity_suite(chart, x).__dict__
              for x in chart.sample_points(args.seed, args.points)]
    residuals = {name: _worst(suite[name] for suite in suites) for name in suites[0]}
    gates = {name: gate for name, gate in NKIdentityReport.GATES.items()
             if name not in NKIdentityReport.MODEL_DEPENDENT}
    scored = {name: residuals[name] <= gate for name, gate in gates.items()}
    for name in sorted(residuals):
        value = residuals[name]
        if name in gates:
            tag = "[PASS]" if scored[name] else "[FAIL]"
            _say(args, f"{tag:8s} {name}  residual={value:.3e}  tol={gates[name]:.1e}")
        else:
            _say(args, f"[INFO]   {name}  residual={value:.3e}  (model-dependent, not scored)")
    failed = not all(scored.values())
    payload = {
        "schema_version": 1,
        "chart": chart.label,
        "points": int(args.points),
        "residuals": {name: _json_number(value) for name, value in residuals.items()},
        "scored": scored,
        "status": "fail" if failed else "pass",
    }
    _write_json(args, payload)
    return 1 if failed else 0


def _cmd_scenario(args: argparse.Namespace) -> int:
    report = run_scenario(args.id, _scenario_params(args))
    _print_report(args, report)
    _write_json(args, report.to_dict())
    return 0 if report.passed else 1


def _cmd_all(args: argparse.Namespace) -> int:
    reports = run_all(_scenario_params(args))
    for report in reports:
        _print_report(args, report)
    ok = all(r.passed for r in reports)
    _say(args, f"suite: {'pass' if ok else 'FAIL'} ({len(reports)} scenarios)")
    _write_json(args, {
        "schema_version": 3,
        "reports": [r.to_dict() for r in reports],
        "status": "pass" if ok else "fail",
    })
    return 0 if ok else 1


_COMMANDS = {
    "validate": _cmd_validate,
    "tensor": _cmd_tensor,
    "identities": _cmd_identities,
    "scenario": _cmd_scenario,
    "all": _cmd_all,
}


def cli_dispatch(argv: Sequence[str]) -> int:
    """Parse and run one CLI invocation; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:  # argparse reports usage errors itself
        return 0 if exc.code in (0, None) else 2
    try:
        # an overflow or invalid value is an input the model cannot evaluate
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return _COMMANDS[args.command](args)
    except (InputError, OSError) as exc:
        _write(f"error: {exc}", sys.stderr)
        return 2
    except (np.linalg.LinAlgError, FloatingPointError) as exc:
        _write(f"error: numerical failure in the model: {exc}", sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
