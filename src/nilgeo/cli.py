"""Command-line front end.

Every subcommand parses its inputs, dispatches to the library, and prints a
machine-readable JSON report. Exit codes: 0 all checks pass, 1 a geometric
check failed (the report says which clause), 2 input, parse or usage error,
3 an internal guard (ArithmeticError) fired, named in the error document,
141 standard output was closed before the report was written (as a shell
reports a writer stopped by SIGPIPE).

Any structured flag value may be given as "@path" to read the value from a
file.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import traceback
from dataclasses import dataclass, field

from . import __version__
from .errors import CheckError, InputError, NilgeoError

# Each handler imports the layers it runs, so that a process loads only those.

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3
EXIT_CLOSED = 141

_quote = json.encoder.encode_basestring_ascii  # the C encoder where CPython has it


@dataclass
class Report:
    """Verdict tree emitted on standard output; all numbers are exact strings."""

    command: str
    inputs: dict
    checks: list = field(default_factory=list)
    status: str = "pass"

    def add(self, name: str, verdict: bool, **values) -> None:
        self.checks.append({"name": name, "verdict": "pass" if verdict else "fail", **values})
        if not verdict:
            self.status = "fail"

    def info(self, name: str, **values) -> None:
        self.checks.append({"name": name, **values})

    def to_json(self) -> str:
        payload = {
            "tool": "nilgeo",
            "version": __version__,
            "command": self.command,
            "inputs": self.inputs,
            "checks": self.checks,
            "status": self.status,
        }
        return _dumps(payload)


def _dumps(value, pad: str = "\n") -> str:
    """json.dumps(value, indent=2), byte for byte, for the JSON of a report:
    dicts with str keys, lists and tuples, str, int, float, bool and None.
    json.dumps takes its pure-Python path whenever it indents."""
    if isinstance(value, str):
        return _quote(value)
    if value is None or value is True or value is False:
        return "null" if value is None else "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return json.dumps(value)
    inner = pad + "  "
    if isinstance(value, dict):
        items = [f"{_quote(key)}: {_dumps(item, inner)}" for key, item in value.items()]
        return "{" + inner + ("," + inner).join(items) + pad + "}" if items else "{}"
    if isinstance(value, (list, tuple)):
        items = [_dumps(item, inner) for item in value]
        return "[" + inner + ("," + inner).join(items) + pad + "]" if items else "[]"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _file_value(value: str) -> str:
    if value.startswith("@"):
        try:
            with open(value[1:], encoding="utf-8") as fh:
                return fh.read()
        except OSError as exc:
            raise InputError(f"cannot read {value[1:]}: {exc}") from exc
    return value


def _emit(report: Report) -> int:
    print(report.to_json())
    return EXIT_PASS if report.status == "pass" else EXIT_FAIL


def _check_error(report: Report, exc: CheckError) -> int:
    report.add(exc.check, False, message=str(exc), witness=exc.witness)
    return _emit(report)


def _not_sasakian(report: Report, exc) -> int:
    report.add("sasakian", False, failures=list(exc.failures))
    return _emit(report)


def _emit_clauses(report: Report, verdict) -> int:
    for clause in verdict.clauses:
        report.add(clause.name, clause.ok, **clause.detail)
    return _emit(report)


def cmd_check_contact(args) -> int:
    from .algdsl import parse_algebra, parse_form
    from .structures import check_contact

    alg = parse_algebra(_file_value(args.algebra))
    alpha = parse_form(_file_value(args.alpha), alg.dim)
    report = Report("check-contact", {"algebra": args.algebra, "alpha": args.alpha})
    try:
        contact = check_contact(alg, alpha)
    except CheckError as exc:
        return _check_error(report, exc)
    report.add(
        "contact",
        True,
        reeb=str(contact.reeb),
        kappa=str(contact.kappa),
    )
    return _emit(report)


def cmd_check_sasakian(args) -> int:
    from .algdsl import parse_algebra, parse_endo, parse_form
    from .structures import NotSasakianError, check_contact, check_sasakian

    alg = parse_algebra(_file_value(args.algebra))
    alpha = parse_form(_file_value(args.alpha), alg.dim)
    J = parse_endo(_file_value(args.J), alg.dim)
    report = Report(
        "check-sasakian", {"algebra": args.algebra, "alpha": args.alpha, "J": args.J}
    )
    try:
        check_sasakian(check_contact(alg, alpha), J)
    except NotSasakianError as exc:
        return _not_sasakian(report, exc)
    except CheckError as exc:
        return _check_error(report, exc)
    report.add("sasakian", True, failures=[])
    return _emit(report)


def cmd_check_ccy(args) -> int:
    from .algdsl import parse_algebra
    from .exterior import ratio

    alg = parse_algebra(_file_value(args.algebra))
    report = Report(
        "check-ccy",
        {
            "algebra": args.algebra,
            "alpha": args.alpha,
            "J": args.J,
            "epsilon": args.epsilon,
            "strict_def31": args.strict_def31,
        },
    )
    try:
        structure = _build_ccy(args, alg, strict_def31=args.strict_def31)
    except CheckError as exc:
        return _check_error(report, exc)
    report.add(
        "ccy",
        True,
        reeb=str(structure.contact.reeb),
        metric=[[ratio(x, structure.metric.den) for x in row] for row in structure.metric.num],
    )
    return _emit(report)


def cmd_check_hypo(args) -> int:
    from .algdsl import parse_algebra, parse_form
    from .structures import check_hypo

    alg = parse_algebra(_file_value(args.algebra))
    alpha = parse_form(_file_value(args.alpha), alg.dim)
    omegas = [parse_form(_file_value(getattr(args, f"omega{i}")), alg.dim) for i in (1, 2, 3)]
    report = Report(
        "check-hypo",
        {
            "algebra": args.algebra,
            "alpha": args.alpha,
            "omega1": args.omega1,
            "omega2": args.omega2,
            "omega3": args.omega3,
        },
    )
    return _emit_clauses(report, check_hypo(alpha, *omegas, alg))


def cmd_check_rccy(args) -> int:
    from .algdsl import parse_algebra, parse_endo, parse_form
    from .structures import check_r_contact_ccy

    alg = parse_algebra(_file_value(args.algebra))
    alphas = [parse_form(part, alg.dim) for part in _file_value(args.alphas).split(";") if part.strip()]
    J = parse_endo(_file_value(args.J), alg.dim)
    epsilon = parse_form(_file_value(args.epsilon), alg.dim)
    report = Report(
        "check-rccy",
        {
            "algebra": args.algebra,
            "alphas": args.alphas,
            "J": args.J,
            "epsilon": args.epsilon,
            "strict_def31": args.strict_def31,
        },
    )
    return _emit_clauses(
        report, check_r_contact_ccy(alg, alphas, J, epsilon, strict_def31=args.strict_def31)
    )


def cmd_betti(args) -> int:
    from .algdsl import parse_algebra
    from .cealg import betti_numbers

    alg = parse_algebra(_file_value(args.algebra))
    table = betti_numbers(alg)
    report = Report("betti", {"algebra": args.algebra})
    report.info(
        "betti_numbers",
        numbers=list(table.numbers),
        euler_characteristic=table.euler_characteristic(),
        poincare_dual=table.is_poincare_dual(),
    )
    return _emit(report)


def _parse_metric(text: str):
    """A --metric value: a JSON list of rows of exact rationals."""
    from .exterior import Metric, read_json

    rows = read_json(text, "metric")
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise InputError("--metric must be a JSON list of rows")
    return Metric(rows)


def cmd_curvature(args) -> int:
    from .algdsl import parse_algebra, parse_endo, parse_form
    from .curvature import NotAlphaEinsteinError, check_alpha_einstein, levi_civita, ricci_scalar, transverse_ricci
    from .exterior import ratio
    from .structures import NotSasakianError, ccy_epsilon, check_ccy, check_contact, check_sasakian, induced_metric

    alg = parse_algebra(_file_value(args.algebra))
    report_inputs = {"algebra": args.algebra}
    report = Report("curvature", report_inputs)
    if not (args.metric or (args.alpha and args.J)):
        raise InputError("curvature needs --metric or (--alpha and --J)")
    if args.metric and (args.J or args.epsilon):
        # the structure's checks would be skipped, not run on the given metric
        raise InputError("curvature takes --J and --epsilon only without --metric")
    alpha = parse_form(_file_value(args.alpha), alg.dim) if args.alpha else None
    structure = None
    if args.metric:
        report_inputs["metric"] = args.metric
        g = _parse_metric(_file_value(args.metric))
    else:
        report_inputs.update({"alpha": args.alpha, "J": args.J})
        J = parse_endo(_file_value(args.J), alg.dim)
        epsilon = ccy_epsilon(alg, parse_form(_file_value(args.epsilon), alg.dim)) if args.epsilon else None
        try:
            contact = check_contact(alg, alpha)
            if epsilon is not None:
                report_inputs["epsilon"] = args.epsilon
                structure = check_ccy(contact, J, epsilon)
                g = structure.metric
            else:
                try:
                    sasakian = check_sasakian(contact, J)
                except NotSasakianError as exc:
                    return _not_sasakian(report, exc)
                g = induced_metric(sasakian.g_j, alpha)
        except CheckError as exc:
            return _check_error(report, exc)
    conn = levi_civita(alg, g)
    curvature = ricci_scalar(alg, g, conn)
    num, den = curvature.ints
    report.info(
        "curvature",
        ricci=[[ratio(x, den) for x in row] for row in num],
        scalar=str(curvature.scalar),
    )
    if alpha is not None:
        try:
            lam, nu = check_alpha_einstein(curvature, g, alpha)
            report.add("alpha_einstein", True, **{"lambda": str(lam), "nu": str(nu)})
        except NotAlphaEinsteinError as exc:
            report.add(exc.check, False, message=str(exc), witness=exc.witness)
    if structure is not None:
        transverse = transverse_ricci(structure, conn, curvature)
        report.add(
            "transverse_ricci_zero",
            transverse.is_zero,
            ric_t=[[str(x) for x in row] for row in transverse.ric_t],
            rho_t=[[str(x) for x in row] for row in transverse.rho_t],
            parallel_J=transverse.parallel_j,
            parallel_g_J=transverse.parallel_g_j,
            parallel_d_alpha=transverse.parallel_d_alpha,
        )
    return _emit(report)


def _build_ccy(args, alg, strict_def31: bool = False):
    from .algdsl import parse_endo, parse_form
    from .structures import ccy_epsilon, check_ccy, check_contact

    alpha = parse_form(_file_value(args.alpha), alg.dim)
    J = parse_endo(_file_value(args.J), alg.dim)
    epsilon = ccy_epsilon(alg, parse_form(_file_value(args.epsilon), alg.dim))
    return check_ccy(check_contact(alg, alpha), J, epsilon, strict_def31)


def cmd_legendrian(args) -> int:
    from .algdsl import parse_algebra, parse_vectors
    from .legendrian import Subalgebra, check_special_legendrian

    alg = parse_algebra(_file_value(args.algebra))
    report = Report(
        "legendrian",
        {
            "algebra": args.algebra,
            "alpha": args.alpha,
            "J": args.J,
            "epsilon": args.epsilon,
            "span": args.span,
        },
    )
    try:
        ccy = _build_ccy(args, alg)
    except CheckError as exc:
        return _check_error(report, exc)
    sub = Subalgebra(alg, parse_vectors(_file_value(args.span), alg.dim))
    result = check_special_legendrian(sub, ccy)
    report.add(
        "special_legendrian",
        result.is_special,
        classification=str(result.verdict),
        integrable=result.integrable,
        detail={k: str(v) for k, v in result.detail.items()},
    )
    return _emit(report)


def cmd_obstruction(args) -> int:
    from .algdsl import parse_algebra, parse_vectors
    from .exterior import rat
    from .legendrian import FamilySpec, Subalgebra, extension_obstruction
    from .models import PYTHAGOREAN_ROTATIONS

    alg = parse_algebra(_file_value(args.algebra))
    report = Report(
        "obstruction",
        {
            "algebra": args.algebra,
            "alpha": args.alpha,
            "J": args.J,
            "epsilon": args.epsilon,
            "span": args.span,
            "family": args.family,
            "rotations": args.rotations,
        },
    )
    if args.family is not None and args.rotations is not None:
        raise InputError("obstruction takes --family or --rotations, not both")
    try:
        ccy = _build_ccy(args, alg)
        if args.family is not None:
            family = FamilySpec.from_json(alg, _file_value(args.family))
        else:
            rotations = []
            spec = "default" if args.rotations is None else args.rotations
            if spec == "default":
                rotations = [
                    (k, c, s) for k, (c, s) in enumerate(PYTHAGOREAN_ROTATIONS)
                ]
            else:
                for chunk in spec.split(";"):
                    if len(fields := chunk.split(",")) != 3:
                        raise InputError(f"--rotations entry {chunk!r} is not t,cos,sin")
                    rotations.append(tuple(rat(x.strip()) for x in fields))
            family = FamilySpec.rotation(ccy, rotations)
        sub = Subalgebra(alg, parse_vectors(_file_value(args.span), alg.dim))
        samples = extension_obstruction(sub, family)
    except CheckError as exc:
        return _check_error(report, exc)
    report.info("extension_obstruction", samples=[s.to_dict() for s in samples])
    return _emit(report)


def cmd_moduli_kernel(args) -> int:
    from .deform import CircleGrid, assemble_operator, kernel_dimension, kernel_is_reeb_line

    report = Report("moduli-kernel", {"N": args.N})
    op = assemble_operator(CircleGrid(args.N))
    dim = kernel_dimension(op)
    report.add(
        "kernel_dimension",
        dim == 1,
        kernelDim=dim,
        kernel_is_reeb_line=kernel_is_reeb_line(op, dim),
        coupling=str(op.coupling),
    )
    return _emit(report)


def cmd_comass(args) -> int:
    from .algdsl import parse_algebra, parse_vectors
    from .legendrian import MAX_COMASS_SAMPLES, comass_probe, comass_sample

    if args.samples < 0 or not (args.samples or args.probe):
        raise InputError("comass needs --samples > 0 or a --probe frame")
    if args.samples > MAX_COMASS_SAMPLES:
        raise InputError(f"comass supports --samples <= {MAX_COMASS_SAMPLES}, got {args.samples}")
    if args.samples and args.seed < 0:
        raise InputError(f"comass --samples needs --seed >= 0, got {args.seed}")
    alg = parse_algebra(_file_value(args.algebra))
    report = Report(
        "comass",
        {
            "algebra": args.algebra,
            "alpha": args.alpha,
            "J": args.J,
            "epsilon": args.epsilon,
            "samples": args.samples,
            "seed": args.seed,
        },
    )
    try:
        ccy = _build_ccy(args, alg)
    except CheckError as exc:
        return _check_error(report, exc)
    if args.probe:
        frame = parse_vectors(_file_value(args.probe), alg.dim)
        value = comass_probe(ccy, frame)
        report.add("comass_probe", abs(value) <= 1, value=str(value))
    if args.samples > 0:
        best = comass_sample(ccy, args.samples, seed=args.seed)
        report.add(
            "comass_bound",
            best <= 1 + 1e-9,
            maximum={"approx": repr(best), "seed": args.seed, "samples": args.samples},
        )
    return _emit(report)


def cmd_classify(args) -> int:
    from .classify import MAX_CLASSIFY_SAMPLES, Catalog, classify_catalog

    if args.samples < 0:
        raise InputError("--samples must be nonnegative")
    if args.samples > MAX_CLASSIFY_SAMPLES:
        raise InputError(f"classify supports --samples <= {MAX_CLASSIFY_SAMPLES}, got {args.samples}")
    if args.catalog:
        catalog = Catalog.from_json(_file_value(args.catalog))
    else:
        catalog = Catalog.default()
    report = Report(
        "classify",
        {"catalog": args.catalog or "default", "seed": args.seed, "samples": args.samples},
    )
    result = classify_catalog(catalog, seed=args.seed, random_samples=args.samples)
    report.info("classification", **result.to_dict())
    return _emit(report)


class _Parser(argparse.ArgumentParser):
    """Usage errors raise InputError: one JSON error document, exit 2."""

    def error(self, message):
        raise InputError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="nilgeo",
        description="Exact verification of invariant contact Calabi-Yau geometry on Lie algebras",
    )
    parser.add_argument("--version", action="version", version=f"nilgeo {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_structure_flags(p, epsilon=True):
        p.add_argument("--algebra", required=True, help="algebra spec, e.g. (0,0,12), or @file")
        p.add_argument("--alpha", required=True, help="contact form expression")
        p.add_argument("--J", required=True, help="pairs:(1,2),... or matrix:[[...]]")
        if epsilon:
            p.add_argument("--epsilon", required=True, help="complex volume form expression")

    p = sub.add_parser("check-contact", help="verify the contact volume condition")
    p.add_argument("--algebra", required=True)
    p.add_argument("--alpha", required=True)
    p.set_defaults(func=cmd_check_contact)

    p = sub.add_parser("check-sasakian", help="verify the Nijenhuis condition")
    add_structure_flags(p, epsilon=False)
    p.set_defaults(func=cmd_check_sasakian)

    p = sub.add_parser("check-ccy", help="verify a contact Calabi-Yau structure")
    add_structure_flags(p)
    p.add_argument("--strict-def31", action="store_true", help="drop the 1/n! factor")
    p.set_defaults(func=cmd_check_ccy)

    p = sub.add_parser("check-hypo", help="verify a 5-dimensional Hypo structure")
    p.add_argument("--algebra", required=True)
    p.add_argument("--alpha", required=True)
    p.add_argument("--omega1", required=True)
    p.add_argument("--omega2", required=True)
    p.add_argument("--omega3", required=True)
    p.set_defaults(func=cmd_check_hypo)

    p = sub.add_parser("check-rccy", help="verify an r-contact Calabi-Yau structure")
    p.add_argument("--algebra", required=True)
    p.add_argument("--alphas", required=True, help="semicolon-separated 1-forms")
    p.add_argument("--J", required=True)
    p.add_argument("--epsilon", required=True)
    p.add_argument("--strict-def31", action="store_true")
    p.set_defaults(func=cmd_check_rccy)

    p = sub.add_parser("betti", help="Betti numbers of the invariant complex")
    p.add_argument("--algebra", required=True)
    p.set_defaults(func=cmd_betti)

    p = sub.add_parser("curvature", help="Ricci, scalar and alpha-Einstein data")
    p.add_argument("--algebra", required=True)
    p.add_argument("--metric", help="explicit matrix JSON")
    p.add_argument("--alpha")
    p.add_argument("--J")
    p.add_argument("--epsilon")
    p.set_defaults(func=cmd_curvature)

    p = sub.add_parser("legendrian", help="classify a candidate special Legendrian subalgebra")
    add_structure_flags(p)
    p.add_argument("--span", required=True, help="semicolon-separated basis vectors")
    p.set_defaults(func=cmd_legendrian)

    p = sub.add_parser("obstruction", help="extension obstruction classes on a family")
    add_structure_flags(p)
    p.add_argument("--span", required=True)
    p.add_argument("--family", help="family JSON (list of {t, alpha, J, epsilon}) or @file")
    p.add_argument("--rotations", help='"t,cos,sin;..." exact unit rotations, or "default"')
    p.set_defaults(func=cmd_obstruction)

    p = sub.add_parser("moduli-kernel", help="kernel dimension of the discretized operator")
    p.add_argument("--N", type=int, default=64)
    p.set_defaults(func=cmd_moduli_kernel)

    p = sub.add_parser("comass", help="Monte Carlo calibration bound check")
    add_structure_flags(p)
    p.add_argument("--samples", type=int, default=100000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--probe", help="exact g-orthonormal frame, e.g. X1;X3")
    p.set_defaults(func=cmd_comass)

    p = sub.add_parser("classify", help="run the 5-dimensional classification catalog")
    p.add_argument("--catalog", help="catalog JSON or @file; default is the shipped catalog")
    p.add_argument("--samples", type=int, default=3, help="random contact forms per algebra")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_classify)

    return parser


_parser = functools.cache(build_parser)  # built on first use, not at import


def _error(exc: Exception, status: str = "error", **fields) -> None:
    print(_dumps({"tool": "nilgeo", "error": str(exc), **fields, "status": status}))


def _raised_in(exc: BaseException) -> str:
    """module.function of the innermost nilgeo frame that raised exc."""
    where = "nilgeo"
    for frame, _ in traceback.walk_tb(exc.__traceback__):
        if frame.f_globals.get("__name__", "").startswith("nilgeo."):
            where = f"{frame.f_globals['__name__']}.{frame.f_code.co_name}"
    return where


def _run(argv) -> int:
    limit = getattr(sys, "get_int_max_str_digits", int)()  # 0, no bound, before Python 3.10.7
    try:
        args = _parser().parse_args(argv)
        if limit:  # exterior.literal bounds each int of the input, so reports may print any size
            sys.set_int_max_str_digits(0)
        return args.func(args)
    except SystemExit as exc:  # --help and --version print their text
        return EXIT_INPUT if exc.code else EXIT_PASS
    except CheckError as exc:
        _error(exc, check=exc.check, witness=exc.witness, status="fail")
        return EXIT_FAIL
    except NilgeoError as exc:
        _error(exc)
        return EXIT_INPUT
    except ArithmeticError as exc:
        _error(exc, guard=_raised_in(exc))
        return EXIT_INTERNAL
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def main(argv=None) -> int:
    try:
        code = _run(argv)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout (say, `| head`); Python flushes stdout again
        # at exit, so the rest goes to devnull instead of a second error
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_CLOSED


if __name__ == "__main__":
    sys.exit(main())
