"""Command-line front end.

    odecartan analyze --ode "3/2*q^2/p" --stages all --format json

Exit codes: 0 when every requested verdict holds, 1 when the pipeline ran
but some verdict is false, 2 on input or precondition errors.
"""

import argparse
import json
import sys

from .errors import OdeCartanError
from .report import STAGES, AnalysisInputError, AnalysisRequest, analyze, emit_report


def build_parser():
    parser = argparse.ArgumentParser(
        prog="odecartan",
        description="Exact symbolic analysis of third-order ODEs under "
        "fiber-preserving equivalence.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    an = sub.add_parser(
        "analyze",
        help="run the pipeline on one right-hand side F(x,y,p,q)",
    )
    an.add_argument("--ode", required=True, help='right-hand side, e.g. "3/2*q^2/p"')
    an.add_argument(
        "--opaque",
        action="append",
        default=[],
        metavar="NAME:ARGS",
        help="declare an opaque function, e.g. A:x,y (repeatable)",
    )
    an.add_argument(
        "--stages",
        default="inv,cond",
        help=f"comma list from {','.join(STAGES)} or 'all'",
    )
    an.add_argument(
        "--specialize",
        action="append",
        default=[],
        metavar="NAME=EXPR",
        help='rational specialization for Petrov sampling, e.g. A="x*y" (repeatable)',
    )
    an.add_argument("--points", type=int, default=5, help="Petrov sample points")
    an.add_argument("--seed", type=int, default=0, help="sample-point RNG seed")
    an.add_argument("--format", choices=("json", "text"), default="json")
    an.add_argument("--out", default=None, help="write the report to FILE instead of stdout")
    return parser


def _parse_named(items, sep, code, form, verb):
    """``{NAME: VALUE}`` from ``NAME<sep>VALUE`` items, both parts stripped
    and nonempty and each NAME given once; otherwise AnalysisInputError
    with ``code``."""
    out = {}
    for item in items:
        name, found, value = (part.strip() for part in item.partition(sep))
        if not found or not name or not value:
            raise AnalysisInputError(code, f"expected {form} {item!r}")
        if name in out:
            raise AnalysisInputError(code, f"{name!r} is {verb} twice")
        out[name] = value
    return out


def _fail(code, exc):
    """Write the error as JSON to stderr; exit code 2."""
    sys.stderr.write(json.dumps({"error": {"code": code, "message": str(exc)}}) + "\n")
    return 2


def _joined_ode(argv):
    """``--ode TEXT``, or its abbreviation ``--od TEXT``, as ``--ode=TEXT``:
    argparse reads a TEXT that begins with a minus as an option."""
    out = []
    tokens = iter(argv)
    for token in tokens:
        text = next(tokens, None) if token in ("--od", "--ode") else None
        out.append(token if text is None else f"--ode={text}")
    return out


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(_joined_ode(sys.argv[1:] if argv is None else argv))
    try:
        opaque = _parse_named(args.opaque, ":", "bad-opaque", "NAME:ARG,ARG...  got", "declared")
        for name, arg_list in opaque.items():
            opaque[name] = tuple(a.strip() for a in arg_list.split(",") if a.strip())
        request = AnalysisRequest(
            ode=args.ode,
            opaque=opaque,
            stages=tuple(s for s in args.stages.split(",") if s.strip()),
            specializations=_parse_named(
                args.specialize, "=", "bad-specialization", "NAME=EXPR, got", "specialized"
            ),
            points=args.points,
            seed=args.seed,
        )
        report = analyze(request)
        document = emit_report(report, args.format)
    except OdeCartanError as exc:
        return _fail(getattr(exc, "code", "input-error"), exc)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(document)
        except OSError as exc:
            return _fail("bad-out", exc)
    else:
        sys.stdout.write(document)
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
