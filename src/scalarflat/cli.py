"""Command-line front end.

Subcommands: classify (ruled / split / minimal), rc-check, curvature,
solve scalar-flat, catalog, report.  All structured output is JSON on
standard output with fixed key order; exit codes are 0 (computed),
2 (invalid input), 3 (a catalog --run-all regression), 4 (solver
non-convergence).
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from pathlib import Path

from . import pde, positivity
from .catalog import catalog_entries, check_entry
from .classifier import (
    MinimalSurfaceDescriptor,
    classify_ruled,
    classify_split,
    minimal_surface_gate,
)
from .curvature import curvature_report, load_metric, save_field4
from .geom_core import MIN_RESOLUTION, CurveModel
from .errors import ConvergenceError, DescriptorError, ScalarFlatError

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_INCONSISTENT = 3
EXIT_NO_CONVERGENCE = 4

#: what argparse takes for a negative number rather than a flag; its pattern
#: before Python 3.13 has no exponent, so `--tol -1e-10` read as a flag
NEGATIVE_NUMBER = re.compile(r"^-\.?\d")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scalarflat",
        description="Scalar-flat Hermitian metric toolkit for ruled-surface models")
    sub = parser.add_subparsers(dest="command", required=True)
    # the split model P((L + trivial^(n-1))^*), read by classify split, rc-check and report
    split_model = argparse.ArgumentParser(add_help=False)
    split_model.add_argument("--genus", type=int, required=True)
    split_model.add_argument("--deg-l", type=int, required=True)
    split_model.add_argument("--n", type=int, default=2)

    classify = sub.add_parser("classify", help="existence verdicts from theorem tables")
    classify.set_defaults(handler=_cmd_classify)
    csub = classify.add_subparsers(dest="target", required=True)

    ruled = csub.add_parser("ruled", help="ruled surface by genus and invariant m")
    ruled.add_argument("--genus", type=int, required=True)
    ruled.add_argument("--m", type=int, required=True)

    csub.add_parser("split", parents=[split_model],
                    help="split projective bundle P((L+triv^(n-1))^*)")

    minimal = csub.add_parser("minimal", help="minimal-surface class gate")
    minimal.add_argument("--class", dest="surface_class", required=True)
    minimal.add_argument("--genus", type=int, default=None)
    minimal.add_argument("--m", type=int, default=None)

    rc = sub.add_parser("rc-check", parents=[split_model],
                        help="constructive RC-positivity certificate")
    rc.set_defaults(handler=_cmd_rc_check)

    curv = sub.add_parser("curvature", help="scalar-curvature report of a stored metric")
    curv.add_argument("--metric", required=True, help="metric.json manifest path")
    curv.add_argument("--out", default=None, help="also write the report JSON here")
    curv.set_defaults(handler=_cmd_curvature)

    solve = sub.add_parser("solve", help="run a solver pipeline")
    solve.add_argument("target", choices=["scalar-flat"])
    solve.add_argument("--metric", required=True, help="metric.json manifest path")
    solve.add_argument("--out", required=True, help="solution JSON path")
    solve.add_argument("--tol", type=float, default=pde.SOLVE_TOL,
                       help="equation-residual target (max norm)")
    solve._negative_number_matcher = NEGATIVE_NUMBER
    solve.set_defaults(handler=_cmd_solve)

    cat = sub.add_parser("catalog", help="built-in worked examples")
    cat.add_argument("--run-all", action="store_true",
                     help="run every entry and compare against frozen expectations")
    cat.set_defaults(handler=_cmd_catalog)

    report = sub.add_parser("report", parents=[split_model],
                            help="classification + certificate + scan in one JSON")
    report.set_defaults(handler=_cmd_report)

    return parser


def _emit(payload, path=None) -> None:
    """Print the payload's JSON text, first writing the same text to `path` if
    given.  JSON has no NaN or Infinity, so a payload holding one is a
    DescriptorError naming its top-level key, raised before anything is written."""
    try:
        text = json.dumps(payload, indent=2, allow_nan=False) + "\n"
    except ValueError:
        for key, value in payload.items():
            try:
                json.dumps(value, allow_nan=False)
            except ValueError:
                raise DescriptorError(f"output {key!r} is not finite") from None
        raise
    if path:
        Path(path).write_text(text, encoding="utf-8")
    sys.stdout.write(text)


def _cmd_classify(args) -> int:
    if args.target == "ruled":
        _emit(classify_ruled(args.genus, args.m).to_dict())
    elif args.target == "split":
        _emit(classify_split(args.genus, args.deg_l, args.n).to_dict())
    else:
        descriptor = MinimalSurfaceDescriptor.of_class(
            args.surface_class, genus=args.genus, m=args.m)
        _emit(minimal_surface_gate(descriptor).to_dict())
    return EXIT_OK


def _certify(genus: int, deg_l: int, n: int) -> tuple[dict, dict | None]:
    """Constant certificate plus, when it is issued, the eigenvalue scan of
    the curvature form it certifies.  The form is constant over the base, so
    the smallest chart gives the same scan as any other."""
    certificate = positivity.kx_certificate_split(genus, deg_l, n)
    scan = None
    if certificate.issued:
        curve = CurveModel.flat(genus, MIN_RESOLUTION)
        form = positivity.kx_curvature_form(certificate, curve)
        scan = positivity.rc_scan(form, curve).to_dict()
    return certificate.to_dict(), scan


def _cmd_rc_check(args) -> int:
    certificate, scan = _certify(args.genus, args.deg_l, args.n)
    _emit({"certificate": certificate, "rc_scan": scan})
    return EXIT_OK


def _cmd_curvature(args) -> int:
    metric = load_metric(args.metric)
    _emit(curvature_report(metric), args.out)
    return EXIT_OK


def _cmd_solve(args) -> int:
    metric = load_metric(args.metric)
    solution = pde.conformal_scalar_flat(metric, tol=args.tol)
    out_path = Path(args.out)
    f_path = out_path.with_suffix(".f.csv")
    save_field4(f_path, solution.f)
    payload = {
        "f_csv": f_path.name,
        "solve_residual": solution.solve_residual,
        "end_to_end_residual": solution.residual,
        "iterations": solution.iterations,
        "rounds": solution.rounds,
    }
    _emit(payload, out_path)
    return EXIT_OK


def _cmd_catalog(args) -> int:
    # output ordering is fixed by entry name so parallel runs stay diffable
    entries = sorted(catalog_entries(), key=lambda e: e.name)
    if not args.run_all:
        _emit({"entries": [{"name": e.name, "kind": e.kind, "source": e.source}
                           for e in entries]})
        return EXIT_OK
    results = []
    all_pass = True
    for entry in entries:
        ok, actual, mismatches = check_entry(entry)
        all_pass = all_pass and ok
        record = {"name": entry.name, "ok": ok, "actual": actual}
        if mismatches:
            record["mismatches"] = mismatches
        results.append(record)
    _emit({"all_pass": all_pass, "entries": results})
    return EXIT_OK if all_pass else EXIT_INCONSISTENT


def _cmd_report(args) -> int:
    classification = classify_split(args.genus, args.deg_l, args.n)
    certificate = scan = None
    if classification.scalar_flat_hermitian == "yes":    # exactly in the certified range
        certificate, scan = _certify(args.genus, abs(args.deg_l), args.n)
    _emit({"classification": classification.to_dict(),
           "certificate": certificate, "rc_scan": scan})
    return EXIT_OK


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser `run` uses: built on the first call, then shared.  Parsing
    leaves it unchanged, and usage and help go to the streams current at each
    call; `build_parser` still returns a fresh one to any other caller."""
    return build_parser()


def run(argv) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse prints usage to stderr on bad flags and exits 2; --help exits 0
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except (ScalarFlatError, OSError, ValueError) as exc:
        _emit({"error": type(exc).__name__, "message": str(exc)})
        return EXIT_NO_CONVERGENCE if isinstance(exc, ConvergenceError) else EXIT_INVALID


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
