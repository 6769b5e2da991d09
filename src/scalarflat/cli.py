"""Command-line front end.

Subcommands: classify (ruled / split / minimal), rc-check, curvature,
solve scalar-flat, catalog, report.  All structured output is JSON on
standard output with fixed key order; exit codes are 0 (computed),
2 (invalid input), 3 (numerical inconsistency or regression failure),
4 (solver non-convergence).
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
from .errors import (
    ConvergenceError,
    DegreeError,
    DescriptorError,
    NagataViolation,
    NumericalInconsistencyError,
    SolvabilityError,
)

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

    classify = sub.add_parser("classify", help="existence verdicts from theorem tables")
    csub = classify.add_subparsers(dest="target", required=True)

    ruled = csub.add_parser("ruled", help="ruled surface by genus and invariant m")
    ruled.add_argument("--genus", type=int, required=True)
    ruled.add_argument("--m", type=int, required=True)

    split = csub.add_parser("split", help="split projective bundle P((L+triv^(n-1))^*)")
    split.add_argument("--genus", type=int, required=True)
    split.add_argument("--deg-l", type=int, required=True)
    split.add_argument("--n", type=int, default=2)

    minimal = csub.add_parser("minimal", help="minimal-surface class gate")
    minimal.add_argument("--class", dest="surface_class", required=True)
    minimal.add_argument("--genus", type=int, default=None)
    minimal.add_argument("--m", type=int, default=None)

    rc = sub.add_parser("rc-check", help="constructive RC-positivity certificate")
    rc.add_argument("--genus", type=int, required=True)
    rc.add_argument("--deg-l", type=int, required=True)
    rc.add_argument("--n", type=int, default=2)

    curv = sub.add_parser("curvature", help="scalar-curvature report of a stored metric")
    curv.add_argument("--metric", required=True, help="metric.json manifest path")
    curv.add_argument("--out", default=None, help="also write the report JSON here")

    solve = sub.add_parser("solve", help="run a solver pipeline")
    solve.add_argument("target", choices=["scalar-flat"])
    solve.add_argument("--metric", required=True, help="metric.json manifest path")
    solve.add_argument("--out", required=True, help="solution JSON path")
    solve.add_argument("--tol", type=float, default=pde.SOLVE_TOL,
                       help="equation-residual target (max norm)")
    solve._negative_number_matcher = NEGATIVE_NUMBER

    cat = sub.add_parser("catalog", help="built-in worked examples")
    cat.add_argument("--run-all", action="store_true",
                     help="run every entry and compare against frozen expectations")

    report = sub.add_parser("report", help="classification + certificate + scan in one JSON")
    report.add_argument("--genus", type=int, required=True)
    report.add_argument("--deg-l", type=int, required=True)
    report.add_argument("--n", type=int, default=2)

    return parser


def _emit(payload) -> None:
    print(json.dumps(payload, indent=2))


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
    report = curvature_report(metric)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2)
            handle.write("\n")
    _emit(report)
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
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    _emit(payload)
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


_HANDLERS = {
    "classify": _cmd_classify,
    "rc-check": _cmd_rc_check,
    "curvature": _cmd_curvature,
    "solve": _cmd_solve,
    "catalog": _cmd_catalog,
    "report": _cmd_report,
}


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
        return _HANDLERS[args.command](args)
    except (DescriptorError, DegreeError, NagataViolation, SolvabilityError,
            OSError, ValueError) as exc:
        _emit({"error": type(exc).__name__, "message": str(exc)})
        return EXIT_INVALID
    except NumericalInconsistencyError as exc:
        _emit({"error": type(exc).__name__, "message": str(exc)})
        return EXIT_INCONSISTENT
    except ConvergenceError as exc:
        _emit({"error": type(exc).__name__, "message": str(exc)})
        return EXIT_NO_CONVERGENCE


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
