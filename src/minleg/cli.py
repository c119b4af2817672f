"""Command line front end.

Exit codes: 0 success, 1 verification failure (an invalid or malformed family
document included), 2 usage error (a file that cannot be read or written
included), 3 numerical failure (a degenerate chart point, a fundamental
matrix that is not positive semidefinite, or Jacobi sweeps that do not
converge).  Every error prints one `error:` line to stderr.  Reports go to
--out or stdout; diagnostics go to stderr.  Grids are evaluated in one
thread, in batches sized to the chart dimension; the batch size never
changes report bytes.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .geometry import DegeneratePointError, NonPSDError
from .lu_inequality import (
    FamilyValidationError,
    canonical_extremal,
    extremal_search,
    family_to_text,
    load_family,
    lu_bound,
    lu_check,
)
from .symmat import JacobiConvergenceError
from .verify import GridSpec, Tolerances, integral_p1, pinching_scan, scan_to_csv, verify_chart
from .zoo import PARAMETRIC, UnknownExampleError, default_entries, get_entry

USAGE_ERROR = 2
VERIFY_FAIL = 1
NUMERICAL_FAILURE = 3


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _parse_grid(text: str) -> int | tuple[int, ...]:
    parts = [int(p) for p in text.split(",")]
    return parts[0] if len(parts) == 1 else tuple(parts)


def _example(args):
    """(zoo entry, grid) named by the shared example flags."""
    entry = get_entry(args.example, n=args.n)
    return entry, GridSpec(points_per_dim=_parse_grid(args.grid), seed=args.seed)


def _write(text: str, out_path: str | None):
    if out_path:
        with open(out_path, "w", encoding="ascii") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_zoo_list(args) -> int:
    for entry in default_entries():
        tag = entry.provenance.get("pinch", "numeric")
        print(f"{entry.name:<20} n={entry.chart.dim}  pinch={entry.pinch:g}  [{tag}]")
    return 0


def _cmd_verify(args) -> int:
    entry, grid = _example(args)
    tol = Tolerances(geometry=args.tol_geom, algebra=args.tol_alg, curvature=args.tol_curv)
    report = verify_chart(entry, grid=grid, tolerances=tol)
    _write(report.to_text(include_timing=not args.no_timing), args.out)
    return 0 if report.passed else VERIFY_FAIL


def _cmd_scan(args) -> int:
    entry, grid = _example(args)
    scan = pinching_scan(entry.chart, grid=grid, quantity=args.quantity)
    _write(scan_to_csv(scan), args.csv)
    print(f"{scan.quantity}: min={_fmt(scan.vmin)} max={_fmt(scan.vmax)}", file=sys.stderr)
    return 0


def _cmd_integral(args) -> int:
    entry, grid = _example(args)
    value = integral_p1(entry.chart, grid=grid)
    print(_fmt(value))
    return 0


def _lu_report_doc(fam, report) -> str:
    doc = {
        "n": fam.n,
        "m": fam.m,
        "lhs": float(report.lhs),
        "rhs": float(report.rhs),
        "slack": float(report.slack),
        "is_equality": report.is_equality,
    }
    return json.dumps(doc, indent=2) + "\n"


def _cmd_lu_check(args) -> int:
    fam = load_family(args.file, strict=False)
    report = lu_check(fam)
    sys.stdout.write(_lu_report_doc(fam, report))
    return 0 if report.slack >= -1e-10 else VERIFY_FAIL


def _cmd_lu_extremal(args) -> int:
    fam = canonical_extremal(args.n, args.k, args.mu)
    report = lu_check(fam)
    sys.stdout.write(_lu_report_doc(fam, report))
    if args.out:
        _write(family_to_text(fam), args.out)
    return 0 if report.is_equality else VERIFY_FAIL


def _cmd_lu_search(args) -> int:
    profile = tuple(float(p) for p in args.profile.split(","))
    best, fam = extremal_search(args.n, profile, restarts=args.restarts, seed=args.seed)
    bound = lu_bound(fam)
    doc = {
        "n": args.n,
        "profile": [float(p) for p in profile],
        "restarts": args.restarts,
        "seed": args.seed,
        "best_value": float(best),
        "bound": float(bound),
        "gap": float(bound - best),
    }
    sys.stdout.write(json.dumps(doc, indent=2) + "\n")
    if args.out:
        _write(family_to_text(fam), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    fmt = argparse.ArgumentDefaultsHelpFormatter
    parser = argparse.ArgumentParser(
        prog="minleg",
        description="Verification toolkit for minimal Legendrian submanifolds of unit spheres.",
        formatter_class=fmt,
    )
    parser.add_argument("--version", action="version", version=f"minleg {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    zoo = sub.add_parser("zoo", help="reference immersions", formatter_class=fmt)
    zoo_sub = zoo.add_subparsers(dest="zoo_command", required=True)
    zoo_list = zoo_sub.add_parser("list", help="list the example roster", formatter_class=fmt)
    zoo_list.set_defaults(func=_cmd_zoo_list)

    def example_flags(p, grid_default="16"):
        p.add_argument("--example", required=True,
                       help="example name (see 'minleg zoo list'); "
                            f"parametric: {', '.join(sorted(PARAMETRIC))}")
        p.add_argument("--n", type=int, default=None, help="dimension for parametric examples")
        p.add_argument("--grid", default=grid_default,
                       help="points per dimension (int or comma list), capped at 10000 total")
        p.add_argument("--seed", type=int, default=0, help="seed for sampled checks")

    verify = sub.add_parser("verify", help="run the check battery on an example",
                            formatter_class=fmt)
    example_flags(verify)
    verify.add_argument("--tol-geom", type=float, default=Tolerances.geometry,
                        help="analytic-derivative geometry tolerance class")
    verify.add_argument("--tol-alg", type=float, default=Tolerances.algebra,
                        help="closed-form algebra tolerance class")
    verify.add_argument("--tol-curv", type=float, default=Tolerances.curvature,
                        help="curvature-oracle tolerance class")
    verify.add_argument("--out", default=None, help="write the report to this file")
    verify.add_argument("--no-timing", action="store_true",
                        help="omit wall_time so identical runs are byte-identical")
    verify.set_defaults(func=_cmd_verify)

    scan = sub.add_parser("scan", help="tabulate a spectral quantity over a grid",
                          formatter_class=fmt)
    example_flags(scan)
    scan.add_argument("--quantity", default="pinch",
                      help="pinch, normB2, R_plus_mu2, or lambda_<k>")
    scan.add_argument("--csv", default=None, help="write CSV here (default stdout)")
    scan.set_defaults(func=_cmd_scan)

    integral = sub.add_parser("integral", help="quadrature of the integral obstruction",
                              formatter_class=fmt)
    example_flags(integral, grid_default="24")
    integral.set_defaults(func=_cmd_integral)

    lu = sub.add_parser("lu", help="commutator-norm bound tools", formatter_class=fmt)
    lu_sub = lu.add_subparsers(dest="lu_command", required=True)

    lu_check_p = lu_sub.add_parser("check", help="check a family file", formatter_class=fmt)
    lu_check_p.add_argument("--file", required=True, help="family document (JSON {n, mats})")
    lu_check_p.set_defaults(func=_cmd_lu_check)

    lu_ext = lu_sub.add_parser("extremal", help="canonical equality family",
                               formatter_class=fmt)
    lu_ext.add_argument("--n", type=int, required=True)
    lu_ext.add_argument("--k", type=int, required=True, help="block size, 1 <= k <= n-1")
    lu_ext.add_argument("--mu", type=float, default=1.0, help="off-diagonal amplitude")
    lu_ext.add_argument("--out", default=None, help="write the family document here")
    lu_ext.set_defaults(func=_cmd_lu_extremal)

    lu_search = lu_sub.add_parser("search", help="projected-ascent extremal search",
                                  formatter_class=fmt)
    lu_search.add_argument("--n", type=int, required=True)
    lu_search.add_argument("--profile", required=True,
                           help="comma list of norms for A_2.. (descending)")
    lu_search.add_argument("--restarts", type=int, default=20)
    lu_search.add_argument("--seed", type=int, default=0)
    lu_search.add_argument("--out", default=None, help="write the best family document here")
    lu_search.set_defaults(func=_cmd_lu_search)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UnknownExampleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except FamilyValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return VERIFY_FAIL
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (DegeneratePointError, NonPSDError, JacobiConvergenceError) as exc:
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return NUMERICAL_FAILURE
    except (ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
