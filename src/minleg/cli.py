"""Command line front end.

Exit codes, each carried by a MinlegError class: 0 success, 1 verification
failure (FamilyValidationError: an invalid or malformed family document
included; also a `lu check` verdict "violated" and a `lu extremal` verdict
other than "equality", the verdicts that lu_check derives), 2 usage error
(UnknownExampleError, and any ValueError or OSError from user text or
files), 3 numerical failure (NumericalFailure).  Every
error prints one `error:` line to stderr.  Reports go to --out or stdout;
diagnostics go to stderr.  Grids are evaluated in one thread, in batches
sized to the chart dimension; the batch size never changes report bytes.

The argparse tree is built once per process, on the first build_parser()
call, and every later main() call parses with that same parser; callers must
not mutate it.  The handlers look up the library functions as module globals
when they run, so replacing one (cli.verify_chart, say) still takes effect.

Under glibc, the first main() call in a process also fixes malloc's trim
and mmap thresholds (TRIM_THRESHOLD, MMAP_THRESHOLD), so the heap that one
grid batch or gradient step frees is kept for the next one instead of being
returned to the kernel and faulted back in.  The allocator decides where
arrays live, never what they hold, so no output byte depends on it.  Only
main() sets it: importing minleg or calling the library leaves the caller's
allocator alone, and on any other C library nothing is changed.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import os
import sys

from . import MinlegError, __version__, json_text
from .lu_inequality import (canonical_extremal, extremal_search, family_to_text, load_family,
                            lu_bound, lu_check)
from .verify import (GRID_CAP, GridSpec, Tolerances, _fmt_float, integral_p1, pinching_scan,
                     scan_to_csv, verify_chart)
from .zoo import PARAMETRIC, default_entries, get_entry

VERIFY_FAIL = 1

# glibc's mallopt parameters M_TRIM_THRESHOLD and M_MMAP_THRESHOLD, and the
# values main() gives them.  32 MB is glibc's own ceiling for its dynamic mmap
# threshold on 64-bit, and 64 MB the trim threshold its dynamic rule pairs
# with it; setting either one switches the dynamic rule off, so both are set.
# Measured on a 2-CPU x86_64 host (glibc 2.36, numpy 2.4.6): with glibc's
# defaults a warm sweep pass of the benchmark (integral and scan at fine
# grids) took about 1,620 minor page faults, as freed numpy temporaries were
# trimmed and faulted back in, and with these it takes none;
# lu search --n 128 --profile 1,1,1 --restarts 8 fell from about 575k faults to 1.3k.
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
TRIM_THRESHOLD = 64 * 2**20
MMAP_THRESHOLD = 32 * 2**20


def _fields(flag: str, text: str, kind) -> list:
    """The comma-separated fields of a flag's value, each read by kind; a value
    that does not read is a usage error naming the flag and quoting 40 characters."""
    try:
        return [kind(p) for p in text.split(",")]
    except ValueError:
        raise ValueError(f"{flag} takes {kind.__name__} values separated by commas, got {text[:40]!r}") from None


def _parse_grid(text: str) -> int | tuple[int, ...]:
    parts = _fields("--grid", text, int)
    return parts[0] if len(parts) == 1 else tuple(parts)


def _example(args):
    """(zoo entry, grid) named by the shared example flags.  The grid is resolved
    first, so a parametric dimension beyond the grid cap fails at once."""
    grid = GridSpec(points_per_dim=_parse_grid(args.grid), seed=args.seed)
    if args.example in PARAMETRIC and args.n is not None and args.n >= 2:
        grid.resolve(args.n)
    return get_entry(args.example, n=args.n), grid


def _write(text: str, out_path: str | None):
    if out_path:
        with open(out_path, "w", encoding="ascii") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _write_report_and_family(report: str, fam, out_path: str | None):
    """The family to out_path first, then the report to stdout, so a failing
    --out leaves stdout empty."""
    if out_path:
        _write(family_to_text(fam), out_path)
    sys.stdout.write(report)


def _cmd_zoo_list(args) -> int:
    for entry in default_entries():
        tag = entry.provenance.get("pinch", "numeric")
        print(f"{entry.name:<20} n={entry.chart.dim}  pinch={entry.pinch:g}  [{tag}]")
    return 0


def _cmd_verify(args) -> int:
    entry, grid = _example(args)
    tol = Tolerances(geometry=args.tol_geom, algebra=args.tol_alg)
    report = verify_chart(entry, grid=grid, tolerances=tol)
    _write(report.to_text(include_timing=not args.no_timing), args.out)
    return 0 if report.passed else VERIFY_FAIL


def _cmd_scan(args) -> int:
    entry, grid = _example(args)
    scan = pinching_scan(entry.chart, grid=grid, quantity=args.quantity)
    summary = f"{scan.quantity}: min={_fmt_float(scan.vmin)} max={_fmt_float(scan.vmax)}"
    _write(scan_to_csv(scan), args.csv)
    print(summary, file=sys.stderr)
    return 0


def _cmd_integral(args) -> int:
    entry, grid = _example(args)
    value = integral_p1(entry.chart, grid=grid)
    print(_fmt_float(value))
    return 0


def _lu_report_doc(fam, report) -> str:
    doc = {
        "n": fam.n,
        "m": fam.m,
        "lhs": float(report.lhs),
        "rhs": float(report.rhs),
        "slack": float(report.slack),
        "rounding_bound": float(report.rounding_bound),
        "is_equality": report.is_equality,
    }
    return json_text(doc)


def _cmd_lu_check(args) -> int:
    fam = load_family(args.file, strict=False)
    report = lu_check(fam)
    sys.stdout.write(_lu_report_doc(fam, report))
    return VERIFY_FAIL if report.verdict == "violated" else 0


def _cmd_lu_extremal(args) -> int:
    fam = canonical_extremal(args.n, args.k, args.mu)
    report = lu_check(fam)
    _write_report_and_family(_lu_report_doc(fam, report), fam, args.out)
    return 0 if report.is_equality else VERIFY_FAIL


def _cmd_lu_search(args) -> int:
    profile = tuple(_fields("--profile", args.profile, float))
    best, fam, stats = extremal_search(args.n, profile, restarts=args.restarts, seed=args.seed)
    bound = lu_bound(fam)
    doc = {
        "n": args.n,
        "profile": [float(p) for p in profile],
        "restarts": args.restarts,
        "seed": args.seed,
        "best_value": float(best),
        "bound": float(bound),
        "gap": float(bound - best),
        "exits": stats.exits,
        "gradient_steps": stats.steps,
    }
    _write_report_and_family(json_text(doc), fam, args.out)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand.  It is built on the first call and the
    same object is returned by every later one, so each main() call after the
    first skips building it; do not mutate it.  Help text is still formatted
    when it is printed, at the terminal width of that moment."""
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
                       help=f"points per dimension (int or comma list), capped at {GRID_CAP} total")
        p.add_argument("--seed", type=int, default=0, help="seed for sampled checks")

    verify = sub.add_parser("verify", help="run the check battery on an example",
                            formatter_class=fmt)
    example_flags(verify)
    verify.add_argument("--tol-geom", type=float, default=Tolerances.geometry,
                        help="analytic-derivative geometry tolerance class")
    verify.add_argument("--tol-alg", type=float, default=Tolerances.algebra,
                        help="closed-form algebra tolerance class")
    verify.add_argument("--out", default=None, help="write the report to this file")
    verify.add_argument("--no-timing", action="store_true",
                        help="omit wall_time so identical runs are byte-identical")
    verify.set_defaults(func=_cmd_verify)

    scan = sub.add_parser("scan", help="tabulate a spectral quantity over a grid",
                          formatter_class=fmt)
    example_flags(scan)
    scan.add_argument("--quantity", default="pinch",
                      help="pinch, normB2, R_plus_mu2 (n^2 - 1 - pinch, by the Gauss equation), or lambda_<k>")
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


@functools.cache
def _keep_heap() -> None:
    """Fix glibc's malloc thresholds once per process; elsewhere, or if the
    call fails, do nothing."""
    try:
        if not (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc"):
            return
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, ValueError):  # no confstr or no such name, no library or no mallopt
        return
    mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD)
    mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD)


def main(argv=None) -> int:
    _keep_heap()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (MinlegError, ValueError, OSError) as exc:
        # a plain ValueError or OSError, from parsing user text or files, is a usage error
        kind = exc if isinstance(exc, MinlegError) else MinlegError
        print(f"error: {kind.prefix}{exc}", file=sys.stderr)
        return kind.exit_code


if __name__ == "__main__":
    sys.exit(main())
