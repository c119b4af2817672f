import argparse
import dataclasses
import json
import math
import time

import numpy as np
import pytest

from minleg import MinlegError, NumericalFailure, cli, geometry, lu_inequality, zoo
from minleg.cli import main
from minleg.geometry import DegeneratePointError, ImmersionChart
from minleg.jets import Jet
from minleg.lu_inequality import (MAX_DIM, FamilyValidationError, MatrixFamily, canonical_extremal,
                                  load_family, lu_check)
from minleg.symmat import JacobiConvergenceError
from minleg.verify import GridSpec, ScanResult, integral_p1, pinching_scan
from minleg.zoo import UnknownExampleError


def test_zoo_list(capsys):
    assert main(["zoo", "list"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 6
    names = [ln.split()[0] for ln in lines]
    assert "calabi-n3" in names and "flat-torus" in names
    assert all("pinch=" in ln for ln in lines)


def test_verify_stdout_json(capsys):
    code = main(["verify", "--example", "calabi", "--n", "3", "--grid", "5",
                 "--no-timing"])
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"] is True
    assert doc["chart"] == "calabi-n3"
    assert "wall_time" not in doc
    assert doc["grid"]["points_per_dim"] == [5, 5, 5]


def test_verify_grid_cap_echo(capsys):
    code = main(["verify", "--example", "calabi", "--n", "3", "--grid", "24",
                 "--no-timing"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["grid"]["points_per_dim"] == [21, 21, 21]


def test_verify_grid_tuple(capsys):
    code = main(["verify", "--example", "flat-torus", "--grid", "4,5",
                 "--no-timing"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["grid"]["points_per_dim"] == [4, 5]


def test_verify_out_file(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["verify", "--example", "flat-torus", "--grid", "6",
                 "--no-timing", "--out", str(out)])
    assert code == 0
    assert capsys.readouterr().out == ""
    doc = json.loads(out.read_text())
    assert doc["pass"] is True


def test_verify_tolerance_failure_exit(capsys):
    # the curvature oracle's gap on calabi n=3 is 4.4e-15, above 1e-15
    code = main(["verify", "--example", "calabi", "--n", "3", "--grid", "5",
                 "--tol-geom", "1e-15", "--no-timing"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 1
    assert doc["pass"] is False


@pytest.mark.parametrize("argv", [
    ["--example", "geodesic-sphere", "--n", "13", "--grid", "2", "--seed", "5"],
    ["--example", "geodesic-sphere", "--n", "13", "--grid", "2", "--seed", "8"],
    ["--example", "calabi", "--n", "8", "--grid", "3", "--seed", "14"],
])
def test_verify_passes_at_large_n(capsys, argv):
    # a differenced curvature oracle failed these correct charts, at up to 0.16
    code = main(["verify", *argv, "--no-timing"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0 and doc["pass"] is True
    check, = (c for c in doc["checks"] if c["name"] == "scalar_curvature")
    assert check["max_residual"] <= 1e-12


def test_verify_has_no_curvature_tolerance_flag(capsys):
    # the curvature oracle is judged by --tol-geom; --tol-curv is an unknown argument
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--example", "flat-torus", "--grid", "2", "--tol-curv", "1e-4"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --tol-curv" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["verify", "--example", "calabi", "--n", "3", "--grid", "1" + "0" * 400, "--no-timing"],
    ["integral", "--example", "flat-torus", "--grid", "10000000000,2"],
])
def test_huge_grid_counts_resolve_at_once(capsys, argv):
    # a count beyond the float range, or a shrink of 10^10 points per axis,
    # resolves to a grid within the cap without a traceback or a long trim
    t0 = time.perf_counter()
    code = main(argv)
    elapsed = time.perf_counter() - t0
    captured = capsys.readouterr()
    assert code in (0, 2) and elapsed < 2.0
    assert captured.err.count("\n") <= 1 and "Traceback" not in captured.err


@pytest.mark.parametrize("argv, quoted", [
    (["integral", "--example", "flat-torus", "--grid", "5" * 5000], "'" + "5" * 40 + "'"),
    (["integral", "--example", "flat-torus", "--grid", "abc"], "'abc'"),
    (["verify", "--example", "flat-torus", "--grid", "4,,4"], "'4,,4'"),
    (["scan", "--example", "flat-torus", "--grid", "4,x" + "9" * 100], "'4,x" + "9" * 37 + "'"),
    (["lu", "search", "--n", "3", "--profile", "x"], "'x'"),
    (["lu", "search", "--n", "3", "--profile", "1,0.5,"], "'1,0.5,'"),
])
def test_unreadable_flag_values_name_their_flag(capsys, argv, quoted):
    # one line, exit 2, the flag named and at most 40 characters of its value quoted
    code = main(argv)
    captured = capsys.readouterr()
    kind = "int" if argv[-2] == "--grid" else "float"
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: {argv[-2]} takes {kind} values separated by commas, got {quoted}\n"


@pytest.mark.parametrize("flag, value", [
    ("--tol-alg", "-1"), ("--tol-geom", "nan"),
])
def test_verify_rejects_bad_tolerance(monkeypatch, capsys, flag, value):
    # a usage error before any sweep, never a false verification failure
    monkeypatch.setattr(cli, "verify_chart", None)
    code = main(["verify", "--example", "flat-torus", "--grid", "4", flag, value])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: tolerance ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["integral", "--example", "flat-torus", "--grid", "4"],
    ["scan", "--example", "flat-torus", "--grid", "4"],
    ["scan", "--example", "flat-torus", "--grid", "4", "--csv", "{dir}/scan.csv"],
])
def test_nonfinite_output_is_numerical_failure(monkeypatch, capsys, tmp_path, argv):
    # a non-finite result writes nothing: no stdout and no --csv file
    nan = float("nan")
    monkeypatch.setattr(cli, "integral_p1", lambda *a, **k: nan)
    monkeypatch.setattr(cli, "pinching_scan", lambda *a, **k: ScanResult(
        "pinch", np.zeros((1, 2)), np.array([nan]), nan, nan))
    code = main([arg.replace("{dir}", str(tmp_path)) for arg in argv])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err.endswith("error: numerical failure: reports must not contain NaN or infinity\n")
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


def _nan_hessian_entry():
    """The flat torus with d2F[0, 0] of component 0 set to NaN by assignment,
    so that no arithmetic makes the NaN; dF stays finite."""
    entry = zoo.flat_torus()

    def fn(coords):
        first, *rest = entry.chart.components(coords)
        hess = np.array(first.hess, dtype=complex)
        hess[0, 0] = np.nan
        return [Jet(first.val, first.grad, hess), *rest]

    return dataclasses.replace(entry, chart=ImmersionChart("nan-hessian", 2, entry.chart.domain, fn))


@pytest.mark.parametrize("argv", [
    ["verify", "--example", "flat-torus", "--grid", "4", "--no-timing"],
    ["integral", "--example", "flat-torus", "--grid", "4"],
    ["scan", "--example", "flat-torus", "--grid", "4"],
])
def test_nan_second_derivative_is_numerical_failure(monkeypatch, capsys, argv):
    # a NaN in d2F makes a NaN fundamental matrix, which verify, integral and scan report
    # as a numerical failure (exit 3), never as a usage error
    monkeypatch.setattr(cli, "get_entry", lambda name, n=None: _nan_hessian_entry())
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err == "error: numerical failure: fundamental matrix has a non-finite entry\n"


def test_negative_lambda_n_is_judged_by_the_psd_check(monkeypatch, capsys):
    # lambda_n = -1e-8 at the first point of each sweep box: the psd check reads
    # it and fails the report (exit 1), --tol-alg 1e-6 passes it, and the
    # integral prints its number.  The entry's value tolerance is widened so
    # that the value rows, which read the same spectrum, do not fail with it.
    solve = geometry.sym_eigen

    def dented(a, vectors=True):
        res = solve(a, vectors)
        res.values[0, -1] = -1e-8
        return res

    monkeypatch.setattr(geometry, "sym_eigen", dented)
    entry = dataclasses.replace(zoo.equivariant_sphere3(), value_tol=1e-7)
    monkeypatch.setattr(cli, "get_entry", lambda name, n=None: entry)
    argv = ["verify", "--example", "equivariant-s3", "--grid", "4", "--no-timing"]
    assert main(argv) == 1
    doc = json.loads(capsys.readouterr().out)
    failing = [c for c in doc["checks"] if c["hard"] and not c["pass"]]
    assert [(c["name"], c["max_residual"]) for c in failing] == [("psd", 1e-8)]
    assert main(argv + ["--tol-alg", "1e-6"]) == 0
    assert json.loads(capsys.readouterr().out)["pass"] is True
    assert main(["integral", "--example", "equivariant-s3", "--grid", "4"]) == 0
    captured = capsys.readouterr()
    assert math.isfinite(float(captured.out)) and captured.err == ""


@pytest.mark.parametrize("example, entry", [
    (["--example", "geodesic-sphere", "--n", "3"], zoo.geodesic_sphere(3)),
    (["--example", "calabi", "--n", "4"], zoo.calabi_torus(4)),
    (["--example", "flat-torus"], zoo.flat_torus()),
])
def test_integral_prints_the_repr(capsys, example, entry):
    assert main(["integral", *example, "--grid", "6"]) == 0
    value = integral_p1(entry.chart, GridSpec(points_per_dim=6))
    assert capsys.readouterr().out == repr(value) + "\n"


def test_scan_summary_prints_reprs(capsys):
    # the CSV cells are reprs too (tests/test_verify.py's reference formatter)
    assert main(["scan", "--example", "geodesic-sphere", "--n", "3", "--grid", "6"]) == 0
    scan = pinching_scan(zoo.geodesic_sphere(3).chart, GridSpec(points_per_dim=6))
    assert capsys.readouterr().err == f"pinch: min={scan.vmin!r} max={scan.vmax!r}\n"


def test_unknown_example(capsys):
    code = main(["verify", "--example", "moebius"])
    err = capsys.readouterr().err
    assert code == 2
    assert "unknown example" in err and "calabi" in err


def test_dimension_on_fixed_example(capsys):
    code = main(["verify", "--example", "equivariant-s3", "--n", "3"])
    assert code == 2
    assert "does not take a dimension" in capsys.readouterr().err


def test_scan_csv_file(tmp_path, capsys):
    csv = tmp_path / "scan.csv"
    code = main(["scan", "--example", "flat-torus", "--grid", "4",
                 "--quantity", "normB2", "--csv", str(csv)])
    captured = capsys.readouterr()
    assert code == 0
    assert "min=" in captured.err and "max=" in captured.err
    lines = csv.read_text().splitlines()
    assert lines[0] == "u1,u2,value"
    assert len(lines) == 17


def test_scan_stdout(capsys):
    code = main(["scan", "--example", "calabi", "--n", "3", "--grid", "3",
                 "--quantity", "R_plus_mu2"])
    captured = capsys.readouterr()
    assert code == 0
    rows = captured.out.splitlines()
    assert rows[0] == "u1,u2,u3,value"
    # n^2 - 1 - pinch = 8 - 4 for the n = 3 family
    assert abs(float(rows[1].rsplit(",", 1)[1]) - 4.0) < 1e-8


def test_scan_bad_quantity(capsys):
    # lambda_<k> takes only ASCII digits with no sign or leading zero, k in 1..n
    for quantity in ("trace", "lambda_x", "lambda_", "lambda_+2", "lambda_ 2", "lambda_0_2",
                     "lambda_02", "lambda_\u0663", "lambda_0", "lambda_4", "lambda_" + "9" * 5000):
        code = main(["scan", "--example", "calabi", "--grid", "3", "--quantity", quantity])
        captured = capsys.readouterr()
        assert code == 2, quantity
        assert captured.out == "" and captured.err.startswith("error: unknown quantity"), quantity
        assert captured.err.count("\n") == 1, quantity


def test_integral_values(capsys):
    assert main(["integral", "--example", "calabi", "--n", "3", "--grid", "6"]) == 0
    assert abs(float(capsys.readouterr().out)) < 1e-10
    assert main(["integral", "--example", "equivariant-s3", "--grid", "8"]) == 0
    assert float(capsys.readouterr().out) < -1.0


def test_lu_extremal_check_roundtrip(tmp_path, capsys):
    fam_path = tmp_path / "family.json"
    code = main(["lu", "extremal", "--n", "4", "--k", "2", "--mu", "0.7",
                 "--out", str(fam_path)])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["is_equality"] is True
    assert doc["n"] == 4 and doc["m"] == 4
    assert abs(doc["lhs"] - doc["rhs"]) <= 1e-12
    assert abs(doc["lhs"] - 2.0 * 0.7 ** 2 * 3.0) <= 1e-12

    code = main(["lu", "check", "--file", str(fam_path)])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["is_equality"] is True

    fam = load_family(fam_path)
    assert lu_check(fam).is_equality


def test_lu_check_strict_slack(tmp_path, capsys):
    fam_path = tmp_path / "family.json"
    main(["lu", "extremal", "--n", "3", "--k", "1", "--out", str(fam_path)])
    capsys.readouterr()
    # scale the document by hand: lenient loading renormalizes it
    doc = json.loads(fam_path.read_text())
    doc["mats"] = [[3.0 * x for x in mat] for mat in doc["mats"]]
    fam_path.write_text(json.dumps(doc))
    code = main(["lu", "check", "--file", str(fam_path)])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["slack"] >= -1e-10


def test_lu_check_missing_file(capsys):
    code = main(["lu", "check", "--file", "/nonexistent/family.json"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_lu_check_file_is_directory(tmp_path, capsys):
    code = main(["lu", "check", "--file", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["verify", "--example", "flat-torus", "--grid", "4", "--no-timing"],
    ["lu", "extremal", "--n", "3", "--k", "1"],
    ["lu", "search", "--n", "2", "--profile", "1", "--restarts", "1"],
])
def test_out_is_directory(tmp_path, capsys, argv):
    code = main(argv + ["--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("out", ["dir", "missing-parent"])
@pytest.mark.parametrize("argv", [
    ["lu", "search", "--n", "3", "--profile", "1", "--restarts", "2"],
    ["lu", "extremal", "--n", "3", "--k", "1"],
], ids=["search", "extremal"])
def test_lu_out_error_writes_nothing(tmp_path, capsys, argv, out):
    # the --out file is written before the report, so a failing --out leaves
    # stdout empty instead of printing a report and then exiting 2
    path = tmp_path if out == "dir" else tmp_path / "missing" / "x.json"
    code = main(argv + ["--out", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("exc", [
    DegeneratePointError("metric not positive definite at u = [0.0, 1.0]"),
    NumericalFailure("fundamental matrix has a non-finite entry"),
    JacobiConvergenceError("Jacobi sweeps did not converge within 100 sweeps"),
])
@pytest.mark.parametrize("driver, argv", [
    ("verify_chart", ["verify", "--example", "flat-torus", "--grid", "4"]),
    ("integral_p1", ["integral", "--example", "flat-torus", "--grid", "4"]),
    ("pinching_scan", ["scan", "--example", "flat-torus", "--grid", "4"]),
    ("extremal_search", ["lu", "search", "--n", "2", "--profile", "1"]),
])
def test_numerical_failure_exit(monkeypatch, capsys, exc, driver, argv):
    def fail(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli, driver, fail)
    code = main(argv)
    captured = capsys.readouterr()
    assert code == NumericalFailure.exit_code == 3
    assert captured.out == ""
    assert captured.err == f"error: numerical failure: {exc}\n"


EXIT_CODES = [
    (MinlegError("bare"), 2),
    (FamilyValidationError("pairwise orthogonality violated"), 1),
    (UnknownExampleError("moebius"), 2),
    (NumericalFailure("reports must not contain NaN or infinity"), 3),
    (DegeneratePointError("metric not positive definite at u = [0.0, 1.0]"), 3),
    (JacobiConvergenceError("Jacobi sweeps did not converge within 100 sweeps"), 3),
    (ValueError("need at least 2 points per dimension"), 2),
    (json.JSONDecodeError("Expecting value", "x", 0), 2),
    (OSError("[Errno 21] Is a directory: 'out'"), 2),
]


def _subclasses(cls):
    return {cls}.union(*(_subclasses(sub) for sub in cls.__subclasses__()))


def test_exit_code_table_covers_every_error_class():
    listed = {type(exc) for exc, _ in EXIT_CODES}
    assert _subclasses(MinlegError) <= listed
    for exc, code in EXIT_CODES:
        assert getattr(exc, "exit_code", 2) == code


@pytest.mark.parametrize("exc, code", EXIT_CODES, ids=[type(exc).__name__ for exc, _ in EXIT_CODES])
def test_exit_code_table(monkeypatch, capsys, exc, code):
    def fail(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli, "verify_chart", fail)
    assert main(["verify", "--example", "flat-torus", "--grid", "4"]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    prefix = "numerical failure: " if code == 3 else ""
    assert captured.err == f"error: {prefix}{exc}\n"


def test_lu_check_malformed(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("not json at all")
    code = main(["lu", "check", "--file", str(bad)])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_lu_check_deeply_nested(tmp_path, capsys):
    # nesting beyond the parser's recursion limit is unparsable text, a usage error
    bad = tmp_path / "nested.json"
    bad.write_text("[" * 100_000 + "]" * 100_000)
    code = main(["lu", "check", "--file", str(bad)])
    err = capsys.readouterr().err
    assert code == 2
    assert err == "error: family document nests too deeply to parse\n"


def test_lu_check_invalid_family(tmp_path, capsys):
    # two identical unit matrices: valid JSON, violates orthogonality
    a1 = [2.0 ** -0.5, 0.0, 0.0, -(2.0 ** -0.5)]
    doc = {"n": 2, "mats": [a1, a1]}
    path = tmp_path / "overlap.json"
    path.write_text(json.dumps(doc))
    code = main(["lu", "check", "--file", str(path)])
    assert code == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("doc, field", [
    ('{"mats": []}', "'n'"),
    ("[1, 2]", "'n'"),
    ('{"n": 2}', "'mats'"),
    ('{"n": "two", "mats": [[1, 0, 0, 0]]}', "'n'"),
    ('{"n": 2, "mats": []}', "'mats'"),
    ('{"n": 2, "mats": 5}', "'mats'"),
    ('{"n": 2, "mats": [[1, 0, 0]]}', "'mats'"),
    ('{"n": 2, "mats": [[1, 0, 0, "x"]]}', "'mats'"),
    ('{"n": 2, "mats": [[1, 0, [0, 1], 0]]}', "'mats'"),
    ('{"n": 2, "mats": [[1, 0, 0, NaN]]}', "'mats'"),
    # a squared norm that overflows, and finite squared norms whose bound does
    ('{"n": 2, "mats": [[1, 0, 0, 0], [0, 1e200, 1e200, 0]]}', "overflow"),
    ('{"n": 2, "mats": [[1, 0, 0, 0], [0, 9e153, 9e153, 0]]}', "overflow"),
    # a tail that overflows once divided by a tiny ||A_1||
    ('{"n": 2, "mats": [[1e-300, 0, 0, 0], [0, 1e10, 1e10, 0]]}', "finite"),
    # entries must be JSON numbers, and an integer beyond double range is infinite
    ('{"n": 2, "mats": [["1", 0, 0, -1]]}', "'mats'"),
    ('{"n": 1, "mats": [[true]]}', "'mats'"),
    pytest.param('{"n": 1, "mats": [[1' + "0" * 400 + ']]}', "finite", id="int-beyond-double"),
    pytest.param('{"n": 1, "mats": [[1' + "0" * 5000 + ']]}', "finite", id="int-beyond-int-parse"),
    # n beyond MAX_DIM is rejected before any message formats n * n
    pytest.param('{"n": 1' + "0" * 400 + ', "mats": [[1]]}', "MAX_DIM", id="n-400-digits"),
    pytest.param('{"n": 1' + "0" * 5000 + ', "mats": [[1]]}', "MAX_DIM", id="n-5000-digits"),
    pytest.param('{"n": -1' + "0" * 5000 + ', "mats": [[1]]}', "'n'", id="n-negative-5000-digits"),
    pytest.param('{"n": %d, "mats": [[1]]}' % (MAX_DIM + 1), "MAX_DIM", id="n-beyond-cap"),
])
def test_lu_check_malformed_family_document(tmp_path, capsys, recwarn, doc, field):
    path = tmp_path / "family.json"
    path.write_text(doc)
    code = main(["lu", "check", "--file", str(path)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert len(captured.err) < 120
    assert field in captured.err
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_lu_check_huge_lead_matrix(tmp_path, capsys, recwarn):
    # ||A_1|| = 1e200 is normalized without squaring an overflowing entry
    path = tmp_path / "family.json"
    path.write_text('{"n": 2, "mats": [[1e200, 0, 0, 0]]}')
    code = main(["lu", "check", "--file", str(path)])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    assert json.loads(captured.out)["is_equality"] is True
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_lu_check_entries_near_largest_double(tmp_path, capsys, recwarn):
    # symmetrizing entries of 1.7e308 does not overflow, and the antisymmetric
    # A_2 symmetrizes to zero, so this is the valid family of one matrix
    path = tmp_path / "family.json"
    path.write_text('{"n": 2, "mats": [[1.7e308, 1.7e308, 1.7e308, 1.7e308], [0, 1e200, -1e200, 0]]}')
    code = main(["lu", "check", "--file", str(path)])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    doc = json.loads(captured.out)
    assert doc["lhs"] == doc["rhs"] == 0.0 and doc["is_equality"] is True
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("argv", [
    ["lu", "extremal", "--n", str(MAX_DIM + 1), "--k", "1"],
    ["lu", "extremal", "--n", "100000", "--k", "1"],
    ["lu", "search", "--n", str(MAX_DIM + 1), "--profile", "1"],
    ["lu", "search", "--n", "1000000", "--profile", "1"],
])
def test_lu_dimension_cap(capsys, argv):
    # rejected before any (n, n, n) stack is allocated
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: n={argv[3]} exceeds MAX_DIM={MAX_DIM}\n"


@pytest.mark.parametrize("mu", ["nan", "inf", "-inf", "1e200", "1e154", "-7e153"])
def test_lu_extremal_nonfinite_mu(capsys, recwarn, mu):
    # a non-finite mu, or one whose squared norms 2 mu^2 or their bound
    # overflow, is a usage error and not a failed verification
    code = main(["lu", "extremal", "--n", "3", "--k", "1", f"--mu={mu}"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: mu=") and captured.err.count("\n") == 1
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_lu_extremal_mu_just_below_overflow():
    # at k = 1 the bound is 4 mu^2, finite up to mu of about 6.7e153
    fam = canonical_extremal(3, 1, 6.7e153)
    assert np.isfinite(lu_check(fam).rhs)
    with pytest.raises(ValueError, match="mu="):
        canonical_extremal(3, 1, 6.8e153)


def test_lu_extremal_accepts_exactly_the_mu_whose_lhs_fits():
    # at the largest mu that canonical_extremal accepts, lu_check's lhs is
    # finite; one ulp above it, the same family built by hand is refused
    # by MatrixFamily (its bound) or by lu_check (its lhs)
    for n, k in ((2, 1), (3, 1), (3, 2), (5, 3), (12, 9), (12, 11)):
        lo, hi = 1.0, 1e160
        while True:
            mid = math.sqrt(lo) * math.sqrt(hi) if hi > 2.0 * lo else lo + (hi - lo) / 2
            if mid in (lo, hi):
                break
            try:
                canonical_extremal(n, k, mid)
                lo = mid
            except ValueError:
                hi = mid
        assert hi == np.nextafter(lo, math.inf)
        mats = canonical_extremal(n, k, lo).mats.copy()
        rep = lu_check(MatrixFamily(n=n, mats=mats))
        assert math.isfinite(rep.lhs) and math.isfinite(rep.rounding_bound) and rep.is_equality, (n, k, rep)
        for a in range(1, k + 1):
            mats[a, 0, a] = mats[a, a, 0] = hi
        with pytest.raises((FamilyValidationError, NumericalFailure)):
            lu_check(MatrixFamily(n=n, mats=mats))


def _not_json(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("n, k, mu, code", [
    # the bound fits a double at these mu, but the lhs rounds to 2^1024 or
    # above, so canonical_extremal refuses them as a usage error
    (3, 2, "5.4737146662668906e+153", 2),
    (12, 9, "2.9980769960612384e+153", 2),
    (12, 11, "2.7368573331334453e+153", 2),
    # just below them the lhs fits, and the slack lies within the rounding bound
    (3, 2, "5.473714666266885e+153", 0),
    (12, 11, "2.736857333133445e+153", 0),
])
def test_lu_extremal_lhs_at_the_largest_double(tmp_path, capsys, recwarn, n, k, mu, code):
    out = tmp_path / "family.json"
    rc = main(["lu", "extremal", "--n", str(n), "--k", str(k), "--mu", mu, "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == code
    if code == 2:
        assert captured.out == "" and not out.exists()
        assert captured.err == f"error: mu={float(mu)!r} is too large: the lhs sum ||[A_1, A_a]||^2 exceeds the largest double\n"
    else:
        # a strict parse: Infinity, -Infinity and NaN are refused
        doc = json.loads(captured.out, parse_constant=_not_json)
        assert doc["slack"] == doc["rhs"] - doc["lhs"] and doc["lhs"] > 1.79e308
        assert math.isfinite(doc["rounding_bound"]) and doc["is_equality"] is True
        verdict = lu_check(load_family(out, strict=False)).verdict
        assert main(["lu", "check", "--file", str(out)]) == (1 if verdict == "violated" else 0)
        json.loads(capsys.readouterr().out, parse_constant=_not_json)
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_lu_check_reads_an_extremal_file_as_written(tmp_path, capsys):
    # a unit A_1 is not rescaled on load, so the check sums the same lhs as
    # lu extremal did, one step below the largest double, and both read the
    # slack of 2.0e292 as an equality within a rounding bound of 7.3e294
    out = tmp_path / "family.json"
    rc = main(["lu", "extremal", "--n", "12", "--k", "9", "--mu", "2.998076996061238e+153", "--out", str(out)])
    written = capsys.readouterr()
    assert rc == 0 and written.err == ""
    assert json.loads(written.out)["slack"] > 0.0
    assert main(["lu", "check", "--file", str(out)]) == 0
    assert capsys.readouterr() == written



@pytest.mark.parametrize("n, k, mu", [
    (3, 2, "100"), (3, 1, "1e3"), (3, 1, "1e5"), (3, 2, "1e5"), (3, 1, "1e6"), (3, 2, "1e6"),
])
def test_lu_extremal_is_an_equality_at_every_scale(tmp_path, capsys, n, k, mu):
    # the slack of these exact equality families exceeds 1e-12 in magnitude,
    # but not the rounding bound, which grows with the rhs
    out = tmp_path / "family.json"
    assert main(["lu", "extremal", "--n", str(n), "--k", str(k), "--mu", mu, "--out", str(out)]) == 0
    written = json.loads(capsys.readouterr().out)
    assert written["is_equality"] is True and abs(written["slack"]) > 1e-12
    assert abs(written["slack"]) <= written["rounding_bound"] <= 1e-14 * written["rhs"]
    assert list(written) == ["n", "m", "lhs", "rhs", "slack", "rounding_bound", "is_equality"]
    assert main(["lu", "check", "--file", str(out)]) == 0
    assert json.loads(capsys.readouterr().out) == written


def test_lu_check_exits_1_only_on_a_violation(tmp_path, capsys, monkeypatch):
    # an lhs above the rhs by twice the rounding bound is a certified violation
    out = tmp_path / "family.json"
    assert main(["lu", "extremal", "--n", "3", "--k", "2", "--out", str(out)]) == 0
    capsys.readouterr()
    honest = lu_check(load_family(out))
    monkeypatch.setattr(lu_inequality, "_lhs", lambda a1, tail: honest.rhs + 2.0 * honest.rounding_bound)
    report = lu_check(load_family(out))
    assert report.verdict == "violated" and not report.is_equality
    assert report.slack < -report.rounding_bound
    assert main(["lu", "check", "--file", str(out)]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["slack"] == report.slack and doc["rounding_bound"] == report.rounding_bound


def _rounded(x, digits):
    if isinstance(x, list):
        return [_rounded(v, digits) for v in x]
    return float(f"{x:.{digits}g}")


@pytest.mark.parametrize("n, k", [(2, 1), (3, 1), (4, 2)])
def test_lu_check_rescales_a_rounded_extremal_file(tmp_path, capsys, n, k):
    # rounded to 10 digits, ||A_1|| is off 1 by ~1e-11: far more than a few
    # ulps, so the load rescales, and the equality case still reads as one
    out = tmp_path / "family.json"
    assert main(["lu", "extremal", "--n", str(n), "--k", str(k), "--out", str(out)]) == 0
    capsys.readouterr()
    doc = json.loads(out.read_text())
    out.write_text(json.dumps({**doc, "mats": _rounded(doc["mats"], 10)}))
    assert main(["lu", "check", "--file", str(out)]) == 0
    assert json.loads(capsys.readouterr().out)["is_equality"] is True


@pytest.mark.parametrize("argv", [
    ["verify", "--example", "calabi", "--n", "2", "--grid", "2", "--seed", "-1"],
    ["verify", "--example", "calabi", "--n", "2", "--grid", "2", "--seed", "-8"],
    ["scan", "--example", "flat-torus", "--grid", "2", "--seed", "-3"],
    ["integral", "--example", "flat-torus", "--grid", "2", "--seed", "-3"],
    ["lu", "search", "--n", "3", "--profile", "1", "--restarts", "1", "--seed", "-1"],
])
def test_negative_seed_is_a_usage_error(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: seed must be non-negative, got seed={argv[-1]}\n"


def test_lu_extremal_bad_k(capsys):
    code = main(["lu", "extremal", "--n", "3", "--k", "3"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("profile", ["nan", "inf", "1e308,1e308"])
def test_lu_search_nonfinite_profile(capsys, recwarn, profile):
    # a non-finite entry or an overflowing bound is a usage error, never a
    # search that prints NaN or Infinity
    code = main(["lu", "search", "--n", "3", "--profile", profile, "--restarts", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: norm profile ") and captured.err.count("\n") == 1
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_lu_search_large_profile(capsys):
    # the best family at a norm profile of 1e153 validates: orthogonality is
    # measured relative to the norms, not against an absolute 1e-10
    code = main(["lu", "search", "--n", "3", "--profile", "1e153", "--restarts", "2",
                 "--seed", "1"])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    doc = json.loads(captured.out)
    assert doc["profile"] == [1e153] and doc["gap"] >= 0.0


def test_lu_search_scale_invariant(capsys):
    # Phi and the bound scale as the square of the profile, and so does the
    # search: at 1e3 it reaches the bound as closely as at 1
    docs = []
    for profile in ("1", "1e3"):
        code = main(["lu", "search", "--n", "3", "--profile", profile, "--restarts", "4",
                     "--seed", "1"])
        assert code == 0
        docs.append(json.loads(capsys.readouterr().out))
    unit, big = docs
    assert unit["gap"] <= 1e-10 * unit["bound"]
    assert big["gap"] <= 1e-10 * big["bound"]
    assert abs(big["best_value"] - 1e6 * unit["best_value"]) <= 1e-9 * big["bound"]


def test_lu_search_json(tmp_path, capsys):
    fam_path = tmp_path / "best.json"
    code = main(["lu", "search", "--n", "2", "--profile", "1", "--restarts", "3",
                 "--seed", "1", "--out", str(fam_path)])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["n"] == 2 and doc["profile"] == [1.0]
    assert abs(doc["bound"] - 2.0) < 1e-12
    assert abs(doc["best_value"] - 2.0) < 1e-6
    assert doc["gap"] >= -1e-12
    assert isinstance(doc["best_value"], float)

    code = main(["lu", "check", "--file", str(fam_path)])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["n"] == 2


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("minleg ")


def test_help(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for word in ("verify", "scan", "integral", "lu", "zoo"):
        assert word in out


def test_missing_subcommand():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_build_parser_is_shared():
    assert cli.build_parser() is cli.build_parser()


def test_second_main_builds_no_parser(monkeypatch, capsys):
    assert main(["zoo", "list"]) == 0
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert main(["zoo", "list"]) == 0
    assert built == []


def test_shared_parser_carries_no_state(tmp_path, capsys):
    # a usage error, --version and a failing command leave nothing behind
    # in the shared parser for the next call to see
    verify = ["verify", "--example", "flat-torus", "--grid", "4", "--no-timing"]
    first = (main(verify), capsys.readouterr().out)
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--example"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 2, "mats": [[1, 0, 0, "x"]]}')
    assert main(["lu", "check", "--file", str(bad)]) == 1
    capsys.readouterr()
    assert (main(verify), capsys.readouterr().out) == first
    assert first[0] == 0


@pytest.mark.parametrize("argv", [["--help"], ["verify", "--help"]])
def test_help_repeats(capsys, argv):
    texts = []
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        texts.append(capsys.readouterr().out)
    assert texts[0] == texts[1] and texts[0].startswith("usage: minleg")
