import json

import pytest

from minleg import cli
from minleg.cli import main
from minleg.geometry import DegeneratePointError, NonPSDError
from minleg.lu_inequality import load_family, lu_check
from minleg.symmat import JacobiConvergenceError


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
    # a curved entry: the flat torus oracle gap is itself near 1e-15
    code = main(["verify", "--example", "calabi", "--n", "3", "--grid", "5",
                 "--tol-curv", "1e-15", "--no-timing"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 1
    assert doc["pass"] is False


def test_unknown_example(capsys):
    code = main(["verify", "--example", "moebius"])
    err = capsys.readouterr().err
    assert code == 2
    assert "unknown example" in err and "calabi" in err


def test_dimension_on_fixed_example(capsys):
    code = main(["verify", "--example", "flat-torus", "--n", "3"])
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
    code = main(["scan", "--example", "flat-torus", "--grid", "3",
                 "--quantity", "trace"])
    assert code == 2
    assert "unknown quantity" in capsys.readouterr().err


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
    doc["mats"] = [[f"{3.0 * float(x):.17g}" for x in mat] for mat in doc["mats"]]
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


@pytest.mark.parametrize("exc", [
    DegeneratePointError("metric not positive definite at u = [0.0, 1.0]"),
    NonPSDError("fundamental matrix has eigenvalue -1.000e-03 < -1e-10"),
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
    assert code == cli.NUMERICAL_FAILURE == 3
    assert captured.out == ""
    assert captured.err == f"error: numerical failure: {exc}\n"


def test_lu_check_malformed(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("not json at all")
    code = main(["lu", "check", "--file", str(bad)])
    assert code == 2
    assert "error:" in capsys.readouterr().err


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
])
def test_lu_check_malformed_family_document(tmp_path, capsys, recwarn, doc, field):
    path = tmp_path / "family.json"
    path.write_text(doc)
    code = main(["lu", "check", "--file", str(path)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
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
