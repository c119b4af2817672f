"""Property tests of the command line's error contract.

Whatever family document or flag value comes in, main returns an exit code
in 0..3, never lets an exception escape, and an error prints exactly one
`error:` line (argparse's usage errors included).  Runs only where
hypothesis is installed; examples are derandomized, so every run checks the
same inputs.
"""

import json
import math

import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from minleg.cli import main  # noqa: E402

CHECK = settings(max_examples=120, deadline=None, derandomize=True, database=None,
                 suppress_health_check=[HealthCheck.function_scoped_fixture])


def _assert_contract(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects the flag itself
        code = exc.code
    captured = capsys.readouterr()
    errors = sum("error:" in line for line in captured.err.splitlines())
    assert code in (0, 1, 2, 3), (argv, code)
    # exit 1 is either a report that fails (no error line) or an invalid family
    assert errors == (code in (2, 3) or (code == 1 and not captured.out)), (argv, captured.err)


entries = st.one_of(
    st.floats(),
    st.integers(min_value=-(10**400), max_value=10**400),
    st.booleans(),
    st.text(max_size=2),
    st.none(),
)
families = st.integers(1, 3).flatmap(lambda n: st.fixed_dictionaries({
    "n": st.just(n),
    "mats": st.lists(st.lists(entries, min_size=n * n, max_size=n * n), max_size=n + 1),
}))
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.sampled_from(["n", "mats", "x"]),
                                                               inner, max_size=3),
    max_leaves=12,
)


@CHECK
@given(doc=st.one_of(families, json_values))
def test_lu_check_any_document(tmp_path, capsys, doc):
    path = tmp_path / "family.json"
    path.write_text(json.dumps(doc))
    _assert_contract(["lu", "check", "--file", str(path)], capsys)


def _cheap(value: str, lo: float, hi: float) -> bool:
    """False for integer values in lo..hi, which are valid and slow to run."""
    try:
        return not lo <= int(value) <= hi
    except ValueError:
        return True


values = st.one_of(
    st.sampled_from(["", "0", "-1", "nan", "inf", "-inf", "1e400", "1e308,1e308", "lambda_0",
                     "lambda_9", "lambda_x", "x", "2,", ",", "1,2,3", "257", "10" * 12]),
    st.text(alphabet="0123456789-.,enaix_", max_size=6),
    st.integers(-10**6, 10**6).map(str),
    st.floats().map(repr),
)
flag_cases = st.one_of(
    st.tuples(st.sampled_from([
        ["verify", "--example", "flat-torus", "--grid", "2", "--tol-geom"],
        ["verify", "--example", "flat-torus", "--grid", "2", "--tol-alg"],
        ["verify", "--example", "flat-torus", "--grid", "2", "--seed"],
        ["scan", "--example", "flat-torus", "--grid", "2", "--quantity"],
        ["lu", "extremal", "--n", "3", "--k"],
        ["lu", "extremal", "--n", "3", "--k", "1", "--mu"],
        ["lu", "search", "--n", "3", "--restarts", "1", "--profile"],
        ["lu", "search", "--n", "2", "--profile", "1", "--restarts", "1", "--seed"],
    ]), values),
    # dimensions and sizes whose valid values run long are drawn outside that range
    st.tuples(st.just(["verify", "--example", "calabi", "--grid", "2", "--n"]),
              values.filter(lambda v: _cheap(v, 5, 13))),
    st.tuples(st.just(["integral", "--example", "flat-torus", "--grid"]),
              values.filter(lambda v: all(_cheap(p, 9, math.inf) for p in v.split(",")))),
    st.tuples(st.just(["lu", "extremal", "--k", "1", "--n"]), values.filter(lambda v: _cheap(v, 9, 256))),
    st.tuples(st.just(["lu", "search", "--profile", "1", "--restarts", "1", "--n"]),
              values.filter(lambda v: _cheap(v, 9, 256))),
    st.tuples(st.just(["lu", "search", "--n", "2", "--profile", "1", "--restarts"]),
              values.filter(lambda v: _cheap(v, 3, math.inf))),
)


@CHECK
@given(case=flag_cases)
def test_any_flag_value(capsys, case):
    argv, value = case
    _assert_contract(argv[:-1] + [f"{argv[-1]}={value}"], capsys)
