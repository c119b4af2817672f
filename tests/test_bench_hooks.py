"""The benchmark's tracer hooks must resolve against the program.

bench/spans.py wraps minleg functions at the attributes where their callers
look them up, and reads each one as ``owner.__dict__[attr]`` when it installs
the tracer (both ``--trace 0`` and ``--trace 1`` do).  A refactor that drops
or moves one of those attributes would crash the benchmark; this test makes
it fail here instead.  The benchmark's file is imported, never modified.
"""

import importlib.util
import logging
import re
from pathlib import Path

import minleg.lu_inequality as lu
from minleg import cli

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_resolve():
    spans = _load_spans()
    assert spans.TARGETS
    for owner, attr, name in spans.TARGETS:
        assert attr in owner.__dict__, f"{owner.__name__}.{attr} ({name}) is gone"
        assert callable(owner.__dict__[attr]), name


def test_tracer_installs_and_restores():
    spans = _load_spans()
    before = [owner.__dict__[attr] for owner, attr, _ in spans.TARGETS]
    with spans.Tracer(spans=False):
        during = [owner.__dict__[attr] for owner, attr, _ in spans.TARGETS]
    after = [owner.__dict__[attr] for owner, attr, _ in spans.TARGETS]
    assert all(d is not b for d, b in zip(during, before))
    assert all(a is b for a, b in zip(after, before))


def test_objective_gradient_calls_are_the_logged_steps(caplog):
    # the lu-search workload counts objective_gradients calls as its items,
    # so a search must make exactly one per gradient step it reports
    spans = _load_spans()
    with caplog.at_level(logging.INFO, logger="minleg.lu_inequality"):
        with spans.Tracer(spans=False) as tracer:
            _, _, stats = lu.extremal_search(4, (1.0, 1.0, 1.0), restarts=3, seed=39)
    logged = [int(m.group(1)) for m in re.finditer(r"(\d+) gradient steps", caplog.text)]
    assert logged == [stats.steps]
    assert tracer.counts["lu_inequality.objective_gradients"] == stats.steps
    # the smallest restarts and seed whose restarts end at the ceiling, in the
    # line search and at a stall
    assert stats.exits["ceiling"] and stats.exits["step_underflow"] and stats.exits["stalled"]


def test_spans_see_the_curvature_oracle(capsys):
    # the per-layer metrics of point_data, the curvature oracle and the jets
    # read these counts; verify on a one-box grid makes one call of each
    spans = _load_spans()
    with spans.Tracer(spans=False) as tracer:
        assert cli.main(["verify", "--no-timing", "--example", "calabi", "--n", "2", "--grid", "4"]) == 0
    capsys.readouterr()
    assert tracer.counts["geometry.point_data"] == 1
    assert tracer.counts["geometry.scalar_curvature_intrinsic"] == 1
    assert tracer.counts["jets.jet_eval"] == 1
