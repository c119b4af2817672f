"""The benchmark's tracer hooks must resolve against the program.

bench/spans.py wraps minleg functions at the attributes where their callers
look them up, and reads each one as ``owner.__dict__[attr]`` when it installs
the tracer (both ``--trace 0`` and ``--trace 1`` do).  A refactor that drops
or moves one of those attributes would crash the benchmark; this test makes
it fail here instead.  The benchmark's file is imported, never modified.
"""

import importlib.util
from pathlib import Path

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
