"""The benchmark's workloads must build and pass their own checks.

bench/workloads.py turns each workload into minleg command lines and a check
of each output.  A refactor that drops a name it imports, breaks the zoo-name
round trip of its verify ops or changes an output it checks would fail the
benchmark; this test runs every op once and makes it fail here instead.  The
benchmark's file is imported, never modified.
"""

import contextlib
import importlib.util
import io
import sys
from pathlib import Path

from minleg import cli

WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules while they are built
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_every_workload_op_passes_its_check():
    workloads = _load_workloads()
    assert set(workloads.WORKLOADS) == {"sweep", "verify-zoo", "lu-search"}
    for name, build in workloads.WORKLOADS.items():
        workload = build(1)
        assert workload.name == name and workload.ops
        for op in workload.ops:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(list(op.argv))
            assert op.check(rc, out.getvalue(), err.getvalue()) is None, op.argv
