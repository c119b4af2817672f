"""The glibc heap policy that cli.main() sets once per process."""

import os
import resource
import subprocess
import sys

import pytest

from _helpers import checkout_env
from minleg import cli
from minleg.cli import main

ARGVS = (
    ["integral", "--example", "equivariant-s3", "--grid", "4", "--seed", "7"],
    ["lu", "search", "--n", "3", "--profile", "1,0.5", "--restarts", "2", "--seed", "7"],
)


def _glibc() -> bool:
    try:
        return (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc")
    except (AttributeError, ValueError):
        return False


@pytest.fixture
def fresh_policy():
    """The policy not yet set in this process, and unset again afterwards,
    so the next main() sets it with the real allocator."""
    cli._keep_heap.cache_clear()
    yield
    cli._keep_heap.cache_clear()


class _Recorder:
    def __init__(self):
        self.calls = []

    def mallopt(self, param, value):
        self.calls.append((param, value))
        return 1


def _runs(capsys):
    runs = []
    for argv in ARGVS:
        rc = main(argv)
        runs.append((rc, *capsys.readouterr()))
    return runs


def _no_library(name):
    raise OSError(f"{name}: cannot open shared object file")


def _no_confstr_name(name):
    raise ValueError("unrecognized configuration name")


@pytest.mark.parametrize("target, replacement", [
    ("CDLL", _no_library),  # the C library cannot be loaded
    ("CDLL", lambda name: object()),  # it has no mallopt
    ("confstr", _no_confstr_name),  # a C library other than glibc
    ("confstr", lambda name: None),
])
def test_main_without_mallopt_prints_the_same_bytes(capsys, monkeypatch, fresh_policy, target, replacement):
    reference = _runs(capsys)
    cli._keep_heap.cache_clear()
    monkeypatch.setattr(cli.ctypes if target == "CDLL" else cli.os, target, replacement)
    assert _runs(capsys) == reference
    assert all(err == "" for _, _, err in reference)


def test_heap_policy_runs_once_per_process(capsys, monkeypatch, fresh_policy):
    libc = _Recorder()
    monkeypatch.setattr(cli.os, "confstr", lambda name: "glibc 2.36")
    monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: libc)
    _runs(capsys)
    _runs(capsys)
    assert libc.calls == [(cli.M_TRIM_THRESHOLD, 64 * 2**20), (cli.M_MMAP_THRESHOLD, 32 * 2**20)]


def test_import_and_parser_leave_the_allocator_alone():
    code = ("import minleg, minleg.cli\n"
            "minleg.cli.build_parser()\n"
            "before = minleg.cli._keep_heap.cache_info().misses\n"
            "minleg.cli.main(['zoo', 'list'])\n"
            "print(before, minleg.cli._keep_heap.cache_info().misses)\n")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, env=checkout_env())
    assert done.stdout.splitlines()[-1] == "0 1"


@pytest.mark.skipif(not _glibc(), reason="the heap policy applies under glibc only")
def test_warm_sweep_calls_keep_their_pages(capsys):
    # with glibc's default thresholds these three calls fault about 900 pages,
    # as the freed temporaries of each are trimmed and faulted back in
    argv = ["integral", "--example", "equivariant-s3", "--grid", "10", "--seed", "7"]
    assert main(argv) == 0
    capsys.readouterr()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(3):
        assert main(argv) == 0
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    capsys.readouterr()
    assert faults < 100
