"""minleg's seeded draws: one stream, pinned to the bit, without numpy.random.

verify's sample points and the starts of lu search come from
minleg.seeded_random, a random.Random seeded with the text of its key.  The
pinned bits change only when the stream is changed on purpose; such a change
changes verify's sampled values and every lu search output.
"""

import random
import subprocess
import sys

from _helpers import checkout_env

from minleg import lu_inequality as lu
from minleg import zoo
from minleg.verify import SAMPLE_MARGIN, sample_points

# One command line of every subcommand, run in one interpreter through
# minleg.cli.main; the family file of lu extremal feeds lu check.
ALL_SUBCOMMANDS = r"""
import contextlib, io, os, sys, tempfile
from minleg.cli import main

with tempfile.TemporaryDirectory() as tmp:
    fam = os.path.join(tmp, "fam.json")
    runs = [
        ["zoo", "list"],
        ["verify", "--example", "equivariant-s3", "--grid", "2", "--no-timing"],
        ["scan", "--example", "flat-torus", "--grid", "3"],
        ["integral", "--example", "flat-torus", "--grid", "3"],
        ["lu", "extremal", "--n", "3", "--k", "1", "--out", fam],
        ["lu", "check", "--file", fam],
        ["lu", "search", "--n", "3", "--profile", "1", "--restarts", "2", "--seed", "1"],
    ]
    codes = []
    for argv in runs:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            codes.append(main(argv))
print(codes, "numpy.random" in sys.modules)
"""


def test_no_subcommand_loads_numpy_random():
    result = subprocess.run([sys.executable, "-c", ALL_SUBCOMMANDS], capture_output=True,
                            text=True, check=True, env=checkout_env(), timeout=120)
    assert result.stdout.strip() == "[0, 0, 0, 0, 0, 0, 0] False", result.stderr


def test_sample_points_stream_is_pinned():
    # verify --seed 0 samples the curvature oracle at sample_points(chart, 20, 7)
    chart = zoo.equivariant_sphere3().chart
    pts = sample_points(chart, 20, seed=7)
    assert [[x.hex() for x in row] for row in pts[:2].tolist()] == [
        ["0x1.0024e2f09d6c9p-2", "0x1.56f4c541a6b00p+2", "0x1.dbf8847097f3ap+1"],
        ["0x1.cd03c419c010ep-1", "0x1.8df4d1e66f996p+2", "0x1.c728b5f942df8p+1"],
    ]
    # the generator is keyed by the text "seed,dim,count" and draws axis 0 first
    iv = chart.domain[0]
    lo, hi = iv.lo + SAMPLE_MARGIN * iv.span, iv.hi - SAMPLE_MARGIN * iv.span
    assert pts[0, 0] == lo + (hi - lo) * random.Random("7,3,20").random()


def test_search_start_stream_is_pinned(monkeypatch):
    # the first _retract call of a lockstep group receives the symmetrized
    # starts of its restarts, one row each; restarts 0 and 1 share a group
    calls, starts = [], []
    retract, group = lu._retract, lu._search_group

    def spy_retract(mats, norms):
        calls.append(mats.copy())
        return retract(mats, norms)

    def spy_group(*args):
        starts.append(len(calls))
        return group(*args)

    monkeypatch.setattr(lu, "_retract", spy_retract)
    monkeypatch.setattr(lu, "_search_group", spy_group)
    lu.extremal_search(2, (1.0,), restarts=2, seed=3)
    assert starts == [0]
    start = calls[starts[0]][1]
    assert [x.hex() for x in start.ravel().tolist()] == [
        "-0x1.7f31b2a75d90ap-1", "-0x1.7eaf882c3ad75p-1",
        "-0x1.7eaf882c3ad75p-1", "-0x1.bffcdb36d55e8p-1",
        "0x1.79991692aed44p-2", "-0x1.6b2aabe1afa90p-4",
        "-0x1.6b2aabe1afa90p-4", "0x1.b875e930e9e08p-3",
    ]
    # restart 1 of seed 3 is keyed by the text "3,1"; a diagonal entry is
    # its draw 2 * random() - 1 unchanged by the symmetrization
    assert start[0, 0, 0] == 2.0 * random.Random("3,1").random() - 1.0
