"""Smoke test of tools/bytecheck.py on a two-line roster."""

import hashlib
import importlib.util
import re
from pathlib import Path

from minleg.lu_inequality import canonical_extremal, family_to_text

BYTECHECK = Path(__file__).resolve().parents[1] / "tools" / "bytecheck.py"


def _load_bytecheck():
    spec = importlib.util.spec_from_file_location("bytecheck", BYTECHECK)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bytecheck_manifest_lines():
    bytecheck = _load_bytecheck()
    roster = [["lu", "extremal", "--n", "3", "--k", "1", "--out", "{dir}/fam.json"],
              ["lu", "check", "--file", "{dir}/fam.json"]]
    lines = list(bytecheck.manifest(roster))
    assert lines == list(bytecheck.manifest(roster))
    empty = hashlib.sha256(b"").hexdigest()
    fam = hashlib.sha256(family_to_text(canonical_extremal(3, 1)).encode()).hexdigest()
    (rc, out, err, files, *argv), (rc2, out2, err2, files2, *argv2) = (line.split() for line in lines)
    assert (rc, err, files, argv) == ("0", empty, fam, roster[0])
    assert (rc2, err2, files2, argv2) == ("0", empty, "-", roster[1])
    # lu check reads the unit family as written, so it prints what lu extremal printed
    assert len(out) == 64 and out == out2
    assert len(bytecheck.ROSTER) == 64


def test_readme_states_the_roster_size():
    readme = (BYTECHECK.parents[1] / "README.md").read_text(encoding="utf-8")
    stated = re.findall(r"every\s+subcommand,\s+(\d+)\s+lines", readme)
    assert stated == [str(len(_load_bytecheck().ROSTER))]
