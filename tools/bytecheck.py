#!/usr/bin/env python3
"""Byte manifest of a fixed roster of minleg command lines.

    python3 tools/bytecheck.py > manifest.txt

Run it from the root of a source checkout; minleg is imported from ``src``.
Every command line runs in this process through ``minleg.cli.main(argv)``.
The manifest has one line per command: the exit code, the SHA-256 of its
stdout, of its stderr and of each file it writes (``--out``, ``--csv``, or
``-`` when it writes none), then the argv.  Written files live in a
temporary directory that the argv names as ``{dir}``, so the manifests of
two checkouts compare line by line with ``diff``.

The roster:
- ``verify --no-timing`` on every zoo entry at grids 4 and 8, seeds 0 and 7;
- ``integral`` and ``scan --csv`` on every zoo entry at grid 6;
- ``lu extremal`` (n, k) = (3, 1) and (4, 2) with ``--out``, and ``lu check``
  on those files;
- ``lu extremal`` (n, k) = (12, 9) at the largest mu whose lhs ``lu extremal``
  can sum, with ``--out``, and ``lu check`` on that file, which must not
  rescale it past the largest double;
- ``lu extremal`` (n, k) = (3, 2) at mu = 100 with ``--out``, and ``lu check``
  on that file: an equality whose slack, -2.2e-11, exceeds any fixed 1e-12
  but not the rounding bound;
- ``lu search --n 4 --profile 1,1,1 --restarts 48 --out`` at seeds 3 and 7,
  and ``lu search --restarts 12 --seed 7 --out`` at n=2 profile 1, n=3
  profiles 1,0.5 and 1e3,1, and n=4 profile 1,0,0 (zero and scaled tails),
  ``lu search --n 128 --profile 1,1,1 --restarts 1 --seed 7 --out``, a
  group of one family at large n, which updates its state in place, and
  ``lu search --n 64 --profile 1,1,1 --restarts 4 --seed 7 --out``, a group of
  four families whose rows hold 12,288 entries, more than numpy's
  8,192-entry buffer;
- the ``integral`` and ``scan --quantity pinch`` lines of the benchmark's
  ``sweep`` workload (equivariant-s3 at grid 10, calabi n=4 at grid 5), and
  ``integral --example calabi --n 4`` at the default grid, which spans many
  sweep boxes;
- ``verify --no-timing`` on calabi n=8 at grid 3 and ``integral`` on calabi
  n=13 at grid 2, which run the jets at high n and the batch floor of 128
  points;
- ``verify --no-timing`` on geodesic-sphere n=13 at grid 2, seeds 5 and 8,
  and on calabi n=8 at grid 3, seed 14: correct charts whose curvature
  samples sit near the pole margin, where a differenced curvature oracle
  failed them;
- ``verify --no-timing`` lines that exit 1: calabi n=4 at grid 4 with
  ``--tol-geom 0 --tol-alg 0`` (legendrian, minimality, sigma_symmetry and
  scalar_curvature fail), and equivariant-s3 at grid 4 with ``--tol-alg 0``
  (the hard psd check and the soft simons check fail), so the pass and
  ``hard`` logic of failing reports is pinned too;
- ``verify --no-timing`` on the flat torus T^3 (``flat-torus --n 3``) at
  grid 4, a generated entry outside the default roster;
- ``verify --no-timing`` on equivariant-s3 at the default grid, 16^3 points
  in boxes of 1280, 1280 and 1536, so that its curvature samples ride with
  a last box larger than the others;
- ``zoo list``.

    python3 tools/bytecheck.py --kernels

reruns the roster in fresh interpreters: once as it is, and once under each
setting of KERNELS, which changes only the kernels this process's own
libraries pick.  It prints each line that differs from the default manifest,
prefixed by its setting, then one count per setting, and exits 1 if any line
differs.  It sets environment variables of its own children only, and it
tells something only where OpenBLAS honours ``OPENBLAS_CORETYPE`` (a
DYNAMIC_ARCH build) and numpy dispatches above X86_V2.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FILE_FLAGS = ("--out", "--csv")
# OpenBLAS's SSE3 kernels in place of the one it picks for this CPU, and
# numpy's SIMD dispatch capped at X86_V2
KERNELS = ({"OPENBLAS_CORETYPE": "Prescott"},
           {"NPY_DISABLE_CPU_FEATURES": "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"})
CHILD = ("import json, sys\n"
         "sys.path[:0] = sys.argv[1:]\n"
         "from bytecheck import manifest\n"
         "for line in manifest(json.load(sys.stdin)):\n"
         "    print(line, flush=True)\n")


# default_entries() of the zoo, as --example/--n; a fixed list, so that the
# manifests of two checkouts stay line for line comparable
EXAMPLES = (
    ["--example", "geodesic-sphere", "--n", "3"],
    ["--example", "calabi", "--n", "2"],
    ["--example", "calabi", "--n", "3"],
    ["--example", "calabi", "--n", "4"],
    ["--example", "equivariant-s3"],
    ["--example", "flat-torus"],
)
ROSTER = (
    [["verify", *ex, "--grid", str(grid), "--seed", str(seed), "--no-timing"]
     for ex in EXAMPLES for grid in (4, 8) for seed in (0, 7)]
    + [line for i, ex in enumerate(EXAMPLES)
       for line in (["integral", *ex, "--grid", "6"],
                    ["scan", *ex, "--grid", "6", "--csv", f"{{dir}}/scan{i}.csv"])]
    + [["lu", "extremal", "--n", str(n), "--k", str(k), "--out", f"{{dir}}/extremal-{n}-{k}.json"]
       for n, k in ((3, 1), (4, 2))]
    + [["lu", "check", "--file", f"{{dir}}/extremal-{n}-{k}.json"] for n, k in ((3, 1), (4, 2))]
    + [["lu", "extremal", "--n", "12", "--k", "9", "--mu", "2.998076996061238e+153",
        "--out", "{dir}/extremal-12-9.json"],
       ["lu", "check", "--file", "{dir}/extremal-12-9.json"],
       ["lu", "extremal", "--n", "3", "--k", "2", "--mu", "100", "--out", "{dir}/extremal-3-2.json"],
       ["lu", "check", "--file", "{dir}/extremal-3-2.json"]]
    + [["lu", "search", "--n", "4", "--profile", "1,1,1", "--restarts", "48",
        "--seed", str(seed), "--out", f"{{dir}}/search-{seed}.json"] for seed in (3, 7)]
    + [["lu", "search", "--n", n, "--profile", profile, "--restarts", "12", "--seed", "7",
        "--out", f"{{dir}}/search-p{i}.json"]
       for i, (n, profile) in enumerate((("2", "1"), ("3", "1,0.5"), ("4", "1,0,0"), ("3", "1e3,1")))]
    + [["lu", "search", "--n", "128", "--profile", "1,1,1", "--restarts", "1", "--seed", "7",
        "--out", "{dir}/search-n128.json"],
       ["lu", "search", "--n", "64", "--profile", "1,1,1", "--restarts", "4", "--seed", "7",
        "--out", "{dir}/search-n64.json"]]
    + [[cmd, *ex, "--grid", grid, "--seed", "7", *extra]
       for ex, grid in ((["--example", "equivariant-s3"], "10"), (["--example", "calabi", "--n", "4"], "5"))
       for cmd, extra in (("integral", ()), ("scan", ("--quantity", "pinch")))]
    + [["integral", "--example", "calabi", "--n", "4"]]
    + [["verify", "--example", "calabi", "--n", "8", "--grid", "3", "--seed", "0", "--no-timing"],
       ["integral", "--example", "calabi", "--n", "13", "--grid", "2"]]
    + [["verify", "--example", "geodesic-sphere", "--n", "13", "--grid", "2", "--seed", str(seed),
        "--no-timing"] for seed in (5, 8)]
    + [["verify", "--example", "calabi", "--n", "8", "--grid", "3", "--seed", "14", "--no-timing"]]
    + [["verify", "--example", "calabi", "--n", "4", "--grid", "4", "--tol-geom", "0", "--tol-alg", "0",
        "--no-timing"],
       ["verify", "--example", "equivariant-s3", "--grid", "4", "--tol-alg", "0", "--no-timing"]]
    + [["verify", "--no-timing", "--example", "flat-torus", "--n", "3", "--grid", "4", "--seed", "0"]]
    + [["verify", "--no-timing", "--example", "equivariant-s3", "--seed", "0"]]
    + [["zoo", "list"]]
)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def manifest(lines: list[list[str]]):
    """Run each argv in order, {dir} standing for one temporary directory
    shared by the roster, and yield its manifest line."""
    from minleg.cli import main

    with tempfile.TemporaryDirectory() as tmp:
        for template in lines:
            argv = [arg.replace("{dir}", tmp) for arg in template]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = main(argv)
            files = []
            for flag, path in zip(argv, argv[1:]):
                if flag in FILE_FLAGS and not os.path.exists(path):
                    files.append("missing")
                elif flag in FILE_FLAGS:
                    with open(path, "rb") as fh:
                        files.append(_sha(fh.read()))
            yield " ".join([str(rc), _sha(out.getvalue().encode()), _sha(err.getvalue().encode()),
                            ",".join(files) or "-", *template])


def child_manifest(lines: list[list[str]], env: dict) -> list[str]:
    """The manifest of lines from a fresh interpreter, whose environment is this
    one without any KERNELS variable, plus env."""
    base = {k: v for k, v in os.environ.items() if not any(k in setting for setting in KERNELS)}
    proc = subprocess.run([sys.executable, "-c", CHILD, os.path.join(ROOT, "tools"), os.path.join(ROOT, "src")],
                          input=json.dumps(lines), capture_output=True, text=True, env={**base, **env})
    if proc.returncode:
        raise RuntimeError(f"manifest child under {env} exited {proc.returncode}: {proc.stderr.strip()}")
    return proc.stdout.splitlines()


def kernel_diffs(lines: list[list[str]]) -> dict[str, list[str]]:
    """For each setting of KERNELS, written as NAME=value, the manifest lines that
    differ from the default manifest of lines, in roster order."""
    default = child_manifest(lines, {})
    diffs = {}
    for env in KERNELS:
        setting = " ".join(f"{k}={v}" for k, v in env.items())
        diffs[setting] = [got for want, got in zip(default, child_manifest(lines, env)) if got != want]
    return diffs


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Byte manifest of a fixed roster of minleg command lines.")
    parser.add_argument("--kernels", action="store_true",
                        help="rerun the roster under other BLAS and SIMD kernels and print the lines that differ")
    args = parser.parse_args(argv)
    if args.kernels:
        diffs = kernel_diffs(ROSTER)
        for setting, lines in diffs.items():
            for line in lines:
                print(f"{setting}: {line}")
        for setting, lines in diffs.items():
            print(f"{setting}: {len(lines)} of {len(ROSTER)} lines differ")
        return 1 if any(diffs.values()) else 0
    sys.path.insert(0, os.path.join(ROOT, "src"))
    for line in manifest(ROSTER):
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
