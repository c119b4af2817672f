"""Shared random generators and subprocess environment for the test suite."""

import os
from pathlib import Path

import numpy as np

from minleg.lu_inequality import MatrixFamily
from minleg.symmat import frobenius_inner, frobenius_norm

SRC = Path(__file__).resolve().parents[1] / "src"


def checkout_env():
    """os.environ with this checkout's src/ first on PYTHONPATH, so a
    subprocess imports the same minleg as the tests."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def random_symmetric(rng, n, scale=1.0):
    a = rng.standard_normal((n, n)) * scale
    return (a + a.T) / 2.0


def random_orthogonal(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    # fix signs so the factorization is unique and q is a proper draw
    return q * np.sign(np.diag(r))


def random_orthogonal_family(rng, n, m=None, norms=None):
    """Hilbert-Schmidt-orthogonal symmetric family with unit first slot.

    norms, when given, must be descending for the tail; otherwise the tail
    norms are drawn and sorted.
    """
    if m is None:
        m = int(rng.integers(1, n + 1))
    if norms is None:
        tail = np.sort(rng.uniform(0.2, 2.0, size=m - 1))[::-1]
        norms = np.concatenate([[1.0], tail])
    mats = []
    for i in range(m):
        a = random_symmetric(rng, n)
        for b in mats:
            a = a - frobenius_inner(a, b) / frobenius_inner(b, b) * b
        nb = frobenius_norm(a)
        if nb < 1e-8:
            # degenerate draw; retry the slot
            return random_orthogonal_family(rng, n, m, norms)
        mats.append(a / nb * norms[i])
    return MatrixFamily(n=n, mats=np.stack(mats))
