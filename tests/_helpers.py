"""Shared random generators, subprocess environment and reference kernels
for the test suite."""

import os
from pathlib import Path

import numpy as np

from minleg import symmat
from minleg.geometry import DegeneratePointError
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


def same_bits(x, y) -> bool:
    """Equal shapes and values, signed zeros included."""
    x, y = np.asarray(x), np.asarray(y)
    return x.shape == y.shape and np.array_equal(x, y) and np.array_equal(np.signbit(x), np.signbit(y))


# ---- batch-major references for the batch-last kernels -------------------------
# The earlier forms of geometry._cholesky, geometry._lower_inverse and the
# symmat.sym_eigen loop, which keep the batch axes first: the fast paths must
# reproduce their bits.


def reference_cholesky(u, metric):
    """(L, diag L) with G = L L^T, batch-major: L of shape B + (n, n)."""
    n = metric.shape[-1]
    chol = np.zeros(metric.shape)
    diag = np.empty(metric.shape[:-1])
    for j in range(n):
        col = metric[..., j:, j]
        if j:
            col = col - np.add.reduce(chol[..., j:, :j] * chol[..., j:j + 1, :j], axis=-1)
        bad = ~(col[..., 0] > 0.0)
        if np.any(bad):
            raise DegeneratePointError(f"metric not positive definite at u = {u[bad][0].tolist()}")
        diag[..., j] = chol[..., j, j] = np.sqrt(col[..., 0])
        chol[..., j + 1:, j] = col[..., 1:] / diag[..., j, None]
    return chol, diag


def reference_lower_inverse(chol, diag):
    """a = L^-1 by forward substitution on a batch-major factor."""
    n = chol.shape[-1]
    a = np.zeros(chol.shape)
    for i in range(n):
        a[..., i, i] = 1.0 / diag[..., i]
        if i:
            a[..., i, :i] = np.add.reduce(chol[..., i, :i, None] * a[..., :i, :i], axis=-2) / -diag[..., i, None]
    return a


def reference_sym_eigen(a):
    """(values, vectors) of the lockstep Jacobi solve on a batch-major stack."""
    a = symmat.symmetrize(a)
    batch, n = a.shape[:-2], a.shape[-1]
    a = a.reshape(-1, n, n)
    stop = symmat.JACOBI_TOL * (1.0 + np.sqrt((a * a).sum(axis=(1, 2))))
    aq = np.concatenate([a, np.broadcast_to(np.eye(n), a.shape)], axis=1)
    a, q = aq[:, :n], aq[:, n:]
    offdiag = ~np.eye(n, dtype=bool)
    for _ in range(symmat.MAX_SWEEPS + 1):
        off = a[:, offdiag]
        active = np.sqrt((off * off).sum(axis=1)) >= stop
        if not active.any():
            break
        for p in range(n - 1):
            for r in range(p + 1, n):
                k = np.flatnonzero(active & (a[:, p, r] != 0.0))
                if k.size == 0:
                    continue
                m = aq[k]
                tau = (m[:, r, r] - m[:, p, p]) / (2.0 * m[:, p, r])
                t = np.copysign(1.0, tau) / (np.abs(tau) + np.hypot(1.0, tau))
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = (t * c)[:, None]
                c = c[:, None]
                col_p, col_r = m[:, :, p].copy(), m[:, :, r]
                m[:, :, p] = c * col_p - s * col_r
                m[:, :, r] = s * col_p + c * col_r
                row_p, row_r = m[:, p, :].copy(), m[:, r, :]
                m[:, p, :] = c * row_p - s * row_r
                m[:, r, :] = s * row_p + c * row_r
                m[:, p, r] = m[:, r, p] = 0.0
                aq[k] = m
    else:
        raise symmat.JacobiConvergenceError(f"Jacobi sweeps did not converge within {symmat.MAX_SWEEPS} sweeps")
    values = np.diagonal(a, axis1=1, axis2=2)
    order = np.argsort(-values, axis=1, kind="stable")
    values = np.take_along_axis(values, order, axis=1)
    vectors = np.take_along_axis(q, order[:, None, :], axis=2)
    return values.reshape(batch + (n,)), vectors.reshape(batch + (n, n))
