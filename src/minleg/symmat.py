"""Dense symmetric-matrix kernel.

Hilbert-Schmidt inner products, commutators, and a deterministic cyclic
Jacobi eigensolver.  Everything downstream (fundamental matrices, spectra,
the commutator-norm bound) is built on these four functions, so they stay
dependency-free apart from numpy arrays.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import NumericalFailure

# Off-diagonal convergence threshold, relative to 1 + ||A||_F.
JACOBI_TOL = 1e-14
MAX_SWEEPS = 100


def symmetrize(a) -> np.ndarray:
    """Validated symmetric copy of a square matrix or a stack of them (entries averaged)."""
    a = np.asarray(a, dtype=float)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    # A/2 + A^T/2 cannot overflow, and gives the bits of (A + A^T) / 2 above the subnormals
    half = a / 2.0
    return half + half.swapaxes(-1, -2)


def frobenius_inner(a, b) -> float:
    """Hilbert-Schmidt inner product <A, B> = sum_ij A_ij B_ij."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return float(np.sum(a * b))


def frobenius_norm(a) -> float:
    return math.sqrt(frobenius_inner(a, a))


def commutator(a, b) -> np.ndarray:
    """[A, B] = AB - BA."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim != 2:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return a @ b - b @ a


class JacobiConvergenceError(NumericalFailure):
    """Cyclic Jacobi sweeps did not converge within the sweep limit."""


class EigenResult(NamedTuple):
    values: np.ndarray   # descending
    vectors: np.ndarray  # columns, matching order


def sym_eigen(a) -> EigenResult:
    """Eigendecomposition by cyclic Jacobi rotations.

    Sweeps pivots in fixed row order (0,1), (0,2), ..., (n-2,n-1) until the
    off-diagonal Frobenius norm drops below JACOBI_TOL * (1 + ||A||_F), so the
    result is deterministic for a given input; no convergence within MAX_SWEEPS
    sweeps raises JacobiConvergenceError.  Eigenvalues are returned in
    descending order with stable tie ordering.

    A stack of matrices, shape B + (n, n), is solved in lockstep: at each
    pivot only the matrices that have not converged and have a nonzero pivot
    entry rotate, so each matrix sees the rotation sequence of its own solve.
    """
    a = symmetrize(a)
    batch, n = a.shape[:-2], a.shape[-1]
    a = a.reshape(-1, n, n)
    stop = JACOBI_TOL * (1.0 + np.sqrt((a * a).sum(axis=(1, 2))))
    # The eigenvector matrix Q sits under A in one array, so each column
    # rotation of A also applies to Q.
    aq = np.concatenate([a, np.broadcast_to(np.eye(n), a.shape)], axis=1)
    a, q = aq[:, :n], aq[:, n:]
    offdiag = ~np.eye(n, dtype=bool)
    for _ in range(MAX_SWEEPS + 1):
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
                # A <- J^T A J with J the rotation in the (p, r) plane; Q <- Q J.
                col_p, col_r = m[:, :, p].copy(), m[:, :, r]
                m[:, :, p] = c * col_p - s * col_r
                m[:, :, r] = s * col_p + c * col_r
                row_p, row_r = m[:, p, :].copy(), m[:, r, :]
                m[:, p, :] = c * row_p - s * row_r
                m[:, r, :] = s * row_p + c * row_r
                m[:, p, r] = m[:, r, p] = 0.0
                aq[k] = m
    else:
        raise JacobiConvergenceError(f"Jacobi sweeps did not converge within {MAX_SWEEPS} sweeps")
    values = np.diagonal(a, axis1=1, axis2=2)
    order = np.argsort(-values, axis=1, kind="stable")
    values = np.take_along_axis(values, order, axis=1)
    vectors = np.take_along_axis(q, order[:, None, :], axis=2)
    return EigenResult(values.reshape(batch + (n,)), vectors.reshape(batch + (n, n)))
