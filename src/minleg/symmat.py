"""Dense symmetric-matrix kernel.

Hilbert-Schmidt inner products, commutators, and a deterministic cyclic
Jacobi eigensolver, dependency-free apart from numpy arrays.  The program
reads two of them: sym_eigen gives the spectra of fundamental matrices, and
symmetrize the symmetric copies of the Lu-inequality families (lu_inequality
sums its own squares).  The Frobenius helpers and commutator serve the demos
and an independent reference form of the commutator-norm bound.
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
    values: np.ndarray          # descending
    vectors: np.ndarray | None  # columns, matching order; None from a values-only solve


def sym_eigen(a, vectors: bool = True) -> EigenResult:
    """Eigendecomposition by cyclic Jacobi rotations.

    Sweeps pivots in fixed row order (0,1), (0,2), ..., (n-2,n-1) until the
    off-diagonal Frobenius norm drops below JACOBI_TOL * (1 + ||A||_F), so the
    result is deterministic for a given input; no convergence within MAX_SWEEPS
    sweeps raises JacobiConvergenceError.  Eigenvalues are returned in
    descending order with stable tie ordering.

    A stack of matrices, shape B + (n, n), is solved in lockstep: at each
    pivot only the matrices that have not converged and have a nonzero pivot
    entry rotate, so each matrix sees the rotation sequence of its own solve.
    The stack is held batch-last, so each rotation step is one contiguous
    operation over the matrices that rotate, in place when all of them do.
    The off-diagonal norms that decide convergence sum their squares left to
    right, whatever the stack's size, so one matrix alone stops where it does
    in a stack.

    vectors=False solves for the values alone and returns vectors=None: the
    loop holds A without the eigenvector matrix Q, so it skips Q's share of
    each column rotation and the gather of Q's columns.  Every rotation of A
    runs the same operations in the same order, so the values have the bits
    of the full solve.
    """
    a = symmetrize(a)
    batch, n = a.shape[:-2], a.shape[-1]
    a = a.reshape(-1, n, n)
    stop = JACOBI_TOL * (1.0 + np.sqrt((a * a).sum(axis=(1, 2))))
    # With vectors, the eigenvector matrix Q sits under A in one (2n, n, N)
    # array, so each column rotation of A also applies to Q.
    aq = np.empty((2 * n if vectors else n, n, len(a)))
    aq[:n] = np.moveaxis(a, 0, -1)
    if vectors:
        aq[n:] = np.eye(n)[:, :, None]
    a, q = aq[:n], aq[n:]
    offdiag = ~np.eye(n, dtype=bool)
    for _ in range(MAX_SWEEPS + 1):
        # Each matrix's off-diagonal squares, (n(n-1), N), summed left to right
        # by a running sum, for one matrix as for a stack.  With n = 1 or an
        # empty stack there is nothing to rotate.
        off = a[offdiag]
        if not off.size:
            break
        active = np.sqrt(np.cumsum(off * off, axis=0)[-1]) >= stop
        if not active.any():
            break
        for p in range(n - 1):
            for r in range(p + 1, n):
                k = np.flatnonzero(active & (a[p, r] != 0.0))
                if k.size == 0:
                    continue
                m = aq if k.size == aq.shape[-1] else aq[..., k]
                tau = (m[r, r] - m[p, p]) / (2.0 * m[p, r])
                t = np.copysign(1.0, tau) / (np.abs(tau) + np.hypot(1.0, tau))
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                # A <- J^T A J with J the rotation in the (p, r) plane; Q <- Q J.
                col_p, col_r = m[:, p].copy(), m[:, r]
                m[:, p] = c * col_p - s * col_r
                m[:, r] = s * col_p + c * col_r
                row_p, row_r = m[p].copy(), m[r]
                m[p] = c * row_p - s * row_r
                m[r] = s * row_p + c * row_r
                m[p, r] = m[r, p] = 0.0
                if m is not aq:
                    aq[..., k] = m
    else:
        raise JacobiConvergenceError(f"Jacobi sweeps did not converge within {MAX_SWEEPS} sweeps")
    # Sort each matrix's eigenvalues, and Q's columns with them, by one gather
    # each: in the (n, n N) view of a batch-last (n, n, N) array, entry (i, j)
    # of matrix b sits in row i at j N + b.
    count = aq.shape[-1]
    diag = a.reshape(n * n, count)[::n + 1]
    order = np.argsort(-diag.T, axis=1, kind="stable")
    flat = order * count + np.arange(count)[:, None]
    values = diag.ravel()[flat].reshape(batch + (n,))
    if not vectors:
        return EigenResult(values, None)
    return EigenResult(values, q.reshape(n, n * count)[:, flat].transpose(1, 0, 2).reshape(batch + (n, n)))
