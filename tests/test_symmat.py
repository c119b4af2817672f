import numpy as np
import pytest

import minleg.symmat as symmat
from minleg.symmat import (
    JacobiConvergenceError,
    commutator,
    frobenius_inner,
    frobenius_norm,
    sym_eigen,
    symmetrize,
)

from _helpers import random_symmetric, reference_sym_eigen, same_bits


def test_symmetrize_basic():
    a = np.array([[1.0, 2.0], [0.0, 3.0]])
    s = symmetrize(a)
    assert np.array_equal(s, s.T)
    assert s[0, 1] == 1.0


def test_symmetrize_halves_before_adding():
    # (A + A^T) / 2 bit for bit on normal entries, and no overflow near the largest double
    rng = np.random.default_rng(3)
    a = rng.standard_normal((50, 5, 5)) * 10.0 ** rng.uniform(-300.0, 300.0, (50, 1, 1))
    assert symmetrize(a).tobytes() == ((a + a.swapaxes(-1, -2)) / 2.0).tobytes()
    big = np.full((2, 2), 1.7e308)
    big[0, 1] = -1.7e308
    assert np.array_equal(symmetrize(big), [[1.7e308, 0.0], [0.0, 1.7e308]])


def test_symmetrize_rejects_bad_input():
    with pytest.raises(ValueError):
        symmetrize(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        symmetrize(np.ones(4))
    with pytest.raises(ValueError):
        symmetrize(np.array([[1.0, np.nan], [0.0, 1.0]]))


def test_frobenius_inner_and_norm():
    a = np.array([[1.0, 2.0], [2.0, -1.0]])
    b = np.array([[0.0, 1.0], [1.0, 3.0]])
    assert frobenius_inner(a, b) == 2.0 + 2.0 - 3.0
    assert abs(frobenius_norm(a) - np.sqrt(10.0)) < 1e-15
    with pytest.raises(ValueError):
        frobenius_inner(a, np.zeros((3, 3)))


def test_frobenius_inner_closed_forms():
    eye2 = np.eye(2)
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    sign = np.diag([1.0, -1.0])
    assert frobenius_inner(eye2, eye2) == 2.0
    assert frobenius_inner(sign, swap) == 0.0
    assert frobenius_inner(swap, swap) == 2.0


def test_commutator_closed_forms():
    assert np.max(np.abs(commutator(np.diag([1.0, 2.0]), np.diag([3.0, 4.0])))) == 0.0
    sign = np.diag([1.0, -1.0])
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    want = 2.0 * np.array([[0.0, 1.0], [-1.0, 0.0]])
    assert np.array_equal(commutator(sign, swap), want)
    c = commutator(sign / np.sqrt(2.0), swap)
    assert abs(frobenius_norm(c) ** 2 - 4.0) < 1e-14


def test_commutator_antisymmetric():
    rng = np.random.default_rng(0)
    for _ in range(25):
        a = random_symmetric(rng, 4)
        b = random_symmetric(rng, 4)
        c = commutator(a, b)
        assert np.allclose(c, -commutator(b, a), atol=1e-15)
        # commutator of symmetric matrices is antisymmetric
        assert np.max(np.abs(c + c.T)) < 1e-14
        assert np.max(np.abs(commutator(a, a))) == 0.0


def test_commutator_norm_bound_fuzz():
    # ||[A,B]||^2 <= 2 ||A||^2 ||B||^2 for arbitrary square A, B
    rng = np.random.default_rng(314)
    for _ in range(2000):
        n = int(rng.integers(2, 7))
        a = rng.standard_normal((n, n))
        b = rng.standard_normal((n, n))
        lhs = np.linalg.norm(commutator(a, b)) ** 2
        rhs = 2.0 * np.linalg.norm(a) ** 2 * np.linalg.norm(b) ** 2
        assert lhs <= rhs * (1.0 + 1e-12)


def test_eigen_diagonal_matrix_exact():
    d = np.diag([3.0, -1.0, 7.0, 0.0])
    res = sym_eigen(d)
    assert np.array_equal(res.values, [7.0, 3.0, 0.0, -1.0])
    # eigenvectors are signed permutation columns
    assert np.allclose(np.abs(res.vectors), np.eye(4)[:, [2, 0, 3, 1]], atol=0.0)


def test_eigen_2x2_closed_form():
    a = np.array([[2.0, 1.0], [1.0, 2.0]])
    res = sym_eigen(a)
    assert np.allclose(res.values, [3.0, 1.0], atol=1e-14)
    assert np.allclose(np.abs(res.vectors[:, 0]), [np.sqrt(0.5)] * 2, atol=1e-14)


def test_eigen_reconstruction_fuzz():
    # 1e4 seeded draws, n <= 8: reconstruction within 1e-10 (1 + ||A||),
    # values against the LAPACK route as an independent oracle; the draws are
    # solved as one stack per n (test_eigen_batched_matches_single_calls pins
    # each stack entry to its single solve, bit for bit)
    rng = np.random.default_rng(2718)
    draws = {}
    for trial in range(10_000):
        n = int(rng.integers(1, 9))
        scale = 10.0 ** rng.uniform(-3, 3)
        draws.setdefault(n, []).append((trial, random_symmetric(rng, n, scale=scale)))
    for n, group in draws.items():
        trials = np.array([t for t, _ in group])
        a = np.stack([m for _, m in group])
        norm_a = np.linalg.norm(a, axis=(1, 2))
        res = sym_eigen(a)
        q, lam = res.vectors, res.values
        rec = np.max(np.abs(q @ (lam[:, :, None] * q.swapaxes(1, 2)) - a), axis=(1, 2))
        bad = trials[rec >= 1e-10 * (1.0 + norm_a)]
        assert bad.size == 0, f"trials {bad.tolist()}"
        want = np.linalg.eigvalsh(a)[:, ::-1]
        bad = trials[np.max(np.abs(lam - want), axis=1) >= 1e-12 * (1.0 + norm_a)]
        assert bad.size == 0, f"trials {bad.tolist()}"


def test_eigen_orthogonality():
    rng = np.random.default_rng(99)
    for _ in range(300):
        n = int(rng.integers(2, 9))
        a = random_symmetric(rng, n)
        res = sym_eigen(a)
        q = res.vectors
        assert np.max(np.abs(q.T @ q - np.eye(n))) < 1e-13


def test_eigen_shift_invariance():
    rng = np.random.default_rng(5)
    for _ in range(100):
        n = int(rng.integers(2, 7))
        a = random_symmetric(rng, n)
        c = float(rng.uniform(-5, 5))
        v0 = sym_eigen(a).values
        v1 = sym_eigen(a + c * np.eye(n)).values
        assert np.max(np.abs(v1 - (v0 + c))) < 1e-12


def test_eigen_deterministic():
    rng = np.random.default_rng(17)
    a = random_symmetric(rng, 6)
    r1 = sym_eigen(a.copy())
    r2 = sym_eigen(a.copy())
    assert np.array_equal(r1.values, r2.values)
    assert np.array_equal(r1.vectors, r2.vectors)


def test_eigen_descending_with_ties():
    a = np.diag([2.0, 2.0, 1.0])
    res = sym_eigen(a)
    assert np.array_equal(res.values, [2.0, 2.0, 1.0])


def test_eigen_named_examples():
    assert np.array_equal(sym_eigen(np.diag([3.0, 1.0, 2.0])).values, [3.0, 2.0, 1.0])
    assert np.array_equal(sym_eigen(np.zeros((4, 4))).values, np.zeros(4))


def test_eigen_convergence_error(monkeypatch):
    monkeypatch.setattr(symmat, "MAX_SWEEPS", 0)
    a = np.array([[0.0, 1.0], [1.0, 0.0]])
    for vectors in (True, False):
        with pytest.raises(JacobiConvergenceError):
            sym_eigen(a, vectors=vectors)
        with pytest.raises(JacobiConvergenceError):
            sym_eigen(np.stack([np.eye(2), a]), vectors=vectors)


def test_eigen_input_not_mutated():
    a = np.array([[1.0, 0.5], [0.5, 2.0]])
    keep = a.copy()
    sym_eigen(a)
    assert np.array_equal(a, keep)


def test_eigen_batched_matches_single_calls():
    # a stack mixing matrices that converge after different sweep counts,
    # diagonal ones (every pivot zero) and the zero matrix: each solve in the
    # stack must reproduce its own single-matrix solve bit for bit
    rng = np.random.default_rng(31)
    for n in (2, 3, 5):
        stack = np.stack([random_symmetric(rng, n, scale=10.0 ** rng.uniform(-3, 3))
                          for _ in range(40)])
        stack[3] = np.diag(rng.standard_normal(n))
        stack[4] = 0.0
        res = sym_eigen(stack)
        assert res.values.shape == (40, n) and res.vectors.shape == (40, n, n)
        for k, a in enumerate(stack):
            one = sym_eigen(a)
            assert np.array_equal(res.values[k], one.values), (n, k)
            assert np.array_equal(res.vectors[k], one.vectors), (n, k)


def _assert_solves_match(a, values, vectors, case):
    """sym_eigen(a) gives these bits, and sym_eigen(a, vectors=False) the same
    value bits and no vectors."""
    res = sym_eigen(a)
    assert same_bits(res.values, values) and same_bits(res.vectors, vectors), case
    only = sym_eigen(a, vectors=False)
    assert same_bits(only.values, values) and only.vectors is None, case


@pytest.mark.parametrize("n", range(2, 9))
def test_eigen_matches_batch_major_reference(n):
    # stacks that mix zero, diagonal, dense and partly converged matrices (off
    # the diagonal by 1e-15 to 1e-13 of their norm, near the stopping rule), so
    # pivots rotate all, some or none of the matrices; every matrix must keep
    # the bits of the batch-major lockstep solve, and so must one matrix alone,
    # and the values of a values-only solve
    rng = np.random.default_rng(700 + n)
    for count in (1, 7, 64):
        stack = np.stack([random_symmetric(rng, n, scale=10.0 ** rng.uniform(-3, 3)) for _ in range(count)])
        kinds = rng.integers(0, 4, count)
        for k in np.flatnonzero(kinds == 0):
            stack[k] = 0.0
        for k in np.flatnonzero(kinds == 1):
            stack[k] = np.diag(np.diag(stack[k]))
        for k in np.flatnonzero(kinds == 2):
            near = 10.0 ** rng.uniform(-15, -13) * random_symmetric(rng, n)
            stack[k] = np.diag(rng.standard_normal(n)) + near
        values, vectors = reference_sym_eigen(stack)
        _assert_solves_match(stack, values, vectors, count)
        _assert_solves_match(stack[0], values[0], vectors[0], count)
    # an empty stack solves to empty values and vectors
    _assert_solves_match(np.zeros((0, n, n)), np.zeros((0, n)), np.zeros((0, n, n)), 0)


def _stack_on_the_stopping_rule(rng, n):
    """A stack (A, E, D, E) whose matrix E = c I + X has an off-diagonal norm and
    a stopping threshold that differ by rounding only: summed left to right
    the n(n - 1) >= 8 squares meet the threshold one way, and summed in
    numpy's pairwise blocks, as a contiguous row of squares would be, the
    other way.  The threshold is taken from the stack itself, as sym_eigen
    sums it."""
    offdiag = ~np.eye(n, dtype=bool)
    dense, diagonal = random_symmetric(rng, n), np.diag(rng.standard_normal(n))
    for _ in range(100):
        x = random_symmetric(rng, n) * (1.0 - np.eye(n))
        x *= 1.5e-14 / np.sqrt(np.sum(x * x))
        squares = x[offdiag] ** 2
        pairwise = np.sqrt(np.add.reduce(squares))
        in_order = 0.0
        for term in squares.tolist():
            in_order += term
        in_order = np.sqrt(in_order)
        lo, hi = min(pairwise, in_order), max(pairwise, in_order)
        c_lo, c_hi = 0.0, 1.0  # the threshold grows with c, from 1e-14 to 2e-14
        for _ in range(60):
            c = (c_lo + c_hi) / 2.0
            edge = c * np.eye(n) + x
            stack = np.stack([dense, edge, diagonal, edge])
            stop = symmat.JACOBI_TOL * (1.0 + np.sqrt((stack * stack).sum(axis=(1, 2))))[1]
            if lo < stop <= hi:
                return stack
            c_lo, c_hi = (c, c_hi) if stop <= lo else (c_lo, c)
    raise AssertionError("no matrix found on the stopping rule")


def test_eigen_stopping_rule_sums_batch_major():
    # each convergence decision sums the off-diagonal squares in the order of
    # the batch-major solve (left to right in a stack, as its boolean gather
    # returns the squares strided); on a matrix where the other order decides
    # the other way, a rotation (by 45 degrees, as the diagonal is constant)
    # happens or not, so its bits tell the orders apart
    rng = np.random.default_rng(11)
    for n in (4, 6):
        stack = _stack_on_the_stopping_rule(rng, n)
        values, vectors = reference_sym_eigen(stack)
        _assert_solves_match(stack, values, vectors, n)
