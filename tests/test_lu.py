import json
import logging
import math

import numpy as np
import pytest

import minleg.lu_inequality as lu
from minleg.lu_inequality import (
    FamilyValidationError,
    MatrixFamily,
    canonical_extremal,
    extremal_search,
    family_from_text,
    family_to_text,
    load_family,
    lu_bound,
    lu_check,
    normalize_family,
    objective_gradients,
    objective_value,
)

from minleg import seeded_random
from minleg.symmat import commutator, frobenius_inner, symmetrize

from _helpers import random_orthogonal, random_orthogonal_family, random_symmetric


# ---- family construction and validation -------------------------------------


def test_family_requires_unit_lead():
    mats = np.zeros((1, 2, 2))
    mats[0] = np.diag([1.0, 1.0])  # norm sqrt(2)
    with pytest.raises(FamilyValidationError):
        MatrixFamily(n=2, mats=mats)


def test_family_requires_exact_symmetry():
    mats = np.zeros((1, 2, 2))
    mats[0, 0, 1] = 1.0
    with pytest.raises(FamilyValidationError):
        MatrixFamily(n=2, mats=mats)


def test_family_rejects_too_many_matrices():
    mats = np.zeros((3, 2, 2))
    mats[0] = np.diag([1.0, 0.0])
    with pytest.raises(FamilyValidationError):
        MatrixFamily(n=2, mats=mats)


def test_family_rejects_nonorthogonal():
    a1 = np.diag([1.0, 0.0])
    a2 = np.diag([0.8, 0.1])
    with pytest.raises(FamilyValidationError):
        MatrixFamily(n=2, mats=np.stack([a1, a2]))


def test_family_orthogonality_relative_to_norms():
    # scaling the tail by 1e150 turns rounding-level overlaps into ~1e284 in
    # absolute terms; the family stays valid, and a real overlap (a fixed
    # fraction of ||A_2|| ||A_3||) at the same scale is still rejected
    rng = np.random.default_rng(150)
    mats = random_orthogonal_family(rng, 4, m=3, norms=[1.0, 2.0, 1.0]).mats.copy()
    mats[1:] *= 1e150
    gram = np.einsum("aij,bij->ab", mats, mats)
    assert np.max(np.abs(gram - np.diag(np.diag(gram)))) > lu.ORTHOGONALITY_TOL
    fam = MatrixFamily(n=4, mats=mats)
    assert np.array_equal(fam.mats, mats)
    overlap = mats.copy()
    overlap[2] = overlap[2] + 1e-6 * overlap[1]
    with pytest.raises(FamilyValidationError, match="orthogonality"):
        MatrixFamily(n=4, mats=overlap)


def test_family_rejects_unsorted_tail():
    a1 = np.diag([1.0, 0.0, 0.0])
    a2 = np.zeros((3, 3))
    a2[0, 1] = a2[1, 0] = 0.5
    a3 = np.zeros((3, 3))
    a3[0, 2] = a3[2, 0] = 2.0
    with pytest.raises(FamilyValidationError):
        MatrixFamily(n=3, mats=np.stack([a1, a2, a3]))


def test_normalize_family_rescales_and_sorts():
    a1 = 2.0 * np.diag([1.0, 0.0, 0.0])
    small = np.zeros((3, 3))
    small[0, 1] = small[1, 0] = 0.3
    big = np.zeros((3, 3))
    big[0, 2] = big[2, 0] = 1.5
    fam = normalize_family([a1, small, big])
    norms = np.linalg.norm(fam.mats, axis=(1, 2))
    assert abs(norms[0] - 1.0) < 1e-15
    # whole-family rescale by 1/2, then tail sorted descending
    assert abs(norms[1] - 1.5 * np.sqrt(2) / 2.0) < 1e-15
    assert abs(norms[2] - 0.3 * np.sqrt(2) / 2.0) < 1e-15


def test_normalize_family_keeps_valid_input():
    fam0 = canonical_extremal(3, 2, mu=0.5)
    fam1 = normalize_family(list(fam0.mats))
    assert np.allclose(fam0.mats, fam1.mats, atol=1e-15)


def test_normalize_family_keeps_unit_families_as_written():
    # dividing by ||A_1|| = 0.9999999999999999 rounds the tail again, and at the
    # largest mu that lu extremal accepts for (12, 9) pushes the lhs past the largest double
    cases = [(n, k, mu) for n in range(2, 13) for k in range(1, n) for mu in (1e-3, 0.7, 1.0, 100.0, 1e6)]
    for n, k, mu in cases + [(12, 9, 2.998076996061238e+153)]:
        fam = canonical_extremal(n, k, mu)
        assert lu_check(normalize_family(list(fam.mats))) == lu_check(fam), (n, k, mu)


def test_normalize_family_rejects_overlap():
    a1 = np.diag([1.0, 0.0])
    a2 = np.diag([0.5, 0.5])  # <a1, a2> = 0.5
    with pytest.raises(FamilyValidationError):
        normalize_family([a1, a2])


def test_normalize_family_rejects_zero_lead():
    with pytest.raises(FamilyValidationError):
        normalize_family([np.zeros((2, 2))])
    with pytest.raises(FamilyValidationError):
        normalize_family([])


# ---- the inequality ----------------------------------------------------------


def test_lu_check_single_matrix():
    fam = MatrixFamily(n=3, mats=np.diag([1.0, 0.0, 0.0])[None])
    rep = lu_check(fam)
    assert rep.lhs == 0.0 and rep.rhs == 0.0 and rep.is_equality


def test_lu_check_two_by_two_equality():
    a1 = np.diag([1.0, -1.0]) / np.sqrt(2.0)
    a2 = np.array([[0.0, 1.0], [1.0, 0.0]])
    fam = MatrixFamily(n=2, mats=np.stack([a1, a2]))
    rep = lu_check(fam)
    assert abs(rep.lhs - 4.0) < 1e-14
    assert abs(rep.rhs - 4.0) < 1e-14
    assert rep.is_equality


def test_canonical_extremal_equality_grid():
    # every (n, k, mu) combination sits exactly on the bound
    for n in range(2, 7):
        for k in range(1, n):
            for mu in (0.0, 0.3, 1.0, 2.0):
                fam = canonical_extremal(n, k, mu)
                rep = lu_check(fam)
                assert abs(rep.slack) <= 1e-12, (n, k, mu, rep.slack)
                assert rep.is_equality


def test_canonical_extremal_structure():
    fam = canonical_extremal(4, 2, mu=0.7)
    lam = 1.0 / np.sqrt(6.0)
    assert np.allclose(fam.mats[0], np.diag([2 * lam, -lam, -lam, 0.0]), atol=1e-15)
    assert fam.mats[1][0, 1] == 0.7
    assert np.max(np.abs(fam.mats[3])) == 0.0
    with pytest.raises(ValueError):
        canonical_extremal(3, 0)
    with pytest.raises(ValueError):
        canonical_extremal(3, 3)


def _old_lhs(fam):
    """sum_{a>=2} ||[A_1, A_a]||^2 as symmat's inner product sums it, in index order."""
    lhs = 0.0
    for a in fam.mats[1:]:
        c = commutator(fam.mats[0], a)
        lhs += frobenius_inner(c, c)
    return lhs


def test_lu_check_sums_as_the_symmat_form():
    # lu_check's row sums against symmat's inner product, bit for bit
    canonical = [canonical_extremal(n, k, mu)
                 for n in range(2, 13) for k in range(1, n) for mu in (1e-3, 1.0, 1e6)]
    rng = np.random.default_rng(2626)
    drawn = [random_orthogonal_family(rng, int(rng.integers(2, 13))) for _ in range(200)]
    for fam in canonical + drawn:
        assert np.float64(lu_check(fam).lhs).tobytes() == np.float64(_old_lhs(fam)).tobytes()
    for fam in canonical:
        norms2 = np.einsum("aij,aij->a", fam.mats, fam.mats)
        assert lu_bound(fam) == float(norms2[1:2].sum() + norms2[1:].sum())


def test_slack_nonnegative_fuzz():
    # the inequality itself, 1e4 seeded random orthogonal families
    rng = np.random.default_rng(1234)
    worst = np.inf
    for _ in range(10_000):
        n = int(rng.integers(2, 7))
        fam = random_orthogonal_family(rng, n)
        rep = lu_check(fam)
        worst = min(worst, rep.slack)
        assert rep.slack >= -1e-10
    # the bound is attainable, so some families should get reasonably close
    assert worst < np.inf


def test_conjugation_invariance():
    rng = np.random.default_rng(77)
    for _ in range(50):
        n = int(rng.integers(2, 7))
        fam = random_orthogonal_family(rng, n)
        q = random_orthogonal(rng, n)
        conj = np.stack([q.T @ a @ q for a in fam.mats])
        conj = (conj + np.transpose(conj, (0, 2, 1))) / 2.0
        rep0 = lu_check(fam)
        rep1 = lu_check(normalize_family(list(conj)))
        assert abs(rep0.lhs - rep1.lhs) < 1e-10
        assert abs(rep0.rhs - rep1.rhs) < 1e-10
        assert abs(rep0.slack - rep1.slack) < 1e-10


def _pair(*terms):
    """The sum of v 2^p over the integer pairs (v, p), as one pair."""
    low = min(p for _, p in terms)
    return sum(v << (p - low) for v, p in terms), low


def _double(x):
    """The pair (v, p) with v 2^p == x, for a double x."""
    num, den = x.as_integer_ratio()
    return num, 1 - den.bit_length()


def _exact_slacks(stack):
    """Yield, for each family of a stack (F, m, n, n) of doubles, its exact
    slacks R - L and N_1 R - L as pairs (v, p).  Each matrix is an integer
    matrix Z times 2^e, e the exponent of its lowest set bit, so every
    product and sum runs on Python integers."""
    mant, ex = np.frexp(stack)
    nz = mant != 0.0
    low = np.where(nz, ex, 2**20).min(axis=(2, 3), keepdims=True)
    low[low == 2**20] = 0  # a zero matrix
    z = np.ldexp(mant, 53).astype(np.int64).astype(object) << np.where(nz, ex - low, 0).astype(object)
    norms2 = (z * z).sum(axis=(2, 3)).tolist()
    c = z[:, :1] @ z[:, 1:] - z[:, 1:] @ z[:, :1]
    comm2 = (c * c).sum(axis=(2, 3)).tolist()
    for n2, c2, e in zip(norms2, comm2, (low[:, :, 0, 0] - 53).tolist()):
        tail = [(v, 2 * p) for v, p in zip(n2[1:], e[1:])]
        rhs = _pair((0, 0), *tail[:1], *tail)
        lhs = [(-v, 2 * (e[0] + p)) for v, p in zip(c2, e[1:])]
        yield _pair(rhs, *lhs), _pair((n2[0] * rhs[0], 2 * e[0] + rhs[1]), *lhs)


def _bound_test_families(rng):
    """(equality type?, family) pairs, 10^4 of them."""
    for n in range(2, 7):
        for k in range(1, n):
            for e in range(-3, 151, 3):
                yield True, canonical_extremal(n, k, 10.0**e)
    for n in range(2, 6):
        # extremals in a random orthonormal basis, through the lenient load
        qs = np.linalg.qr(rng.standard_normal((1155, n, n)))[0]
        for q, k, mu in zip(qs, rng.integers(1, n, 1155), 10.0 ** rng.uniform(-3, 150, 1155)):
            yield True, normalize_family(list(q.T @ canonical_extremal(n, int(k), mu).mats @ q))
    for i in range(4600):
        # random HS-orthogonal families; the first 200 have tails near 1e-160,
        # whose squares fall below the normal range
        n = int(rng.integers(2, 6))
        m = int(rng.integers(1, n + 1))
        w = rng.standard_normal((m, n, n))
        q = np.linalg.qr((w + w.transpose(0, 2, 1)).reshape(m, -1).T)[0].T.reshape(m, n, n)
        lo, hi = (-170, -150) if i < 200 else (-3, 3)
        norms = 10.0 ** np.concatenate([rng.uniform(-2, 2, 1), rng.uniform(lo, hi, m - 1)])
        yield False, normalize_family(list(q * norms[:, None, None]))


def test_rounding_bound_contains_the_exact_slack():
    # exact integer arithmetic on the stored doubles: both R - L and the
    # homogeneous N_1 R - L lie within slack +- rounding_bound, and every
    # equality-type family reads as an equality
    groups = {}
    for equality_type, fam in _bound_test_families(np.random.default_rng(2024)):
        groups.setdefault(fam.mats.shape, []).append((equality_type, fam.mats, lu_check(fam)))
    verdicts = {}
    for rows in groups.values():
        for (equality_type, _, rep), exact in zip(rows, _exact_slacks(np.stack([r[1] for r in rows]))):
            for v, p in exact:
                d, q = _pair(_double(rep.slack), (-v, p))
                assert _pair(_double(rep.rounding_bound), (-abs(d), q))[0] >= 0, rep
            assert rep.verdict == ("equality" if abs(rep.slack) <= rep.rounding_bound
                                   else "strict" if rep.slack > 0 else "violated")
            assert rep.is_equality or not equality_type, rep
            verdicts[equality_type, rep.verdict] = verdicts.get((equality_type, rep.verdict), 0) + 1
    assert sum(verdicts.values()) == 10_000
    assert verdicts[True, "equality"] == 5400 and verdicts[False, "strict"] > 2500


def test_rounding_bound_below_the_old_constant_at_unit_scale():
    # the fixed 1e-12 it replaces was looser on every extremal up to n = 12
    for n in range(2, 13):
        for k in range(1, n):
            rep = lu_check(canonical_extremal(n, k))
            assert rep.is_equality and 0.0 < rep.rounding_bound < 1e-12, (n, k, rep)
    assert lu_check(canonical_extremal(3, 1)).rounding_bound < 2e-14


# ---- optimizer ----------------------------------------------------------------


def test_objective_matches_check():
    rng = np.random.default_rng(3)
    for _ in range(20):
        fam = random_orthogonal_family(rng, 4)
        assert abs(objective_value(fam.mats) - lu_check(fam).lhs) < 1e-12


def test_gradient_against_finite_differences():
    # central differences, step 1e-6, 1e-4 relative agreement
    rng = np.random.default_rng(11)
    for _ in range(10):
        n = int(rng.integers(2, 6))
        fam = random_orthogonal_family(rng, n)
        mats = fam.mats
        grad = objective_gradients(mats)
        h = 1e-6
        for _ in range(6):
            a = int(rng.integers(0, mats.shape[0]))
            v = random_symmetric(rng, n)
            pert = np.zeros_like(mats)
            pert[a] = v
            fd = (objective_value(mats + h * pert) - objective_value(mats - h * pert)) / (2 * h)
            an = float(np.sum(grad[a] * v))
            assert abs(fd - an) <= 1e-4 * max(1.0, abs(fd))


def test_search_two_by_two_reaches_bound():
    best, fam, _ = extremal_search(2, (1.0,), restarts=50, seed=0)
    assert abs(best - 2.0) < 1e-9
    assert abs(lu_check(fam).slack) <= 1e-9


def test_search_zero_profile():
    best, fam, _ = extremal_search(3, (0.0, 0.0), restarts=3, seed=1)
    assert best == 0.0
    assert lu_bound(fam) == 0.0


def test_search_deterministic():
    b1, f1, s1 = extremal_search(3, (1.0, 0.5), restarts=5, seed=42)
    b2, f2, s2 = extremal_search(3, (1.0, 0.5), restarts=5, seed=42)
    assert b1 == b2 and s1 == s2
    assert np.array_equal(f1.mats, f2.mats)


def test_search_soundness_random_profiles():
    # best value never beats the bound by more than 1e-6
    rng = np.random.default_rng(8)
    for _ in range(6):
        n = int(rng.integers(2, 5))
        m = int(rng.integers(1, n))
        profile = np.sort(rng.uniform(0.1, 1.5, size=m))[::-1]
        best, fam, _ = extremal_search(n, profile, restarts=3, seed=9)
        assert best <= lu_bound(fam) + 1e-6


def test_search_validates_arguments():
    with pytest.raises(ValueError):
        extremal_search(1, (1.0,))
    with pytest.raises(ValueError):
        extremal_search(3, (0.5, 1.0))  # ascending
    with pytest.raises(ValueError):
        extremal_search(3, (-1.0,))
    with pytest.raises(ValueError):
        extremal_search(4, (1.0, 1.0, 1.0, 1.0))  # more than n-1
    with pytest.raises(ValueError):
        extremal_search(3, (1.0,), restarts=0)
    with pytest.raises(ValueError, match="seed=-8"):
        extremal_search(3, (1.0,), restarts=1, seed=-8)
    # a non-finite entry, or a bound ||A_2||^2 + sum ||A_a||^2 that overflows
    for profile in [(math.nan,), (math.inf,), (1.0, math.nan), (1e308, 1e308), (1e200,)]:
        with pytest.raises(ValueError, match="norm profile"):
            extremal_search(3, profile, restarts=1)


def test_search_logs_equality_families(caplog):
    with caplog.at_level(logging.INFO, logger="minleg.lu_inequality"):
        extremal_search(2, (1.0,), restarts=5, seed=0)
    assert "bound" in caplog.text


def _search_logs(caplog):
    info = [r.getMessage() for r in caplog.records
            if r.levelno == logging.INFO and "exits" in r.getMessage()]
    warnings = [r.getMessage() for r in caplog.records if r.levelno >= logging.WARNING]
    return info, warnings


def test_search_logs_exit_reasons(caplog):
    with caplog.at_level(logging.INFO, logger="minleg.lu_inequality"):
        extremal_search(2, (1.0,), restarts=5, seed=0)
    info, warnings = _search_logs(caplog)
    assert len(info) == 1
    assert "5 restarts" in info[0]
    assert "ceiling=5 grad_tol=0 step_underflow=0 stalled=0 max_iters=0" in info[0]
    assert info[0].endswith("final values below the bound: none")
    assert warnings == []


def test_search_warns_when_restarts_run_out_of_iterations(monkeypatch, caplog):
    monkeypatch.setattr(lu, "MAX_ITERS", 3)
    with caplog.at_level(logging.INFO, logger="minleg.lu_inequality"):
        extremal_search(4, (1.0, 1.0, 1.0), restarts=4, seed=7)
    info, warnings = _search_logs(caplog)
    assert len(info) == 1 and "max_iters=4" in info[0]
    # every restart took exactly MAX_ITERS gradient steps
    assert "12 gradient steps" in info[0]
    assert len(warnings) == 1
    assert "4 of 4 restarts stopped at MAX_ITERS=3" in warnings[0]


def test_search_names_grad_tol_and_step_underflow_exits(monkeypatch):
    exits = []
    group = lu._search_group

    def recording(*args):
        results = group(*args)
        exits.extend(result[2:] for result in results)  # (exit reason, gradient steps)
        return results

    monkeypatch.setattr(lu, "_search_group", recording)
    monkeypatch.setattr(lu, "GRAD_TOL", math.inf)  # any gradient is small enough
    extremal_search(3, (1.0, 0.5), restarts=3, seed=1)
    assert exits == [("grad_tol", 1)] * 3
    exits.clear()
    monkeypatch.setattr(lu, "GRAD_TOL", 1e-8)
    monkeypatch.setattr(lu, "ARMIJO", math.inf)  # no step is ever accepted
    extremal_search(3, (1.0, 0.5), restarts=3, seed=1)
    assert exits == [("step_underflow", 1)] * 3


def test_search_stalled_restarts_exit_at_second_critical_level(monkeypatch, caplog):
    # criterion 05's inputs: the restarts short of the bound sit at value
    # 2 + sqrt(2), and the stall rule ends them long before MAX_ITERS
    ends = []
    group = lu._search_group

    def recording(*args):
        results = group(*args)
        ends.extend((result[2], result[0], result[3]) for result in results)  # (exit reason, value, gradient steps)
        return results

    monkeypatch.setattr(lu, "_search_group", recording)
    with caplog.at_level(logging.INFO, logger="minleg.lu_inequality"):
        _, _, stats = extremal_search(4, (1.0, 1.0, 1.0), restarts=100, seed=2024)
    reasons = [reason for reason, _, _ in ends]
    assert "max_iters" not in reasons
    stalled = [value for reason, value, _ in ends if reason == "stalled"]
    assert stalled
    assert all(abs(value - (2.0 + math.sqrt(2.0))) <= 1e-9 for value in stalled)
    assert stats.exits == {k: reasons.count(k) for k in lu.EXIT_REASONS}
    assert list(stats.exits) == list(lu.EXIT_REASONS)
    assert stats.steps == sum(taken for _, _, taken in ends)
    info, _ = _search_logs(caplog)
    assert info[0].endswith("final values below the bound: 3.41421356")


# ---- the retraction against its original slot-by-slot form ---------------------


def _reference_retract(mats, norms):
    """Gram-Schmidt in the HS inner product (index order), then fix norms.

    Returns None when a direction with positive target norm degenerates.
    """
    out = np.empty_like(mats)
    for i in range(mats.shape[0]):
        w = mats[i].copy()
        for j in range(i):
            nj2 = float(np.sum(out[j] * out[j]))
            if nj2 > 0.0:
                w -= (float(np.sum(w * out[j])) / nj2) * out[j]
        if norms[i] == 0.0:
            out[i] = 0.0
            continue
        nrm = math.sqrt(float(np.sum(w * w)))
        if nrm <= 1e-12:
            return None
        out[i] = w * (norms[i] / nrm)
    return out


def test_retract_bit_identical_to_reference():
    rng = np.random.default_rng(404)
    outcomes = {"family": 0, "none": 0}
    for trial in range(3000):
        m = int(rng.integers(1, 6))
        n = int(rng.integers(2, 7))
        raw = rng.standard_normal((m, n, n))
        raw = (raw + np.transpose(raw, (0, 2, 1))) / 2.0
        norms = np.concatenate([[1.0], np.sort(rng.uniform(0.0, 2.0, m - 1))[::-1]])
        kind = trial % 5
        if kind == 1 and m > 1:  # a zero tail of target norms
            norms[int(rng.integers(1, m)):] = 0.0
        elif kind == 2 and m > 1:  # a slot inside the span of the earlier ones
            j = int(rng.integers(1, m))
            raw[j] = rng.uniform(-2.0, 2.0) * raw[:j].sum(axis=0)
        elif kind == 3:  # a zero slot
            raw[int(rng.integers(0, m))] = 0.0
        elif kind == 4:  # a tiny scale, near the degeneracy threshold
            raw *= 10.0 ** rng.uniform(-14.0, -10.0)
        ref = _reference_retract(raw, norms)
        # alone, and in a stack beside a zero family, whose vanished slots
        # subtract nothing
        for stack in (raw[None], np.stack([raw, np.zeros_like(raw)])):
            new, ok = lu._retract(stack, norms)
            assert new.shape == stack.shape and ok.shape == (len(stack),), trial
            if ref is None:
                assert not ok[0], trial
            else:
                assert ok[0] and new[0].shape == ref.shape, trial
                assert new[0].tobytes() == ref.tobytes(), trial
        outcomes["none" if ref is None else "family"] += 1
    assert min(outcomes.values()) > 300, outcomes


def _reference_retract_stack(mats, norms):
    """_reference_retract on each family of a stack, with _retract's mask of the nondegenerate ones."""
    out, ok = np.zeros_like(mats), np.ones(len(mats), dtype=bool)
    for r, fam in enumerate(mats):
        ref = _reference_retract(fam, norms)
        if ref is None:
            ok[r] = False
        else:
            out[r] = ref
    return out, ok


@pytest.mark.parametrize("seed", [3, 7])
def test_search_trajectory_identical_with_reference_retract(monkeypatch, seed):
    best, fam, _ = extremal_search(4, (1.0, 1.0, 1.0), restarts=8, seed=seed)
    monkeypatch.setattr(lu, "_retract", _reference_retract_stack)
    ref_best, ref_fam, _ = extremal_search(4, (1.0, 1.0, 1.0), restarts=8, seed=seed)
    assert np.float64(best).tobytes() == np.float64(ref_best).tobytes()
    assert fam.mats.tobytes() == ref_fam.mats.tobytes()


# ---- the gradient projection against its original slot-by-slot form ------------


def _reference_project(grad, mats):
    """Remove components along span{A_1, ..., A_m} from each slot, in place, one slot at a time."""
    norms2 = np.einsum("aij,aij->a", mats, mats)
    for b in range(mats.shape[0]):
        if norms2[b] > 0.0:
            coef = np.einsum("aij,ij->a", grad, mats[b]) / norms2[b]
            grad -= coef[:, None, None] * mats[b]
    return grad


def test_project_gradient_matches_reference():
    rng = np.random.default_rng(505)
    cases = {"m=1": 0, "zero tail": 0, "full": 0}
    for trial in range(1500):
        m = 1 if trial % 5 == 0 else int(rng.integers(2, 6))
        n = int(rng.integers(max(2, m), 7))
        norms = np.concatenate([[1.0], np.sort(rng.uniform(0.0, 2.0, m - 1))[::-1]])
        if trial % 5 in (1, 2) and m > 1:
            norms[int(rng.integers(1, m)):] = 0.0
        raw = rng.standard_normal((m, n, n))
        mats = lu._retract(((raw + np.transpose(raw, (0, 2, 1))) / 2.0)[None], norms)[0][0]
        if trial % 2:
            grad = lu.objective_gradients(mats)
        else:
            grad = rng.standard_normal((m, n, n))
            grad = (grad + np.transpose(grad, (0, 2, 1))) * 10.0 ** rng.uniform(-3.0, 3.0)
        scale = max(1.0, float(np.max(np.abs(grad))))
        ref = _reference_project(grad.copy(), mats)
        new = grad.copy()
        stack = new[None]
        assert lu._project_gradient(stack, mats[None]) is stack  # in place, so new holds the result
        assert np.max(np.abs(new - ref)) <= 1e-13 * scale, trial
        # the result is HS-orthogonal to every slot of the family
        dots = np.einsum("aij,bij->ab", new, mats)
        assert np.max(np.abs(dots)) <= 1e-12 * scale, trial
        cases["m=1" if m == 1 else "zero tail" if norms[-1] == 0.0 else "full"] += 1
    assert min(cases.values()) > 250, cases


# ---- the lockstep search against a serial restart -----------------------------


def _serial_value(mats):
    a1 = mats[0]
    c = a1 @ mats[1:] - mats[1:] @ a1
    return float(np.add.reduce((c * c).ravel()))


def _serial_project(grad, mats):
    m = mats.shape[0]
    g = grad.reshape(m, -1)
    w = mats.reshape(m, -1)
    norms2 = np.add.reduce(w * w, axis=-1)
    inv = np.divide(1.0, norms2, out=np.zeros(m), where=norms2 > 0.0)
    g -= ((g @ w.T) * inv) @ w
    return grad


def _serial_restart(n, norms, ceiling, rng):
    """One restart on its own, one family at a time: (value, family, exit
    reason, gradient steps)."""
    m = norms.size
    size = m * n * n
    mats = None
    for _ in range(64):
        raw = np.fromiter((2.0 * rng.random() - 1.0 for _ in range(size)), float, size)
        mats = _reference_retract(symmetrize(raw.reshape(m, n, n)), norms)
        if mats is not None:
            break
    assert mats is not None
    value = _serial_value(mats)
    reached = 1e-12 * max(1.0, ceiling)
    stall_rise = lu.STALL_TOL * max(1.0, ceiling)
    anchor = value
    step = lu.STEP0
    for it in range(lu.MAX_ITERS):
        if ceiling - value <= reached:
            return value, mats, "ceiling", it
        if it and it % lu.STALL_STEPS == 0:
            if value - anchor <= stall_rise:
                return value, mats, "stalled", it
            anchor = value
        proj = _serial_project(lu.objective_gradients(mats), mats)
        gnorm2 = float(np.add.reduce((proj * proj).ravel()))
        if math.sqrt(gnorm2) < lu.GRAD_TOL:
            return value, mats, "grad_tol", it + 1
        step = min(2.0 * step, lu.STEP0)
        while True:
            cand = _reference_retract(mats + step * proj, norms)
            if cand is not None:
                cand_value = _serial_value(cand)
                if cand_value >= value + lu.ARMIJO * step * gnorm2:
                    mats, value = cand, cand_value
                    break
            step *= 0.5
            if step < 1e-14:
                return value, mats, "step_underflow", it + 1
    return value, mats, "max_iters", lu.MAX_ITERS


def _outcome(value, mats, reason, steps):
    return np.float64(value).tobytes(), mats.tobytes(), reason, steps


def _lockstep_outcomes(monkeypatch, n, profile, restarts, seed, families=None):
    """extremal_search's per-restart outcomes, the sizes of its lockstep groups,
    and the norms and ceiling it searched at; families, when given, caps a group."""
    outcomes, sizes, inputs = [], [], []
    group = lu._search_group

    def recording(n, norms, ceiling, rngs, tally):
        results = group(n, norms, ceiling, rngs, tally)
        outcomes.extend(_outcome(*result) for result in results)
        sizes.append(len(rngs))
        inputs.append((norms, ceiling))
        return results

    with monkeypatch.context() as patch:
        patch.setattr(lu, "_search_group", recording)
        if families is not None:
            patch.setattr(lu, "LOCKSTEP_ENTRIES", families * (len(profile) + 1) * n * n)
        extremal_search(n, profile, restarts=restarts, seed=seed)
    return outcomes, sizes, inputs[0]


def _serial_outcomes(n, norms, ceiling, restarts, seed):
    return [_outcome(*_serial_restart(n, norms, ceiling, seeded_random(seed, r))) for r in range(restarts)]


@pytest.mark.parametrize("seed", [1, 2, 3, 5, 7, 11, 13, 953, 967])
def test_lockstep_restarts_bit_identical_to_serial(monkeypatch, seed):
    # the benchmark's search: all 48 restarts in one group
    outcomes, sizes, (norms, ceiling) = _lockstep_outcomes(monkeypatch, 4, (1.0, 1.0, 1.0), 48, seed)
    assert sizes == [48]
    assert outcomes == _serial_outcomes(4, norms, ceiling, 48, seed)


def test_lockstep_bit_identical_to_serial_on_small_profiles(monkeypatch):
    # zero, tiny and repeated norms, at every n whose family they fit; each
    # case once as one group and once capped at one and at two families
    cases = [(n, profile) for n in range(2, 7)
             for profile in [(1.0,), (1.0, 0.5), (1.0, 0.0), (1.0, 0.0, 0.0), (0.0, 0.0),
                             (1.0, 0.3, 0.3, 0.1), (1e-170, 1e-170)]
             if len(profile) <= n - 1]
    assert len(cases) == 26
    for n, profile in cases:
        outcomes, sizes, (norms, ceiling) = _lockstep_outcomes(monkeypatch, n, profile, 3, 17)
        assert sizes == [3], (n, profile)
        assert outcomes == _serial_outcomes(n, norms, ceiling, 3, 17), (n, profile)
        for families, expected in ((1, [1, 1, 1]), (2, [2, 1])):
            capped, sizes, _ = _lockstep_outcomes(monkeypatch, n, profile, 3, 17, families)
            assert sizes == expected and capped == outcomes, (n, profile, families)


def test_lockstep_redraws_a_degenerate_start_from_its_own_generator(monkeypatch):
    # the first start of restart 1 is replaced by zeros, which degenerate; it
    # redraws from its own generator, and restarts 0 and 2 are untouched
    draw, calls = lu._draw_start, []

    def zero_second_call(rng, m, n):
        start = draw(rng, m, n)
        calls.append(start.size)
        return np.zeros_like(start) if len(calls) == 2 else start

    monkeypatch.setattr(lu, "_draw_start", zero_second_call)
    outcomes, sizes, (norms, ceiling) = _lockstep_outcomes(monkeypatch, 3, (1.0,), 3, 17)
    assert sizes == [3] and calls == [18] * 4
    serial = _serial_outcomes(3, norms, ceiling, 3, 17)
    assert outcomes[0] == serial[0] and outcomes[2] == serial[2]
    rng = seeded_random(17, 1)
    [rng.random() for _ in range(18)]  # the discarded first draw
    assert outcomes[1] == _outcome(*_serial_restart(3, norms, ceiling, rng)) != serial[1]


def test_lockstep_bytes_do_not_depend_on_the_group(monkeypatch):
    # the benchmark's profile at a seed whose restarts end at the ceiling, in
    # the line search and at a stall
    outcomes, sizes, _ = _lockstep_outcomes(monkeypatch, 4, (1.0, 1.0, 1.0), 12, 5)
    assert sizes == [12]
    assert {reason for _, _, reason, _ in outcomes} == {"ceiling", "step_underflow", "stalled"}
    for families, expected in ((1, [1] * 12), (2, [2] * 6), (5, [5, 5, 2])):
        capped, sizes, _ = _lockstep_outcomes(monkeypatch, 4, (1.0, 1.0, 1.0), 12, 5, families)
        assert sizes == expected and capped == outcomes, families
    # stacked rows longer than numpy's 8,192-entry buffer: the commutators
    # at n = 64 (3 n^2 entries), the gradients at n = 96 (2 n^2)
    for n, profile, group in ((64, (1.0, 1.0, 1.0), 4), (96, (1.0,), 3)):
        outcomes, sizes, _ = _lockstep_outcomes(monkeypatch, n, profile, group, 7)
        assert sizes == [group], n
        capped, sizes, _ = _lockstep_outcomes(monkeypatch, n, profile, group, 7, 1)
        assert sizes == [1] * group and capped == outcomes, n


@pytest.mark.parametrize("k", [1, 2, 7, 8, 9, 48, 64, 8192, 8193, 24576])
def test_squares_gives_each_row_its_bits_alone(k):
    # short rows, the edges of numpy's 8-wide unrolled sums, the commutator
    # and gradient rows of the benchmark's search (48 and 64 entries), and
    # rows longer than numpy's 8,192-entry buffer: each row of a stack sums
    # to the bits of the one-row call that a single family takes
    rng = np.random.default_rng(k)

    def alone(rows):
        return np.stack([lu._squares(row) for row in rows]).tobytes()

    x = rng.standard_normal((40, k))
    assert lu._squares(x).tobytes() == alone(x) == alone(x[:, None])
    w = rng.standard_normal((8, 3, k))
    assert lu._squares(w).tobytes() == alone(w.reshape(-1, k))
    for i in range(3):  # the strided slot view that _retract reduces
        assert lu._squares(w[:, i]).tobytes() == alone(w[:, i])


# ---- the look-ahead line search ----------------------------------------------


def _retract_sizes(monkeypatch):
    """Record the number of families of every _retract stack."""
    sizes, retract = [], lu._retract

    def recording(mats, norms):
        sizes.append(len(mats))
        return retract(mats, norms)

    monkeypatch.setattr(lu, "_retract", recording)
    return sizes


def test_look_ahead_retracts_the_serial_candidates_when_every_step_fails(monkeypatch, caplog):
    # no step passes Armijo's test, so every line search runs from STEP0 down
    # to its last step of at least 1e-14, and the restart exits there
    monkeypatch.setattr(lu, "ARMIJO", math.inf)
    outcomes, sizes, (norms, ceiling) = _lockstep_outcomes(monkeypatch, 3, (1.0, 0.5), 3, 1)
    assert outcomes == _serial_outcomes(3, norms, ceiling, 3, 1)
    assert {reason for _, _, reason, _ in outcomes} == {"step_underflow"}
    serial = sum(lu.STEP0 * 0.5**k >= 1e-14 for k in range(64))
    assert serial == 44
    sizes = _retract_sizes(monkeypatch)
    with caplog.at_level(logging.INFO, logger="minleg.lu_inequality"):
        _, _, stats = extremal_search(3, (1.0, 0.5), restarts=1, seed=1)
    rounds = sizes[1:]  # after the start's retraction
    assert len(rounds) == stats.rounds <= 7
    assert sum(rounds) == stats.candidates == serial
    info, _ = _search_logs(caplog)
    assert f"{stats.rounds} line-search rounds of 44 candidate families" in info[0]


def test_look_ahead_stays_inside_the_group_budget(monkeypatch):
    # capped at one or two families a group, no round stacks more candidates
    # than that, and a cap of one is the one-step-at-a-time loop
    outcomes, _, _ = _lockstep_outcomes(monkeypatch, 4, (1.0, 1.0, 1.0), 6, 5)
    for families in (1, 2):
        with monkeypatch.context() as patch:
            sizes = _retract_sizes(patch)
            capped, groups, _ = _lockstep_outcomes(patch, 4, (1.0, 1.0, 1.0), 6, 5, families)
        assert groups == [families] * (6 // families) and capped == outcomes
        assert max(sizes) == families, families


def test_look_ahead_cuts_the_benchmark_rounds(monkeypatch):
    # the benchmark's search; one candidate per round made 1,350 _retract calls
    sizes = _retract_sizes(monkeypatch)
    _, _, stats = extremal_search(4, (1.0, 1.0, 1.0), restarts=48, seed=7)
    assert len(sizes) < 800
    assert stats.rounds == len(sizes) - 1 and stats.candidates == sum(sizes) - 48


# ---- serialization -------------------------------------------------------------


def test_family_text_round_trip_bit_exact():
    rng = np.random.default_rng(21)
    for _ in range(25):
        n = int(rng.integers(2, 7))
        fam = random_orthogonal_family(rng, n)
        clone = family_from_text(family_to_text(fam))
        assert np.array_equal(fam.mats, clone.mats)
        assert clone.n == fam.n


def test_family_file_round_trip(tmp_path):
    fam = canonical_extremal(4, 2, mu=0.7)
    path = tmp_path / "fam.json"
    path.write_text(family_to_text(fam), encoding="ascii")
    clone = load_family(path)
    assert np.array_equal(fam.mats, clone.mats)


def test_family_from_text_lenient_mode():
    fam = canonical_extremal(3, 1, mu=0.4)
    doc = json.loads(family_to_text(fam))
    # scale everything by 3: strict parse must fail, lenient renormalizes
    doc["mats"] = [[3.0 * x for x in row] for row in doc["mats"]]
    text = json.dumps(doc)
    with pytest.raises(FamilyValidationError):
        family_from_text(text)
    fixed = family_from_text(text, strict=False)
    assert abs(np.linalg.norm(fixed.mats[0]) - 1.0) < 1e-12


def test_family_from_text_malformed():
    with pytest.raises((ValueError, KeyError, json.JSONDecodeError)):
        family_from_text("{not json")
    with pytest.raises((ValueError, KeyError)):
        family_from_text('{"n": 2}')
