"""Commutator-norm bound for orthogonal families of symmetric matrices.

For symmetric n x n matrices A_1, ..., A_m that are pairwise orthogonal in
the Hilbert-Schmidt inner product, with ||A_1|| = 1 and
||A_2|| >= ... >= ||A_m||, Lu's inequality bounds the total commutator
energy against A_1:

    sum_{a>=2} ||[A_1, A_a]||^2  <=  ||A_2||^2 + sum_{a>=2} ||A_a||^2.

This module provides the checker, the canonical equality configurations
(parametrized by a block size k and an off-diagonal amplitude mu), and a
projected-gradient search for extremal families at a prescribed norm
profile.  Families serialize to a plain JSON text document for exchange
with the command line tools.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass
from random import Random
from typing import Sequence

import numpy as np

from . import MinlegError, NumericalFailure, json_text, seeded_random
from .symmat import symmetrize

log = logging.getLogger(__name__)

ORTHOGONALITY_TOL = 1e-10
NORM_ORDER_SLACK = 1e-10
MAX_DIM = 256  # largest n of a built family: lu extremal --n 256 --k 255 peaks at 429 MB ru_maxrss


def _squares(x: np.ndarray) -> np.ndarray:
    """sum_k x[..., k]^2 along the last axis.  np.add.reduce sums each row
    on its own, so every row of a stack gets the bits of that row alone."""
    return np.add.reduce(x * x, axis=-1)


class FamilyValidationError(MinlegError, ValueError):
    """The matrices fail the hypotheses of the inequality."""

    exit_code = 1


@dataclass(frozen=True)
class MatrixFamily:
    """A validated family: unit A_1, descending norms, pairwise HS-orthogonal,
    finite squared norms and bound."""

    n: int
    mats: np.ndarray  # shape (m, n, n)

    def __post_init__(self):
        mats = np.asarray(self.mats, dtype=float)
        if mats.ndim != 3 or mats.shape[1] != self.n or mats.shape[2] != self.n:
            raise FamilyValidationError(f"expected shape (m, {self.n}, {self.n}), got {mats.shape}")
        m = mats.shape[0]
        if not 1 <= m <= self.n:
            raise FamilyValidationError(f"family size m={m} outside 1..n={self.n}")
        if not np.all(np.isfinite(mats)):
            raise FamilyValidationError("matrix entries must be finite")
        if np.max(np.abs(mats - np.transpose(mats, (0, 2, 1)))) > 0.0:
            raise FamilyValidationError("matrices must be exactly symmetric (use symmetrize)")
        flat = mats.reshape(m, -1)
        with np.errstate(over="ignore"):
            norms2 = _squares(flat)
            bound = _bound(norms2)
        if not (np.all(np.isfinite(norms2)) and math.isfinite(bound)):
            raise FamilyValidationError("squared norms overflow: ||A_a||^2 and the bound must be finite")
        norms = np.sqrt(norms2)
        if abs(norms[0] - 1.0) > ORTHOGONALITY_TOL:
            raise FamilyValidationError(f"||A_1|| = {norms[0]!r}, expected 1 (normalize first)")
        if np.any(norms[1:-1] < norms[2:] - NORM_ORDER_SLACK):
            raise FamilyValidationError("norms of A_2.. must be descending")
        # |<A_a, A_b>| is measured relative to ||A_a|| ||A_b|| once that exceeds 1,
        # so the test does not tighten as the norm profile grows
        gram = flat @ flat.T
        off = np.abs(gram - np.diag(np.diag(gram)))
        if np.any(off > ORTHOGONALITY_TOL * np.maximum(1.0, np.outer(norms, norms))):
            raise FamilyValidationError(f"pairwise orthogonality violated: max |<A_a, A_b>| = {off.max():.3e}")
        object.__setattr__(self, "mats", mats)

    @property
    def m(self) -> int:
        return self.mats.shape[0]


@dataclass(frozen=True)
class LuReport:
    """Both sides of the inequality as computed, slack = rhs - lhs, and the
    rounding bound and verdict of lu_check."""

    lhs: float
    rhs: float
    slack: float  # rhs - lhs
    rounding_bound: float  # the exact slack lies within slack +- rounding_bound
    verdict: str  # "violated", "equality" or "strict"

    @property
    def is_equality(self) -> bool:
        return self.verdict == "equality"


def normalize_family(raw: Sequence[np.ndarray]) -> MatrixFamily:
    """Scale the whole family by 1/||A_1||, sort A_2.. by descending norm.

    Both sides of the inequality scale by ||A_1||^-2, so the rescaled family
    is equivalent to the input; an A_1 of unit norm to 4 ulps is not rescaled.
    MatrixFamily then validates it: orthogonality violations raise, never
    silently repaired.
    """
    mats = [symmetrize(a) for a in raw]
    if not mats:
        raise FamilyValidationError("empty family")
    n = mats[0].shape[0]
    if any(a.shape != (n, n) for a in mats):
        raise FamilyValidationError("all matrices must share one dimension")
    # A_1 within a few ulps of unit norm is kept, as dividing by such a norm
    # only rounds the tail again.  Dividing by 2^e first, e the binary
    # exponent of max |A_1|, is exact and keeps ||A_1||^2 finite.
    with np.errstate(over="ignore"):
        flat = np.stack(mats).reshape(len(mats), n * n)
        if abs(np.sqrt(_squares(flat[0])) - 1.0) > 4.0 * np.finfo(float).eps:
            _, e = np.frexp(np.max(np.abs(flat[0])))
            flat = np.ldexp(flat, -e)
            lead_norm = np.sqrt(_squares(flat[0]))
            if lead_norm == 0.0:
                raise FamilyValidationError("A_1 must be nonzero")
            flat /= lead_norm
        order = np.argsort(-np.sqrt(_squares(flat[1:])), kind="stable")
    flat[1:] = flat[1:][order]
    return MatrixFamily(n=n, mats=flat.reshape(-1, n, n))


def _bound(norms2: np.ndarray) -> float:
    """||A_2||^2 + sum_{a>=2} ||A_a||^2 from the squared norms (zero for m = 1)."""
    return float(norms2[1:2].sum() + norms2[1:].sum())


def _lhs(a1: np.ndarray, tail: Sequence[np.ndarray]) -> float:
    """sum_{a>=2} ||[A_1, A_a]||^2, summed in index order; inf when it overflows."""
    lhs = 0.0
    with np.errstate(over="ignore"):
        for a in tail:
            lhs += float(_squares((a1 @ a - a @ a1).ravel()))
    return lhs


def lu_bound(fam: MatrixFamily) -> float:
    """Right-hand side ||A_2||^2 + sum_{a>=2} ||A_a||^2 (zero for m = 1)."""
    return _bound(_squares(fam.mats.reshape(fam.m, -1)))


def lu_check(fam: MatrixFamily) -> LuReport:
    """Evaluate both sides of the inequality, slack = rhs - lhs, and the
    verdict that the rounding bound allows.

    The rounding bound B is a-priori: both the exact slack R - L of the
    stored doubles and the exact slack N_1 R - L of the homogeneous form
    (N_1 = ||A_1||^2, which is 1 only to rounding) lie within slack +- B.
    The verdict is "violated" when slack < -B, "equality" when |slack| <= B,
    and "strict" otherwise, so "violated" and "strict" are certified.

    With u = 2^-53 and k = n^2 + m, B is the sum of these terms (Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed., sections 3.1
    and 3.5):
    - k u lhs and k u rhs: each term of either sum is a square that goes
      through at most k - 1 roundings, so the sum errs by at most
      gamma_{k-1} < k u times its exact value, in any summation order;
    - 4 (n + 1) u sqrt(N_1 rhs lhs), the commutators: ||fl(C_a) - C_a|| is at
      most e_a = 2 gamma_{n+1} ||A_1|| ||A_a||, so the lhs moves by at most
      sum_a e_a (2 ||fl(C_a)|| + e_a), which Cauchy-Schwarz bounds by this
      term plus a second-order one;
    - (|N_1 - 1| + 2 u) rhs, the homogeneity: the inequality for any A_1 is
      lhs <= N_1 rhs, and N_1, an fsum of rounded squares, errs by at most 2 u;
    - u |slack|, the final subtraction.
    The factor 1 + 4 (k + 8) u covers the second-order terms, the change from
    exact values to computed ones and the evaluation of B in floats (k u is
    below 2^-36 up to n = MAX_DIM, and MatrixFamily keeps N_1 within 3e-10
    of 1).  The term m k 2^-1069 covers underflow: a product below the normal
    range errs by up to 2^-1075.

    Raises NumericalFailure when the lhs exceeds the largest double.  The rhs
    cannot (MatrixFamily checks it), and the lhs is a sum of non-negative
    terms, so it overflows only when its rounded total does.
    """
    lhs = _lhs(fam.mats[0], fam.mats[1:])
    if not math.isfinite(lhs):
        raise NumericalFailure("lhs sum ||[A_1, A_a]||^2 exceeds the largest double")
    rhs = lu_bound(fam)
    slack = rhs - lhs
    k, u, a1 = fam.n * fam.n + fam.m, 2.0**-53, math.fsum((fam.mats[0] ** 2).flat)
    first_order = (k * u * lhs + ((k + 2) * u + abs(a1 - 1.0)) * rhs
                   + 4 * (fam.n + 1) * u * math.sqrt(a1) * math.sqrt(rhs) * math.sqrt(lhs) + u * abs(slack))
    bound = first_order * (1 + 4 * (k + 8) * u) + fam.m * k * 2.0**-1069
    verdict = "violated" if slack < -bound else "equality" if abs(slack) <= bound else "strict"
    return LuReport(lhs=float(lhs), rhs=rhs, slack=float(slack), rounding_bound=bound, verdict=verdict)


def canonical_extremal(n: int, k: int, mu: float = 1.0) -> MatrixFamily:
    """The equality family at block size k.

    A_1 = diag(k, -1, ..., -1, 0, ..., 0) / sqrt(k(k+1)) with k entries -1,
    A_a = mu (E_{1a} + E_{a1}) for a = 2..k+1, and A_{k+2..n} = 0.
    """
    if n > MAX_DIM:
        raise ValueError(f"n={n} exceeds MAX_DIM={MAX_DIM}")
    if not 1 <= k <= n - 1:
        raise ValueError(f"k must satisfy 1 <= k <= n-1, got k={k}, n={n}")
    # the squared norms MatrixFamily will check: 1, then 2 mu^2 k times, then zeros
    with np.errstate(over="ignore"):
        bound = _bound(np.array([1.0] + [2.0 * mu * mu] * k + [0.0] * (n - k - 1)))
    if not (math.isfinite(mu) and math.isfinite(bound)):
        raise ValueError(f"mu={mu!r} must be finite, with squared norms 2 mu^2 and their bound finite")
    lam = 1.0 / math.sqrt(k * (k + 1.0))
    # Each [A_1, A_a], a = 2..k+1, has the two nonzero entries of its 2 x 2
    # block on rows and columns {1, a}, the same for every a, and the zero
    # tail adds exact zeros; so k copies of the block give the lhs that
    # lu_check sums, with the same rounding.
    lhs = _lhs(np.diag(lam * np.array([k, -1.0])), [np.array([[0.0, mu], [mu, 0.0]])] * k)
    if not math.isfinite(lhs):
        raise ValueError(f"mu={mu!r} is too large: the lhs sum ||[A_1, A_a]||^2 exceeds the largest double")
    mats = np.zeros((n, n, n))
    mats[0] = np.diag(lam * np.array([k] + [-1.0] * k + [0.0] * (n - k - 1)))
    for a in range(1, k + 1):
        mats[a][0, a] = mats[a][a, 0] = mu
    return MatrixFamily(n=n, mats=mats)


# ---- extremal search ------------------------------------------------------


def objective_value(mats: np.ndarray) -> np.ndarray:
    """Phi = sum_{a>=2} ||[A_1, A_a]||^2 of a family (m, n, n), or of each
    family in a stack (..., m, n, n); the sum runs along one flat row per family."""
    a1 = mats[..., :1, :, :]
    rest = mats[..., 1:, :, :]
    return _squares((a1 @ rest - rest @ a1).reshape(*mats.shape[:-3], -1))


def objective_gradients(mats: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Euclidean gradient of Phi: with C_a = [A_1, A_a],
    dPhi/dA_1 = 2 sum_a [C_a, A_a] and dPhi/dA_a = 2 [A_1, C_a].
    Both outputs are symmetric.  Written into out when it is given."""
    a1 = mats[0]
    rest = mats[1:]
    c = a1 @ rest - rest @ a1
    grad = np.empty_like(mats) if out is None else out
    grad[0] = 2.0 * np.add.reduce(c @ rest - rest @ c, axis=0)
    grad[1:] = 2.0 * (a1 @ c - c @ a1)
    return grad


def _retract(mats: np.ndarray, norms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gram-Schmidt in the HS inner product (index order), then fix norms, on
    each family of a stack (R, m, n, n).

    Right-looking: once slot i is scaled, one row reduction gives ||q_i||^2
    and every later slot's inner product with q_i.  Returns the stack and a
    mask of the families that kept every direction with positive target
    norm; a family outside it degenerated, and its entries are finite but
    meaningless.
    """
    r, m = mats.shape[:2]
    w = mats.reshape(r, m, -1).copy()
    nrm = np.full((r, m, 1), math.inf)  # each slot's norm before scaling; inf at a zero target
    for i in range(m):
        wi = w[:, i]
        if norms[i] == 0.0:
            wi.fill(0.0)
            continue
        np.sqrt(_squares(wi), out=nrm[:, i, 0])
        # a degenerate slot is scaled as if its norm were 1e-12, which keeps it finite
        wi *= norms[i] / np.maximum(nrm[:, i], 1e-12)
        if i + 1 < m:
            d = np.add.reduce(w[:, i:] * wi[:, None], axis=2, keepdims=True)
            live = d[:, :1] > 0.0  # a family whose slot i vanished subtracts nothing
            coef = np.divide(d[:, 1:], d[:, :1], out=np.zeros_like(d[:, 1:]), where=live)
            np.subtract(w[:, i + 1 :], coef * wi[:, None], out=w[:, i + 1 :], where=live)
    return w.reshape(mats.shape), nrm.min(axis=(1, 2)) > 1e-12


def _project_gradient(grad: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """Remove components along span{A_1, ..., A_m} from each slot, in place,
    for each family of a stack (R, m, n, n).

    With G and W the slots of a family flattened to rows,
    G -= ((G W^T) * inv) W, where inv_b = 1/||A_b||^2 (0 for a zero slot).
    The family is HS-orthogonal, so this is an exact projection; at a
    constrained critical point the projected gradient vanishes.
    """
    r, m = mats.shape[:2]
    g = grad.reshape(r, m, -1)
    w = mats.reshape(r, m, -1)
    norms2 = _squares(w)
    inv = np.divide(1.0, norms2, out=np.zeros((r, m)), where=norms2 > 0.0)
    g -= ((g @ w.swapaxes(1, 2)) * inv[:, None, :]) @ w
    return grad


GRAD_TOL = 1e-8
MAX_ITERS = 10_000
ARMIJO = 1e-4
STEP0 = 0.1
# Every STALL_STEPS gradient steps, a restart whose value rose by no more than
# STALL_TOL * max(1, ceiling) since the previous check sits at a lower
# critical level (2 + sqrt(2) at profile (1, 1, 1)), and stops.
STALL_STEPS = 200
STALL_TOL = 1e-10
# Restarts run in lockstep groups of at most max(1, LOCKSTEP_ENTRIES // (m n^2))
# families: all 48 of lu search --n 4 --profile 1,1,1 --restarts 48 share one
# group, and n = MAX_DIM runs one family at a time.  A stack of 2^16 doubles
# is 512 KB; budgets of 2^12 to 2^14 were no faster at any n from 4 to 48.
# A line-search round stacks at most max(rows searching, group) candidates.
LOCKSTEP_ENTRIES = 2**16


def _group_size(m: int, n: int) -> int:
    """Families per lockstep group of (m, n, n) families."""
    return max(1, LOCKSTEP_ENTRIES // (m * n * n))


def _draw_start(rng: Random, m: int, n: int) -> np.ndarray:
    """m*n*n entries in C order, each 2 * random() - 1, that is uniform on [-1, 1)."""
    size = m * n * n
    return np.fromiter((2.0 * rng.random() - 1.0 for _ in range(size)), float, size).reshape(m, n, n)


def _search_group(
    n: int, norms: np.ndarray, ceiling: float, rngs: Sequence[Random], tally: dict
) -> list[tuple[float, np.ndarray, str, int]]:
    """Restarts in lockstep, one per generator: (value, family, exit reason,
    gradient steps) of each.  Adds the group's line-search rounds and
    candidate families to tally["rounds"] and tally["candidates"].

    Each restart symmetrizes and retracts its drawn start, redrawing from its
    own generator while the start degenerates, then keeps its own value, step
    size, stall anchor and step count.  All restarts of the group start at
    the same iteration, and every active one takes one gradient step per
    iteration; the stacked retraction, projection and objective serve all of
    them at once.

    The backtracking line search (Armijo's rule, Nocedal and Wright, section
    3.1) runs ahead in rounds: in each, a searching row with step s and width
    w puts its next steps s, s/2, ..., s/2^(w-1) into one candidate stack,
    stopping before any step below 1e-14, and takes the first that passes;
    a row with none continues at s/2^w with its width doubled.  A row's width
    in the first round of an iteration covers its first step down to the
    step it accepted last (two steps, or one when that was STEP0, which the
    doubling cannot pass), and as many halvings again as its last line search
    needed; it is 1 on the first iteration.  A round stacks at most
    max(rows searching, group) candidates, so no row is wider than
    max(1, group // rows searching).

    Every row goes through the same floating-point operations in the same
    order as a restart run on its own, trying one step at a time: the
    retraction and the objective act on each family alone, and halving a
    step of at least 1e-14 is exact.  So its result does not depend on the
    group it runs in or on the widths.
    """
    m = norms.size
    count = len(rngs)
    group = _group_size(m, n)
    mats, ok = np.empty((count, m, n, n)), np.zeros(count, dtype=bool)
    for _ in range(64):  # draws per restart, at most
        redo = np.flatnonzero(~ok)
        if not redo.size:
            break
        mats[redo], ok[redo] = _retract(symmetrize(np.stack([_draw_start(rngs[r], m, n) for r in redo])), norms)
    if not ok.all():
        raise RuntimeError("could not draw a nondegenerate starting family")
    value = objective_value(mats)
    # Phi can never exceed the proven bound, so stop once it is reached.
    reached = 1e-12 * max(1.0, ceiling)
    stall_rise = STALL_TOL * max(1.0, ceiling)
    rows = np.arange(count)  # the restart of each active row
    anchor = value.copy()
    step = np.full(count, STEP0)
    width = np.ones(count, dtype=int)  # candidates in a row's next round
    grads = np.empty_like(mats)  # its leading rows hold the gradients of the active rows
    results = [None] * count

    def retire(mask, reason, taken):
        """Record the rows in mask as exited, and drop them from the group."""
        nonlocal rows, mats, value, anchor, step, width
        if not mask.any():
            return
        for j in np.flatnonzero(mask):
            results[rows[j]] = (float(value[j]), mats[j].copy(), reason, taken)
        keep = ~mask
        rows, mats, value, anchor, step, width = (
            rows[keep], mats[keep], value[keep], anchor[keep], step[keep], width[keep])

    for it in range(MAX_ITERS):
        retire(ceiling - value <= reached, "ceiling", it)
        if it and it % STALL_STEPS == 0:
            retire(value - anchor <= stall_rise, "stalled", it)
            anchor = value.copy()
        if not rows.size:
            break
        proj = grads[: rows.size]
        for j, fam in enumerate(mats):
            # one objective_gradients call per restart and step, so its calls count the gradient steps
            objective_gradients(fam, out=proj[j])
        _project_gradient(proj, mats)
        flat = proj.reshape(rows.size, -1)
        gnorm2 = _squares(flat)
        small = np.sqrt(gnorm2) < GRAD_TOL
        step = np.minimum(2.0 * step, STEP0)
        halved = np.zeros(rows.size, dtype=int)  # halvings of each row's step in this line search
        search = np.flatnonzero(~small)  # the rows still in the line search
        while search.size:
            k = np.minimum(width[search], max(1, group // search.size))
            ahead = np.arange(k.max())
            steps = step[search, None] * 0.5**ahead
            tries = (ahead < k[:, None]) & (steps >= 1e-14)  # a prefix of each row
            row = search[np.nonzero(tries)[0]]
            s = steps[tries]
            # s * proj + mats, with the bits of mats + s * proj, built in the gathered copy of proj
            cand = proj[row]
            cand *= s[:, None, None, None]
            cand += mats[row]
            cand, ok = _retract(cand, norms)
            cand_value = objective_value(cand)
            ok &= cand_value >= value[row] + ARMIJO * s * gnorm2[row]
            tally["rounds"] += 1
            tally["candidates"] += s.size
            passed = np.zeros_like(tries)
            passed[tries] = ok
            first = passed.argmax(axis=1)  # each row's first passing step, if it has one
            hit = passed[np.arange(search.size), first]
            tried = tries.sum(axis=1)
            pick = (np.cumsum(tried) - tried + first)[hit]  # where those steps sit in the stack
            done = search[hit]
            mats[done], value[done], step[done] = cand[pick], cand_value[pick], s[pick]
            width[done] = halved[done] + first[hit] + 1 + (s[pick] < STEP0)
            search, k = search[~hit], k[~hit]
            step[search] *= 0.5**k  # below 1e-14 once a row has no step left to try
            halved[search] += k
            width[search] *= 2
            search = search[step[search] >= 1e-14]
        retire(small, "grad_tol", it + 1)
        retire(step < 1e-14, "step_underflow", it + 1)
    retire(np.ones(rows.size, dtype=bool), "max_iters", MAX_ITERS)
    return results


EXIT_REASONS = ("ceiling", "grad_tol", "step_underflow", "stalled", "max_iters")


@dataclass(frozen=True)
class SearchStats:
    """How the restarts of one extremal search ended."""

    exits: dict  # restarts per exit reason, in EXIT_REASONS order
    steps: int  # gradient steps over all restarts
    rounds: int  # line-search rounds over all groups
    candidates: int  # candidate families those rounds retracted


def extremal_search(
    n: int, norm_profile: Sequence[float], restarts: int = 20, seed: int = 0
) -> tuple[float, MatrixFamily, SearchStats]:
    """Maximize Phi over families with ||A_1|| = 1 and ||A_a|| fixed.

    Projected gradient ascent with backtracking line search.  Restarts run in
    lockstep groups of consecutive indices (see LOCKSTEP_ENTRIES); each draws
    its start from seeded_random(seed, restart index) and takes the same
    floating-point steps as it would alone, so every restart is reproducible
    bit for bit on its own, whatever group it runs in.
    Returns the best value and family over all restarts (ties resolved by
    lowest restart index) and the SearchStats of the run.  Logs the stats
    (exits, gradient steps, line-search rounds and their candidate families)
    at INFO, with the distinct final values (9 significant digits) of the
    restarts short of the ceiling, and a WARNING when any restart ran out of
    iterations.  The search runs at the profile divided by its largest entry
    p, and returns the tail scaled back by p and the value by p^2, so the
    result does not depend on the scale.
    """
    profile = np.asarray(norm_profile, dtype=float)
    if n < 2:
        raise ValueError("n must be at least 2")
    if n > MAX_DIM:
        raise ValueError(f"n={n} exceeds MAX_DIM={MAX_DIM}")
    if profile.ndim != 1 or profile.size > n - 1:
        raise ValueError("norm profile must be 1-D with at most n-1 entries")
    if not np.all(np.isfinite(profile)):
        raise ValueError(f"norm profile entries must be finite, got {profile.tolist()}")
    if np.any(profile < 0.0):
        raise ValueError("norm profile entries must be non-negative")
    if np.any(profile[:-1] < profile[1:]):
        raise ValueError("norm profile must be descending")
    if restarts < 1:
        raise ValueError("restarts must be positive")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got seed={seed}")
    norms = np.concatenate([[1.0], profile])
    with np.errstate(over="ignore"):
        if not math.isfinite(_bound(norms * norms)):
            raise ValueError(f"norm profile {profile.tolist()} overflows the squared-norm bound")
    # Phi and the bound are homogeneous of degree 2 in the tail, so the search
    # runs at the profile scaled to max 1 and its result is scaled back.
    scale = profile[0] if profile.size and profile[0] > 0.0 else 1.0
    norms[1:] /= scale
    ceiling = _bound(norms * norms)
    best_value, best_mats = -math.inf, None
    exits = dict.fromkeys(EXIT_REASONS, 0)
    steps = 0
    levels = set()
    tally = {"rounds": 0, "candidates": 0}
    group = _group_size(norms.size, n)
    for first in range(0, restarts, group):
        rngs = [seeded_random(seed, r) for r in range(first, min(first + group, restarts))]
        for value, mats, reason, taken in _search_group(n, norms, ceiling, rngs, tally):
            exits[reason] += 1
            steps += taken
            if reason != "ceiling":
                levels.add(f"{value * scale * scale:.9g}")
            if value > best_value:
                best_value, best_mats = value, mats
    stats = SearchStats(exits=exits, steps=steps, **tally)
    log.info(
        "extremal search n=%d: %d restarts, %d gradient steps, exits %s, "
        "%d line-search rounds of %d candidate families, final values below the bound: %s",
        n, restarts, steps, " ".join(f"{k}={v}" for k, v in exits.items()),
        stats.rounds, stats.candidates, " ".join(sorted(levels, key=float)) or "none",
    )
    if exits["max_iters"]:
        log.warning(
            "extremal search n=%d: %d of %d restarts stopped at MAX_ITERS=%d",
            n, exits["max_iters"], restarts, MAX_ITERS,
        )
    best_mats = symmetrize(best_mats)
    best_mats[1:] *= scale
    best_value *= scale * scale
    fam = MatrixFamily(n=n, mats=best_mats)
    bound = lu_bound(fam)
    if bound - best_value <= 1e-6 and log.isEnabledFor(logging.INFO):
        # Equality-grade families are logged for inspection, never asserted on;
        # the text of a large family is costly, so it is built only when INFO is on.
        log.info(
            "extremal family within %.3e of the bound %.17g:\n%s",
            bound - best_value, bound, family_to_text(fam),
        )
    return float(best_value), fam, stats


# ---- serialization ---------------------------------------------------------


def family_to_text(fam: MatrixFamily) -> str:
    """JSON document {n, mats} with row-major matrices, written by json_text:
    every number is its repr and reads back as the same double."""
    doc = {"n": fam.n, "mats": [a.ravel().tolist() for a in fam.mats]}
    return json_text(doc)


def _json_int(text: str) -> int | float:
    """A JSON integer.  int() refuses one of more than 4300 digits; any such
    number is beyond double range and MAX_DIM, so it reads as a signed infinity."""
    try:
        return int(text)
    except ValueError:
        return float(text)


def family_from_text(text: str, strict: bool = True) -> MatrixFamily:
    """Parse a family document.

    strict=True reconstructs the stored matrices bit-exactly and validates
    them as-is (round-trip inverse of family_to_text).  strict=False runs
    them through normalize_family first, which accepts hand-written files
    with unnormalized A_1 or unsorted tails.
    """
    try:
        doc = json.loads(text, parse_int=_json_int)
    except RecursionError:
        raise ValueError("family document nests too deeply to parse") from None
    if not isinstance(doc, dict) or "n" not in doc or "mats" not in doc:
        raise FamilyValidationError("family document must be a JSON object with fields 'n' and 'mats'")
    n = doc["n"]
    if not (isinstance(n, int) or n == math.inf) or isinstance(n, bool) or n < 1:
        raise FamilyValidationError("field 'n' must be a positive integer")
    if n > MAX_DIM:
        raise FamilyValidationError(f"field 'n' exceeds MAX_DIM={MAX_DIM}")
    try:
        # JSON numbers only: a string, boolean or list entry is rejected
        if any(type(x) not in (int, float) for flat in doc["mats"] for x in flat):
            raise TypeError
        mats = [np.asarray(flat, dtype=float).reshape(n, n) for flat in doc["mats"]]
    except (TypeError, ValueError):
        raise FamilyValidationError(
            f"field 'mats' must be a list of matrices, each a list of n*n = {n * n} numbers") from None
    except OverflowError:  # an integer beyond double range, rejected like 1e400
        mats = []
    if not mats or not all(np.all(np.isfinite(a)) for a in mats):
        raise FamilyValidationError("field 'mats' must hold at least one matrix, with finite entries")
    if strict:
        return MatrixFamily(n=n, mats=np.stack(mats))
    return normalize_family(mats)


def load_family(path, strict: bool = True) -> MatrixFamily:
    with open(path, "r", encoding="ascii") as fh:
        return family_from_text(fh.read(), strict=strict)
