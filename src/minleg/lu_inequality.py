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
from typing import Sequence

import numpy as np

from .symmat import commutator, frobenius_inner, frobenius_norm, symmetrize

log = logging.getLogger(__name__)

ORTHOGONALITY_TOL = 1e-10
NORM_ORDER_SLACK = 1e-10
EQUALITY_TOL = 1e-12


class FamilyValidationError(ValueError):
    """The matrices fail the hypotheses of the inequality."""


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
        with np.errstate(over="ignore"):
            norms2 = np.einsum("aij,aij->a", mats, mats)
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
        gram = np.einsum("aij,bij->ab", mats, mats)
        off = np.abs(gram - np.diag(np.diag(gram)))
        if np.any(off > ORTHOGONALITY_TOL * np.maximum(1.0, np.outer(norms, norms))):
            raise FamilyValidationError(f"pairwise orthogonality violated: max |<A_a, A_b>| = {off.max():.3e}")
        object.__setattr__(self, "mats", mats)

    @property
    def m(self) -> int:
        return self.mats.shape[0]


@dataclass(frozen=True)
class LuReport:
    lhs: float
    rhs: float
    slack: float  # rhs - lhs
    is_equality: bool


def normalize_family(raw: Sequence[np.ndarray]) -> MatrixFamily:
    """Scale the whole family by 1/||A_1||, sort A_2.. by descending norm.

    Both sides of the inequality scale by ||A_1||^-2, so the rescaled family
    is equivalent to the input.  MatrixFamily then validates it: a violation
    of orthogonality raises, it is never silently repaired.
    """
    mats = [symmetrize(a) for a in raw]
    if not mats:
        raise FamilyValidationError("empty family")
    n = mats[0].shape[0]
    if any(a.shape != (n, n) for a in mats):
        raise FamilyValidationError("all matrices must share one dimension")
    # Dividing first by 2^e, with e the binary exponent of max |A_1|, is exact
    # and puts ||A_1|| in [1/2, n], so its square cannot overflow.  A tail that
    # overflows is left to MatrixFamily to reject, without a warning.
    _, e = np.frexp(np.max(np.abs(mats[0])))
    with np.errstate(over="ignore"):
        stack = np.ldexp(np.stack(mats), -e)
        lead_norm = frobenius_norm(stack[0])
        if lead_norm == 0.0:
            raise FamilyValidationError("A_1 must be nonzero")
        stack = stack / lead_norm
        rest = stack[1:]
        order = np.argsort(-np.sqrt(np.einsum("aij,aij->a", rest, rest)), kind="stable")
    stack = np.concatenate([stack[:1], rest[order]], axis=0)
    return MatrixFamily(n=n, mats=stack)


def _bound(norms2: np.ndarray) -> float:
    """||A_2||^2 + sum_{a>=2} ||A_a||^2 from the squared norms (zero for m = 1)."""
    return float(norms2[1:2].sum() + norms2[1:].sum())


def lu_bound(fam: MatrixFamily) -> float:
    """Right-hand side ||A_2||^2 + sum_{a>=2} ||A_a||^2 (zero for m = 1)."""
    return _bound(np.einsum("aij,aij->a", fam.mats, fam.mats))


def lu_check(fam: MatrixFamily) -> LuReport:
    """Evaluate both sides of the inequality; slack = rhs - lhs, and an
    equality is |slack| <= EQUALITY_TOL."""
    a1 = fam.mats[0]
    lhs = 0.0
    for a in fam.mats[1:]:
        c = commutator(a1, a)
        lhs += frobenius_inner(c, c)
    rhs = lu_bound(fam)
    slack = rhs - lhs
    return LuReport(lhs=float(lhs), rhs=rhs, slack=float(slack), is_equality=abs(slack) <= EQUALITY_TOL)


def canonical_extremal(n: int, k: int, mu: float = 1.0) -> MatrixFamily:
    """The equality family at block size k.

    A_1 = diag(k, -1, ..., -1, 0, ..., 0) / sqrt(k(k+1)) with k entries -1,
    A_a = mu (E_{1a} + E_{a1}) for a = 2..k+1, and A_{k+2..n} = 0.
    """
    if not 1 <= k <= n - 1:
        raise ValueError(f"k must satisfy 1 <= k <= n-1, got k={k}, n={n}")
    lam = 1.0 / math.sqrt(k * (k + 1.0))
    mats = np.zeros((n, n, n))
    diag = np.zeros(n)
    diag[0] = k
    diag[1 : k + 1] = -1.0
    mats[0] = np.diag(lam * diag)
    for a in range(1, k + 1):
        mats[a][0, a] = mats[a][a, 0] = mu
    return MatrixFamily(n=n, mats=mats)


# ---- extremal search ------------------------------------------------------


def objective_value(mats: np.ndarray) -> float:
    """Phi = sum_{a>=2} ||[A_1, A_a]||^2 on a stacked family (m, n, n)."""
    a1 = mats[0]
    c = a1 @ mats[1:] - mats[1:] @ a1
    return float(np.einsum("aij,aij->", c, c))


def objective_gradients(mats: np.ndarray) -> np.ndarray:
    """Euclidean gradient of Phi: with C_a = [A_1, A_a],
    dPhi/dA_1 = 2 sum_a [C_a, A_a] and dPhi/dA_a = 2 [A_1, C_a].
    Both outputs are symmetric."""
    a1 = mats[0]
    rest = mats[1:]
    c = a1 @ rest - rest @ a1
    grad = np.empty_like(mats)
    grad[0] = 2.0 * np.add.reduce(c @ rest - rest @ c, axis=0)
    grad[1:] = 2.0 * (a1 @ c - c @ a1)
    return grad


def _retract(mats: np.ndarray, norms: np.ndarray) -> np.ndarray | None:
    """Gram-Schmidt in the HS inner product (index order), then fix norms.

    Right-looking: once slot i is scaled, one row reduction gives ||q_i||^2
    and every later slot's inner product with q_i.  Returns None when a
    direction with positive target norm degenerates.
    """
    w = mats.reshape(mats.shape[0], -1).copy()
    for i, wi in enumerate(w):
        if norms[i] == 0.0:
            wi.fill(0.0)
            continue
        nrm = math.sqrt(np.add.reduce(wi * wi))
        if nrm <= 1e-12:
            return None
        wi *= norms[i] / nrm
        if i + 1 < len(w):
            d = np.add.reduce(w[i:] * wi, axis=1)
            if d[0] > 0.0:
                w[i + 1 :] -= (d[1:] / d[0])[:, None] * wi
    return w.reshape(mats.shape)


def _project_gradient(grad: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """Remove components along span{A_1, ..., A_m} from each slot, in place.

    The family is HS-orthogonal, so slot-wise removal is an exact projection;
    at a constrained critical point the projected gradient vanishes.
    """
    norms2 = np.einsum("aij,aij->a", mats, mats)
    for b in range(mats.shape[0]):
        if norms2[b] > 0.0:
            coef = np.einsum("aij,ij->a", grad, mats[b]) / norms2[b]
            grad -= coef[:, None, None] * mats[b]
    return grad


GRAD_TOL = 1e-8
MAX_ITERS = 10_000
ARMIJO = 1e-4
STEP0 = 0.1


def _search_single(
    n: int, norms: np.ndarray, ceiling: float, rng: np.random.Generator
) -> tuple[float, np.ndarray, str, int]:
    """One restart: (value, family, exit reason, gradient steps)."""
    m = norms.size
    mats = None
    for _ in range(64):
        raw = rng.standard_normal((m, n, n))
        raw = (raw + np.transpose(raw, (0, 2, 1))) / 2.0
        mats = _retract(raw, norms)
        if mats is not None:
            break
    if mats is None:
        raise RuntimeError("could not draw a nondegenerate starting family")
    value = objective_value(mats)
    # Phi can never exceed the proven bound, so stop once it is reached.
    reached = 1e-12 * max(1.0, ceiling)
    step = STEP0
    for it in range(MAX_ITERS):
        if ceiling - value <= reached:
            return value, mats, "ceiling", it
        proj = _project_gradient(objective_gradients(mats), mats)
        gnorm2 = float(np.einsum("aij,aij->", proj, proj))
        if math.sqrt(gnorm2) < GRAD_TOL:
            return value, mats, "grad_tol", it + 1
        step = min(2.0 * step, STEP0)
        while True:
            cand = _retract(mats + step * proj, norms)
            if cand is not None:
                cand_value = objective_value(cand)
                if cand_value >= value + ARMIJO * step * gnorm2:
                    mats, value = cand, cand_value
                    break
            step *= 0.5
            if step < 1e-14:
                return value, mats, "step_underflow", it + 1
    return value, mats, "max_iters", MAX_ITERS


EXIT_REASONS = ("ceiling", "grad_tol", "step_underflow", "max_iters")


def extremal_search(
    n: int, norm_profile: Sequence[float], restarts: int = 20, seed: int = 0
) -> tuple[float, MatrixFamily]:
    """Maximize Phi over families with ||A_1|| = 1 and ||A_a|| fixed.

    Projected gradient ascent with backtracking line search.  Restarts run
    serially; each draws its start from a sub-seeded generator (seed,
    restart index), so every restart is reproducible bit for bit on its own.
    Returns the best value and family over all restarts (ties resolved by
    lowest restart index).  Logs the count of each exit reason at INFO, and
    a WARNING when any restart ran out of iterations.  The search runs at the
    profile divided by its largest entry p, and returns the tail scaled back
    by p and the value by p^2, so the result does not depend on the scale.
    """
    profile = np.asarray(norm_profile, dtype=float)
    if n < 2:
        raise ValueError("n must be at least 2")
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
    for r in range(restarts):
        rng = np.random.default_rng([seed, r])
        value, mats, reason, taken = _search_single(n, norms, ceiling, rng)
        exits[reason] += 1
        steps += taken
        if value > best_value:
            best_value, best_mats = value, mats
    log.info(
        "extremal search n=%d: %d restarts, %d gradient steps, exits %s",
        n, restarts, steps, " ".join(f"{k}={v}" for k, v in exits.items()),
    )
    if exits["max_iters"]:
        log.warning(
            "extremal search n=%d: %d of %d restarts stopped at MAX_ITERS=%d",
            n, exits["max_iters"], restarts, MAX_ITERS,
        )
    best_mats = (best_mats + np.transpose(best_mats, (0, 2, 1))) / 2.0
    best_mats[1:] *= scale
    best_value *= scale * scale
    fam = MatrixFamily(n=n, mats=best_mats)
    bound = lu_bound(fam)
    if bound - best_value <= 1e-6:
        # Equality-grade families are logged for inspection, never asserted on.
        log.info(
            "extremal family within %.3e of the bound %.17g:\n%s",
            bound - best_value, bound, family_to_text(fam),
        )
    return float(best_value), fam


# ---- serialization ---------------------------------------------------------


def family_to_text(fam: MatrixFamily) -> str:
    """JSON document {n, mats} with row-major matrices; every number round-trips exactly."""
    doc = {"n": fam.n, "mats": [a.ravel().tolist() for a in fam.mats]}
    return json.dumps(doc, indent=2) + "\n"


def family_from_text(text: str, strict: bool = True) -> MatrixFamily:
    """Parse a family document.

    strict=True reconstructs the stored matrices bit-exactly and validates
    them as-is (round-trip inverse of family_to_text).  strict=False runs
    them through normalize_family first, which accepts hand-written files
    with unnormalized A_1 or unsorted tails.
    """
    doc = json.loads(text)
    if not isinstance(doc, dict) or "n" not in doc or "mats" not in doc:
        raise FamilyValidationError("family document must be a JSON object with fields 'n' and 'mats'")
    n = doc["n"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise FamilyValidationError("field 'n' must be a positive integer")
    try:
        mats = [np.asarray(flat, dtype=float).reshape(n, n) for flat in doc["mats"]]
    except (TypeError, ValueError):
        raise FamilyValidationError(
            f"field 'mats' must be a list of matrices, each a list of n*n = {n * n} numbers") from None
    if not mats or not all(np.all(np.isfinite(a)) for a in mats):
        raise FamilyValidationError("field 'mats' must hold at least one matrix, with finite entries")
    if strict:
        return MatrixFamily(n=n, mats=np.stack(mats))
    return normalize_family(mats)


def load_family(path, strict: bool = True) -> MatrixFamily:
    with open(path, "r", encoding="ascii") as fh:
        return family_from_text(fh.read(), strict=strict)
