"""Second-fundamental-form machinery for unit-sphere immersions.

An :class:`ImmersionChart` is a parametrized map F from an n-dimensional
coordinate box into the unit sphere of C^{n+1} (realified to R^{2n+2}),
carrying analytic first and second partials via the jet layer.  At a chart
point the engine builds an orthonormal tangent frame from the Cholesky
factor of the induced metric, extracts the cubic form

    sigma_ijk = <d2F(e_i, e_j), J e_k>,

which for a minimal Legendrian immersion is fully symmetric, and derives
from it the fundamental matrix S_lj = sum_ts sigma_tsl sigma_tsj, its
spectrum, the squared second-fundamental-form norm, the pinching quantity
|B|^2 + lambda_2, and the residuals of the identities these objects must
satisfy (Legendrian contact conditions, minimality, full symmetry, the
Simons-type matrix identity for parallel examples).  Contraction against
J e_k needs no normal projection: J e_k is orthogonal to F and to the
tangent space, so tangential and radial parts of d2F drop out.

Complex structure convention: coordinate pairs (x_{2k-1}, x_{2k}) realify
z_k = x_{2k-1} + i x_{2k}, and J(x_{2k-1}, x_{2k}) = (-x_{2k}, x_{2k-1}).

An independent scalar-curvature route serves as the oracle for the
Gauss-equation relation R = n(n-1) - |B|^2.  It uses the induced metric and
the jets alone, no sigma anywhere: R = |H|^2 - |h|^2 from the part h of d2F
normal to the tangent space in R^(2n+2), exact up to rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import NumericalFailure
from .jets import Jet
from .symmat import sym_eigen

DEGENERACY_TOL = 1e-8
CROSS_CHECK_STEP = 1e-3
GAUSS_RANK_TOL = 1e-8


class DegeneratePointError(NumericalFailure):
    """Coordinate tangents fail to span an n-plane at the given point."""


@dataclass(frozen=True)
class Interval:
    lo: float
    hi: float
    periodic: bool = False

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi) and self.lo < self.hi):
            raise ValueError(f"bad interval [{self.lo}, {self.hi}]")

    @property
    def span(self) -> float:
        return self.hi - self.lo


class ImmersionChart:
    """Parametrized immersion into the unit sphere of C^{dim+1}.

    component_fn maps a list of coordinate jets to the dim+1 complex
    components of F.  `closed` records whether the chart covers a closed
    manifold up to measure zero; all-periodic domains default to closed,
    anything else must opt in.
    """

    def __init__(self, name: str, dim: int, domain: Sequence[Interval],
                 component_fn: Callable, closed: bool | None = None):
        if dim < 1 or len(domain) != dim:
            raise ValueError("domain must provide one interval per coordinate")
        self.name = name
        self.dim = dim
        self.domain = tuple(domain)
        self.ambient_complex_dim = dim + 1
        self.closed = all(iv.periodic for iv in domain) if closed is None else closed
        self._fn = component_fn

    def components(self, coords):
        """component_fn on a list of coordinate jets, checked for its length."""
        comps = self._fn(coords)
        if len(comps) != self.ambient_complex_dim:
            raise ValueError(
                f"chart {self.name}: expected {self.ambient_complex_dim} components, got {len(comps)}"
            )
        return comps

    def jet_eval(self, u) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(F, dF, d2F) with shapes B + (2n+2,), B + (2n+2, n), B + (2n+2, n, n).

        u is a point stack, shape B + (n,) (B = () for one point), or an open
        mesh: a tuple of n coordinate arrays, as np.ix_ builds them, that
        broadcast together to B.  A point stack runs as the trivial mesh of
        its own columns.  On a mesh, each factor of a component is computed
        on the axes it depends on, not on the whole grid.  Every point has
        the same bits in any batch or mesh.  Component k fills real rows 2k
        (real part) and 2k + 1 (imaginary part); the copy moves the jets'
        leading derivative axes behind the batch.
        """
        coords = Jet.variables(u)
        comps = self.components(coords)
        batch = np.broadcast_shapes(*(x.val.shape for x in coords))
        rows = 2 * len(comps)
        out = tuple(np.empty(batch + (rows,) + (len(coords),) * order) for order in range(3))
        for order, (arr, part) in enumerate(zip(out, ("val", "grad", "hess"))):
            tail = (slice(None),) * order
            for k, c in enumerate(comps):
                z = getattr(c, part)
                z = z.transpose(tuple(range(order, z.ndim)) + tuple(range(order)))
                arr[(..., 2 * k) + tail] = z.real
                arr[(..., 2 * k + 1) + tail] = z.imag if np.iscomplexobj(z) else 0.0
        return out


def evaluate_points(chart: ImmersionChart, u) -> tuple[np.ndarray, ...]:
    """(points, F, dF, d2F) at u, as chart.jet_eval gives them.  An open mesh
    comes back flattened in C order: the points as a stack (P, n), and one
    batch axis of length P on each jet array."""
    f, jac, hess = chart.jet_eval(u)
    if not isinstance(u, tuple):
        return np.asarray(u, dtype=float), f, jac, hess
    lead = f.ndim - 1
    return (mesh_rows(u),) + tuple(a.reshape((-1,) + a.shape[lead:]) for a in (f, jac, hess))


def mesh_rows(mesh) -> np.ndarray:
    """The points of an open mesh as a stack (P, n), in C order."""
    return np.stack([x.ravel() for x in np.broadcast_arrays(*mesh)], axis=-1)


def apply_J(v) -> np.ndarray:
    """Multiplication by i on realified vectors, last axis of size 2n+2."""
    v = np.asarray(v, dtype=float)
    out = np.empty_like(v)
    out[..., 0::2] = -v[..., 1::2]
    out[..., 1::2] = v[..., 0::2]
    return out


@dataclass(frozen=True)
class PointFrame:
    """Orthonormal tangent data at a chart point (or a stack of points).

    e holds the frame vectors as rows; a is the change of basis with
    e_i = sum_s a_is dF/du_s; vol = sqrt(det G) of the metric G_st = <dF_s, dF_t>.
    """

    F: np.ndarray
    e: np.ndarray
    a: np.ndarray
    vol: float | np.ndarray


def _t(x):
    """Transpose of each matrix in a stack."""
    return x.swapaxes(-1, -2)


def _contiguous_t(x):
    """Transpose of each matrix in a stack as a contiguous copy.  A stacked
    product with one operand the strided view _t gives runs two to three times
    as long as on this copy, the copy included."""
    return np.ascontiguousarray(_t(x))


def _batch_major_sum(terms, axis) -> np.ndarray:
    """Sum over one axis in the order np.add.reduce takes along a contiguous
    last axis, as on a batch-major array: left to right below 8 terms, and in
    numpy's pairwise blocks from 8 on, there on a copy with that axis last."""
    if terms.shape[axis] < 8:
        return np.add.reduce(terms, axis=axis)
    return np.add.reduce(np.ascontiguousarray(np.moveaxis(terms, axis, -1)), axis=-1)


def _cholesky(u, metric) -> tuple[np.ndarray, np.ndarray]:
    """(L, diag L) with G = L L^T for each matrix G in a stack B + (n, n), one
    column at a time, returned batch-last: L of shape (n, n) + B, diag L (n,) + B.

    Column j is L_ij = (G_ij - sum_k<j L_ik L_jk) / L_jj for i >= j, and L_jj the
    square root of the pivot G_jj - sum_k<j L_jk^2.  On the batch-last view of G
    each step is one contiguous operation over the batch, and each sum keeps
    the order of a batch-major np.add.reduce over k (_batch_major_sum).  A pivot
    that is not > 0, NaN included, raises before any square root is taken, so
    no point of the batch warns.
    """
    metric = np.moveaxis(metric, (-2, -1), (0, 1))  # a view, (n, n) + B
    n = metric.shape[0]
    chol = np.zeros(metric.shape)
    diag = np.empty(metric.shape[1:])
    for j in range(n):
        col = metric[j:, j]
        if j:
            col = col - _batch_major_sum(chol[j:, :j] * chol[j, :j], axis=1)
        bad = ~(col[0] > 0.0)
        if np.any(bad):
            raise DegeneratePointError(f"metric not positive definite at u = {u[bad][0].tolist()}")
        diag[j] = chol[j, j] = np.sqrt(col[0])
        chol[j + 1:, j] = col[1:] / diag[j]
    return chol, diag


def _lower_inverse(chol, diag) -> np.ndarray:
    """a = L^-1 by forward substitution, one row at a time, on the batch-last
    factor of _cholesky: a_ij = -(sum_k<i L_ik a_kj) / L_ii for j < i, summed
    left to right over k, and a_ii = 1 / L_ii.  a has shape (n, n) + B."""
    n = chol.shape[0]
    a = np.zeros(chol.shape)
    for i in range(n):
        a[i, i] = 1.0 / diag[i]
        if i:
            a[i, :i] = np.add.reduce(chol[i, :i, None] * a[:i, :i], axis=0) / -diag[i]
    return a


def metric_factor(u, jac) -> tuple[np.ndarray, ...]:
    """(dF^T, G, a, vol) of the coordinate tangents jac, shape B + (2n+2, n).

    dF^T is a contiguous copy, G = dF^T dF the metric, and, from its Cholesky
    factor G = L L^T, a = L^-1 and vol = prod diag L = sqrt(det G).  The factor
    runs batch-last; a comes back as one contiguous batch-major copy, the
    layout the stacked products that read it need.  This is the one check on
    the metric: a pivot not > 0 means "metric not positive definite", and
    L_ii <= DEGENERACY_TOL (1 + |dF_i|), tangent i all but in the span of those
    before it, means "coordinate tangents degenerate".
    """
    tangents = _contiguous_t(jac)
    metric = tangents @ jac
    chol, diag = _cholesky(u, metric)
    bad = np.any(diag <= DEGENERACY_TOL * (1.0 + np.sqrt(np.einsum("...ii->i...", metric))), axis=0)
    if np.any(bad):
        raise DegeneratePointError(f"coordinate tangents degenerate at u = {u[bad][0].tolist()}")
    a = np.ascontiguousarray(np.moveaxis(_lower_inverse(chol, diag), (0, 1), (-2, -1)))
    return tangents, metric, a, np.multiply.reduce(diag, axis=0)


def _frame_from(u, f, jac) -> PointFrame:
    """Frame from the Cholesky factor of the metric, G = L L^T: a = L^-1, e = a dF^T.

    a is lower triangular with a positive diagonal, so e is the Gram-Schmidt frame and
    L_ii the length of tangent i off the span of those before it.  e e^T - I grows as
    the unit roundoff times cond(D^-1 G D^-1), D = diag(G)^1/2; over the zoo's sample
    and grid points it stays at 1e-15 or less.
    """
    tangents, _, a, vol = metric_factor(u, jac)
    return PointFrame(F=f, e=a @ tangents, a=a, vol=vol)


def _sigma_from(frame: PointFrame, hess: np.ndarray) -> np.ndarray:
    """sigma_ijk = sum_st a_is a_jt <d2F/du_s du_t, J e_k>, returned raw.

    Full symmetry is a property to be measured (sigma_symmetry_defect), not
    enforced.  Values are only meaningful if the Legendrian residual gate
    passes for the same frame.
    """
    # Contractions as stacked matrix products: m_stk = <d2F_st, J e_k>, then
    # sigma_ijk = sum_s a_is sum_t a_jt m_stk.  The first product takes both
    # operands as views, which BLAS reads transposed as fast as contiguous
    # ones; a contiguous copy of either costs more than it saves.
    batch, n = hess.shape[:-3], hess.shape[-1]
    m = _t(hess.reshape(batch + (-1, n * n))) @ _t(apply_J(frame.e))
    m = frame.a[..., None, :, :] @ m.reshape(batch + (n, n, n))
    return (frame.a @ m.reshape(batch + (n, n * n))).reshape(batch + (n, n, n))


def sigma_symmetry_defect(sigma: np.ndarray) -> float | np.ndarray:
    """Max deviation of sigma from itself over all six index permutations.

    The three transpositions and one 3-cycle suffice: the other 3-cycle is the
    inverse pi^-1 of the first, and max|sigma - sigma o pi^-1| is max|sigma o pi
    - sigma| reindexed, the same differences negated, so the same maximum to
    the bit.  The identity contributes 0.  Each |sigma - sigma o pi| folds into
    one running elementwise maximum, reduced once at the end: max is exact and
    passes NaN on, so the order of the maxima does not show in the bits.
    """
    lead = tuple(range(sigma.ndim - 3))
    defect, diff = None, np.empty_like(sigma, order="C")
    for p in ((0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 1, 0)):
        # sigma o pi is copied first: a subtraction that read the transposed view
        # would hold a ufunc buffer on top of the two arrays
        np.copyto(diff, np.transpose(sigma, lead + tuple(len(lead) + k for k in p)))
        np.abs(np.subtract(sigma, diff, out=diff), out=diff)
        if defect is None:
            defect, diff = diff, np.empty_like(diff)
        else:
            np.maximum(defect, diff, out=defect)
    return np.max(defect, axis=(-3, -2, -1))


def minimality_residual(sigma: np.ndarray) -> float | np.ndarray:
    """max_k |sum_i sigma_iik|; zero mean curvature makes every trace vanish."""
    return np.max(np.abs(np.einsum("...iik->...k", sigma)), axis=-1)


def sphere_residual(f: np.ndarray, jac: np.ndarray) -> float | np.ndarray:
    """Max of | |F|^2 - 1 | and |<F, dF/du_s>| over s: how far the chart leaves
    the unit sphere, at the point and to first order.  Every other check takes
    |F| = 1 for granted."""
    radial = np.abs(np.einsum("...i,...i->...", f, f) - 1.0)
    return np.maximum(radial, np.max(np.abs(np.einsum("...i,...is->...s", f, jac)), axis=-1))


def legendrian_residual(frame: PointFrame) -> float | np.ndarray:
    """Max of |<J e_i, e_j>| and |<J F, e_j>| over the frame."""
    je = apply_J(frame.e)
    jf = apply_J(frame.F)
    return np.maximum(np.max(np.abs(je @ _t(frame.e)), axis=(-2, -1)),
                      np.max(np.abs(frame.e @ jf[..., None]), axis=(-2, -1)))


def fundamental_matrix(sigma: np.ndarray) -> np.ndarray:
    """S_lj = sum_ts sigma_tsl sigma_tsj (symmetric PSD by construction)."""
    flat = sigma.reshape(sigma.shape[:-3] + (-1, sigma.shape[-1]))
    s = _contiguous_t(flat) @ flat
    return (s + _t(s)) / 2.0


@dataclass(frozen=True)
class Spectrum:
    """Eigen data of a fundamental matrix (or a stack of them).

    lambdas descending; normB2 = trace = |B|^2; pinch = |B|^2 + lambda_2.
    """

    lambdas: np.ndarray
    normB2: float | np.ndarray
    pinch: float | np.ndarray


def spectrum_of(s: np.ndarray) -> Spectrum:
    """Spectrum of a fundamental matrix or a stack of them, from a values-only
    Jacobi solve: nothing downstream reads the eigenvectors.  A non-finite
    entry, from a chart whose jets hold a NaN or an infinity, is a
    NumericalFailure.  A negative lambda_n is returned as it is: verify's psd
    check judges it."""
    if not np.all(np.isfinite(s)):
        raise NumericalFailure("fundamental matrix has a non-finite entry")
    values = sym_eigen(s, vectors=False).values
    if values.shape[-1] < 2:
        raise ValueError("spectrum needs n >= 2 (lambda_2 is used)")
    norm_b2 = values.sum(axis=-1)
    return Spectrum(lambdas=values, normB2=norm_b2, pinch=norm_b2 + values[..., 1])


def gauss_rank(spec: Spectrum) -> int | np.ndarray:
    """Number of eigenvalues above GAUSS_RANK_TOL; the rank of the Gauss-map
    differential.  A stack of spectra gives one rank per point."""
    ranks = np.sum(spec.lambdas > GAUSS_RANK_TOL, axis=-1)
    return int(ranks) if ranks.ndim == 0 else ranks


def simons_residual(sigma: np.ndarray) -> float:
    """Residual of the matrix form of the Simons-type identity.

    With sigma_l the symmetric matrix sigma(., ., e_l) and S the fundamental
    matrix, parallel second fundamental form forces

        (n+1) sigma_l - sum_j S_lj sigma_j - sum_j [sigma_j, [sigma_j, sigma_l]] = 0

    for every l; returns the largest Frobenius norm over l.  Only meaningful
    as a hard check on examples known to have parallel sigma.
    """
    n = sigma.shape[0]
    s = fundamental_matrix(sigma)
    sl = np.einsum("ijl->lij", sigma)
    lin = (n + 1.0) * sl - np.einsum("lj,jab->lab", s, sl)
    double = np.zeros_like(sl)
    for j in range(n):
        sj = sl[j]
        inner = sj @ sl - sl @ sj        # [sigma_j, sigma_l] for all l
        double += sj @ inner - inner @ sj
    resid = lin - double
    return float(np.max(np.sqrt(np.einsum("lab,lab->l", resid, resid))))


@dataclass(frozen=True)
class PointData:
    """Frame, cubic form and the spectrum of its fundamental matrix at one
    chart point (or a stack of points), with the jets dF (jac) and d2F (hess)
    they were built from, so that the curvature oracle can read them instead
    of evaluating the same points again."""

    frame: PointFrame
    sigma: np.ndarray
    spectrum: Spectrum
    jac: np.ndarray
    hess: np.ndarray


def point_data(chart: ImmersionChart, u) -> PointData:
    """PointData at a point stack u, shape B + (n,), or at the points of an
    open mesh, flattened in C order to one batch axis."""
    u, f, jac, hess = evaluate_points(chart, u)
    frame = _frame_from(u, f, jac)
    sigma = _sigma_from(frame, hess)
    return PointData(frame=frame, sigma=sigma, spectrum=spectrum_of(fundamental_matrix(sigma)),
                     jac=jac, hess=hess)


# ---- intrinsic curvature oracle --------------------------------------------


def scalar_curvature_intrinsic(chart: ImmersionChart, u, jets=None) -> float | np.ndarray:
    """Scalar curvature from the induced metric and the jets alone, exact.

    By the Gauss formula for M in R^(2n+2), with h_ab the part of d2F_ab
    normal to the tangent space and H = G^ab h_ab,

        R = |H|^2 - G^ac G^bd <h_ab, h_cd>.

    The third derivatives that differentiating the Christoffel symbols would
    bring in cancel (Theorema Egregium), so dF and d2F at the point itself
    suffice: no step, no truncation, only the rounding of the jets.
    G^-1 = a^T a comes from the Cholesky factor of metric_factor; the route
    never touches sigma, the complex structure or the tangent frame e, so it
    is the independent oracle for the Gauss-equation relation
    R = n(n-1) - |B|^2, and it sees a wrong component of d2F along F or JF,
    which sigma misses.  u of shape (n,) gives a float; a stack of shape
    (N, n) gives shape (N,), from one batched jet evaluation.

    jets = (dF, d2F, a), as PointData.jac, .hess and .frame.a hold them for u,
    skips the jet evaluation and the factor: verify_chart passes those of its
    sweep's last box, so each point's metric is factored once per report, and
    checked once.  The oracle stays independent: a point's jets and factor
    have the same bits in any batch, so these are the values it would compute
    itself, and it still reads no sigma, J or frame e.
    """
    u = np.asarray(u, dtype=float)
    if jets is None:
        _, jac, hess = chart.jet_eval(u)
        tangents, _, a, _ = metric_factor(u, jac)
    else:
        jac, hess, a = jets
        tangents = _contiguous_t(jac)
    ginv = _contiguous_t(a) @ a
    batch, n = jac.shape[:-2], jac.shape[-1]
    flat = hess.reshape(batch + (-1, n * n))
    # h = d2F - dF G^-1 (dF^T d2F), the normal part of d2F in R^(2n+2)
    h = (flat - jac @ (ginv @ (tangents @ flat))).reshape(hess.shape)
    mean = np.einsum("...ab,...xab->...x", ginv, h)
    raised = ginv[..., None, :, :] @ h @ ginv[..., None, :, :]
    r = np.sum(mean * mean, axis=-1) - np.sum(h * raised, axis=(-3, -2, -1))
    return float(r) if r.ndim == 0 else r


# ---- derivative cross-check -------------------------------------------------


def derivative_cross_check(chart: ImmersionChart, u) -> tuple[float | np.ndarray, float | np.ndarray]:
    """Max-abs gaps between jet derivatives and a Richardson central-difference
    reference built from point values only, at steps CROSS_CHECK_STEP and half
    of it: (first-order gap, second-order gap).

    The point values come from the val channel of one batched jet_eval over
    the whole stencil, centre included.  u of shape (n,) gives two floats; a
    stack of shape (N, n) gives two arrays of shape (N,).
    """
    u = np.asarray(u, dtype=float)
    n = chart.dim
    eye = np.eye(n)
    si, ti = np.triu_indices(n, 1)
    # directions e_s, then e_s + e_t and e_s - e_t for s < t, at steps h and h/2
    dirs = np.concatenate([eye, eye[si] + eye[ti], eye[si] - eye[ti]])
    steps = (CROSS_CHECK_STEP, CROSS_CHECK_STEP / 2.0)
    shifts = np.concatenate([h * dirs for h in steps])
    centre = u[..., None, :]
    stencil = np.concatenate([centre, centre + shifts, centre - shifts], axis=-2)
    vals, jac, hess = chart.jet_eval(stencil)
    jac, hess = jac[..., 0, :, :], hess[..., 0, :, :, :]
    f0 = vals[..., :1, :]
    plus, minus = np.split(vals[..., 1:, :], 2, axis=-2)

    def differences(h, plus, minus):
        """Central differences at step h: B + (2n+2, n) and B + (2n+2, n, n)."""
        first = (plus[..., :n, :] - minus[..., :n, :]) / (2.0 * h)
        second = np.empty(first.shape[:-2] + (n, n, first.shape[-1]))
        second[..., range(n), range(n), :] = (plus[..., :n, :] - 2.0 * f0 + minus[..., :n, :]) / h**2
        plus_sum, plus_diff = np.split(plus[..., n:, :], 2, axis=-2)
        minus_sum, minus_diff = np.split(minus[..., n:, :], 2, axis=-2)
        mixed = (plus_sum - plus_diff - minus_diff + minus_sum) / (4.0 * h**2)
        second[..., si, ti, :] = second[..., ti, si, :] = mixed
        return _t(first), np.moveaxis(second, -1, -3)

    (d1, d2), (d1_half, d2_half) = (differences(h, p, m) for h, p, m in
                                    zip(steps, np.split(plus, 2, axis=-2), np.split(minus, 2, axis=-2)))
    gap1 = np.max(np.abs((4.0 * d1_half - d1) / 3.0 - jac), axis=(-2, -1))
    gap2 = np.max(np.abs((4.0 * d2_half - d2) / 3.0 - hess), axis=(-3, -2, -1))
    if u.ndim == 1:
        return float(gap1), float(gap2)
    return gap1, gap2
