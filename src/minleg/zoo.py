"""Reference immersions with known second-fundamental-form data.

Each ZooEntry stores one exact value, the spectrum of the fundamental matrix
as rationals, and derives from it the |B|^2, the pinching quantity
|B|^2 + lambda_2 and the Gauss-map rank that the checks compare against.
A provenance label per value says where it comes from: "literature" for
numbers stated in the published literature, "construction" for numbers
forced by the construction itself, "numeric" for values found by an
independent numerical oracle.

* geodesic sphere: the totally geodesic S^n of real points, sigma == 0.
* Calabi product over a minimal Legendrian psi: M^(n-1) -> S^(2n-1): a
  closed planar curve times psi, with spectrum {n-1} together with
  ((n+1) lambda + 2)/n for each lambda of psi.  Over the round S^(n-1) it
  is the Calabi torus S^1 x S^(n-1), flat only at n = 2, with spectrum
  (n-1, 2/n, ..., 2/n) and scalar curvature (n-1)(n-2)(n+1)/n.
* equivariant S^3: the degree-3 equivariant minimal Legendrian S^3 in S^7
  with |B|^2 = 16/3, spectrum (8/3, 8/3, 0), Gauss rank 2.
* flat Legendrian torus T^n in S^(2n+1), every lambda_i = n - 1; at n = 2
  it is congruent to the Calabi torus.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import MinlegError, jets
from .geometry import ImmersionChart, Interval

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class ZooEntry:
    """A chart with its known answers.

    `spectrum` is the one stored value: the eigenvalues of the fundamental
    matrix, constant over the chart, as exact rationals in descending order.
    The values the checks compare against are derived from it when the entry
    is built and rounded to floats once: `lambdas` (the spectrum), `normB2`
    (its sum, |B|^2), `pinch` (|B|^2 + lambda_2) and `gauss_rank` (the count
    of nonzero lambdas).
    """

    chart: ImmersionChart
    spectrum: tuple
    value_tol: float
    provenance: dict
    notes: str
    simons_tol: float = 1e-10
    simons_hard: bool = True
    lambdas: tuple = field(init=False)
    normB2: float = field(init=False)
    pinch: float = field(init=False)
    gauss_rank: int = field(init=False)

    def __post_init__(self):
        spec = self.spectrum
        norm_b2 = sum(spec)
        derived = {
            "lambdas": tuple(map(float, spec)),
            "normB2": float(norm_b2),
            "pinch": float(norm_b2 + sum(spec[1:2])),  # a curve has no lambda_2
            "gauss_rank": sum(1 for lam in spec if lam),
        }
        for name, value in derived.items():
            object.__setattr__(self, name, value)

    @property
    def name(self) -> str:
        return self.chart.name


def _sphere_components(angles):
    """Components of the standard round-sphere chart: k angles -> k+1 reals."""
    comps = []
    prefix = 1.0
    for ang in angles:
        comps.append(prefix * jets.cos(ang))
        prefix = prefix * jets.sin(ang)
    comps.append(prefix)
    return comps


def _round_sphere(k: int) -> ZooEntry:
    """The real points of the unit sphere of C^{k+1}, for any k >= 1."""
    domain = [Interval(0.0, math.pi) for _ in range(k - 1)] + [Interval(0.0, TWO_PI, periodic=True)]
    return ZooEntry(
        chart=ImmersionChart(f"geodesic-sphere-n{k}", k, domain, _sphere_components, closed=True),
        spectrum=(Fraction(0),) * k,
        value_tol=1e-10,
        provenance={"normB2": "construction", "lambdas": "construction", "pinch": "literature",
                    "gauss_rank": "literature"},
        notes="sigma vanishes identically: second derivatives stay in the real "
              "subspace, which J maps into its orthogonal complement",
    )


def geodesic_sphere(n: int = 3) -> ZooEntry:
    """Totally geodesic S^n: real points of the unit sphere of C^{n+1}."""
    if n < 2:
        raise ValueError("need n >= 2")
    return _round_sphere(n)


def calabi_product(psi: ZooEntry, name: str | None = None, provenance: dict | None = None,
                   notes: str = "Calabi product: a closed planar curve times psi") -> ZooEntry:
    """The Calabi product over a minimal Legendrian psi: M^(n-1) -> S^(2n-1).

    F(x, t) = (gamma_1(t) psi(x), gamma_2(t)) with
    gamma_1 = sqrt(n/(n+1)) e^{i t / sqrt(n)}, gamma_2 = sqrt(1/(n+1)) e^{-i sqrt(n) t};
    t has period 2 pi sqrt(n).  The spectrum is {n-1} together with
    ((n+1) lambda + 2)/n for each lambda of psi; the name defaults to
    "calabi-over-<psi>" and every provenance label to "numeric".
    """
    n = psi.chart.dim + 1
    c1, c2 = math.sqrt(n / (n + 1.0)), math.sqrt(1.0 / (n + 1.0))
    w1, w2 = 1.0 / math.sqrt(n), -math.sqrt(n)

    def fn(coords):
        t = coords[-1]
        g1 = c1 * jets.cis(t * w1)
        g2 = c2 * jets.cis(t * w2)
        return [g1 * p for p in psi.chart.components(coords[:-1])] + [g2]

    domain = [*psi.chart.domain, Interval(0.0, TWO_PI * math.sqrt(n), periodic=True)]
    spectrum = sorted([Fraction(n - 1)] + [((n + 1) * lam + 2) / n for lam in psi.spectrum], reverse=True)
    return ZooEntry(
        chart=ImmersionChart(name or f"calabi-over-{psi.name}", n, domain, fn, closed=True),
        spectrum=tuple(spectrum),
        value_tol=max(psi.value_tol, 1e-9),
        provenance=provenance or dict.fromkeys(psi.provenance, "numeric"),
        notes=notes,
        simons_tol=psi.simons_tol,
        simons_hard=psi.simons_hard,
    )


def calabi_torus(n: int = 3) -> ZooEntry:
    """Minimal Legendrian S^1 x S^(n-1), flat only at n = 2: the Calabi
    product over the round (n-1)-sphere."""
    if n < 2:
        raise ValueError("need n >= 2")
    return calabi_product(
        _round_sphere(n - 1),
        name=f"calabi-n{n}",
        provenance={"normB2": "literature", "lambdas": "literature", "pinch": "literature",
                    "gauss_rank": "numeric"},
        notes="parallel cubic form; the equality case of the pinching bound "
              "|B|^2 + lambda_2 <= n + 1",
    )


def calabi_sigma_closed_form(n: int) -> np.ndarray:
    """The cubic form of the Calabi torus in its adapted frame.

    sigma_111 = (n-1)/sqrt(n), sigma_1ll = -1/sqrt(n) for l >= 2, fully
    symmetric, all other entries zero.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    lam = 1.0 / math.sqrt(n)
    sigma = np.zeros((n, n, n))
    sigma[0, 0, 0] = (n - 1.0) * lam
    for l in range(1, n):
        sigma[0, l, l] = sigma[l, 0, l] = sigma[l, l, 0] = -lam
    return sigma


ROOT3 = math.sqrt(3.0)
HALF_ROOT3 = ROOT3 / 2.0


def equivariant_sphere3() -> ZooEntry:
    """The degree-3 equivariant minimal Legendrian S^3 in the unit S^7.

    On |z|^2 + |w|^2 = 1 the map

        2 F = (z^3 + 3 z wb^2,
               sqrt(3) (z^2 w + w wb^2 - 2 z zb wb),
               sqrt(3) (z w^2 + z zb^2 - 2 w zb wb),
               w^3 + 3 w zb^2)

    has constant norm 2 (e.g. |2F(1,0)| = 2), so the stored chart divides by
    two.  Coordinates: z = cos(a) e^{ib}, w = sin(a) e^{ic}.  With z zb = cos^2 a
    and w wb = sin^2 a the stored components are

        F = (z (z^2/2 + 3 wb^2/2),
             (sqrt(3)/2) (z^2 w + (sin^2 a - 2 cos^2 a) wb),
             (sqrt(3)/2) (w^2 z + (cos^2 a - 2 sin^2 a) zb),
             w (w^2/2 + 3 zb^2/2)),

    and on an open mesh each takes one product over the whole (a, b, c) grid;
    every other factor lives on the (a, b) or (a, c) plane.
    """

    def fn(coords):
        a, b, c = coords
        ca, sa = jets.cos(a), jets.sin(a)
        cos2, sin2 = ca * ca, sa * sa
        z = ca * jets.cis(b)
        w = sa * jets.cis(c)
        zb = jets.conj(z)
        wb = jets.conj(w)
        zz, ww = z * z, w * w
        return [z * (0.5 * zz + 1.5 * (wb * wb)),
                (HALF_ROOT3 * zz) * w + (HALF_ROOT3 * (sin2 - 2.0 * cos2)) * wb,
                (HALF_ROOT3 * ww) * z + (HALF_ROOT3 * (cos2 - 2.0 * sin2)) * zb,
                w * (0.5 * ww + 1.5 * (zb * zb))]

    domain = [
        Interval(0.0, math.pi / 2.0),
        Interval(0.0, TWO_PI, periodic=True),
        Interval(0.0, TWO_PI, periodic=True),
    ]
    return ZooEntry(
        chart=ImmersionChart("equivariant-s3", 3, domain, fn, closed=True),
        spectrum=(Fraction(8, 3), Fraction(8, 3), Fraction(0)),
        value_tol=1e-8,
        provenance={"normB2": "literature", "lambdas": "literature", "pinch": "literature",
                    "gauss_rank": "literature"},
        notes="borderline case |B|^2 + lambda_2 = 8 = 2(n + 1); the cubic form "
              "is not parallel (identity residual near 6), so the residual is "
              "reported for inspection rather than asserted",
        simons_tol=1e-8,
        simons_hard=False,
    )


def flat_torus(n: int = 2) -> ZooEntry:
    """Flat Legendrian T^n in S^(2n+1):
    (e^{i t_1}, ..., e^{i t_n}, e^{-i(t_1 + ... + t_n)}) / sqrt(n+1).
    At n = 2 it is named "flat-torus"."""
    if n < 2:
        raise ValueError("need n >= 2")
    s = 1.0 / math.sqrt(n + 1.0)

    def fn(coords):
        return [s * jets.cis(t) for t in coords] + [s * jets.cis(-sum(coords[1:], coords[0]))]

    return ZooEntry(
        chart=ImmersionChart("flat-torus" if n == 2 else f"flat-torus-n{n}", n,
                             [Interval(0.0, TWO_PI, periodic=True)] * n, fn, closed=True),
        spectrum=(Fraction(n - 1),) * n,
        value_tol=1e-9,
        provenance={"normB2": "literature", "lambdas": "numeric", "pinch": "numeric",
                    "gauss_rank": "numeric"},
        notes="flat, every lambda_i = n - 1; at n = 2 the unique flat surface "
              "case, congruent to the n = 2 Calabi torus",
    )


# ---- registry ---------------------------------------------------------------


class UnknownExampleError(MinlegError, ValueError):
    exit_code = 2

    def __init__(self, name: str):
        self.available = sorted(BUILDERS)
        super().__init__(f"unknown example {name!r}; available: {', '.join(self.available)}")


BUILDERS = {
    "geodesic-sphere": geodesic_sphere,
    "calabi": calabi_torus,
    "equivariant-s3": equivariant_sphere3,
    "flat-torus": flat_torus,
}

PARAMETRIC = {"geodesic-sphere", "calabi", "flat-torus"}


def get_entry(name: str, n: int | None = None) -> ZooEntry:
    """The entry a builder makes at dimension n, or at its own default
    dimension when n is None.  A name outside PARAMETRIC (only
    equivariant-s3) refuses an n: it "does not take a dimension"."""
    if name not in BUILDERS:
        raise UnknownExampleError(name)
    if n is not None and name not in PARAMETRIC:
        raise ValueError(f"example {name!r} does not take a dimension")
    return BUILDERS[name]() if n is None else BUILDERS[name](n)


def default_entries() -> list[ZooEntry]:
    """The fixed roster exercised by the verification suite."""
    return [
        geodesic_sphere(3),
        calabi_torus(2),
        calabi_torus(3),
        calabi_torus(4),
        equivariant_sphere3(),
        flat_torus(),
    ]
