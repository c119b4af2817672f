"""Reference immersions with known second-fundamental-form data.

Four families, each wrapped in a ZooEntry carrying the expected spectrum of
the fundamental matrix, |B|^2, the pinching quantity |B|^2 + lambda_2, the
Gauss-map rank and the scalar curvature, together with a provenance label
per value: "literature" for numbers stated in the published literature,
"construction" for numbers forced by the construction itself, "numeric" for
frozen values of an independent numerical oracle.

* geodesic sphere: the totally geodesic S^n of real points, sigma == 0.
* Calabi torus: minimal Legendrian S^1 x S^(n-1), flat only at n = 2, built
  from a closed planar curve times a round (n-1)-sphere; fundamental spectrum
  (n-1, 2/n, ..., 2/n) and scalar curvature (n-1)(n-2)(n+1)/n.
* equivariant S^3: the degree-3 equivariant minimal Legendrian S^3 in S^7
  with |B|^2 = 16/3, spectrum (8/3, 8/3, 0), Gauss rank 2.
* flat Legendrian torus: the Clifford-style n=2 torus with |B|^2 = 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import MinlegError, jets
from .geometry import ImmersionChart, Interval

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class ZooEntry:
    chart: ImmersionChart
    normB2: float
    lambdas: tuple
    pinch: float
    gauss_rank: int
    scalar: float
    value_tol: float
    provenance: dict
    notes: str
    simons_tol: float | None = 1e-10
    simons_hard: bool = True

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


def _sphere_domain(k: int) -> list[Interval]:
    if k == 1:
        return [Interval(0.0, TWO_PI, periodic=True)]
    return [Interval(0.0, math.pi) for _ in range(k - 1)] + [Interval(0.0, TWO_PI, periodic=True)]


def geodesic_sphere(n: int = 3) -> ZooEntry:
    """Totally geodesic S^n: real points of the unit sphere of C^{n+1}."""
    if n < 2:
        raise ValueError("need n >= 2")
    chart = ImmersionChart(
        name=f"geodesic-sphere-n{n}",
        dim=n,
        domain=_sphere_domain(n),
        component_fn=_sphere_components,
        closed=True,
    )
    return ZooEntry(
        chart=chart,
        normB2=0.0,
        lambdas=tuple(0.0 for _ in range(n)),
        pinch=0.0,
        gauss_rank=0,
        scalar=float(n * (n - 1)),
        value_tol=1e-10,
        provenance={"normB2": "construction", "lambdas": "construction", "pinch": "literature",
                    "gauss_rank": "literature", "scalar": "construction"},
        notes="sigma vanishes identically: second derivatives stay in the real "
              "subspace, which J maps into its orthogonal complement",
    )


def calabi_torus(n: int = 3) -> ZooEntry:
    """Minimal Legendrian S^1 x S^(n-1), flat only at n = 2: gamma(t) times a
    round (n-1)-sphere.

    F(x, t) = (gamma_1(t) phi(x), gamma_2(t)) with
    gamma_1 = sqrt(n/(n+1)) e^{i t / sqrt(n)}, gamma_2 = sqrt(1/(n+1)) e^{-i sqrt(n) t},
    phi the unit (n-1)-sphere chart; t has period 2 pi sqrt(n).
    """
    if n < 2:
        raise ValueError("need n >= 2")
    c1 = math.sqrt(n / (n + 1.0))
    c2 = math.sqrt(1.0 / (n + 1.0))
    w1 = 1.0 / math.sqrt(n)
    w2 = -math.sqrt(n)

    def fn(coords):
        t = coords[-1]
        phi = _sphere_components(coords[:-1])
        g1 = c1 * jets.cis(t * w1)
        g2 = c2 * jets.cis(t * w2)
        return [g1 * p for p in phi] + [g2]

    domain = _sphere_domain(n - 1) + [Interval(0.0, TWO_PI * math.sqrt(n), periodic=True)]
    norm_b2 = (n - 1.0) * (n + 2.0) / n
    return ZooEntry(
        chart=ImmersionChart(f"calabi-n{n}", n, domain, fn, closed=True),
        normB2=norm_b2,
        lambdas=(float(n - 1),) + tuple(2.0 / n for _ in range(n - 1)),
        pinch=float(n + 1),
        gauss_rank=n,
        scalar=n * (n - 1.0) - norm_b2,
        value_tol=1e-9,
        provenance={"normB2": "literature", "lambdas": "literature", "pinch": "literature",
                    "gauss_rank": "numeric", "scalar": "literature"},
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


def equivariant_sphere3() -> ZooEntry:
    """The degree-3 equivariant minimal Legendrian S^3 in the unit S^7.

    On |z|^2 + |w|^2 = 1 the map

        2 F = (z^3 + 3 z wb^2,
               sqrt(3) (z^2 w + w wb^2 - 2 z zb wb),
               sqrt(3) (z w^2 + z zb^2 - 2 w zb wb),
               w^3 + 3 w zb^2)

    has constant norm 2 (e.g. |2F(1,0)| = 2), so the stored chart divides by
    two.  Coordinates: z = cos(a) e^{ib}, w = sin(a) e^{ic}.
    """

    def fn(coords):
        a, b, c = coords
        z = jets.cos(a) * jets.cis(b)
        w = jets.sin(a) * jets.cis(c)
        zb = jets.conj(z)
        wb = jets.conj(w)
        zz, ww, wbwb, zbzb, zbwb = z * z, w * w, wb * wb, zb * zb, zb * wb
        p1 = zz * z + 3.0 * (z * wbwb)
        p2 = ROOT3 * (zz * w + w * wbwb - 2.0 * (z * zbwb))
        p3 = ROOT3 * (z * ww + z * zbzb - 2.0 * (w * zbwb))
        p4 = ww * w + 3.0 * (w * zbzb)
        return [0.5 * p1, 0.5 * p2, 0.5 * p3, 0.5 * p4]

    domain = [
        Interval(0.0, math.pi / 2.0),
        Interval(0.0, TWO_PI, periodic=True),
        Interval(0.0, TWO_PI, periodic=True),
    ]
    return ZooEntry(
        chart=ImmersionChart("equivariant-s3", 3, domain, fn, closed=True),
        normB2=16.0 / 3.0,
        lambdas=(8.0 / 3.0, 8.0 / 3.0, 0.0),
        pinch=8.0,
        gauss_rank=2,
        scalar=2.0 / 3.0,
        value_tol=1e-8,
        provenance={"normB2": "literature", "lambdas": "literature", "pinch": "literature",
                    "gauss_rank": "literature", "scalar": "literature"},
        notes="borderline case |B|^2 + lambda_2 = 8 = 2(n + 1); the cubic form "
              "is not parallel (identity residual near 6), so the residual is "
              "reported for inspection rather than asserted",
        simons_tol=1e-8,
        simons_hard=False,
    )


def flat_legendrian_torus() -> ZooEntry:
    """n = 2 flat torus (e^{i t1}, e^{i t2}, e^{-i(t1 + t2)}) / sqrt(3)."""
    s = 1.0 / ROOT3

    def fn(coords):
        t1, t2 = coords
        return [s * jets.cis(t1), s * jets.cis(t2), s * jets.cis(-(t1 + t2))]

    domain = [Interval(0.0, TWO_PI, periodic=True), Interval(0.0, TWO_PI, periodic=True)]
    return ZooEntry(
        chart=ImmersionChart("flat-torus", 2, domain, fn, closed=True),
        normB2=2.0,
        lambdas=(1.0, 1.0),
        pinch=3.0,
        gauss_rank=2,
        scalar=0.0,
        value_tol=1e-9,
        provenance={"normB2": "literature", "lambdas": "numeric", "pinch": "numeric",
                    "gauss_rank": "numeric", "scalar": "literature"},
        notes="the unique flat surface case in dimension two; congruent to the "
              "n = 2 Calabi torus",
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
    "flat-torus": flat_legendrian_torus,
}

PARAMETRIC = {"geodesic-sphere", "calabi"}


def get_entry(name: str, n: int | None = None) -> ZooEntry:
    if name not in BUILDERS:
        raise UnknownExampleError(name)
    if name in PARAMETRIC:
        return BUILDERS[name](3 if n is None else n)
    if n is not None:
        raise ValueError(f"example {name!r} does not take a dimension")
    return BUILDERS[name]()


def default_entries() -> list[ZooEntry]:
    """The fixed roster exercised by the verification suite."""
    return [
        geodesic_sphere(3),
        calabi_torus(2),
        calabi_torus(3),
        calabi_torus(4),
        equivariant_sphere3(),
        flat_legendrian_torus(),
    ]
