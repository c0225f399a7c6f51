"""Guaranteed per-element interpolation-constant bounds and mesh-wide strategies.

The H1 interpolation constant of a P1 triangle is bounded by Kobayashi's
edge/area formula, which stays sharp on thin triangles.  Mesh-wide constants
come either from element-wise evaluation (sharpest) or from closed forms in
the global quality metrics, among them the minimal-angle form built on Liu's
coefficient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import mesh as meshmod
from .errors import CertifemError, NegativeRadicandError, StrategyInapplicableError
from .geometry import Simplex, _blocks, _unit_scaled, as_batch

LIU_COEFF = 0.49293
MIN_ANGLE_COEFF = 0.69711  # rounds 0.49293 * sqrt(2) upward
# one ulp above math.sqrt, which rounds sqrt(11/60) and sqrt(3/83) down
NONBLUNT_COEFF = math.nextafter(math.sqrt(11.0 / 60.0), math.inf)
L2_COEFF_2D = math.nextafter(math.sqrt(3.0 / 83.0), math.inf)


def _check_coefficients() -> None:
    """Import-time self-test in exact arithmetic: NONBLUNT_COEFF, L2_COEFF_2D
    and MIN_ANGLE_COEFF are at least sqrt(11/60), sqrt(3/83) and sqrt(2)
    LIU_COEFF.  LIU_COEFF is a published decimal, with no expression here
    to check it against."""
    squares = (Fraction(11, 60), Fraction(3, 83), 2 * Fraction(LIU_COEFF) ** 2)
    for coeff, square in zip((NONBLUNT_COEFF, L2_COEFF_2D, MIN_ANGLE_COEFF), squares):
        if Fraction(coeff) ** 2 < square:
            raise CertifemError(f"coefficient {coeff!r} is below the square root of {square}")


_check_coefficients()

STRATEGIES = ("elementwise", "circumradius", "minangle", "nonblunt")


@dataclass(frozen=True)
class GlobalConstants:
    """Mesh-wide H1 constant by several strategies.

    `elementwise` is always at least as sharp as any applicable closed form:
    it is Kobayashi's maximum, and each closed form dominates Kobayashi's
    bound element by element.
    `nonblunt` is None on a mesh with an obtuse triangle, where its
    hypothesis fails.
    """

    elementwise: float
    circumradius: float
    minangle: float
    nonblunt: float | None

    def value(self, strategy: str) -> float:
        if strategy not in STRATEGIES:
            raise StrategyInapplicableError(f"unknown strategy {strategy!r}")
        val = getattr(self, strategy)
        if val is None:
            raise StrategyInapplicableError(f"strategy {strategy!r} not applicable to this mesh")
        return float(val)

    def available(self) -> dict[str, float]:
        return {s: getattr(self, s) for s in STRATEGIES if getattr(self, s) is not None}


def kobayashi_bound_2d(t: Simplex) -> float:
    """Edge/area H1 constant bound; never exceeds the circumradius."""
    meas, edge_sq = as_batch(t)
    return float(_kobayashi_batch_2d(edge_sq, meas)[0])


def global_l2_bound(h: float) -> float:
    """Mesh-wide L2 interpolation constant sqrt(3/83) h^2."""
    return L2_COEFF_2D * h * h


def min_angle_global(theta0: float, h: float) -> float:
    """Closed-form H1 constant from the mesh size and the minimal angle."""
    half = 0.5 * theta0
    return MIN_ANGLE_COEFF * math.cos(half) ** 2 / math.sin(half) * h


# ---------------------------------------------------------------------------
# vectorized element-wise evaluation over a whole mesh


def _positive_radicand(rad: np.ndarray, first: int, q: np.ndarray) -> np.ndarray:
    """`rad`, once every entry is checked > 0 (NaN fails).  Otherwise it
    raises, naming the first failing element by its index plus `first`, and
    its radicand in the original units (`rad` is scaled by 4**-q, `q` the
    length exponents of `_unit_scaled`).  A triangle's radicand is at least
    0.105 times its largest squared edge, so only corrupt input gets here."""
    bad = ~(rad > 0.0)
    if bad.any():
        i = int(np.argmax(bad))
        with np.errstate(over="ignore"):
            value = np.ldexp(rad[i], 2 * q[i])
        raise NegativeRadicandError(f"element {first + i}: radicand {value:.3e} is not positive")
    return rad


def _kobayashi_batch_2d(edge_sq: np.ndarray, area: np.ndarray, first: int = 0) -> np.ndarray:
    q, area, edge_sq = _unit_scaled(area, edge_sq)
    a2, b2, c2 = edge_sq[:, 0], edge_sq[:, 1], edge_sq[:, 2]
    rad = (
        a2 * b2 * c2 / (16.0 * area * area)
        - (a2 + b2 + c2) / 30.0
        - (area * area / 5.0) * (1.0 / a2 + 1.0 / b2 + 1.0 / c2)
    )
    return np.ldexp(np.sqrt(_positive_radicand(rad, first, q)), q)


def _kobayashi_maximum(mesh: meshmod.SimplicialMesh) -> float:
    """The element maximum of Kobayashi's bound: the 2D `elementwise`
    constant, which `disk2d`'s prediction reads as A_m, one pass per mesh,
    cached.  It walks one block of elements at a time (`_blocks`; a bad
    radicand is named by its element index) over the mesh's measures and
    squared edges: bit for bit the whole-array maximum, with (block, 3)
    temporaries, not (M, 3) ones."""

    def build(mesh):
        meas, edge_sq = mesh.measures, mesh.edge_sq
        blocks = _blocks(mesh.element_count)
        return max(float(_kobayashi_batch_2d(edge_sq[rows], meas[rows], rows.start).max()) for rows in blocks)

    return meshmod._cached(mesh, "kobayashi_maximum", build)


def mesh_constants(mesh: meshmod.SimplicialMesh, qual: meshmod.MeshQuality | None = None) -> GlobalConstants:
    """Mesh-wide constants: element-wise maximum plus all closed forms."""
    if qual is None:
        qual = meshmod.quality(mesh)
    return GlobalConstants(
        elementwise=_kobayashi_maximum(mesh),
        circumradius=qual.max_circumradius,
        minangle=min_angle_global(qual.min_angle, qual.h),
        nonblunt=NONBLUNT_COEFF * qual.h if qual.nonblunt else None,
    )
