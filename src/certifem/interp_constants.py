"""Guaranteed per-element interpolation-constant bounds and mesh-wide strategies.

Two families of certified upper bounds for the H1 interpolation constant of
a P1 element are provided: an angle-based formula (Liu) evaluated at every
interior angle, and an edge/area formula (Kobayashi) that stays sharp on
thin triangles.  A tetrahedral bound covers 3D.  Mesh-wide constants come
either from element-wise evaluation (sharpest) or from closed forms in the
global quality metrics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import mesh as meshmod
from .errors import NegativeRadicandError, StrategyInapplicableError
from .geometry import (
    Simplex,
    _blocks,
    as_batch,
    edge_cosines,
    vertex_metrics,
)

LIU_COEFF = 0.49293
MIN_ANGLE_COEFF = 0.69711  # rounds 0.49293 * sqrt(2) upward
NONBLUNT_COEFF = math.sqrt(11.0 / 60.0)
TET_COEFF = 2.19
L2_COEFF_2D = math.sqrt(3.0 / 83.0)
L2_COEFF_3D = 8.0

RADICAND_TOL = 1e-12

STRATEGIES = ("elementwise", "circumradius", "minangle", "nonblunt", "regularity")


@dataclass(frozen=True)
class GlobalConstants:
    """Mesh-wide H1 constant by several strategies plus the global L2 bound.

    `elementwise` is always at least as sharp as any applicable closed form.
    Closed-form fields are None when their hypothesis fails (e.g. `nonblunt`
    on a mesh with an obtuse triangle, `minangle` when a needle's smallest
    angle rounds to 0) or the dimension does not match.
    """

    dim: int
    elementwise: float
    circumradius: float | None
    minangle: float | None
    nonblunt: float | None
    regularity: float | None
    l2_global: float

    def value(self, strategy: str) -> float:
        if strategy not in STRATEGIES:
            raise StrategyInapplicableError(f"unknown strategy {strategy!r}")
        val = getattr(self, strategy)
        if val is None:
            raise StrategyInapplicableError(f"strategy {strategy!r} not applicable to this mesh")
        return float(val)

    def available(self) -> dict[str, float]:
        return {s: getattr(self, s) for s in STRATEGIES if getattr(self, s) is not None}


def liu_bound(t: Simplex) -> float:
    """Angle-based H1 constant bound, minimized over the three interior angles.

    The formula is valid at any interior angle with its two adjacent edges,
    so the minimum is still a certified upper bound.
    """
    if t.dim != 2:
        raise ValueError("liu_bound applies to triangles")
    return float(_liu_batch(as_batch(t)[2])[0])


def kobayashi_bound_2d(t: Simplex) -> float:
    """Edge/area H1 constant bound; never exceeds the circumradius."""
    if t.dim != 2:
        raise ValueError("kobayashi_bound_2d applies to triangles")
    _, meas, edge_sq = as_batch(t)
    return float(_kobayashi_batch_2d(edge_sq, meas)[0])


def kobayashi_bound_3d(t: Simplex) -> float:
    """Tetrahedral H1 constant bound 2.19 * h_T^2 / rho(T), with rho(T) the
    inradius of T: of the two readings of rho, inscribed-ball radius and
    diameter, the radius gives the larger, conservative bound."""
    if t.dim != 3:
        raise ValueError("kobayashi_bound_3d applies to tetrahedra")
    return float(_kobayashi_batch_3d(vertex_metrics(*as_batch(t)))[0])


def global_l2_bound(dim: int, h: float) -> float:
    """Mesh-wide L2 interpolation constant: sqrt(3/83) h^2 (2D) or 8 h^2 (3D)."""
    if dim == 2:
        return L2_COEFF_2D * h * h
    if dim == 3:
        return L2_COEFF_3D * h * h
    raise ValueError(f"unsupported dimension {dim}")


def min_angle_global(theta0: float, h: float) -> float:
    """Closed-form H1 constant from the mesh size and the minimal angle."""
    half = 0.5 * theta0
    return MIN_ANGLE_COEFF * math.cos(half) ** 2 / math.sin(half) * h


# ---------------------------------------------------------------------------
# vectorized element-wise evaluation over a whole mesh


def _unit_scaled(edge_sq: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(q, edge_sq * 4**-q, largest * 4**-q) with, per element, the q for
    which its largest squared edge times 4**-q lies in [0.5, 2).  Scaling
    lengths by 2**-q is exact, so the Liu and Kobayashi kernels below run on
    unit-sized elements, whose fourth and sixth powers of edge lengths cannot
    overflow, and give their result times 2**-q: bit for bit, on any element
    whose unscaled terms stay normal numbers.  The largest edge is taken
    column by column (numpy's max over a short row is slow)."""
    largest = np.maximum(np.maximum(edge_sq[:, 0], edge_sq[:, 1]), edge_sq[:, 2])
    q = np.frexp(largest)[1] // 2
    return q, np.ldexp(edge_sq, -2 * q[:, None]), np.ldexp(largest, -2 * q)


def _liu_batch(edge_sq: np.ndarray, scaled: tuple | None = None) -> np.ndarray:
    """Min-over-angles Liu bound per element from squared edge lengths;
    `scaled` is `_unit_scaled(edge_sq)` where the caller has it.

    Column j of edge_sq is the squared length opposite vertex j, so the
    angle at vertex j has adjacent squared lengths in the other columns.
    """
    q, edge_sq, _ = scaled or _unit_scaled(edge_sq)
    cos_t = np.clip(edge_cosines(edge_sq), -1.0, 1.0)
    a2, b2 = edge_sq[:, [1, 2, 0]], edge_sq[:, [2, 0, 1]]
    sin_t = np.sqrt(1.0 - cos_t**2)
    cos_2t = 2.0 * cos_t**2 - 1.0
    inner = np.sqrt(np.maximum(a2 * a2 + 2.0 * a2 * b2 * cos_2t + b2 * b2, 0.0))
    radical = np.sqrt((a2 + b2 + inner) / 2.0)
    # a needle can round sin_t to 0: that angle's bound is +inf, not a warning
    ratio = np.divide(LIU_COEFF * (1.0 + np.abs(cos_t)), sin_t, out=np.full_like(sin_t, np.inf), where=sin_t > 0)
    return np.ldexp((ratio * radical).min(axis=1), q)


def _clamp_radicand(rad, scale, first: int, q):
    """`rad` clamped at 0; raises where it is below -RADICAND_TOL * max(1, scale),
    naming the element by its index plus `first`.  `rad` and `scale` are in
    units scaled by 4**-q (`q` the length exponents of `_unit_scaled`), and
    so is the 1; the error reports the radicand in the original units."""
    if np.any(rad < -RADICAND_TOL * np.maximum(np.ldexp(1.0, -2 * q), scale)):
        with np.errstate(over="ignore"):
            rad = np.ldexp(rad, 2 * q)
        worst = first + int(np.argmin(rad))
        raise NegativeRadicandError(f"element {worst}: radicand {np.min(rad):.3e} negative beyond tolerance")
    return np.maximum(rad, 0.0)


def _kobayashi_batch_2d(edge_sq: np.ndarray, area: np.ndarray, first: int = 0, scaled: tuple | None = None) -> np.ndarray:
    q, edge_sq, largest = scaled or _unit_scaled(edge_sq)
    area = np.ldexp(area, -2 * q)
    a2, b2, c2 = edge_sq[:, 0], edge_sq[:, 1], edge_sq[:, 2]
    rad = (
        a2 * b2 * c2 / (16.0 * area * area)
        - (a2 + b2 + c2) / 30.0
        - (area * area / 5.0) * (1.0 / a2 + 1.0 / b2 + 1.0 / c2)
    )
    return np.ldexp(np.sqrt(_clamp_radicand(rad, largest, first, q)), q)


def _liu_kobayashi_maxima(mesh: meshmod.SimplicialMesh) -> tuple[float, float]:
    """The element maxima of min(Liu, Kobayashi), the `elementwise` constant,
    and of Kobayashi, `disk_study_row`'s A_m: one pass per 2D mesh, shared.
    It walks one block of elements at a time (`_blocks`; a bad radicand is
    named by its element index) over the measures and squared edges that
    `build_mesh` caches: bit for bit the whole-array maxima, with (block, 3)
    temporaries, not (M, 3) ones (~44 MB for the Liu kernel on a
    204,800-element mesh)."""

    def build(mesh):
        meas, edge_sq, maxima = meshmod._measures(mesh), mesh._cache["edge_sq"], []
        for rows in _blocks(mesh.element_count):
            scaled = _unit_scaled(edge_sq[rows])
            kob = _kobayashi_batch_2d(edge_sq[rows], meas[rows], rows.start, scaled)
            maxima.append((np.minimum(_liu_batch(edge_sq[rows], scaled), kob).max(), kob.max()))
        return tuple(map(float, np.max(maxima, axis=0)))

    return meshmod._cached(mesh, "liu_kobayashi_maxima", build)


def _kobayashi_batch_3d(em: meshmod.ElementMetrics) -> np.ndarray:
    # (h / rho) * h, not h**2 / rho: rounded products are monotone, so the
    # closed form TET_COEFF * max(h / rho) * max(h) dominates every element
    return TET_COEFF * (em.h / em.inradius) * em.h


def mesh_constants(mesh: meshmod.SimplicialMesh, qual: meshmod.MeshQuality | None = None) -> GlobalConstants:
    """Mesh-wide constants: element-wise maximum plus all closed forms."""
    if qual is None:
        qual = meshmod.quality(mesh)
    if mesh.dim == 2:
        return GlobalConstants(
            dim=2,
            elementwise=_liu_kobayashi_maxima(mesh)[0],
            circumradius=qual.max_circumradius,
            minangle=min_angle_global(qual.min_angle, qual.h) if qual.min_angle > 0.0 else None,
            nonblunt=NONBLUNT_COEFF * qual.h if qual.nonblunt else None,
            regularity=None,
            l2_global=global_l2_bound(2, qual.h),
        )
    # the maxima of h / rho and of the bound per block, then over the blocks
    maxima = [((em.h / em.inradius).max(), _kobayashi_batch_3d(em).max()) for em in meshmod._metric_blocks(mesh)]
    sigma_conv, elementwise = map(float, np.max(maxima, axis=0))
    return GlobalConstants(
        dim=3,
        elementwise=elementwise,
        circumradius=None,
        minangle=None,
        nonblunt=None,
        regularity=TET_COEFF * sigma_conv * qual.h,
        l2_global=global_l2_bound(3, qual.h),
    )

