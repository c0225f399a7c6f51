"""Guaranteed per-element interpolation-constant bounds and mesh-wide strategies.

Two families of certified upper bounds for the H1 interpolation constant of
a P1 element are provided: an angle-based formula (Liu) evaluated at every
interior angle, and an edge/area formula (Kobayashi) that stays sharp on
thin triangles.  A tetrahedral bound covers 3D.  Mesh-wide constants come
either from element-wise evaluation (sharpest) or from closed forms in the
global quality metrics.  A dense generalized eigen-solve yields *lower*
bounds, used to sanity-check the upper bounds in tests.  They are certified
in exact arithmetic; in floating point their error grows with the triangle's
conditioning, so tests apply them to triangles with angles >= 5 degrees or
area >= 1e-3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh

from . import mesh as meshmod
from .errors import (
    ConstraintRankError,
    NegativeRadicandError,
    StrategyInapplicableError,
)
from .geometry import (
    Simplex,
    as_batch,
    edge_cosines,
    edge_lengths,
    vertex_metrics,
)
from .quadrature import reference_monomial_integral

LIU_COEFF = 0.49293
MIN_ANGLE_COEFF = 0.69711  # rounds 0.49293 * sqrt(2) upward
NONBLUNT_COEFF = math.sqrt(11.0 / 60.0)
TET_COEFF = 2.19
L2_COEFF_2D = math.sqrt(3.0 / 83.0)
L2_COEFF_3D = 8.0

RADICAND_TOL = 1e-12

STRATEGIES = ("elementwise", "circumradius", "minangle", "nonblunt", "regularity")


@dataclass(frozen=True)
class ElementConstants:
    """Per-element upper bounds; `h1_best` is the minimum of the available ones."""

    h1_liu: float | None
    h1_kobayashi: float
    h1_best: float
    l2_bound: float


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
    rho_convention: str = "radius"

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


def kobayashi_bound_3d(t: Simplex, rho_convention: str = "radius") -> float:
    """Tetrahedral H1 constant bound 2.19 * h_T^2 / rho(T).

    `rho_convention` selects the inscribed-ball quantity used for rho(T):
    "radius" (default, conservative: the larger bound) or "diameter".
    """
    if t.dim != 3:
        raise ValueError("kobayashi_bound_3d applies to tetrahedra")
    return float(_kobayashi_batch_3d(vertex_metrics(*as_batch(t)[:2]), rho_convention)[0])


def _rho(inr, convention: str):
    if convention == "radius":
        return inr
    if convention == "diameter":
        return 2.0 * inr
    raise ValueError(f"unknown rho convention {convention!r}")


def element_constants(t: Simplex, rho_convention: str = "radius") -> ElementConstants:
    l2 = global_l2_bound(t.dim, edge_lengths(t)[0])
    if t.dim == 2:
        liu, kob = liu_bound(t), kobayashi_bound_2d(t)
        return ElementConstants(liu, kob, min(liu, kob), l2)
    kob = kobayashi_bound_3d(t, rho_convention)
    return ElementConstants(None, kob, kob, l2)


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


def nonblunt_profile_bound(a: float, b: float) -> float:
    """Intermediate bound for the normalized non-obtuse triangle with apex (a, b).

    Valid for the triangle with base from (-1/2,0) to (1/2,0) and apex (a, b)
    inside the constraint region of non-obtuse triangles with unit longest
    edge; its supremum over that region equals sqrt(11/60).
    """
    return math.sqrt(b * b / 30.0 + 11.0 * a * a / 60.0 + 11.0 / 80.0)


# ---------------------------------------------------------------------------
# vectorized element-wise evaluation over a whole mesh


def _liu_batch(edge_sq: np.ndarray) -> np.ndarray:
    """Min-over-angles Liu bound per element from squared edge lengths.

    Column j of edge_sq is the squared length opposite vertex j, so the
    angle at vertex j has adjacent squared lengths in the other columns.
    """
    cos_t = np.clip(edge_cosines(edge_sq), -1.0, 1.0)
    a2, b2 = edge_sq[:, [1, 2, 0]], edge_sq[:, [2, 0, 1]]
    sin_t = np.sqrt(1.0 - cos_t**2)
    cos_2t = 2.0 * cos_t**2 - 1.0
    inner = np.sqrt(np.maximum(a2 * a2 + 2.0 * a2 * b2 * cos_2t + b2 * b2, 0.0))
    radical = np.sqrt((a2 + b2 + inner) / 2.0)
    # a needle can round sin_t to 0: that angle's bound is +inf, not a warning
    ratio = np.divide(LIU_COEFF * (1.0 + np.abs(cos_t)), sin_t, out=np.full_like(sin_t, np.inf), where=sin_t > 0)
    return (ratio * radical).min(axis=1)


def _clamp_radicand(rad, scale):
    """`rad` clamped at 0; raises where it is below -RADICAND_TOL * max(1, scale)."""
    if np.any(rad < -RADICAND_TOL * np.maximum(1.0, scale)):
        worst = int(np.argmin(rad))
        raise NegativeRadicandError(f"element {worst}: radicand {np.min(rad):.3e} negative beyond tolerance")
    return np.maximum(rad, 0.0)


def _kobayashi_batch_2d(edge_sq: np.ndarray, area: np.ndarray) -> np.ndarray:
    a2, b2, c2 = edge_sq[:, 0], edge_sq[:, 1], edge_sq[:, 2]
    rad = (
        a2 * b2 * c2 / (16.0 * area * area)
        - (a2 + b2 + c2) / 30.0
        - (area * area / 5.0) * (1.0 / a2 + 1.0 / b2 + 1.0 / c2)
    )
    return np.sqrt(_clamp_radicand(rad, edge_sq.max(axis=1)))


def _kobayashi_batch_3d(em: meshmod.ElementMetrics, rho_convention: str) -> np.ndarray:
    # (h / rho) * h, not h**2 / rho: rounded products are monotone, so the
    # closed form TET_COEFF * max(h / rho) * max(h) dominates every element
    return TET_COEFF * (em.h / _rho(em.inradius, rho_convention)) * em.h


def mesh_constants(
    mesh: meshmod.SimplicialMesh,
    qual: meshmod.MeshQuality | None = None,
    rho_convention: str = "radius",
) -> GlobalConstants:
    """Mesh-wide constants: element-wise maximum plus all closed forms."""
    if qual is None:
        qual = meshmod.quality(mesh)
    em = meshmod.element_metrics(mesh)
    if mesh.dim == 2:
        liu = _liu_batch(em.edge_sq)
        kob = _kobayashi_batch_2d(em.edge_sq, em.measures)
        elementwise = float(np.minimum(liu, kob).max())
        return GlobalConstants(
            dim=2,
            elementwise=elementwise,
            circumradius=qual.max_circumradius,
            minangle=min_angle_global(qual.min_angle, qual.h) if qual.min_angle > 0.0 else None,
            nonblunt=NONBLUNT_COEFF * qual.h if qual.nonblunt else None,
            regularity=None,
            l2_global=global_l2_bound(2, qual.h),
            rho_convention=rho_convention,
        )
    sigma_conv = float((em.h / _rho(em.inradius, rho_convention)).max())
    return GlobalConstants(
        dim=3,
        elementwise=float(_kobayashi_batch_3d(em, rho_convention).max()),
        circumradius=None,
        minangle=None,
        nonblunt=None,
        regularity=TET_COEFF * sigma_conv * qual.h,
        l2_global=global_l2_bound(3, qual.h),
        rho_convention=rho_convention,
    )


# ---------------------------------------------------------------------------
# spectral lower-bound probe


def rayleigh_lower_bound(t: Simplex, degree: int = 4) -> float:
    """Lower bound for the element H1 interpolation constant.

    Maximizes |v|_1 / |v|_2 over polynomials of total degree <= `degree`
    vanishing at the vertices: both forms come from derivative matrices on the
    monomial coefficients and the exact reference-triangle Gram matrix, and one
    generalized eigen-solve gives the top eigenvector.  The result is the square
    root of its Rayleigh quotient, which bounds the supremum from below in exact
    arithmetic.  In floating point its error grows with the triangle's
    conditioning (on a needle it can exceed a certified upper bound), so tests
    use it on triangles with angles >= 5 degrees or area >= 1e-3.
    """
    if t.dim != 2:
        raise ValueError("rayleigh_lower_bound applies to triangles")
    if not 2 <= degree <= 6:
        raise ValueError("degree must be between 2 and 6")
    v = t.vertices
    b_map = v[1:] - v[0]  # rows are edge vectors; x = v0 + B^T xi
    det = float(np.linalg.det(b_map))
    h2 = max(float(((v[i] - v[j]) ** 2).sum()) for i in range(3) for j in range(i))
    if abs(det) <= 1e-13 * h2:
        raise ConstraintRankError("degenerate vertex placement")

    exps = [(i, total - i) for total in range(degree + 1) for i in range(total + 1)]
    index = {e: k for k, e in enumerate(exps)}
    n = len(exps)
    d_ref = np.zeros((2, n, n))  # d/dxi, d/deta on monomial coefficients
    for k, (i, j) in enumerate(exps):
        if i:
            d_ref[0, index[i - 1, j], k] = i
        if j:
            d_ref[1, index[i, j - 1], k] = j
    gram = np.array([[reference_monomial_integral((i + p, j + q)) for p, q in exps] for i, j in exps])
    # polynomials vanishing at the reference vertices (0,0), (1,0), (0,1):
    # the monomials of degree >= 2, pure powers of xi (eta) minus xi (eta)
    basis = np.eye(n)[:, 3:]
    basis[index[1, 0]] = [-float(j == 0) for _, j in exps[3:]]
    basis[index[0, 1]] = [-float(i == 0) for i, _ in exps[3:]]
    grad = np.einsum("ab,bmn->amn", np.linalg.inv(b_map), d_ref)  # grad_x = B^-1 grad_xi
    first = grad @ basis
    second = (grad[:, None] @ first[None]).reshape(4, n, n - 3)
    # the Jacobian |det B| scales both forms alike and cancels in the quotient
    a_form = sum(f.T @ gram @ f for f in first)
    m_form = sum(s.T @ gram @ s for s in second)
    try:
        _, vec = eigh(a_form, m_form, subset_by_index=[n - 4, n - 4])
    except np.linalg.LinAlgError as exc:
        raise ConstraintRankError(f"H2 form not positive definite on constrained space: {exc}") from exc
    w = vec[:, 0]
    lam = float(w @ a_form @ w) / float(w @ m_form @ w)
    return math.sqrt(max(lam, 0.0))
