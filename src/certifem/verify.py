"""Measured errors against exact solutions and end-to-end bound validation.

Every check runs through `verify_case`: solve on a mesh whose polytope
(`mesh.polytope_of_mesh`) is inscribed in the exact solution's domain,
certify, and compare the measured L2 error (interior quadrature plus the
solution's own gap-region integral over that polytope's gap) against the
certified bound, one row per mesh in `convergence_study` (`certifem
verify`).  An exact solution may also predict the error a priori: `disk2d`
does on regular m-gons, which gives the paper's table (`verify --exact
disk2d --generate m,k ...`, or `run_disk_study`).  A measured error above a
certified or predicted bound is the one fatal scientific failure and raises.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from . import estimator as estmod
from . import fem as femmod
from . import mesh as meshmod
from .domain import (
    ON_BOUNDARY_TOL,
    ConvexDomain,
    ConvexPolygon,
    Disk,
    PolyApprox,
    gap_delta,
    inscribed_regular_polygon,
)
from .errors import BoundViolationError, CertifemError, NotInscribedError
from .quadrature import gauss_legendre


@dataclass(frozen=True)
class ExactSolution:
    """A problem with a closed-form solution `u` on `domain`.

    `gap_l2_sq(poly)` is the squared L2 norm of `u` over the region between
    `domain` and a polytope inscribed in it; it raises NotInscribedError
    when the polytope is not inscribed in `domain`.  `predicted(poly,
    certified)` is an a priori bound on the measured error of a mesh of
    `poly`, given its certified report, or None where the problem defines
    none; by default it defines none.
    """

    name: str
    domain: ConvexDomain
    u: Callable
    f: femmod.SourceTerm
    gap_l2_sq: Callable[[PolyApprox], float]
    predicted: Callable[[PolyApprox, estmod.CertifiedBound], float | None] = lambda poly, certified: None


_SEGMENT_RULE = gauss_legendre(16)


def _segment_l2_sq(alpha):
    """Integral of u^2, u = (1 - r^2)/4, over the unit-disk segment beyond a
    chord of half-angle alpha in (0, pi): (1/15) int_0^alpha sin^6 t dt.

    Integrating across the chord gives (1/15) int_cos(alpha)^1 (1 - s^2)^(5/2) ds,
    and s = cos t turns that into the sine integral.  The integrand is entire,
    so the 16-point rule is exact to rounding for every alpha in (0, pi).
    """
    x, w = _SEGMENT_RULE
    half = 0.5 * np.asarray(alpha, dtype=float)[..., None]
    return half[..., 0] / 15.0 * (np.sin(half * (x + 1.0)) ** 6 @ w)


def _disk2d() -> ExactSolution:
    dom = Disk(1.0)

    def u(pts):
        pts = np.asarray(pts, dtype=float)
        x, y = pts[..., 0], pts[..., 1]
        return 0.25 * (1.0 - (x * x + y * y))

    def gap_l2_sq(poly: PolyApprox) -> float:
        """One circular segment per facet: the disk minus an inscribed convex
        polygon is the union of the segments beyond its edges."""
        v = poly.vertices
        if np.abs(np.hypot(v[:, 0], v[:, 1]) - 1.0).max() > ON_BOUNDARY_TOL:
            raise NotInscribedError("polygon vertices do not lie on the unit circle")
        edges = v[poly.facets[:, 1]] - v[poly.facets[:, 0]]
        alpha = np.arctan2(0.5 * np.hypot(edges[:, 0], edges[:, 1]), poly.offsets)
        return float(_segment_l2_sq(alpha).sum())

    def predicted(poly: PolyApprox, certified: estmod.CertifiedBound) -> float | None:
        """The paper's bound sqrt(pi) (A_m^2 + 2 sin^2(pi / 2m)) on a regular
        m-gon, A_m the certified element-wise `a_h`; None on any other
        polygon.  An inscribed polygon with equal chords is regular, so the
        test is that every facet gap equals the others."""
        gaps = poly.gap_per_facet
        if gaps.max() - gaps.min() > ON_BOUNDARY_TOL * dom.diameter:
            return None
        a, m = certified.metadata["a_h"], len(poly.vertices)
        return math.sqrt(math.pi) * (a * a + 2.0 * math.sin(math.pi / (2.0 * m)) ** 2)

    return ExactSolution(
        name="disk2d",
        domain=dom,
        u=u,
        f=femmod.SourceTerm.constant(1.0),
        gap_l2_sq=gap_l2_sq,
        predicted=predicted,
    )


def _unit_squares() -> list[ExactSolution]:
    """The two problems on the unit square: u = sin(pi x) sin(pi y) for the
    `sinsin` source, and u = x(1 - x) y(1 - y), whose f = -Lap u =
    2x + 2y - 2x^2 - 2y^2 is the `poly:0,2,2,-2,0,-2` source.  Both have a
    gap-region integral only for the square itself."""
    dom = ConvexPolygon([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])

    def sinsin(pts):
        pts = np.asarray(pts, dtype=float)
        return np.sin(math.pi * pts[..., 0]) * np.sin(math.pi * pts[..., 1])

    def bubble(pts):
        pts = np.asarray(pts, dtype=float)
        x, y = pts[..., 0], pts[..., 1]
        return x * (1.0 - x) * y * (1.0 - y)

    def gap_l2_sq(poly: PolyApprox) -> float:
        if gap_delta(dom, poly)[0] > 0.0:
            raise CertifemError("the unit-square problems have a gap-region integral only for the square itself")
        return 0.0

    poly = femmod.SourceTerm.quadratic([0, 2, 2, -2, 0, -2], dom)
    return [
        ExactSolution("square2d", dom, sinsin, femmod.SourceTerm.sin_product(), gap_l2_sq),
        ExactSolution("square2d-poly", dom, bubble, poly, gap_l2_sq),
    ]


def registry() -> dict[str, ExactSolution]:
    """Built-in problems with known closed-form solutions."""
    entries = [_disk2d(), *_unit_squares()]
    return {e.name: e for e in entries}


def actual_l2_error(
    exact: ExactSolution,
    poly: PolyApprox,
    mesh: meshmod.SimplicialMesh,
    sol: femmod.FemSolution,
) -> float:
    """Measured || u - u_h || over the full domain: interior quadrature plus
    the exact solution's gap-region integral."""
    interior = femmod.l2_error_interior(mesh, sol, exact.u)
    return math.sqrt(interior * interior + exact.gap_l2_sq(poly))


def verify_case(
    exact: ExactSolution,
    mesh: meshmod.SimplicialMesh,
    fh_mode: str = "exact",
    strategy: str = "elementwise",
) -> tuple[femmod.FemSolution, float, estmod.CertifiedBound]:
    """Solve on `mesh`, certify, and measure the error against `exact` on
    the polytope that `mesh` meshes: returns (solution, measured error,
    certified bound).

    Raises BoundViolationError when the discrete Poincare inequality fails
    or the measured error exceeds the certified total, and before the solve
    a CertifemError when the mesh's polytope is not inscribed in the domain.
    """
    where = f"{exact.name} on {mesh.node_count} nodes"
    poly = meshmod.polytope_of_mesh(exact.domain, mesh)
    sol, fh = femmod.solve_poisson(mesh, exact.f, fh_mode)
    if not sol.converged:
        raise CertifemError(f"solver failed to converge: {where}")
    lhs, rhs = femmod.poincare_residual(mesh, sol, exact.domain.diameter)
    if lhs > rhs * (1.0 + 1e-10):
        raise BoundViolationError(f"discrete Poincare inequality violated: {where}: {lhs} > {rhs}")
    certified = estmod.certify(exact.domain, mesh, exact.f, fh_mode, strategy, fh=fh)
    measured = actual_l2_error(exact, poly, mesh, sol)
    if measured > certified.total:
        raise BoundViolationError(f"{where}: measured error {measured} exceeds certified bound {certified.total}")
    return sol, measured, certified


# ---------------------------------------------------------------------------
# convergence study on any meshes


@dataclass(frozen=True)
class ConvergenceLevel:
    """One mesh's row: `m` is the corner count of the polytope it meshes,
    and `predicted` the exact solution's a priori bound (None where it
    defines none)."""

    nodes: int
    m: int
    h: float
    actual: float
    predicted: float | None
    certified: estmod.CertifiedBound
    iterations: int


@dataclass(frozen=True)
class ConvergenceReport:
    exact: str
    levels: list[ConvergenceLevel]
    slope: float | None

    def to_json(self) -> str:
        levels = [
            {**vars(lv), "certified": lv.certified.to_json_dict(), "ratio": lv.certified.total / lv.actual}
            for lv in self.levels
        ]
        return json.dumps({"exact": self.exact, "levels": levels, "slope": self.slope}, sort_keys=True, allow_nan=False)


def convergence_study(exact: ExactSolution, meshes: Iterable[meshmod.SimplicialMesh]) -> ConvergenceReport:
    """`verify_case` on each mesh in turn, with the default f_h mode and
    strategy, the exact solution's prediction on the polytope that
    `verify_case` validated, and the least-squares slope of log actual
    against log h (None unless two meshes differ in h).  A measured error
    above the certified or the predicted bound raises BoundViolationError."""
    levels = []
    for mesh in meshes:
        sol, actual, certified = verify_case(exact, mesh)
        poly = meshmod.polytope_of_mesh(exact.domain, mesh)  # cached by verify_case
        predicted = exact.predicted(poly, certified)
        if predicted is not None and actual > predicted:
            raise BoundViolationError(
                f"{exact.name} on {mesh.node_count} nodes: measured error {actual} exceeds predicted bound {predicted}"
            )
        h = meshmod.quality(mesh).h
        levels.append(ConvergenceLevel(mesh.node_count, len(poly.vertices), h, actual, predicted, certified, sol.iterations))
    log_h, log_e = np.log([lv.h for lv in levels]), np.log([lv.actual for lv in levels])
    slope = float(np.polyfit(log_h, log_e, 1)[0]) if len(set(log_h)) >= 2 else None
    return ConvergenceReport(exact.name, levels, slope)


# ---------------------------------------------------------------------------
# the paper's table: regular m-gons in the unit disk, f = 1


def default_refine_rule(m: int) -> int:
    """Refinement levels so the interior mesh size tracks the polygon edge scale."""
    return max(0, math.ceil(math.log2(m / 6.0)))


def disk_study_row(m: int, refine_levels: int | None = None) -> ConvergenceLevel:
    """`convergence_study`'s `disk2d` row for the fan of the regular m-gon
    refined `refine_levels` times (`default_refine_rule(m)` by default), as
    `certifem verify --exact disk2d --generate m,refine_levels` reports it."""
    exact = _disk2d()
    if refine_levels is None:
        refine_levels = default_refine_rule(m)
    mesh = meshmod.generate_fan_refined(inscribed_regular_polygon(exact.domain, m), refine_levels)
    return convergence_study(exact, [mesh]).levels[0]


def run_disk_study(m_list: Sequence[int], threads: int = 1) -> list[ConvergenceLevel]:
    """`disk_study_row(m)` for each m in turn: the rows of the paper's table.
    Rows run one at a time; `threads` must be 1."""
    if threads != 1:
        raise ValueError(f"disk study rows run one at a time; threads must be 1, got {threads}")
    return [disk_study_row(m) for m in m_list]
