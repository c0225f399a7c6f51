"""Measured errors against exact solutions and end-to-end bound validation.

Every check runs through `verify_case`: solve on a mesh whose polytope
(`mesh.polytope_of_mesh`) is inscribed in the exact solution's domain,
certify, and compare the measured L2 error (interior quadrature plus the
solution's own gap-region integral over that polytope's gap) against the
certified bound, one row per mesh in `convergence_study` (`certifem
verify`).  The flagship pipeline, `disk_study_row`, approximates the unit
disk by regular m-gons with f = 1.  A measured error above a certified
bound is the one fatal scientific failure and raises.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from . import estimator as estmod
from . import fem as femmod
from . import interp_constants as icmod
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

# First zero of the Bessel function J0; the reciprocal is the exact Poincare
# constant of the unit disk, documented against the sqrt(2)/pi bound.
BESSEL_J0_FIRST_ZERO = 2.404825557695773


@dataclass(frozen=True)
class ExactSolution:
    """A problem with a closed-form solution `u` on `domain`.

    `gap_l2_sq(poly)` is the squared L2 norm of `u` over the region between
    `domain` and a polytope inscribed in it; it raises NotInscribedError
    when the polytope is not inscribed in `domain`.
    """

    name: str
    domain: ConvexDomain
    u: Callable
    f: femmod.SourceTerm
    u_l2_norm: float
    gap_l2_sq: Callable[[PolyApprox], float]


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
        if poly.dim != 2 or np.abs(np.hypot(v[:, 0], v[:, 1]) - 1.0).max() > ON_BOUNDARY_TOL:
            raise NotInscribedError("polygon vertices do not lie on the unit circle")
        edges = v[poly.facets[:, 1]] - v[poly.facets[:, 0]]
        alpha = np.arctan2(0.5 * np.hypot(edges[:, 0], edges[:, 1]), poly.offsets)
        return float(_segment_l2_sq(alpha).sum())

    return ExactSolution(
        name="disk2d",
        domain=dom,
        u=u,
        f=femmod.SourceTerm.constant(1.0),
        u_l2_norm=math.sqrt(math.pi / 48.0),
        gap_l2_sq=gap_l2_sq,
    )


def _unit_squares() -> list[ExactSolution]:
    """The two problems on the unit square: u = sin(pi x) sin(pi y) for the
    `sinsin` source, and u = x(1 - x) y(1 - y), whose f = -Lap u =
    2x + 2y - 2x^2 - 2y^2 is the `poly:0,2,2,-2,0,-2` source, with ||u|| =
    1/30.  Both have a gap-region integral only for the square itself."""
    dom = ConvexPolygon([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])

    def sinsin(pts):
        pts = np.asarray(pts, dtype=float)
        return np.sin(math.pi * pts[..., 0]) * np.sin(math.pi * pts[..., 1])

    def bubble(pts):
        pts = np.asarray(pts, dtype=float)
        x, y = pts[..., 0], pts[..., 1]
        return x * (1.0 - x) * y * (1.0 - y)

    def gap_l2_sq(poly: PolyApprox) -> float:
        if poly.dim != 2 or gap_delta(dom, poly)[0] > 0.0:
            raise CertifemError("the unit-square problems have a gap-region integral only for the square itself")
        return 0.0

    poly = femmod.SourceTerm.quadratic([0, 2, 2, -2, 0, -2], dom)
    return [
        ExactSolution("square2d", dom, sinsin, femmod.SourceTerm.sin_product(), 0.5, gap_l2_sq),
        ExactSolution("square2d-poly", dom, bubble, poly, 1 / 30, gap_l2_sq),
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


# ---------------------------------------------------------------------------
# disk study (regular m-gon sweep)


def default_refine_rule(m: int) -> int:
    """Refinement levels so the interior mesh size tracks the polygon edge scale."""
    return max(0, math.ceil(math.log2(m / 6.0)))


# Reference results measured with an external Delaunay-mesh pipeline at the
# same polygon resolutions; printed alongside reports as a plausibility
# cross-check, never asserted against the built-in mesher.
REFERENCE_DELAUNAY = {
    10: (4.768e-2, 2.397e-1),
    20: (1.303e-2, 7.688e-2),
    30: (5.910e-3, 4.368e-2),
    40: (3.248e-3, 2.531e-2),
    50: (2.127e-3, 1.672e-2),
}


@dataclass(frozen=True)
class DiskStudyRow:
    m: int
    h: float
    a_m: float
    actual: float
    predicted: float
    ratio: float
    certified: estmod.CertifiedBound
    refine_levels: int
    iterations: int


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


def disk_study_row(
    m: int,
    refine_levels: int | None = None,
    fh_mode: str = "exact",
    strategy: str = "elementwise",
    mesh: meshmod.SimplicialMesh | None = None,
) -> DiskStudyRow:
    """One pipeline run: m-gon in the unit disk, f = 1, measured vs certified
    and vs the predicted bound sqrt(pi) (A_m^2 + 2 sin^2(pi / 2m)), A_m the
    Kobayashi maximum that `certify` caches (`a_h` under `elementwise`).

    `mesh` overrides the built-in generator (an externally meshed m-gon);
    it raises NotInscribedError, before the solve, unless the polygon it
    meshes has the regular m-gon's vertices, each within the on-boundary
    tolerance.
    """
    exact = _disk2d()
    poly = inscribed_regular_polygon(exact.domain, m)
    if refine_levels is None:
        refine_levels = default_refine_rule(m)
    if mesh is None:
        mesh = meshmod.generate_fan_refined(poly, refine_levels)
    else:
        corners = meshmod.polytope_of_mesh(exact.domain, mesh).vertices
        apart = np.linalg.norm(corners[:, None, :] - poly.vertices[None, :, :], axis=-1).min(axis=0)
        if corners.shape != poly.vertices.shape or apart.max() > ON_BOUNDARY_TOL * exact.domain.diameter:
            raise NotInscribedError(f"the mesh meshes a {len(corners)}-gon that is not the regular {m}-gon")
    sol, actual, certified = verify_case(exact, mesh, fh_mode, strategy)

    qual = meshmod.quality(mesh)
    a_m = icmod._kobayashi_maximum(mesh)  # certify's cached element-wise pass
    predicted = math.sqrt(math.pi) * (a_m * a_m + 2.0 * math.sin(math.pi / (2.0 * m)) ** 2)
    if actual > predicted:
        raise BoundViolationError(f"m={m}: measured error {actual} exceeds predicted bound {predicted}")
    return DiskStudyRow(
        m=m,
        h=qual.h,
        a_m=a_m,
        actual=actual,
        predicted=predicted,
        ratio=predicted / actual,
        certified=certified,
        refine_levels=refine_levels,
        iterations=sol.iterations,
    )


def run_disk_study(
    m_list: Sequence[int],
    refine_rule: Callable[[int], int] | None = None,
    fh_mode: str = "exact",
    strategy: str = "elementwise",
    threads: int = 1,
) -> list[DiskStudyRow]:
    """Sweep the polygon resolution; rows are independent and may run in
    parallel (capped by `threads`)."""
    if not m_list:
        raise ValueError("m_list must be nonempty")
    rule = refine_rule or default_refine_rule
    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            rows = list(pool.map(lambda m: disk_study_row(m, rule(m), fh_mode, strategy), m_list))
    else:
        rows = [disk_study_row(m, rule(m), fh_mode, strategy) for m in m_list]
    return rows


def disk_study_csv(rows: Sequence[DiskStudyRow]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["m", "h", "A_m", "actual", "predicted", "ratio"])
    for r in rows:
        writer.writerow(
            [r.m] + ["%.10g" % v for v in (r.h, r.a_m, r.actual, r.predicted, r.ratio)]
        )
    return buf.getvalue()


def disk_study_json(rows: Sequence[DiskStudyRow]) -> str:
    out = []
    for r in rows:
        ref = REFERENCE_DELAUNAY.get(r.m)
        out.append(
            {
                "m": r.m,
                "h": r.h,
                "A_m": r.a_m,
                "actual": r.actual,
                "predicted": r.predicted,
                "ratio": r.ratio,
                "refine_levels": r.refine_levels,
                "certified": r.certified.to_json_dict(),
                "reference_delaunay": {"actual": ref[0], "predicted": ref[1]} if ref else None,
            }
        )
    return json.dumps(out, sort_keys=True)


# ---------------------------------------------------------------------------
# convergence study on any meshes


@dataclass(frozen=True)
class ConvergenceLevel:
    nodes: int
    h: float
    actual: float
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
    strategy, and the least-squares slope of log actual against log h
    (None unless two meshes differ in h); a bound violation raises."""
    levels = []
    for mesh in meshes:
        sol, actual, certified = verify_case(exact, mesh)
        levels.append(ConvergenceLevel(mesh.node_count, meshmod.quality(mesh).h, actual, certified, sol.iterations))
    log_h, log_e = np.log([lv.h for lv in levels]), np.log([lv.actual for lv in levels])
    slope = float(np.polyfit(log_h, log_e, 1)[0]) if len(set(log_h)) >= 2 else None
    return ConvergenceReport(exact.name, levels, slope)
