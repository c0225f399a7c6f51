"""Measured errors against exact solutions and end-to-end bound validation.

Every check runs through `verify_case`: solve on a mesh of a polytope
inscribed in the exact solution's domain, certify, and compare the measured
L2 error (interior quadrature plus the solution's own gap-region integral)
against the certified bound.  The flagship pipeline approximates the unit
disk by regular m-gons with f = 1.  A measured error above a certified
bound is the one fatal scientific failure and raises.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from typing import Callable, Sequence

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
    poly_approx_of_polygon,
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


def _square2d() -> ExactSolution:
    dom = ConvexPolygon([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])

    def u(pts):
        pts = np.asarray(pts, dtype=float)
        return np.sin(math.pi * pts[..., 0]) * np.sin(math.pi * pts[..., 1])

    def gap_l2_sq(poly: PolyApprox) -> float:
        if poly.dim != 2 or gap_delta(dom, poly)[0] > 0.0:
            raise CertifemError("square2d has a gap-region integral only for the square itself")
        return 0.0

    return ExactSolution(
        name="square2d",
        domain=dom,
        u=u,
        f=femmod.SourceTerm.sin_product(),
        u_l2_norm=0.5,
        gap_l2_sq=gap_l2_sq,
    )


def registry() -> dict[str, ExactSolution]:
    """Built-in problems with known closed-form solutions."""
    entries = [_disk2d(), _square2d()]
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
# barrier check


@dataclass(frozen=True)
class BarrierReport:
    max_abs_u: float
    bound: float
    passed: bool
    samples: int
    worst_point: np.ndarray | None


def barrier_check(exact: ExactSolution, poly: PolyApprox, n_samples: int = 10000, seed: int = 0) -> BarrierReport:
    """Check max |u| over the gap region against (1/2) D delta ||f||_inf.

    Uses seeded rejection sampling (inside the domain, outside the polytope)
    plus deterministic probes along each facet normal; the probe at the facet
    barycenter captures the gap maximum for the built-in domains, which pure
    uniform sampling would miss at any realistic sample count.
    """
    dom = exact.domain
    if poly.dim != dom.dim or not np.all(dom.contains(poly.vertices, tol=ON_BOUNDARY_TOL * dom.diameter)):
        raise NotInscribedError(f"polytope is not inscribed in the domain of {exact.name}")
    delta, gaps = gap_delta(dom, poly)
    bound = 0.5 * dom.diameter * delta * exact.f.sup_norm
    if delta <= 0.0:
        return BarrierReport(0.0, bound, True, 0, None)

    reach = np.outer(np.maximum(gaps, 0.0), [0.0, 0.25, 0.5, 0.75, 0.999])
    barycenters = poly.vertices[poly.facets].mean(axis=1)
    probes = (barycenters[:, None, :] + reach[:, :, None] * poly.normals[:, None, :]).reshape(-1, dom.dim)

    rng = np.random.default_rng(seed)
    center = getattr(dom, "center", np.zeros(dom.dim))
    radius = getattr(dom, "radius", None)
    kept = []
    kept_count = 0
    attempts = 0
    while kept_count < n_samples and attempts < 200:
        attempts += 1
        want = n_samples - kept_count
        if radius is not None:
            # thin annulus proposal: everything closer than the nearest facet
            # plane is inside the polytope anyway
            r_min = max(0.0, float((poly.offsets - poly.normals @ center).min()))
            u01 = rng.random(4 * want)
            rr = np.sqrt(u01 * (radius**2 - r_min**2) + r_min**2)
            if dom.dim == 2:
                ang = rng.random(4 * want) * 2.0 * math.pi
                cand = center + np.stack([rr * np.cos(ang), rr * np.sin(ang)], axis=1)
            else:
                zz = rng.random(4 * want) * 2.0 - 1.0
                ang = rng.random(4 * want) * 2.0 * math.pi
                s = np.sqrt(1.0 - zz**2)
                cand = center + rr[:, None] * np.stack([s * np.cos(ang), s * np.sin(ang), zz], axis=1)
        else:
            lo = poly.vertices.min(axis=0)
            hi = poly.vertices.max(axis=0)
            cand = lo + rng.random((4 * want, dom.dim)) * (hi - lo)
        inside = np.asarray(dom.contains(cand))
        outside_poly = poly.signed_facet_distances(cand) >= 0.0
        good = cand[inside & outside_poly]
        if good.size:
            kept.append(good[:want])
            kept_count += min(want, good.shape[0])

    sample_pts = np.vstack([probes] + kept) if kept else probes
    inside = np.asarray(dom.contains(sample_pts, tol=1e-12))
    near_gap = poly.signed_facet_distances(sample_pts) >= -1e-12
    sample_pts = sample_pts[inside & near_gap]
    vals = np.abs(np.asarray(exact.u(sample_pts), dtype=float))
    worst = int(np.argmax(vals))
    max_abs = float(vals[worst])
    return BarrierReport(max_abs, bound, max_abs <= bound + 1e-12, sample_pts.shape[0], sample_pts[worst])


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
    poly: PolyApprox,
    mesh: meshmod.SimplicialMesh,
    fh_mode: str = "exact",
    strategy: str = "elementwise",
) -> tuple[femmod.FemSolution, float, estmod.CertifiedBound]:
    """Solve on `mesh` (which meshes `poly`), certify, and measure the error
    against `exact`: returns (solution, measured error, certified bound).

    Raises BoundViolationError when the discrete Poincare inequality fails
    or the measured error exceeds the certified total.
    """
    where = f"{exact.name} on {mesh.node_count} nodes"
    sol, fh = femmod.solve_poisson(mesh, exact.f, fh_mode)
    if not sol.converged:
        raise CertifemError(f"solver failed to converge: {where}")
    lhs, rhs = femmod.poincare_residual(mesh, sol, exact.domain.diameter)
    if lhs > rhs * (1.0 + 1e-10):
        raise BoundViolationError(f"discrete Poincare inequality violated: {where}: {lhs} > {rhs}")
    certified = estmod.certify(exact.domain, poly, mesh, exact.f, fh_mode, strategy, fh=fh)
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
    and vs the predicted bound sqrt(pi) (A_m^2 + 2 sin^2(pi / 2m)).

    `mesh` overrides the built-in generator (externally meshed m-gon);
    `certify` rejects it, after the solve, when its boundary leaves the
    polygon.
    """
    exact = _disk2d()
    poly = inscribed_regular_polygon(exact.domain, m)
    if refine_levels is None:
        refine_levels = default_refine_rule(m)
    if mesh is None:
        mesh = meshmod.generate_fan_refined(poly, refine_levels)
    sol, actual, certified = verify_case(exact, poly, mesh, fh_mode, strategy)

    qual = meshmod.quality(mesh)
    a_m = icmod._liu_kobayashi_maxima(mesh)[1]  # from certify's element-wise pass
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
# structured-square convergence study


def structured_square_mesh(n: int) -> meshmod.SimplicialMesh:
    """Unit square split into an n x n grid of squares, each cut along the
    main diagonal; all triangles are right isoceles (non-obtuse)."""
    if n < 1:
        raise ValueError("need n >= 1")
    xs = np.linspace(0.0, 1.0, n + 1)
    xx, yy = np.meshgrid(xs, xs, indexing="ij")
    nodes = np.stack([xx.ravel(), yy.ravel()], axis=1)
    idx = np.arange((n + 1) ** 2).reshape(n + 1, n + 1)  # node (i, j) of the grid
    a, b, c, d = idx[:-1, :-1].ravel(), idx[1:, :-1].ravel(), idx[1:, 1:].ravel(), idx[:-1, 1:].ravel()
    # cell by cell, lower triangle (a, b, c) before upper (a, c, d)
    elements = np.stack([a, b, c, a, c, d], axis=1).reshape(-1, 3)
    return meshmod.build_mesh(2, nodes, elements)


@dataclass(frozen=True)
class ConvergenceLevel:
    n: int
    h: float
    error: float
    closed_form_bound: float
    iterations: int


@dataclass(frozen=True)
class ConvergenceReport:
    exact: str
    levels: list[ConvergenceLevel]
    slope: float


def convergence_study(grid_sizes: Sequence[int] = (8, 16, 32), fh_mode: str = "nodal") -> ConvergenceReport:
    """Structured-mesh refinement sweep for the unit-square problem.

    Checks the non-obtuse certified bound and the closed-form bound at every
    level and fits the L2 convergence slope; a bound violation raises.
    """
    exact = _square2d()
    poly = poly_approx_of_polygon(exact.domain)
    levels = []
    for n in grid_sizes:
        mesh = structured_square_mesh(n)
        sol, err, _ = verify_case(exact, poly, mesh, fh_mode, "nonblunt")
        bound = estmod.certify_closed_form_2d(exact.domain, poly, mesh, exact.f)
        if err > bound:
            raise BoundViolationError(f"n={n}: measured error {err} exceeds closed-form bound {bound}")
        qual = meshmod.quality(mesh)
        levels.append(ConvergenceLevel(n, qual.h, err, bound, sol.iterations))
    log_h = np.log([lv.h for lv in levels])
    log_e = np.log([lv.error for lv in levels])
    slope = float(np.polyfit(log_h, log_e, 1)[0])
    return ConvergenceReport("square2d", levels, slope)
