"""Test-only quantities that no certify or verify path computes, kept beside
the tests that check them."""

import math
from dataclasses import dataclass

import mpmath
import numpy as np

from certifem import (
    ConvexDomain,
    Disk,
    ExactSolution,
    PolyApprox,
    Simplex,
    angles,
    edge_lengths,
    gap_delta,
    global_l2_bound,
    kobayashi_bound_2d,
)
from certifem import fem as femmod
from certifem import mesh as meshmod
from certifem.domain import ON_BOUNDARY_TOL
from certifem.errors import NotInscribedError
from certifem.geometry import (
    EDGES,
    NONBLUNT_TOL,
    ElementMetrics,
    _angle_pair,
    _finite_geometry,
    _unit_scaled,
    as_batch,
    vertex_metrics,
)
from certifem.interp_constants import LIU_COEFF

# ||u||_L2 over the whole domain of each registry entry, in closed form:
# (1 - r^2)/4 on the unit disk, sin(pi x) sin(pi y) and x(1 - x) y(1 - y) on
# the unit square
U_L2_NORM = {"disk2d": math.sqrt(math.pi / 48.0), "square2d": 0.5, "square2d-poly": 1.0 / 30.0}

# First zero of the Bessel function J0; the reciprocal is the exact Poincare
# constant of the unit disk, documented against the sqrt(2)/pi bound.
BESSEL_J0_FIRST_ZERO = 2.404825557695773

# (actual, predicted) of the disk table measured with an external
# Delaunay-mesh pipeline at the same polygon resolutions: a plausibility
# cross-check, never asserted against the built-in mesher.
REFERENCE_DELAUNAY = {
    10: (4.768e-2, 2.397e-1),
    20: (1.303e-2, 7.688e-2),
    30: (5.910e-3, 4.368e-2),
    40: (3.248e-3, 2.531e-2),
    50: (2.127e-3, 1.672e-2),
}


def edge_count(mesh: meshmod.SimplicialMesh) -> int:
    """Unique edges, for Euler-formula style checks."""
    return np.unique(meshmod._keys(mesh.elements, mesh.node_count, list(zip(*EDGES)))).size


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


def is_nonblunt(t: Simplex) -> bool:
    """True iff no interior angle exceeds pi/2 (right angles admitted)."""
    return max(angles(t)) <= math.pi / 2.0 + NONBLUNT_TOL


def boundary_point(dom: ConvexDomain, t: float) -> np.ndarray:
    """The point of the boundary of a disk or convex polygon at parameter
    t in [0, 1): by angle on a disk, by arc length on a polygon."""
    if isinstance(dom, Disk):
        a = 2.0 * math.pi * t
        return dom.center + dom.radius * np.array([math.cos(a), math.sin(a)])
    v = dom.vertices
    lengths = np.linalg.norm(np.roll(v, -1, axis=0) - v, axis=1)
    target = (t % 1.0) * lengths.sum()
    acc = 0.0
    for i, ell in enumerate(lengths):
        if target <= acc + ell or i == len(lengths) - 1:
            return v[i] + (target - acc) / ell * (v[(i + 1) % len(v)] - v[i])
        acc += ell


def signed_measure(s: Simplex) -> float:
    """Signed measure (orientation-sensitive); no degeneracy check."""
    return float(_finite_geometry(s)[0][0])


def element_metrics(mesh: meshmod.SimplicialMesh) -> ElementMetrics:
    """Per-element geometry as whole-mesh arrays: `vertex_metrics` of every
    element at once, from the mesh's measures and squared edges; the
    reference for the block walks (`mesh._metric_blocks`) that `quality`
    and `mesh_constants` reduce."""
    return vertex_metrics(mesh.measures, mesh.edge_sq)


def reference_monomial_integral(exponents) -> float:
    """Exact integral of prod(x_i^a_i) over the unit reference simplex.

    Uses the closed form a1!...an! / (a1+...+an+n)!.
    """
    exps = [int(e) for e in exponents]
    n = len(exps)
    num = 1
    for e in exps:
        num *= math.factorial(e)
    return num / math.factorial(sum(exps) + n)


def _liu_batch(edge_sq: np.ndarray, area: np.ndarray) -> np.ndarray:
    """Liu's angle bound (Liu and Kikuchi, J. Math. Sci. Univ. Tokyo 17,
    2010), minimized over the three interior angles, per element from
    squared edges and areas: the reference that Kobayashi's bound, the 2D
    `elementwise` constant, stays below.  At the angle theta between edges a
    and b, with s and c of `geometry._angle_pair`, (1 + |cos theta|) / sin
    theta = (2ab + |c|) / s, and a^4 + 2 a^2 b^2 cos(2 theta) + b^4 = (a^2 -
    b^2)^2 + c^2, a sum of squares that does not cancel near a right
    isosceles angle.  Run on elements scaled to unit size (`_unit_scaled`),
    it is finite wherever the area is > 0 and within 8u (kappa + l_max /
    l_min) + 1e-12 of its 60-digit value (`angles_and_liu_60`; u = 2**-53,
    kappa the measure's condition number)."""
    q, area, edge_sq = _unit_scaled(area, edge_sq)
    s, c = _angle_pair(area, edge_sq)
    a2, b2 = edge_sq[:, [1, 2, 0]], edge_sq[:, [2, 0, 1]]
    radical = np.sqrt((a2 + b2 + np.sqrt((a2 - b2) ** 2 + c * c)) / 2.0)
    ratio = LIU_COEFF * (2.0 * np.sqrt(a2 * b2) + np.abs(c)) / s[:, None]
    return np.ldexp((ratio * radical).min(axis=1), q)


def liu_bound(t: Simplex) -> float:
    """`_liu_batch` of one triangle."""
    meas, edge_sq = as_batch(t)
    return float(_liu_batch(edge_sq, meas)[0])


@dataclass(frozen=True)
class ElementConstants:
    """Per-element upper bounds; `h1_best` is the minimum of the available ones."""

    h1_liu: float
    h1_kobayashi: float
    h1_best: float
    l2_bound: float


def element_constants(t: Simplex) -> ElementConstants:
    liu, kob = liu_bound(t), kobayashi_bound_2d(t)
    return ElementConstants(liu, kob, min(liu, kob), global_l2_bound(edge_lengths(t)[0]))


def angles_and_liu_60(vertices) -> tuple[list, mpmath.mpf]:
    """The angles, in vertex order, and Liu's bound of the triangle with these
    float vertices, in 60-digit mpmath: each angle is atan2 of the exact cross
    and dot products of its two edges, and Liu's formula is evaluated as
    written, from cos, sin and cos 2 theta, at each angle, then minimized."""
    with mpmath.workdps(60):
        pts = [[mpmath.mpf(float(x)) for x in p] for p in vertices]
        angles, liu = [], []
        for i in range(3):
            (ox, oy), (px, py), (qx, qy) = pts[i], pts[(i + 1) % 3], pts[(i + 2) % 3]
            u, w = (px - ox, py - oy), (qx - ox, qy - oy)
            theta = mpmath.atan2(abs(u[0] * w[1] - u[1] * w[0]), u[0] * w[0] + u[1] * w[1])
            a2, b2 = u[0] ** 2 + u[1] ** 2, w[0] ** 2 + w[1] ** 2
            # a right isosceles angle rounds this radicand, 0, to about -1e-60 a2 b2
            inner = mpmath.sqrt(max(a2 * a2 + 2 * a2 * b2 * mpmath.cos(2 * theta) + b2 * b2, 0))
            ratio = (1 + abs(mpmath.cos(theta))) / mpmath.sin(theta)
            angles.append(theta)
            liu.append(mpmath.mpf(LIU_COEFF) * ratio * mpmath.sqrt((a2 + b2 + inner) / 2))
        return angles, min(liu)


def nonblunt_profile_bound(a: float, b: float) -> float:
    """Intermediate bound for the normalized non-obtuse triangle with apex (a, b).

    Valid for the triangle with base from (-1/2,0) to (1/2,0) and apex (a, b)
    inside the constraint region of non-obtuse triangles with unit longest
    edge; its supremum over that region equals sqrt(11/60).
    """
    return math.sqrt(b * b / 30.0 + 11.0 * a * a / 60.0 + 11.0 / 80.0)


def fh_error_measured(mesh: meshmod.SimplicialMesh, f: femmod.SourceTerm, mode: str) -> float:
    """Quadrature value of ||f - f_h||; exact when the integrand is degree <= 4."""
    fh = femmod.build_fh(mesh, f, mode)
    if mode == "exact":
        return 0.0

    def error(rows, points):
        fvals = np.asarray(f.evaluate(points), dtype=float)
        if mode == "barycentric":
            return fvals - fh.element_values[rows, None]
        return fvals - femmod._p1_at_points(mesh, fh.nodal_values, rows)

    return femmod._quadrature_norm(mesh, error)


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
    if not np.all(dom.contains(poly.vertices, tol=ON_BOUNDARY_TOL * dom.diameter)):
        raise NotInscribedError(f"polytope is not inscribed in the domain of {exact.name}")
    delta, gaps = gap_delta(dom, poly)
    bound = 0.5 * dom.diameter * delta * exact.f.sup_norm
    if delta <= 0.0:
        return BarrierReport(0.0, bound, True, 0, None)

    reach = np.outer(np.maximum(gaps, 0.0), [0.0, 0.25, 0.5, 0.75, 0.999])
    barycenters = 0.5 * (poly.vertices + np.roll(poly.vertices, -1, axis=0))
    probes = (barycenters[:, None, :] + reach[:, :, None] * poly.normals[:, None, :]).reshape(-1, 2)

    rng = np.random.default_rng(seed)
    center = getattr(dom, "center", np.zeros(2))
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
            ang = rng.random(4 * want) * 2.0 * math.pi
            cand = center + np.stack([rr * np.cos(ang), rr * np.sin(ang)], axis=1)
        else:
            lo = poly.vertices.min(axis=0)
            hi = poly.vertices.max(axis=0)
            cand = lo + rng.random((4 * want, 2)) * (hi - lo)
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
