"""Convex domains, inscribed polytope approximations, and boundary gaps.

The exact domain is modeled through its support function, which makes the
facet-to-boundary gap an exact evaluation rather than a sampled estimate:
the maximum of a linear functional over a convex body IS the support value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidDirectionError, InvalidPolygonError, NotInscribedError

UNIT_TOL = 1e-12
# Geometric tolerances are relative: each is multiplied by the diameter of the
# domain or polytope it is applied to, so a scaled input keeps its verdict.
ON_BOUNDARY_TOL = 1e-10
CONVEXITY_TOL = 1e-12
REPEATED_VERTEX_TOL = 1e-8
INSCRIBED_TOL = 1e-10
# A polygon whose measure is at or below MEASURE_TOL * diameter^2 is degenerate.
MEASURE_TOL = 1e-12
_PAIR_BLOCK = 1 << 16  # vertex pairs per block of `_diameter`


class ConvexDomain:
    """Base class for the built-in convex domain registry.

    Subclasses provide exact diameter, measure and support values;
    arbitrary user support functions are not accepted because certified
    bounds need exact geometric data.
    """

    dim: int
    diameter: float
    measure: float

    def support(self, direction) -> float:
        d = np.asarray(direction, dtype=float)
        if abs(np.linalg.norm(d) - 1.0) > UNIT_TOL:
            raise InvalidDirectionError(f"direction {d.tolist()} is not unit length")
        return self._support_unit(d)

    def _support_unit(self, d: np.ndarray) -> float:
        raise NotImplementedError

    def contains(self, points, tol: float = 1e-12):
        """Membership test; accepts a single point or an (..., dim) array."""
        raise NotImplementedError

    def boundary_distance(self, points):
        """Distance to the boundary of a single point (a float) or of each
        point of an (N, dim) array (an (N,) array)."""
        raise NotImplementedError


class Disk(ConvexDomain):
    """Euclidean disk of radius `radius` around `center` (the origin by default)."""

    dim = 2

    def __init__(self, radius: float, center=None) -> None:
        if not (math.isfinite(radius) and radius > 0):
            raise ValueError(f"radius must be positive and finite, got {radius}")
        self.radius = float(radius)
        self.center = np.zeros(2) if center is None else np.array(center, dtype=float)
        self.diameter = 2.0 * self.radius

    @property
    def measure(self) -> float:
        try:  # float ** raises OverflowError where the measure overflows anyway
            return math.pi * self.radius**2
        except OverflowError:
            return math.inf

    def _support_unit(self, d: np.ndarray) -> float:
        return self.radius + float(np.dot(d, self.center))

    def contains(self, points, tol: float = 1e-12):
        p = np.asarray(points, dtype=float)
        r = np.linalg.norm(p - self.center, axis=-1)
        return r <= self.radius + tol

    def boundary_distance(self, points):
        p = np.asarray(points, dtype=float)
        if p.ndim == 1:
            return abs(self.radius - float(np.linalg.norm(p - self.center)))
        return np.abs(self.radius - np.linalg.norm(p - self.center, axis=-1))


class ConvexPolygon(ConvexDomain):
    """Convex polygon, stored counterclockwise with one outward half-plane
    `normals[i] . x <= offsets[i]` per edge i -> i+1."""

    dim = 2

    def __init__(self, vertices) -> None:
        v = np.array(vertices, dtype=float)
        if v.ndim != 2 or v.shape[1] != 2 or v.shape[0] < 3:
            raise InvalidPolygonError("polygon needs at least 3 planar vertices")
        if _shoelace(v) < 0:
            v = v[::-1].copy()  # normalize to counterclockwise
        self.diameter = _diameter(v)
        self.measure = _shoelace(v)
        if not math.isfinite(self.measure):
            raise InvalidPolygonError(f"polygon measure {self.measure} is not finite: the coordinates overflow its closed form")
        if self.measure <= MEASURE_TOL * self.diameter**2:
            raise InvalidPolygonError(
                f"polygon measure {self.measure:.3e} is at most {MEASURE_TOL:g} * diameter^2; the outline is degenerate"
            )
        self.normals, self.offsets = _polygon_halfplanes(v)
        _check_halfspaces(v, self.normals, self.offsets, self.diameter)
        v.setflags(write=False)
        self.vertices = v

    def _support_unit(self, d: np.ndarray) -> float:
        return float((self.vertices @ d).max())

    def contains(self, points, tol: float = 1e-12):
        return _max_excess(points, self.normals, self.offsets) <= tol

    def boundary_distance(self, points):
        p = np.asarray(points, dtype=float)
        dist = _segment_distances(p.reshape(-1, 2), self.vertices, np.roll(self.vertices, -1, axis=0)).min(axis=1)
        return float(dist[0]) if p.ndim == 1 else dist


def _shoelace(v: np.ndarray) -> float:
    """Signed area; inf or NaN, with no warning, where the products overflow."""
    x, y = v[:, 0], v[:, 1]
    with np.errstate(over="ignore", invalid="ignore"):
        return 0.5 * float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))


def _polygon_halfplanes(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unit outward edge normals of a counterclockwise polygon and their
    offsets at the edge midpoints."""
    e = np.roll(v, -1, axis=0) - v
    normals = np.stack([e[:, 1], -e[:, 0]], axis=1)
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    return normals, _row_dots(normals, 0.5 * (v + np.roll(v, -1, axis=0)))


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a_F . b_F per row, rounded like `np.dot` on each row; `einsum` or a
    row sum differ in the last bit, which would move every gap."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _segment_distances(p: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(N, E) distances from each point p_i to each segment a_j b_j."""
    ab = b - a
    ap = p[:, None, :] - a[None, :, :]
    t = np.clip((ap * ab).sum(axis=-1) / (ab * ab).sum(axis=-1), 0.0, 1.0)
    return np.linalg.norm(ap - t[:, :, None] * ab, axis=-1)


def _max_excess(points, normals: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """max_F (n_F . x - o_F) for each point; > 0 means outside."""
    p = np.asarray(points, dtype=float)
    return (np.einsum("...d,fd->...f", p, normals) - offsets).max(axis=-1)


def _diameter(v: np.ndarray) -> float:
    """Largest distance between two vertices; raises when two vertices lie
    within REPEATED_VERTEX_TOL * diameter, which also catches a boundary that
    winds around more than once.

    The pairs i < j are walked a block of rows at a time, at most about
    _PAIR_BLOCK of them per block, so memory stays O(m) rather than the
    (m, m, dim) array of all differences; (v_i - v_j)^2 is (v_j - v_i)^2
    bit for bit, so every distance, and the result, is that array's.
    """
    m = len(v)
    step = max(1, _PAIR_BLOCK // m)
    longest, closest = [], []
    for start in range(0, m, step):
        diffs = v[start : start + step, None, :] - v[None, start:, :]
        with np.errstate(over="ignore"):
            dist = np.sqrt((diffs**2).sum(-1))
        longest.append(dist.max())
        closest.append(dist[np.triu_indices(dist.shape[0], 1, dist.shape[1])].min(initial=np.inf))
    diameter = float(np.max(longest))
    if not math.isfinite(diameter):
        raise InvalidPolygonError(f"polytope diameter {diameter} is not finite: the coordinates overflow its closed form")
    if np.min(closest) <= REPEATED_VERTEX_TOL * diameter:
        raise InvalidPolygonError("polytope has repeated vertices")
    return diameter


def _check_halfspaces(v: np.ndarray, normals: np.ndarray, offsets: np.ndarray, diameter: float) -> None:
    """Every vertex must lie in every facet half-space, else not convex.
    Checked a block of vertices at a time, with about _PAIR_BLOCK
    vertex-facet pairs per block, so no (m, F) array is formed."""
    step = max(1, _PAIR_BLOCK // len(normals))
    blocks = [_max_excess(v[i : i + step], normals, offsets).max() for i in range(0, len(v), step)]
    if float(np.max(blocks)) > CONVEXITY_TOL * diameter:
        raise InvalidPolygonError("vertex lies outside a facet half-space; polytope not convex")


@dataclass(frozen=True)
class PolyApprox:
    """Convex polygon inscribed in a domain, with per-facet boundary gaps.

    Facet F has vertex indices `facets[F]` and the outward half-plane
    `normals[F] . x <= offsets[F]`; the facets are the edges i -> i+1 of the
    counterclockwise vertex list.
    """

    dim = 2  # a class constant, not a field
    vertices: np.ndarray
    facets: np.ndarray
    normals: np.ndarray
    offsets: np.ndarray
    gap_per_facet: np.ndarray
    gap: float

    def signed_facet_distances(self, points) -> np.ndarray:
        """max_F n_F.x - o_F for each point; > 0 means outside."""
        return _max_excess(points, self.normals, self.offsets)


def gap_delta(dom: ConvexDomain, poly: PolyApprox) -> tuple[float, np.ndarray]:
    """Boundary gap: per facet, the farthest the true boundary extends past
    the facet plane.  Exact through the support function.
    """
    return _facet_gaps(dom, poly.normals, poly.offsets)


def _facet_gaps(dom: ConvexDomain, normals: np.ndarray, offsets: np.ndarray) -> tuple[float, np.ndarray]:
    gaps = np.array([dom.support(n) - o for n, o in zip(normals, offsets)])
    if np.any(gaps < -INSCRIBED_TOL * dom.diameter):
        worst = int(np.argmin(gaps))
        raise NotInscribedError(f"facet {worst} lies outside the domain by {-gaps[worst]:.3e}")
    return max(0.0, float(gaps.max())), gaps


def _first_off_boundary(dom: ConvexDomain, vertices: np.ndarray) -> tuple[int, str] | None:
    """The first vertex that lies outside the domain or off its boundary,
    with the first of the two that it fails, or None."""
    tol = ON_BOUNDARY_TOL * dom.diameter
    outside = ~np.asarray(dom.contains(vertices, tol=tol))
    off = dom.boundary_distance(vertices) > tol
    bad = np.flatnonzero(outside | off)
    if not bad.size:
        return None
    i = int(bad[0])
    return i, "lies outside the domain" if outside[i] else "does not lie on the domain boundary"


def make_poly_approx(dom: ConvexDomain, vertices) -> PolyApprox:
    """Build and validate a polygon inscribed in `dom`: vertices in either
    orientation (stored counterclockwise), facets the consecutive pairs.
    Rejects repeated vertices and any vertex outside a facet half-plane,
    which covers non-convex and multiply wound boundaries.
    """
    hull = ConvexPolygon(vertices)
    v, normals, offsets = hull.vertices, hull.normals, hull.offsets
    facets = np.stack([np.arange(len(v)), np.roll(np.arange(len(v)), -1)], axis=1)
    off = _first_off_boundary(dom, v)
    if off is not None:
        raise NotInscribedError("vertex %d %s" % off)
    gap, gaps = _facet_gaps(dom, normals, offsets)
    for a in (facets, normals, offsets, gaps):
        a.setflags(write=False)
    return PolyApprox(v, facets, normals, offsets, gaps, gap)


def inscribed_regular_polygon(dom: Disk, m: int) -> PolyApprox:
    """Regular m-gon with vertices on the circle, m >= 3."""
    if not isinstance(dom, Disk):
        raise InvalidPolygonError("regular polygon generator requires a disk domain")
    if m < 3:
        raise InvalidPolygonError(f"need at least 3 vertices, got {m}")
    k = np.arange(m)
    ang = 2.0 * math.pi * k / m
    verts = dom.center + dom.radius * np.stack([np.cos(ang), np.sin(ang)], axis=1)
    return make_poly_approx(dom, verts)


def poly_approx_of_polygon(dom: ConvexPolygon) -> PolyApprox:
    """A convex polygon domain approximated by itself (gap 0)."""
    return make_poly_approx(dom, dom.vertices)
