"""Convex domains, inscribed polytope approximations, and boundary gaps.

The exact domain is modeled through its support function, which makes the
facet-to-boundary gap an exact evaluation rather than a sampled estimate:
the maximum of a linear functional over a convex body IS the support value.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidDirectionError, InvalidPolygonError, NotInscribedError

UNIT_TOL = 1e-12
ON_BOUNDARY_TOL = 1e-10
CONVEXITY_TOL = 1e-12
INSCRIBED_TOL = 1e-10


class ConvexDomain:
    """Base class for the built-in convex domain registry.

    Subclasses provide exact diameter, measure and support values, the 2D
    ones also a boundary parametrization; arbitrary user support functions
    are not accepted because certified bounds need exact geometric data.
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

    def boundary_point(self, t: float) -> np.ndarray:
        """Point on the boundary for a parameter in [0, 1)."""
        raise NotImplementedError

    def boundary_distance(self, point) -> float:
        """Distance from a point to the boundary."""
        raise NotImplementedError


class Ball(ConvexDomain):
    """Euclidean ball of `dim` dimensions; `Disk` is its 2D case."""

    dim = 3

    def __init__(self, radius: float, center=None) -> None:
        if radius <= 0:
            raise ValueError("radius must be positive")
        self.radius = float(radius)
        self.center = np.zeros(self.dim) if center is None else np.array(center, dtype=float)
        self.diameter = 2.0 * self.radius

    @property
    def measure(self) -> float:
        return 4.0 / 3.0 * math.pi * self.radius**3

    def _support_unit(self, d: np.ndarray) -> float:
        return self.radius + float(np.dot(d, self.center))

    def contains(self, points, tol: float = 1e-12):
        p = np.asarray(points, dtype=float)
        r = np.linalg.norm(p - self.center, axis=-1)
        return r <= self.radius + tol

    def boundary_distance(self, point) -> float:
        return abs(self.radius - float(np.linalg.norm(np.asarray(point, float) - self.center)))


class Disk(Ball):
    dim = 2

    @property
    def measure(self) -> float:
        return math.pi * self.radius**2

    def boundary_point(self, t: float) -> np.ndarray:
        a = 2.0 * math.pi * t
        return self.center + self.radius * np.array([math.cos(a), math.sin(a)])


class ConvexPolygon(ConvexDomain):
    dim = 2

    def __init__(self, vertices) -> None:
        v = np.array(vertices, dtype=float)
        if v.ndim != 2 or v.shape[1] != 2 or v.shape[0] < 3:
            raise InvalidPolygonError("polygon needs at least 3 planar vertices")
        if _shoelace(v) < 0:
            v = v[::-1].copy()  # normalize to counterclockwise
        cross = _edge_crosses(v)
        if np.any(cross < -CONVEXITY_TOL):
            raise InvalidPolygonError("polygon is not convex")
        if np.any(np.isclose(np.linalg.norm(np.roll(v, -1, axis=0) - v, axis=1), 0.0)):
            raise InvalidPolygonError("polygon has repeated vertices")
        v.setflags(write=False)
        self.vertices = v
        self.measure = _shoelace(v)
        diffs = v[:, None, :] - v[None, :, :]
        self.diameter = float(np.sqrt((diffs**2).sum(-1)).max())
        self._edge_normals, self._edge_offsets = _polygon_halfplanes(v)

    def _support_unit(self, d: np.ndarray) -> float:
        return float((self.vertices @ d).max())

    def contains(self, points, tol: float = 1e-12):
        p = np.asarray(points, dtype=float)
        s = p @ self._edge_normals.T - self._edge_offsets
        return np.all(s <= tol, axis=-1)

    def boundary_point(self, t: float) -> np.ndarray:
        v = self.vertices
        lengths = np.linalg.norm(np.roll(v, -1, axis=0) - v, axis=1)
        perimeter = lengths.sum()
        target = (t % 1.0) * perimeter
        acc = 0.0
        for i, ell in enumerate(lengths):
            if target <= acc + ell or i == len(lengths) - 1:
                s = (target - acc) / ell
                return v[i] + s * (v[(i + 1) % len(v)] - v[i])
            acc += ell
        raise AssertionError("unreachable")

    def boundary_distance(self, point) -> float:
        p = np.asarray(point, dtype=float)
        v = self.vertices
        best = math.inf
        for i in range(len(v)):
            a, b = v[i], v[(i + 1) % len(v)]
            best = min(best, _point_segment_distance(p, a, b))
        return best


def _shoelace(v: np.ndarray) -> float:
    x, y = v[:, 0], v[:, 1]
    return 0.5 * float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))


def _edge_crosses(v: np.ndarray) -> np.ndarray:
    e = np.roll(v, -1, axis=0) - v
    en = np.roll(e, -1, axis=0)
    return e[:, 0] * en[:, 1] - e[:, 1] * en[:, 0]


def _polygon_halfplanes(v: np.ndarray):
    e = np.roll(v, -1, axis=0) - v
    normals = np.stack([e[:, 1], -e[:, 0]], axis=1)  # outward for CCW order
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    offsets = np.einsum("ij,ij->i", normals, v)
    return normals, offsets


def _point_segment_distance(p, a, b) -> float:
    ab = b - a
    t = float(np.dot(p - a, ab) / np.dot(ab, ab))
    t = min(1.0, max(0.0, t))
    return float(np.linalg.norm(p - (a + t * ab)))


@dataclass(frozen=True)
class Facet:
    indices: tuple[int, ...]
    normal: np.ndarray
    barycenter: np.ndarray


@dataclass(frozen=True)
class PolyApprox:
    """Convex polytope inscribed in a domain, with per-facet boundary gaps."""

    dim: int
    vertices: np.ndarray
    facets: list[Facet]
    gap_per_facet: np.ndarray
    gap: float
    meta: dict = field(default_factory=dict)

    @property
    def facet_normals(self) -> np.ndarray:
        return np.array([f.normal for f in self.facets])

    @property
    def facet_barycenters(self) -> np.ndarray:
        return np.array([f.barycenter for f in self.facets])

    def signed_facet_distances(self, points) -> np.ndarray:
        """max_F n_F.(x - g_F) for each point; > 0 means outside."""
        p = np.asarray(points, dtype=float)
        s = np.einsum("...d,fd->...f", p, self.facet_normals) - np.einsum(
            "fd,fd->f", self.facet_normals, self.facet_barycenters
        )
        return s.max(axis=-1)

    def contains(self, points, tol: float = 1e-12):
        return self.signed_facet_distances(points) <= tol

    def to_json_dict(self) -> dict:
        obj = {"dim": self.dim, "vertices": self.vertices.tolist()}
        if self.dim == 3:
            obj["facets"] = [list(f.indices) for f in self.facets]
        return obj


def gap_delta(dom: ConvexDomain, poly: PolyApprox) -> tuple[float, np.ndarray]:
    """Boundary gap: per facet, the farthest the true boundary extends past
    the facet plane.  Exact through the support function.
    """
    return gap_delta_from_parts(dom, poly.facets)


def _validate_vertices_on_boundary(dom: ConvexDomain, vertices: np.ndarray) -> None:
    for i, v in enumerate(vertices):
        if not bool(np.asarray(dom.contains(v, tol=ON_BOUNDARY_TOL))):
            raise NotInscribedError(f"vertex {i} lies outside the domain")
        if dom.boundary_distance(v) > ON_BOUNDARY_TOL:
            raise NotInscribedError(f"vertex {i} does not lie on the domain boundary")


def _validate_convexity(vertices: np.ndarray, facets: list[Facet]) -> None:
    for f in facets:
        s = vertices @ f.normal - float(np.dot(f.normal, f.barycenter))
        if float(s.max()) > CONVEXITY_TOL:
            raise InvalidPolygonError("vertex lies outside a facet half-space; polytope not convex")


def make_poly_approx(dom: ConvexDomain, vertices, facet_indices=None, meta=None) -> PolyApprox:
    """Build and validate an inscribed polytope approximation.

    2D: vertices in counterclockwise order, facets are consecutive pairs.
    3D: explicit facet index triples with outward orientation.
    """
    v = np.array(vertices, dtype=float)
    if dom.dim == 2:
        if _shoelace(v) < 0:
            v = v[::-1].copy()
        poly_check = ConvexPolygon(v)  # reuses convexity validation
        v = poly_check.vertices.copy()
        normals, _ = _polygon_halfplanes(v)
        facets = []
        for i in range(len(v)):
            j = (i + 1) % len(v)
            facets.append(Facet((i, j), normals[i].copy(), 0.5 * (v[i] + v[j])))
    else:
        if facet_indices is None:
            raise InvalidPolygonError("3D polytopes need an explicit facet list")
        centroid = v.mean(axis=0)
        facets = []
        for tri in facet_indices:
            idx = tuple(int(i) for i in tri)
            if len(idx) != 3 or max(idx) >= len(v) or min(idx) < 0:
                raise InvalidPolygonError(f"bad facet {tri}")
            a, b, c = v[idx[0]], v[idx[1]], v[idx[2]]
            n = np.cross(b - a, c - a)
            nn = np.linalg.norm(n)
            if nn == 0.0:
                raise InvalidPolygonError(f"degenerate facet {tri}")
            n = n / nn
            g = (a + b + c) / 3.0
            if float(np.dot(n, g - centroid)) <= 0.0:
                raise InvalidPolygonError(f"facet {tri} is not oriented outward")
            facets.append(Facet(idx, n, g))
    _validate_vertices_on_boundary(dom, v)
    _validate_convexity(v, facets)
    v.setflags(write=False)
    gap, gaps = gap_delta_from_parts(dom, facets)
    return PolyApprox(dom.dim, v, facets, gaps, gap, dict(meta or {}))


def gap_delta_from_parts(dom: ConvexDomain, facets: list[Facet]) -> tuple[float, np.ndarray]:
    gaps = np.array([dom.support(f.normal) - float(np.dot(f.normal, f.barycenter)) for f in facets])
    if np.any(gaps < -INSCRIBED_TOL):
        worst = int(np.argmin(gaps))
        raise NotInscribedError(f"facet {worst} lies outside the domain by {-gaps[worst]:.3e}")
    return max(0.0, float(gaps.max())), gaps


def inscribed_regular_polygon(dom: Disk, m: int) -> PolyApprox:
    """Regular m-gon with vertices on the circle, m >= 3."""
    if not isinstance(dom, Disk):
        raise InvalidPolygonError("regular polygon generator requires a disk domain")
    if m < 3:
        raise InvalidPolygonError(f"need at least 3 vertices, got {m}")
    k = np.arange(m)
    ang = 2.0 * math.pi * k / m
    verts = dom.center + dom.radius * np.stack([np.cos(ang), np.sin(ang)], axis=1)
    return make_poly_approx(dom, verts, meta={"kind": "regular_polygon", "m": m, "radius": dom.radius})


def poly_approx_of_polygon(dom: ConvexPolygon) -> PolyApprox:
    """A convex polygon domain approximated by itself (gap 0)."""
    return make_poly_approx(dom, dom.vertices, meta={"kind": "exact_polygon"})


def load_poly_approx(path_or_obj, dom: ConvexDomain) -> PolyApprox:
    """Read a polytope from JSON ({"dim", "vertices"[, "facets"]}) and validate
    it against the given domain."""
    if isinstance(path_or_obj, (str,)):
        with open(path_or_obj, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    else:
        obj = path_or_obj
    dim = int(obj["dim"])
    if dim != dom.dim:
        raise InvalidPolygonError(f"polytope dim {dim} does not match domain dim {dom.dim}")
    return make_poly_approx(dom, obj["vertices"], obj.get("facets"))


def save_poly_approx(poly: PolyApprox, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(poly.to_json_dict(), fh)
        fh.write("\n")
