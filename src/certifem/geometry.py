"""Metric primitives on simplices (triangles in 2D, tetrahedra in 3D).

The kernels take (M, dim+1, dim) vertex arrays; mesh metrics call them on
every element, and the `Simplex` functions on one.  All operations are pure
functions on immutable values; degenerate inputs raise instead of silently
producing huge constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSimplexError

# A simplex with measure below DEGENERACY_TOL * h_T^dim is rejected.
DEGENERACY_TOL = 1e-14

_FACTORIAL = (1.0, 1.0, 2.0, 6.0)

# Angle at or below pi/2 + NONBLUNT_TOL counts as non-obtuse.
NONBLUNT_TOL = 1e-12


class Simplex:
    """Immutable simplex: dim+1 vertices in R^dim, dim in {2, 3}."""

    __slots__ = ("vertices", "dim")

    def __init__(self, vertices) -> None:
        v = np.array(vertices, dtype=float)
        if v.ndim != 2 or v.shape[1] not in (2, 3) or v.shape[0] != v.shape[1] + 1:
            raise ValueError(f"expected (dim+1, dim) vertex array with dim in {{2,3}}, got {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("vertex coordinates must be finite")
        v.setflags(write=False)
        self.vertices = v
        self.dim = int(v.shape[1])

    def __repr__(self) -> str:
        return f"Simplex({self.vertices.tolist()})"


def triangle(p0, p1, p2) -> Simplex:
    return Simplex([p0, p1, p2])


def tetrahedron(p0, p1, p2, p3) -> Simplex:
    return Simplex([p0, p1, p2, p3])


# Vertex indices of the facet opposite each vertex.
FACETS = {2: ((1, 2), (0, 2), (0, 1)), 3: ((1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2))}
# First and second vertex of each edge; in 2D edge j is facet j.
EDGES = {2: ([1, 0, 0], [2, 2, 1]), 3: ([0, 0, 0, 1, 1, 2], [1, 2, 3, 2, 3, 3])}


@dataclass(frozen=True)
class ElementMetrics:
    measures: np.ndarray  # (M,)
    edge_sq: np.ndarray  # (M, 3) squared edge lengths, edge j opposite vertex j (2D); (M, 6) in 3D
    h: np.ndarray  # (M,) longest edge
    circumradius: np.ndarray  # (M,)
    inradius: np.ndarray  # (M,)
    min_angle: np.ndarray | None  # 2D only
    max_angle: np.ndarray | None  # 2D only


def signed_measures(verts: np.ndarray) -> np.ndarray:
    """(M,) signed measures (orientation-sensitive); no degeneracy check."""
    edges = verts[:, 1:, :] - verts[:, :1, :]
    return np.linalg.det(edges) / _FACTORIAL[verts.shape[2]]


def degenerate(measures: np.ndarray, edge_sq: np.ndarray, dim: int) -> np.ndarray:
    """Mask of measures at or below DEGENERACY_TOL * h^dim, h the longest edge."""
    return measures <= DEGENERACY_TOL * np.sqrt(edge_sq.max(axis=1)) ** dim


def squared_edges(verts: np.ndarray) -> np.ndarray:
    """(M, 3) or (M, 6) squared edge lengths, in `EDGES` order."""
    i, j = EDGES[verts.shape[2]]
    return ((verts[:, i] - verts[:, j]) ** 2).sum(-1)


def edge_cosines(edge_sq: np.ndarray) -> np.ndarray:
    """(M, 3) law-of-cosines cosines of the triangle angles, column i at
    vertex i, from 2D `squared_edges`; not clipped to [-1, 1]."""
    lengths = np.sqrt(edge_sq)
    nxt, prev = [1, 2, 0], [2, 0, 1]
    return (edge_sq[:, nxt] + edge_sq[:, prev] - edge_sq) / (2.0 * lengths[:, nxt] * lengths[:, prev])


def _circumcenter_offsets(verts: np.ndarray) -> np.ndarray:
    """(M, dim) circumcenter minus the first vertex, from the perpendicular-
    bisector system; the shift to the first vertex keeps it well scaled."""
    d = verts[:, 1:, :] - verts[:, :1, :]
    rhs = np.einsum("mij,mij->mi", d, d)
    return np.linalg.solve(2.0 * d, rhs[..., None])[..., 0]


def inradii(verts: np.ndarray, measures: np.ndarray, edge_sq: np.ndarray) -> np.ndarray:
    """(M,) inscribed-ball radii: dim * measure / (facet measure sum)."""
    if verts.shape[2] == 2:
        facets = np.sqrt(edge_sq).sum(axis=1)
    else:
        a, b, c = (verts[:, list(k)] for k in zip(*FACETS[3]))  # (M, 4, 3) corners of the faces
        facets = (0.5 * np.linalg.norm(np.cross(b - a, c - a), axis=-1)).sum(axis=1)
    return verts.shape[2] * measures / facets


def vertex_metrics(verts: np.ndarray, measures: np.ndarray) -> ElementMetrics:
    """Per-element geometry of (M, dim+1, dim) vertex arrays and their
    (unsigned) `measures`, kept as given; the arrays are made read-only."""
    edge_sq = squared_edges(verts)
    h = np.sqrt(edge_sq.max(axis=1))
    if verts.shape[2] == 2:
        lengths = np.sqrt(edge_sq)
        circum = lengths.prod(axis=1) / (4.0 * measures)
        # Two angle formulas stay on purpose.  `angles` uses atan2, whose three
        # angles sum to pi within 1e-12 (arccos drifts by ~5e-12); the mesh keeps
        # arccos because the `minangle` bound and the worst-element ties in
        # reports were computed with it.  They differ by up to 4.4e-8 relative
        # on thin triangles.
        ang = np.arccos(np.clip(edge_cosines(edge_sq), -1.0, 1.0))
        min_angle, max_angle = ang.min(axis=1), ang.max(axis=1)
    else:
        circum = np.linalg.norm(_circumcenter_offsets(verts), axis=1)
        min_angle = max_angle = None
    arrays = (measures, edge_sq, h, circum, inradii(verts, measures, edge_sq), min_angle, max_angle)
    for arr in arrays:
        if arr is not None:
            arr.setflags(write=False)
    return ElementMetrics(*arrays)


def signed_measure(s: Simplex) -> float:
    """Signed measure (orientation-sensitive); no degeneracy check."""
    return float(signed_measures(s.vertices[None])[0])


def as_batch(s: Simplex) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`s` as kernel input: its (1, dim+1, dim) vertex array, measure and
    squared edges; raises on degenerate vertex sets."""
    verts = s.vertices[None]
    meas = np.abs(signed_measures(verts))
    edge_sq = squared_edges(verts)
    if degenerate(meas, edge_sq, s.dim)[0]:
        raise DegenerateSimplexError(f"simplex measure {meas[0]:.3e} below degeneracy threshold")
    return verts, meas, edge_sq


def measure(s: Simplex) -> float:
    """Area (2D) or volume (3D); raises on degenerate vertex sets."""
    return float(as_batch(s)[1][0])


def edge_lengths(s: Simplex) -> list[float]:
    """All edge lengths, sorted in descending order (first entry = h_T)."""
    return sorted(np.sqrt(squared_edges(s.vertices[None])[0]).tolist(), reverse=True)


def circumcenter(s: Simplex) -> np.ndarray:
    """Center of the circumscribed ball (perpendicular-bisector system)."""
    measure(s)  # reject degenerate input before solving
    return s.vertices[0] + _circumcenter_offsets(s.vertices[None])[0]


def circumradius(s: Simplex) -> float:
    return float(np.linalg.norm(circumcenter(s) - s.vertices[0]))


def inradius(s: Simplex) -> float:
    """Radius of the inscribed ball: dim * measure / (facet measure sum)."""
    return float(inradii(*as_batch(s))[0])


def angles(t: Simplex) -> list[float]:
    """Interior angles of a triangle, in radians, vertex order (atan2; see
    `vertex_metrics` for why the mesh kernel uses arccos)."""
    if t.dim != 2:
        raise ValueError("angles are defined for triangles only")
    measure(t)
    v = t.vertices
    out = []
    for i in range(3):
        u = v[(i + 1) % 3] - v[i]
        w = v[(i + 2) % 3] - v[i]
        out.append(math.atan2(abs(u[0] * w[1] - u[1] * w[0]), float(np.dot(u, w))))
    return out


def min_angle(t: Simplex) -> float:
    return min(angles(t))


def is_nonblunt(t: Simplex) -> bool:
    """True iff no interior angle exceeds pi/2 (right angles admitted)."""
    return max(angles(t)) <= math.pi / 2.0 + NONBLUNT_TOL


def barycenter(s: Simplex) -> np.ndarray:
    return s.vertices.mean(axis=0)
