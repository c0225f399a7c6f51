"""Metric primitives on triangles.

Measures and squared edges of meshes, (M, 3, 2) vertex arrays and single
`Simplex`es all come from one kernel (`_element_geometry`); the other
kernels take vertex arrays or its results.  All operations are pure
functions on immutable values; degenerate inputs raise instead of silently
producing huge constants.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import DegenerateSimplexError

# A triangle with measure below DEGENERACY_TOL * h_T^2 is rejected.
DEGENERACY_TOL = 1e-14

# Angle at or below pi/2 + NONBLUNT_TOL counts as non-obtuse.
NONBLUNT_TOL = 1e-12

# Elements per block of `_blocks`: each numpy call still covers thousands of
# elements, while per-block temporaries stay small.
_BLOCK = 4096


def _blocks(count: int) -> Iterator[slice]:
    """Slices of _BLOCK consecutive elements covering `count` elements: the
    one way per-element kernels, integrals and maxima walk a mesh."""
    return (slice(start, start + _BLOCK) for start in range(0, count, _BLOCK))


class Simplex:
    """Immutable triangle: 3 vertices in R^2."""

    __slots__ = ("vertices",)
    dim = 2

    def __init__(self, vertices) -> None:
        v = np.array(vertices, dtype=float)
        if v.shape != (3, 2):
            raise ValueError(f"expected a (3, 2) vertex array, got {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("vertex coordinates must be finite")
        v.setflags(write=False)
        self.vertices = v

    def __repr__(self) -> str:
        return f"Simplex({self.vertices.tolist()})"


def triangle(p0, p1, p2) -> Simplex:
    return Simplex([p0, p1, p2])


# Vertex indices of the facet (edge) opposite each vertex.
FACETS = ((1, 2), (0, 2), (0, 1))
# First and second vertex of each edge; edge j is facet j.
EDGES = ([1, 0, 0], [2, 2, 1])


@dataclass(frozen=True)
class ElementMetrics:
    measures: np.ndarray  # (M,)
    edge_sq: np.ndarray  # (M, 3) squared edge lengths, edge j opposite vertex j
    h: np.ndarray  # (M,) longest edge
    circumradius: np.ndarray  # (M,)
    inradius: np.ndarray  # (M,)
    min_angle: np.ndarray  # (M,)
    max_angle: np.ndarray  # (M,)


def _element_geometry(nodes: np.ndarray, elements: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Signed measures (M,) and column-major squared edges (M, 3), in `EDGES`
    order, of the triangles (M, 3) of `nodes` (N, 2), from gathered
    coordinate columns, one block of elements at a time (`_blocks`) so that
    the temporaries stay small.  With the rows e_k = corner_k - corner_0 of
    B, det(B) is a d - b c.  A squared edge is dx*dx + dy*dy, bit for bit
    `((verts[:, i] - verts[:, j])**2).sum(-1)`."""
    det = np.empty(elements.shape[0])
    out = np.empty((3, elements.shape[0]))
    for rows in _blocks(elements.shape[0]):
        corners = [[nodes[:, c][elements[rows, k]] for c in range(2)] for k in range(3)]
        e = [[p - q for p, q in zip(corner, corners[0])] for corner in corners[1:]]
        (a, b), (c, d) = e
        det[rows] = a * d - b * c
        for sq, (i, j) in zip(out[:, rows], zip(*EDGES)):
            # corner 0 - corner j is -e_j, which squares to the same bits
            dx, dy = e[j - 1] if i == 0 else [p - q for p, q in zip(corners[i], corners[j])]
            np.multiply(dx, dx, out=sq)
            sq += dy * dy
    det /= 2
    return det, out.T


def _vertex_geometry(verts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`_element_geometry` of an (M, 3, 2) vertex array, its rows as nodes:
    signed measures (no degeneracy check) and squared edges."""
    m = verts.shape[0]
    return _element_geometry(verts.reshape(-1, 2), np.arange(m * 3).reshape(m, 3))


def degenerate(measures: np.ndarray, edge_sq: np.ndarray) -> np.ndarray:
    """Mask of measures at or below DEGENERACY_TOL * h^2, h the longest
    edge, or not finite (closed forms overflow to inf - inf on huge
    coordinates); tested as measure / h > DEGENERACY_TOL * h, as h^2
    overflows before a finite measure does."""
    h = np.sqrt(edge_sq.max(axis=1))
    with np.errstate(divide="ignore", invalid="ignore"):  # h = 0 or inf: NaN or 0, degenerate
        return ~(measures / h > DEGENERACY_TOL * h)


def _unit_scaled(measures: np.ndarray, edge_sq: np.ndarray) -> tuple[np.ndarray, ...]:
    """(q, measures * 4**-q, edge_sq * 4**-q) of triangles, with per element
    the q for which its largest squared edge times 4**-q lies in [0.5, 2).
    Scaling lengths by 2**-q is exact, so the angle, circumradius and
    Kobayashi kernels run on unit-sized elements, whose sixth powers of edge
    lengths cannot overflow, and give their result times 2**-q: bit for bit,
    on any element whose unscaled terms stay normal numbers."""
    q = np.frexp(edge_sq.max(axis=1))[1] // 2
    return q, np.ldexp(measures, -2 * q), np.ldexp(edge_sq, -2 * q[:, None])


def _angle_pair(measures: np.ndarray, edge_sq: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The one source of triangle angles: s = 4|T| = 2 l_j l_k sin(theta_i)
    (M,) and c (M, 3), column i = l_j^2 + l_k^2 - l_i^2 = 2 l_j l_k
    cos(theta_i), from unit-scaled (`_unit_scaled`) measures and squared
    edges; theta_i = atan2(s, c_i).  No sine comes from a rounded cosine, so
    thin angles keep the measure's relative accuracy (its condition number
    kappa).  Near a right angle c cancels: the angle error grows like
    u l_max / l_min (u = 2**-53); measured, it stays at or below
    2u (kappa theta + l_max / l_min)."""
    c = np.empty_like(edge_sq)
    for i in range(3):
        np.add(edge_sq[:, (i + 1) % 3], edge_sq[:, (i + 2) % 3], out=c[:, i])
        c[:, i] -= edge_sq[:, i]
    return 4.0 * measures, c


def _circumcenter_offsets(verts: np.ndarray) -> np.ndarray:
    """(M, 2) circumcenter minus the first vertex, from the perpendicular-
    bisector system; the shift to the first vertex keeps it well scaled."""
    d = verts[:, 1:, :] - verts[:, :1, :]
    rhs = np.einsum("mij,mij->mi", d, d)
    return np.linalg.solve(2.0 * d, rhs[..., None])[..., 0]


def inradii(measures: np.ndarray, edge_sq: np.ndarray) -> np.ndarray:
    """(M,) inscribed-circle radii: 2 * measure / perimeter."""
    return 2 * measures / np.sqrt(edge_sq).sum(axis=1)


def vertex_metrics(measures: np.ndarray, edge_sq: np.ndarray) -> ElementMetrics:
    """Per-element geometry of triangles from their (unsigned) `measures`
    and squared edges, kept as given; the arrays are made read-only."""
    h = np.sqrt(edge_sq.max(axis=1))
    # abc / (4 area) on unit-scaled lengths, whose product cannot over- or underflow
    q, meas, sq = _unit_scaled(measures, edge_sq)
    s, c = _angle_pair(meas, sq)
    circum = np.ldexp(np.sqrt(sq).prod(axis=1) / s, q)
    ang = np.arctan2(s[:, None], c)
    arrays = (measures, edge_sq, h, circum, inradii(measures, edge_sq), ang.min(axis=1), ang.max(axis=1))
    for arr in arrays:
        arr.setflags(write=False)
    return ElementMetrics(*arrays)


def _finite_geometry(s: Simplex) -> tuple[np.ndarray, np.ndarray]:
    """`_vertex_geometry` of `s`: signed measure (1,) and squared edges
    (1, 3); raises on coordinates so large that the closed forms overflow to
    inf or NaN, with no degeneracy check."""
    with np.errstate(over="ignore", invalid="ignore"):
        signed, edge_sq = _vertex_geometry(s.vertices[None])
    if not (np.isfinite(signed[0]) and np.isfinite(edge_sq).all()):
        raise DegenerateSimplexError(
            f"simplex measure {abs(signed[0]):.3e} (longest squared edge {edge_sq.max():.3e}) is not finite: "
            "the coordinates overflow its closed form"
        )
    return signed, edge_sq


def as_batch(s: Simplex) -> tuple[np.ndarray, np.ndarray]:
    """`s` as kernel input: its measure (1,) and squared edges (1, 3);
    raises on degenerate vertex sets, and on coordinates so large that the
    closed forms overflow to inf or NaN."""
    signed, edge_sq = _finite_geometry(s)
    meas = np.abs(signed)
    if degenerate(meas, edge_sq)[0]:
        raise DegenerateSimplexError(f"simplex measure {meas[0]:.3e} below degeneracy threshold")
    return meas, edge_sq


def measure(s: Simplex) -> float:
    """Area; raises on degenerate vertex sets."""
    return float(as_batch(s)[0][0])


def edge_lengths(s: Simplex) -> list[float]:
    """All edge lengths, sorted in descending order (first entry = h_T)."""
    return sorted(np.sqrt(_finite_geometry(s)[1][0]).tolist(), reverse=True)


def circumcenter(s: Simplex) -> np.ndarray:
    """Center of the circumscribed circle (perpendicular-bisector system)."""
    measure(s)  # reject degenerate input before solving
    return s.vertices[0] + _circumcenter_offsets(s.vertices[None])[0]


def circumradius(s: Simplex) -> float:
    """Radius of the circumscribed circle, abc / (4|T|), by the mesh kernel
    (`vertex_metrics`)."""
    return float(vertex_metrics(*as_batch(s)).circumradius[0])


def inradius(s: Simplex) -> float:
    """Radius of the inscribed circle: 2 * measure / perimeter."""
    return float(inradii(*as_batch(s))[0])


def angles(t: Simplex) -> list[float]:
    """Interior angles of a triangle, in radians, vertex order: the mesh
    kernel's atan2(4|T|, l_j^2 + l_k^2 - l_i^2) (`_angle_pair`)."""
    meas, edge_sq = as_batch(t)
    s, c = _angle_pair(*_unit_scaled(meas, edge_sq)[1:])
    return np.arctan2(s[:, None], c)[0].tolist()


def min_angle(t: Simplex) -> float:
    return min(angles(t))


def barycenter(s: Simplex) -> np.ndarray:
    return s.vertices.mean(axis=0)
