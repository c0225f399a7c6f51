"""Metric primitives on simplices (triangles in 2D, tetrahedra in 3D).

Measures and squared edges of meshes, (M, dim+1, dim) vertex arrays and
single `Simplex`es all come from one kernel (`_element_geometry`); the other
kernels take vertex arrays or its results.  All operations are pure
functions on immutable values; degenerate inputs raise instead of silently
producing huge constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import DegenerateSimplexError

# A simplex with measure below DEGENERACY_TOL * h_T^dim is rejected.
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


def _two_product(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """fl(a b) and its exact rounding error, without FMA: Dekker's
    TwoProduct on the factors split into halves of at most 26 bits."""
    p = a * b
    ah, bh = ((c := 134217729.0 * x) - (c - x) for x in (a, b))  # c = (2^27 + 1) x
    al, bl = a - ah, b - bh
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _two_sum(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """fl(a + b) and its exact rounding error (Knuth's TwoSum)."""
    s = a + b
    z = s - a
    return s, (a - (s - z)) + (b - z)


def _element_geometry(nodes: np.ndarray, elements: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Signed measures (M,) and column-major squared edges (M, 3) or (M, 6),
    in `EDGES` order, of the elements (M, dim+1) of `nodes` (N, dim), from
    gathered coordinate columns, one block of elements at a time (`_blocks`)
    so that the temporaries stay small.  With the rows e_k = corner_k -
    corner_0 of B, det(B) is a d - b c in 2D and e1 . (e2 x e3) in 3D, the
    latter as if computed in twice the working precision, then rounded
    (Ogita, Rump and Oishi, "Accurate sum and dot product", 2005): the plain
    triple product is less accurate than an LU solve on thin tetrahedra.  A
    squared edge is dx*dx + dy*dy (+ dz*dz), bit for bit
    `((verts[:, i] - verts[:, j])**2).sum(-1)`."""
    dim = nodes.shape[1]
    det = np.empty(elements.shape[0])
    out = np.empty((len(EDGES[dim][0]), elements.shape[0]))
    for rows in _blocks(elements.shape[0]):
        corners = [[nodes[:, c][elements[rows, k]] for c in range(dim)] for k in range(dim + 1)]
        e = [[p - q for p, q in zip(corner, corners[0])] for corner in corners[1:]]
        if dim == 2:
            (a, b), (c, d) = e
            det[rows] = a * d - b * c
        else:
            total = err = 0.0
            for k, (i, j) in enumerate(((1, 2), (2, 0), (0, 1))):  # (e2 x e3)_k = p - q
                (p, p_err), (q, q_err) = _two_product(e[1][i], e[2][j]), _two_product(e[1][j], e[2][i])
                s, s_err = _two_sum(p, -q)
                h, h_err = _two_product(e[0][k], s)
                total, t_err = _two_sum(total, h)
                err = err + (t_err + h_err + e[0][k] * (s_err + (p_err - q_err)))
            det[rows] = total + err
        for sq, (i, j) in zip(out[:, rows], zip(*EDGES[dim])):
            # corner 0 - corner j is -e_j, which squares to the same bits
            diff = e[j - 1] if i == 0 else [p - q for p, q in zip(corners[i], corners[j])]
            np.multiply(diff[0], diff[0], out=sq)
            for d in diff[1:]:
                sq += d * d
    det /= math.factorial(dim)
    return det, out.T


def _vertex_geometry(verts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`_element_geometry` of an (M, dim+1, dim) vertex array, its rows as
    nodes: signed measures (no degeneracy check) and squared edges."""
    m, k, dim = verts.shape
    return _element_geometry(verts.reshape(-1, dim), np.arange(m * k).reshape(m, k))


def _row_reduce(ufunc: np.ufunc, a: np.ndarray) -> np.ndarray:
    """`ufunc.reduce(a, axis=1)` of an (M, k) array, one column at a time
    from the left: the order in which numpy reduces such short rows, without
    its slow per-row loop."""
    out = ufunc(a[:, 0], a[:, 1])
    for k in range(2, a.shape[1]):
        ufunc(out, a[:, k], out=out)
    return out


def degenerate(measures: np.ndarray, edge_sq: np.ndarray, dim: int) -> np.ndarray:
    """Mask of measures at or below DEGENERACY_TOL * h^dim, h the longest
    edge, or not finite (closed forms overflow to inf - inf on huge
    coordinates); tested as measure / h^(dim-1) > DEGENERACY_TOL * h, as
    h^dim overflows before a finite measure does."""
    h = np.sqrt(_row_reduce(np.maximum, edge_sq))
    with np.errstate(divide="ignore", invalid="ignore"):  # h = 0 or inf: NaN or 0, degenerate
        return ~(measures / h ** (dim - 1) > DEGENERACY_TOL * h)


def _unit_scaled(measures: np.ndarray, edge_sq: np.ndarray) -> tuple[np.ndarray, ...]:
    """(q, measures * 4**-q, edge_sq * 4**-q, largest * 4**-q) of triangles,
    with per element the q for which its largest squared edge times 4**-q
    lies in [0.5, 2).  Scaling lengths by 2**-q is exact, so the angle, Liu,
    Kobayashi and circumradius kernels run on unit-sized elements, whose
    fourth and sixth powers of edge lengths cannot overflow, and give their
    result times 2**-q: bit for bit, on any element whose unscaled terms stay
    normal numbers."""
    largest = _row_reduce(np.maximum, edge_sq)
    q = np.frexp(largest)[1] // 2
    return q, np.ldexp(measures, -2 * q), np.ldexp(edge_sq, -2 * q[:, None]), np.ldexp(largest, -2 * q)


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
    """(M, dim) circumcenter minus the first vertex, from the perpendicular-
    bisector system; the shift to the first vertex keeps it well scaled."""
    d = verts[:, 1:, :] - verts[:, :1, :]
    rhs = np.einsum("mij,mij->mi", d, d)
    return np.linalg.solve(2.0 * d, rhs[..., None])[..., 0]


def inradii(verts: np.ndarray | None, measures: np.ndarray, edge_sq: np.ndarray) -> np.ndarray:
    """(M,) inscribed-ball radii: dim * measure / (facet measure sum).
    Triangles (three edges per row of `edge_sq`) do not read `verts`."""
    if edge_sq.shape[1] == 3:
        return 2 * measures / _row_reduce(np.add, np.sqrt(edge_sq))
    a, b, c = (verts[:, list(k)] for k in zip(*FACETS[3]))  # (M, 4, 3) corners of the faces
    return 3 * measures / (0.5 * np.linalg.norm(np.cross(b - a, c - a), axis=-1)).sum(axis=1)


def vertex_metrics(verts: np.ndarray | None, measures: np.ndarray, edge_sq: np.ndarray) -> ElementMetrics:
    """Per-element geometry of (M, dim+1, dim) vertex arrays, their
    (unsigned) `measures` and squared edges, kept as given; the arrays are
    made read-only.  Triangles (three edges per row of `edge_sq`) need no
    `verts`.  Row reductions over edges and angles run column-wise
    (`_row_reduce`)."""
    h = np.sqrt(_row_reduce(np.maximum, edge_sq))
    if edge_sq.shape[1] == 3:
        # abc / (4 area) on unit-scaled lengths, whose product cannot over- or underflow
        q, meas, sq, _ = _unit_scaled(measures, edge_sq)
        s, c = _angle_pair(meas, sq)
        circum = np.ldexp(_row_reduce(np.multiply, np.sqrt(sq)) / s, q)
        ang = np.arctan2(s[:, None], c)
        min_angle, max_angle = _row_reduce(np.minimum, ang), _row_reduce(np.maximum, ang)
    else:
        circum = np.linalg.norm(_circumcenter_offsets(verts), axis=1)
        min_angle = max_angle = None
    arrays = (measures, edge_sq, h, circum, inradii(verts, measures, edge_sq), min_angle, max_angle)
    for arr in arrays:
        if arr is not None:
            arr.setflags(write=False)
    return ElementMetrics(*arrays)


def _finite_geometry(s: Simplex) -> tuple[np.ndarray, np.ndarray]:
    """`_vertex_geometry` of `s`: signed measure (1,) and squared edges
    (1, k); raises on coordinates so large that the closed forms overflow to
    inf or NaN, with no degeneracy check."""
    with np.errstate(over="ignore", invalid="ignore"):
        signed, edge_sq = _vertex_geometry(s.vertices[None])
    if not (np.isfinite(signed[0]) and np.isfinite(edge_sq).all()):
        raise DegenerateSimplexError(
            f"simplex measure {abs(signed[0]):.3e} (longest squared edge {edge_sq.max():.3e}) is not finite: "
            "the coordinates overflow its closed form"
        )
    return signed, edge_sq


def as_batch(s: Simplex) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`s` as kernel input: its (1, dim+1, dim) vertex array, measure and
    squared edges; raises on degenerate vertex sets, and on coordinates so
    large that the closed forms overflow to inf or NaN."""
    signed, edge_sq = _finite_geometry(s)
    meas = np.abs(signed)
    if degenerate(meas, edge_sq, s.dim)[0]:
        raise DegenerateSimplexError(f"simplex measure {meas[0]:.3e} below degeneracy threshold")
    return s.vertices[None], meas, edge_sq


def measure(s: Simplex) -> float:
    """Area (2D) or volume (3D); raises on degenerate vertex sets."""
    return float(as_batch(s)[1][0])


def edge_lengths(s: Simplex) -> list[float]:
    """All edge lengths, sorted in descending order (first entry = h_T)."""
    return sorted(np.sqrt(_finite_geometry(s)[1][0]).tolist(), reverse=True)


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
    """Interior angles of a triangle, in radians, vertex order: the mesh
    kernel's atan2(4|T|, l_j^2 + l_k^2 - l_i^2) (`_angle_pair`)."""
    if t.dim != 2:
        raise ValueError("angles are defined for triangles only")
    _, meas, edge_sq = as_batch(t)
    s, c = _angle_pair(*_unit_scaled(meas, edge_sq)[1:3])
    return np.arctan2(s[:, None], c)[0].tolist()


def min_angle(t: Simplex) -> float:
    return min(angles(t))


def barycenter(s: Simplex) -> np.ndarray:
    return s.vertices.mean(axis=0)
