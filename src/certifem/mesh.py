"""Simplicial mesh data model, file I/O, generation, and quality metrics.

Boundary information is always recomputed from facet incidence counts and
never trusted from files.  The built-in generator fans a convex polygon
from its centroid and refines by edge-midpoint subdivision, which keeps
the polygonal hull (and hence the boundary gap) exactly unchanged.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .domain import PolyApprox
from .errors import (
    InvalidPolygonError,
    InvertedElementError,
    MeshParseError,
    NonConformingMeshError,
    NotInscribedError,
)
from .geometry import DEGENERACY_TOL, NONBLUNT_TOL

_FACTORIAL = (1.0, 1.0, 2.0, 6.0)


@dataclass(frozen=True)
class SimplicialMesh:
    dim: int
    nodes: np.ndarray  # (N, dim)
    elements: np.ndarray  # (M, dim+1), positively oriented
    boundary_facets: np.ndarray  # (K, dim), sorted node tuples
    boundary_nodes: np.ndarray  # sorted unique node indices
    # Derived geometry (and the stiffness matrix), filled on first use by
    # `_cached`; the arrays above are read-only, so entries never go stale.
    _cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def node_count(self) -> int:
        return self.nodes.shape[0]

    @property
    def element_count(self) -> int:
        return self.elements.shape[0]

    @property
    def interior_nodes(self) -> np.ndarray:
        mask = np.ones(self.node_count, dtype=bool)
        mask[self.boundary_nodes] = False
        return np.nonzero(mask)[0]

    def element_vertices(self) -> np.ndarray:
        """(M, dim+1, dim) vertex coordinates per element."""
        return self.nodes[self.elements]


@dataclass(frozen=True)
class MeshQuality:
    dim: int
    h: float
    max_circumradius: float
    min_angle: float | None  # 2D only
    sigma: float  # max over elements of h_T / (inscribed-ball diameter)
    nonblunt: bool | None  # 2D only
    element_count: int
    node_count: int

    def to_json_dict(self) -> dict:
        return {
            "dim": self.dim,
            "h": self.h,
            "max_circumradius": self.max_circumradius,
            "min_angle": self.min_angle,
            "sigma": self.sigma,
            "nonblunt": self.nonblunt,
            "element_count": self.element_count,
            "node_count": self.node_count,
        }


def _all_facets(elements: np.ndarray, dim: int) -> np.ndarray:
    """Facets of every element as sorted index tuples, (M * (dim+1), dim)."""
    m = elements.shape[0]
    if dim == 2:
        idx = [(1, 2), (0, 2), (0, 1)]
    else:
        idx = [(1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2)]
    fac = np.concatenate([elements[:, list(i)] for i in idx], axis=0)
    fac.sort(axis=1)
    return fac.reshape(m * (dim + 1), dim)


def _signed_measures(nodes: np.ndarray, elements: np.ndarray, dim: int) -> np.ndarray:
    verts = nodes[elements]
    edges = verts[:, 1:, :] - verts[:, :1, :]
    return np.linalg.det(edges) / _FACTORIAL[dim]


def _unique_rows(rows: np.ndarray, n: int, return_inverse: bool = False) -> tuple:
    """`np.unique(rows, axis=0, return_inverse=..., return_counts=True)` for
    rows of node indices in [0, n): returns (unique, [inverse,] counts).

    Each row becomes one int64 key, the row read as a base-n number, so the
    sorted keys list the rows in the same lexicographic order.
    """
    width = rows.shape[1]
    if n**width > 2**63:  # the largest key, n**width - 1, must fit in int64
        raise MeshParseError(
            f"int64 keys of {width}-index rows need nodes**{width} <= 2**63; the mesh has {n} nodes"
        )
    keys = np.zeros(rows.shape[0], dtype=np.int64)
    for col in rows.T:
        keys *= n
        keys += col
    keys, *rest = np.unique(keys, return_inverse=return_inverse, return_counts=True)
    uniq = np.empty((keys.size, width), dtype=np.int64)
    for j in range(width - 1, 0, -1):
        keys, uniq[:, j] = np.divmod(keys, n)
    uniq[:, 0] = keys
    return (uniq, *rest)


def _cached(mesh: SimplicialMesh, key: str, build: Callable[[SimplicialMesh], object]):
    """`build(mesh)`, computed on the first call for this mesh and shared
    afterwards; builders return read-only arrays.  Threads racing on one mesh
    may both build, but they store equal values."""
    cache = mesh._cache
    if key not in cache:
        cache[key] = build(mesh)
    return cache[key]


def _measures(mesh: SimplicialMesh) -> np.ndarray:
    """(M,) element measures, read-only and shared."""
    return _cached(mesh, "measures", _build_measures)


def _build_measures(mesh: SimplicialMesh) -> np.ndarray:
    meas = np.abs(_signed_measures(mesh.nodes, mesh.elements, mesh.dim))
    meas.setflags(write=False)
    return meas


def build_mesh(dim: int, nodes, elements) -> SimplicialMesh:
    """Validate connectivity, fix orientation, and detect the boundary."""
    if dim not in (2, 3):
        raise MeshParseError(f"unsupported dimension {dim}")
    nd = np.array(nodes, dtype=float)
    el = np.array(elements, dtype=np.int64)
    if nd.ndim != 2 or nd.shape[1] != dim:
        raise MeshParseError(f"node array must be (N, {dim}), got {nd.shape}")
    if not np.all(np.isfinite(nd)):
        raise MeshParseError("node coordinates must be finite")
    if el.ndim != 2 or el.shape[1] != dim + 1:
        raise MeshParseError(f"element array must be (M, {dim + 1}), got {el.shape}")
    if el.size and (el.min() < 0 or el.max() >= nd.shape[0]):
        raise MeshParseError("element index out of range")

    # Orientation fix: swap the last two vertices of inverted elements.
    sm = _signed_measures(nd, el, dim)
    flip = sm < 0
    if np.any(flip):
        el[flip, -2], el[flip, -1] = el[flip, -1].copy(), el[flip, -2].copy()
        sm = _signed_measures(nd, el, dim)
    verts = nd[el]
    edges = verts[:, 1:, :] - verts[:, :1, :]
    h = np.sqrt((edges**2).sum(-1)).max(axis=1) if el.size else np.zeros(0)
    if np.any(sm <= DEGENERACY_TOL * h**dim):
        bad = int(np.argmin(sm - DEGENERACY_TOL * h**dim))
        raise InvertedElementError(f"element {bad} has nonpositive measure after orientation fix")

    fac = _all_facets(el, dim)
    uniq, counts = _unique_rows(fac, nd.shape[0])
    if np.any(counts > 2):
        bad = uniq[np.argmax(counts)]
        raise NonConformingMeshError(f"facet {bad.tolist()} shared by {counts.max()} elements")
    bfac = uniq[counts == 1]
    bnodes = np.unique(bfac)
    for arr in (nd, el, bfac, bnodes, sm):
        arr.setflags(write=False)
    mesh = SimplicialMesh(dim, nd, el, bfac, bnodes)
    # Every signed measure is positive here, so it equals the measure.
    mesh._cache["measures"] = sm
    return mesh


# ---------------------------------------------------------------------------
# generation


def generate_fan_refined(poly: PolyApprox, refine_levels: int = 0) -> SimplicialMesh:
    """Fan a convex 2D polytope from its centroid, then refine uniformly.

    Each refinement level splits every triangle into four by edge midpoints;
    boundary midpoints stay on the polygon edges, so the meshed region is
    the polygon itself at every level.  Deterministic for fixed inputs.
    """
    if poly.dim != 2:
        raise InvalidPolygonError("fan generator is 2D only")
    if refine_levels < 0:
        raise InvalidPolygonError("refinement level must be nonnegative")
    v = poly.vertices
    m = v.shape[0]
    centroid = v.mean(axis=0)
    if not bool(np.asarray(poly.contains(centroid, tol=-1e-12))):
        raise InvalidPolygonError("polygon does not strictly contain its centroid")
    nodes = np.vstack([centroid[None, :], v])
    elements = np.array([[0, 1 + i, 1 + (i + 1) % m] for i in range(m)], dtype=np.int64)
    mesh = build_mesh(2, nodes, elements)
    for _ in range(refine_levels):
        mesh = refine_uniform(mesh)
    return mesh


def refine_uniform(mesh: SimplicialMesh) -> SimplicialMesh:
    """Edge-midpoint refinement: every triangle into four similar children."""
    if mesh.dim != 2:
        raise NotImplementedError("uniform refinement implemented for 2D meshes")
    el = mesh.elements
    pairs = np.concatenate([el[:, [0, 1]], el[:, [1, 2]], el[:, [0, 2]]], axis=0)
    pairs.sort(axis=1)
    uniq, inverse, _ = _unique_rows(pairs, mesh.node_count, return_inverse=True)
    mid = 0.5 * (mesh.nodes[uniq[:, 0]] + mesh.nodes[uniq[:, 1]])
    offset = mesh.node_count
    mid_idx = inverse.reshape(3, -1).T + offset  # columns: m01, m12, m02
    nodes = np.vstack([mesh.nodes, mid])
    a, b, c = el[:, 0], el[:, 1], el[:, 2]
    m01, m12, m02 = mid_idx[:, 0], mid_idx[:, 1], mid_idx[:, 2]
    children = np.concatenate(
        [
            np.stack([a, m01, m02], axis=1),
            np.stack([m01, b, m12], axis=1),
            np.stack([m02, m12, c], axis=1),
            np.stack([m01, m12, m02], axis=1),
        ],
        axis=0,
    )
    return build_mesh(2, nodes, children)


# ---------------------------------------------------------------------------
# per-element metrics and global quality


@dataclass(frozen=True)
class ElementMetrics:
    measures: np.ndarray  # (M,)
    edge_sq: np.ndarray  # (M, 3) squared edge lengths, edge j opposite vertex j (2D); (M, 6) in 3D
    h: np.ndarray  # (M,) longest edge
    circumradius: np.ndarray  # (M,)
    inradius: np.ndarray  # (M,)
    min_angle: np.ndarray | None  # 2D only
    max_angle: np.ndarray | None  # 2D only


def element_metrics(mesh: SimplicialMesh) -> ElementMetrics:
    """Per-element geometry, computed once per mesh; the arrays are read-only."""
    return _cached(mesh, "metrics", _element_metrics)


def _element_metrics(mesh: SimplicialMesh) -> ElementMetrics:
    verts = mesh.element_vertices()
    if mesh.dim == 2:
        a, b, c = verts[:, 0], verts[:, 1], verts[:, 2]
        e0 = ((b - c) ** 2).sum(-1)  # opposite vertex 0
        e1 = ((a - c) ** 2).sum(-1)
        e2 = ((a - b) ** 2).sum(-1)
        edge_sq = np.stack([e0, e1, e2], axis=1)
        area = _measures(mesh)
        h = np.sqrt(edge_sq.max(axis=1))
        lengths = np.sqrt(edge_sq)
        circum = lengths.prod(axis=1) / (4.0 * area)
        inr = 2.0 * area / lengths.sum(axis=1)
        cosines = np.empty_like(edge_sq)
        for i in range(3):
            j, k = (i + 1) % 3, (i + 2) % 3
            cosines[:, i] = (edge_sq[:, j] + edge_sq[:, k] - edge_sq[:, i]) / (
                2.0 * lengths[:, j] * lengths[:, k]
            )
        ang = np.arccos(np.clip(cosines, -1.0, 1.0))
        return _frozen_metrics(area, edge_sq, h, circum, inr, ang.min(axis=1), ang.max(axis=1))

    vol = _measures(mesh)
    pairs = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    edge_sq = np.stack([((verts[:, i] - verts[:, j]) ** 2).sum(-1) for i, j in pairs], axis=1)
    h = np.sqrt(edge_sq.max(axis=1))
    # circumcenter from the perpendicular-bisector system, batched
    d = verts[:, 1:, :] - verts[:, :1, :]
    rhs = np.einsum("mij,mij->mi", d, d)
    y = np.linalg.solve(2.0 * d, rhs[..., None])[..., 0]
    circum = np.linalg.norm(y, axis=1)
    faces = [(1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2)]
    areas = np.zeros(mesh.element_count)
    for f in faces:
        u = verts[:, f[1]] - verts[:, f[0]]
        w = verts[:, f[2]] - verts[:, f[0]]
        areas += 0.5 * np.linalg.norm(np.cross(u, w), axis=1)
    inr = 3.0 * vol / areas
    return _frozen_metrics(vol, edge_sq, h, circum, inr, None, None)


def _frozen_metrics(*arrays) -> ElementMetrics:
    for arr in arrays:
        if arr is not None:
            arr.setflags(write=False)
    return ElementMetrics(*arrays)


def quality(mesh: SimplicialMesh) -> MeshQuality:
    """Global mesh metrics, computed once per mesh; sigma uses inscribed-ball
    diameters."""
    return _cached(mesh, "quality", _quality)


def _quality(mesh: SimplicialMesh) -> MeshQuality:
    em = element_metrics(mesh)
    sigma = float((em.h / (2.0 * em.inradius)).max())
    if mesh.dim == 2:
        theta0 = float(em.min_angle.min())
        nonblunt = bool((em.max_angle <= math.pi / 2.0 + NONBLUNT_TOL).all())
    else:
        theta0 = None
        nonblunt = None
    return MeshQuality(
        dim=mesh.dim,
        h=float(em.h.max()),
        max_circumradius=float(em.circumradius.max()),
        min_angle=theta0,
        sigma=sigma,
        nonblunt=nonblunt,
        element_count=mesh.element_count,
        node_count=mesh.node_count,
    )


def edge_count(mesh: SimplicialMesh) -> int:
    """Unique edges, for Euler-formula style checks."""
    el = mesh.elements
    if mesh.dim == 2:
        pairs = np.concatenate([el[:, [0, 1]], el[:, [1, 2]], el[:, [0, 2]]], axis=0)
    else:
        idx = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
        pairs = np.concatenate([el[:, list(i)] for i in idx], axis=0)
    pairs.sort(axis=1)
    return _unique_rows(pairs, mesh.node_count)[0].shape[0]


def check_boundary_on_poly(mesh: SimplicialMesh, poly: PolyApprox, tol: float = 1e-10) -> None:
    """Every boundary facet of the mesh must lie inside some facet of `poly`."""
    normals = poly.facet_normals
    offsets = np.einsum("fd,fd->f", normals, poly.facet_barycenters)
    for facet in mesh.boundary_facets:
        pts = mesh.nodes[facet]
        dist = pts @ normals.T - offsets  # (dim, F)
        ok = np.all(np.abs(dist) <= tol, axis=0)
        if not bool(ok.any()):
            raise NotInscribedError(
                f"mesh boundary facet {np.asarray(facet).tolist()} not contained in any polytope facet"
            )


# ---------------------------------------------------------------------------
# file I/O


def save(mesh: SimplicialMesh, path: str, fmt: str | None = None) -> None:
    """Write a mesh; `fmt` is "json" or "node_ele" (inferred from the
    extension when omitted).

    Coordinates are written with 17 significant digits so that a
    save/load round trip reproduces them bit-exactly.
    """
    if fmt is None:
        fmt = _infer_format(path)
    if fmt == "json":
        obj = {
            "dim": mesh.dim,
            "nodes": mesh.nodes.tolist(),
            "elements": mesh.elements.tolist(),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh, separators=(",", ":"))
            fh.write("\n")
        return
    if fmt == "node_ele":
        base = _node_ele_base(path)
        bmark = np.zeros(mesh.node_count, dtype=int)
        bmark[mesh.boundary_nodes] = 1
        with open(base + ".node", "w", encoding="utf-8") as fh:
            fh.write(f"{mesh.node_count} {mesh.dim} 0 1\n")
            for i, row in enumerate(mesh.nodes):
                coords = " ".join("%.17g" % x for x in row)
                fh.write(f"{i + 1} {coords} {bmark[i]}\n")
        with open(base + ".ele", "w", encoding="utf-8") as fh:
            fh.write(f"{mesh.element_count} {mesh.dim + 1} 0\n")
            for i, row in enumerate(mesh.elements):
                idx = " ".join(str(j + 1) for j in row)
                fh.write(f"{i + 1} {idx}\n")
        return
    raise MeshParseError(f"unknown mesh format {fmt!r}")


def load(path: str, fmt: str | None = None) -> SimplicialMesh:
    """Read a mesh from "json" or "node_ele" files; format inferred from the
    extension when not given.  All structural invariants are re-validated."""
    if fmt is None:
        fmt = _infer_format(path)
    if fmt == "json":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                obj = json.load(fh)
            dim = int(obj["dim"])
            nodes = obj["nodes"]
            elements = obj["elements"]
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise MeshParseError(f"cannot parse mesh json {path}: {exc}") from exc
        return build_mesh(dim, nodes, elements)
    if fmt == "node_ele":
        base = _node_ele_base(path)
        nodes, dim = _read_node_file(base + ".node")
        elements = _read_ele_file(base + ".ele", dim)
        return build_mesh(dim, nodes, elements)
    raise MeshParseError(f"unknown mesh format {fmt!r}")


def _infer_format(path: str) -> str:
    if path.endswith(".json"):
        return "json"
    if path.endswith(".node") or path.endswith(".ele"):
        return "node_ele"
    return "json"


def _node_ele_base(path: str) -> str:
    for ext in (".node", ".ele"):
        if path.endswith(ext):
            return path[: -len(ext)]
    return path


def _data_lines(path: str) -> list[list[str]]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [ln.split("#", 1)[0].strip() for ln in fh]
    except OSError as exc:
        raise MeshParseError(f"cannot read {path}: {exc}") from exc
    return [ln.split() for ln in lines if ln]


def _read_node_file(path: str) -> tuple[np.ndarray, int]:
    rows = _data_lines(path)
    if not rows:
        raise MeshParseError(f"{path}: empty node file")
    try:
        count, dim = int(rows[0][0]), int(rows[0][1])
        body = rows[1 : 1 + count]
        if len(body) != count:
            raise ValueError(f"expected {count} node lines, found {len(body)}")
        nodes = np.array([[float(tok) for tok in r[1 : 1 + dim]] for r in body])
    except (ValueError, IndexError) as exc:
        raise MeshParseError(f"{path}: {exc}") from exc
    return nodes, dim


def _read_ele_file(path: str, dim: int) -> np.ndarray:
    rows = _data_lines(path)
    if not rows:
        raise MeshParseError(f"{path}: empty element file")
    try:
        count, per = int(rows[0][0]), int(rows[0][1])
        if per != dim + 1:
            raise ValueError(f"expected {dim + 1} corners per element, header says {per}")
        body = rows[1 : 1 + count]
        if len(body) != count:
            raise ValueError(f"expected {count} element lines, found {len(body)}")
        elements = np.array([[int(tok) - 1 for tok in r[1 : 1 + per]] for r in body], dtype=np.int64)
    except (ValueError, IndexError) as exc:
        raise MeshParseError(f"{path}: {exc}") from exc
    return elements


def measure_sum(mesh: SimplicialMesh) -> float:
    """Total measure of the meshed region (exact sum of element measures)."""
    return float(_measures(mesh).sum())
