"""Simplicial mesh data model, file I/O, generation, and quality metrics.

Boundary information is always recomputed from facet incidence counts and
never trusted from files.  The built-in generator fans a convex polygon
from its centroid and refines by edge-midpoint subdivision, which keeps
the polygonal hull (and hence the boundary gap) exactly unchanged.
"""

from __future__ import annotations

import contextlib
import json
import math
import warnings
from dataclasses import asdict, dataclass, field
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
from .geometry import (
    EDGES,
    FACETS,
    NONBLUNT_TOL,
    ElementMetrics,
    degenerate,
    signed_measures,
    squared_edges,
    vertex_metrics,
)


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
        return asdict(self)


def _all_facets(elements: np.ndarray, dim: int) -> np.ndarray:
    """Facets of every element as sorted index tuples, (M * (dim+1), dim)."""
    fac = np.concatenate([elements[:, list(i)] for i in FACETS[dim]], axis=0)
    fac.sort(axis=1)
    return fac


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
    meas = np.abs(signed_measures(mesh.element_vertices()))
    meas.setflags(write=False)
    return meas


def _as_array(values, dtype, name: str) -> np.ndarray:
    try:
        return np.array(values, dtype=dtype)
    except (ValueError, TypeError, OverflowError) as exc:
        raise MeshParseError(f"{name} must be a rectangular numeric array: {exc}") from exc


def _as_indices(values) -> np.ndarray:
    """Element indices as a new int64 array.  Integer arrays pass on a dtype
    test; floats must be integral, and booleans are refused, where a cast
    would truncate them into a different mesh."""
    arr = values if isinstance(values, np.ndarray) else _as_array(values, None, "elements")
    if arr.dtype.kind == "b":
        raise MeshParseError("element indices must be integers, got booleans")
    if arr.dtype.kind == "f" and not np.all((arr == np.trunc(arr)) & (np.abs(arr) < 2.0**63)):
        raise MeshParseError("element indices must be whole numbers within int64 range")
    return _as_array(arr, np.int64, "elements")


def build_mesh(dim: int, nodes, elements) -> SimplicialMesh:
    """Validate connectivity, fix orientation, and detect the boundary."""
    if dim not in (2, 3):
        raise MeshParseError(f"unsupported dimension {dim}")
    nd = _as_array(nodes, float, "nodes")
    el = _as_indices(elements)
    if nd.ndim != 2 or nd.shape[1] != dim:
        raise MeshParseError(f"node array must be (N, {dim}), got {nd.shape}")
    if not np.all(np.isfinite(nd)):
        raise MeshParseError("node coordinates must be finite")
    if el.ndim != 2 or el.shape[1] != dim + 1:
        raise MeshParseError(f"element array must be (M, {dim + 1}), got {el.shape}")
    if el.size and (el.min() < 0 or el.max() >= nd.shape[0]):
        raise MeshParseError("element index out of range")

    # Orientation fix: swap the last two vertices of inverted elements.
    verts = nd[el]
    sm = signed_measures(verts)
    flip = sm < 0
    if np.any(flip):
        el[flip, -2], el[flip, -1] = el[flip, -1].copy(), el[flip, -2].copy()
        verts = nd[el]
        sm = signed_measures(verts)
    bad = np.flatnonzero(degenerate(sm, squared_edges(verts), dim))
    if bad.size:
        raise InvertedElementError(f"element {bad[0]} has nonpositive measure after orientation fix")

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
    if refine_levels == 0:
        return mesh
    # Children keep their parent's orientation and every facet stays shared
    # by at most two of them, so the levels in between need no validation:
    # the last level is validated once, in full.
    nodes, elements = mesh.nodes, mesh.elements
    for _ in range(refine_levels):
        nodes, elements = _refine(nodes, elements)
    return build_mesh(2, nodes, elements)


def refine_uniform(mesh: SimplicialMesh) -> SimplicialMesh:
    """Edge-midpoint refinement: every triangle into four similar children."""
    if mesh.dim != 2:
        raise NotImplementedError("uniform refinement implemented for 2D meshes")
    return build_mesh(2, *_refine(mesh.nodes, mesh.elements))


def _refine(nodes: np.ndarray, elements: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and elements of the edge-midpoint refinement of a triangle mesh,
    unvalidated: the midpoints follow the old nodes, and each child keeps its
    parent's orientation."""
    el = elements
    pairs = np.concatenate([el[:, [0, 1]], el[:, [1, 2]], el[:, [0, 2]]], axis=0)
    pairs.sort(axis=1)
    uniq, inverse, _ = _unique_rows(pairs, nodes.shape[0], return_inverse=True)
    mid = 0.5 * (nodes[uniq[:, 0]] + nodes[uniq[:, 1]])
    mid_idx = inverse.reshape(3, -1).T + nodes.shape[0]  # columns: m01, m12, m02
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
    return np.vstack([nodes, mid]), children


# ---------------------------------------------------------------------------
# per-element metrics and global quality


def element_metrics(mesh: SimplicialMesh) -> ElementMetrics:
    """Per-element geometry, computed once per mesh; the arrays are read-only."""
    return _cached(mesh, "metrics", _element_metrics)


def _element_metrics(mesh: SimplicialMesh) -> ElementMetrics:
    return vertex_metrics(mesh.element_vertices(), _measures(mesh))


def quality(mesh: SimplicialMesh) -> MeshQuality:
    """Global mesh metrics, computed once per mesh; sigma uses inscribed-ball
    diameters."""
    return _cached(mesh, "quality", _quality)


def _quality(mesh: SimplicialMesh) -> MeshQuality:
    em = element_metrics(mesh)
    sigma = float((em.h / (2.0 * em.inradius)).max())
    theta0 = nonblunt = None
    if mesh.dim == 2:
        theta0 = float(em.min_angle.min())
        nonblunt = bool((em.max_angle <= math.pi / 2.0 + NONBLUNT_TOL).all())
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
    i, j = EDGES[mesh.dim]
    pairs = np.stack([mesh.elements[:, i], mesh.elements[:, j]], axis=-1).reshape(-1, 2)
    pairs.sort(axis=1)
    return _unique_rows(pairs, mesh.node_count)[0].shape[0]


def check_boundary_on_poly(mesh: SimplicialMesh, poly: PolyApprox, tol: float = 1e-10) -> None:
    """Every boundary facet of the mesh must lie inside some facet of `poly`."""
    if mesh.dim != poly.dim:
        raise NotInscribedError(f"a {mesh.dim}D mesh cannot lie in a {poly.dim}D polytope")
    normals = poly.facet_normals
    offsets = np.einsum("fd,fd->f", normals, poly.facet_barycenters)
    bnodes = mesh.boundary_nodes
    points = mesh.nodes[bnodes]
    # each boundary facet as positions in `bnodes`
    local = np.searchsorted(bnodes, mesh.boundary_facets)
    contained = np.zeros(local.shape[0], dtype=bool)
    for normal, offset in zip(normals, offsets):
        on_plane = np.abs(points @ normal - offset) <= tol
        contained |= on_plane[local].all(axis=1)
    outside = np.flatnonzero(~contained)
    if outside.size:
        facet = mesh.boundary_facets[outside[0]]
        raise NotInscribedError(f"mesh boundary facet {facet.tolist()} not contained in any polytope facet")


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
        _write_rows(
            base + ".node",
            f"{mesh.node_count} {mesh.dim} 0 1\n",
            "%d" + " %.17g" * mesh.dim + " %d\n",
            [np.arange(1, mesh.node_count + 1), *mesh.nodes.T, bmark],
        )
        _write_rows(
            base + ".ele",
            f"{mesh.element_count} {mesh.dim + 1} 0\n",
            " ".join(["%d"] * (mesh.dim + 2)) + "\n",
            [np.arange(1, mesh.element_count + 1), *(mesh.elements + 1).T],
        )
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
        # numpy reads a list mixing true/false with numbers as numbers, so
        # `build_mesh` would not see them.
        if isinstance(elements, list) and any(
            type(i) is bool for row in elements if isinstance(row, list) for i in row
        ):
            raise MeshParseError(f"{path}: element indices must be integers, got true/false")
        return build_mesh(dim, nodes, elements)
    if fmt == "node_ele":
        base = _node_ele_base(path)
        nodes, dim = _read_node_file(base + ".node")
        elements = _read_ele_file(base + ".ele", dim)
        return build_mesh(dim, nodes, elements)
    raise MeshParseError(f"unknown mesh format {fmt!r}")


def _write_rows(path: str, header: str, row_fmt: str, columns: list[np.ndarray]) -> None:
    """Write `header`, then one `row_fmt % row` line per row of `columns`,
    in a single write."""
    rows = zip(*(col.tolist() for col in columns))
    text = header + "".join(row_fmt % row for row in rows)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


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


@contextlib.contextmanager
def _mesh_file(path: str):
    """Open a `.node`/`.ele` file for reading; I/O and syntax errors raised
    while it is open become `MeshParseError`s naming the file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            yield fh
    except OSError as exc:
        raise MeshParseError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        raise MeshParseError(f"{path}: {exc}") from exc


def _read_header(fh, kind: str) -> tuple[int, int]:
    """The first two numbers of the first data line: the row count and the
    dimension (`.node`) or corners per element (`.ele`)."""
    for line in fh:
        tokens = line.split("#", 1)[0].split()
        if not tokens:
            continue
        if len(tokens) < 2:
            raise ValueError(f"{kind} header needs a count and a width, got {line.strip()!r}")
        count, width = int(tokens[0]), int(tokens[1])
        if count < 1:
            raise ValueError(f"{kind} header count must be positive, got {count}")
        return count, width
    raise ValueError(f"empty {kind} file")


def _read_rows(fh, kind: str, count: int, usecols: range, dtype) -> np.ndarray:
    """Columns `usecols` of the next `count` data rows, parsed whole by
    numpy's C reader; `#` comments and blank lines are skipped, extra
    columns and lines past `count` are ignored."""
    with warnings.catch_warnings():
        # loadtxt warns about comment or blank lines under `max_rows` and
        # about empty input; the row count below covers both.
        warnings.simplefilter("ignore", UserWarning)
        rows = np.loadtxt(fh, comments="#", usecols=usecols, max_rows=count, ndmin=2, dtype=dtype)
    if rows.shape[0] != count:
        raise ValueError(f"expected {count} {kind} lines, found {rows.shape[0]}")
    return rows


def _read_node_file(path: str) -> tuple[np.ndarray, int]:
    with _mesh_file(path) as fh:
        count, dim = _read_header(fh, "node")
        if dim not in (2, 3):
            raise ValueError(f"unsupported dimension {dim}")
        rows = _read_rows(fh, "node", count, range(1 + dim), float)
    index = rows[:, 0]
    wrong = np.flatnonzero(index != np.arange(1, count + 1))
    if wrong.size:
        i = int(wrong[0])
        raise MeshParseError(
            f"{path}: node {i + 1} is numbered {index[i]:.17g}; the index column must read 1..{count} in order"
        )
    return rows[:, 1:], dim


def _read_ele_file(path: str, dim: int) -> np.ndarray:
    with _mesh_file(path) as fh:
        count, per = _read_header(fh, "element")
        if per != dim + 1:
            raise ValueError(f"expected {dim + 1} corners per element, header says {per}")
        # The element index column is not read: element order does not
        # change the mesh.
        elements = _read_rows(fh, "element", count, range(1, 1 + per), np.int64)
    elements -= 1
    return elements


def measure_sum(mesh: SimplicialMesh) -> float:
    """Total measure of the meshed region (exact sum of element measures)."""
    return float(_measures(mesh).sum())
