"""Simplicial mesh data model, file I/O, generation, and quality metrics.

Boundary information is always recomputed from facet incidence counts and
never trusted from files, and so is the polytope a mesh meshes
(`polytope_of_mesh`): the one polytope every bound reads.  The built-in
generator fans a convex polygon from its centroid and refines by
edge-midpoint subdivision, which keeps the polygonal hull (and hence the
boundary gap) exactly unchanged.
"""

from __future__ import annotations

import contextlib
import json
import math
import warnings
from dataclasses import asdict, dataclass, field, replace
from typing import Callable, Iterator

import numpy as np

from .domain import ConvexDomain, PolyApprox, _first_off_boundary, _shoelace, make_poly_approx
from .errors import (
    InvalidPolygonError,
    InvertedElementError,
    MeshParseError,
    NonConformingMeshError,
    NotInscribedError,
)
from .geometry import (
    FACETS,
    NONBLUNT_TOL,
    ElementMetrics,
    _blocks,
    _element_geometry,
    degenerate,
    vertex_metrics,
)

# 2D boundary tolerance, relative to the bounding-box diagonal of the
# boundary nodes: a node that close to the line through its two neighbours is
# no corner of the polygon, and every node that is no corner must lie that
# close to the edge that joins the corners on either side of it.
BOUNDARY_TOL = 1e-10


# eq=False: `==` is identity and a mesh hashes; comparing arrays is ambiguous
@dataclass(frozen=True, eq=False)
class SimplicialMesh:
    dim = 2  # a class constant, not a field: meshes are triangle meshes
    nodes: np.ndarray  # (N, 2)
    elements: np.ndarray  # (M, 3), positively oriented
    boundary_facets: np.ndarray  # (K, 2), sorted node pairs
    boundary_nodes: np.ndarray  # sorted unique node indices
    measures: np.ndarray  # (M,) element measures
    edge_sq: np.ndarray  # (M, 3) squared edges, in `geometry.EDGES` order
    # The refinement levels that produced the mesh, coarsest first: one
    # `(coarse_count, parents)` record per level.  The level's first
    # `coarse_count` nodes are the nodes of the mesh it refined, node
    # `coarse_count + e` is the midpoint of nodes `parents[e]`, and every later
    # level keeps these nodes as its prefix.  Refinement keeps the boundary, so
    # a node is on the boundary at every level that has it or at none.  Empty
    # for meshes that were built or loaded.
    hierarchy: tuple = ()
    # What later passes derive (`_cached`); every array above is read-only, so
    # entries never go stale.
    _cache: dict = field(default_factory=dict, init=False, repr=False)

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
        """(M, 3, 2) vertex coordinates per element."""
        return self.nodes[self.elements]


@dataclass(frozen=True)
class MeshQuality:
    dim: int
    h: float
    max_circumradius: float
    min_angle: float
    sigma: float  # max over elements of h_T / (inscribed-circle diameter)
    nonblunt: bool
    element_count: int
    node_count: int

    def to_json_dict(self) -> dict:
        return asdict(self)


def _keys(elements: np.ndarray, n: int, corners) -> np.ndarray:
    """One int64 key per element and pair of local vertices in `corners`
    (such as `FACETS`): the pair's node indices, sorted, read as a base-n
    number, so sorted keys list the sorted pairs in lexicographic order; the
    first pair's keys of all elements come first.  Formed `_blocks` of
    elements at a time: the keys are the one large array."""
    if n**2 > 2**63:  # the largest key, n**2 - 1, must fit in int64
        raise MeshParseError(f"int64 keys of 2-index rows need nodes**2 <= 2**63; the mesh has {n} nodes")
    m = elements.shape[0]
    keys = np.empty(len(corners) * m, dtype=np.int64)
    for t, (i, j) in enumerate(corners):
        for rows in _blocks(m):
            a, b = elements[rows, i], elements[rows, j]
            keys[t * m : (t + 1) * m][rows] = np.minimum(a, b) * n + np.maximum(a, b)
    return keys


def _decode(keys: np.ndarray, n: int) -> np.ndarray:
    """(K, 2) node pairs of the keys (K,) that `_keys` formed."""
    return np.stack(np.divmod(keys, n), axis=-1)


def _cached(mesh: SimplicialMesh, key: str, build: Callable[[SimplicialMesh], object]):
    """`build(mesh)`, computed on the first call for this mesh and shared
    afterwards; builders return read-only arrays.  Threads racing on one mesh
    may both build, but they store equal values."""
    cache = mesh._cache
    if key not in cache:
        cache[key] = build(mesh)
    return cache[key]


def _as_array(values, dtype, name: str, copy: bool | None = True) -> np.ndarray:
    try:
        return np.array(values, dtype=dtype, copy=copy)
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
    # an array built here from a list is new already: only the caller's is copied
    return _as_array(arr, np.int64, "elements", copy=True if arr is values else None)


def _check_dim(dim: int, where: str = "") -> None:
    """Refuse a mesh of any dimension but 2, naming its dimension."""
    if dim != 2:
        raise MeshParseError(f"{where}{dim}D meshes are not supported: certifem meshes 2D polygons only")


def build_mesh(dim: int, nodes, elements) -> SimplicialMesh:
    """Validate connectivity, fix orientation, and detect the boundary of a
    triangle mesh; `dim` must be 2.  The mesh keeps copies of the caller's
    arrays, which stay as they were."""
    _check_dim(dim)
    return _build_mesh(_as_array(nodes, float, "nodes"), _as_indices(elements))


def _build_mesh(nd: np.ndarray, el: np.ndarray) -> SimplicialMesh:
    """`build_mesh` of float nodes and int64 elements that no one else
    holds: the mesh reorients elements in place and makes both read-only."""
    if nd.ndim != 2 or nd.shape[1] != 2:
        raise MeshParseError(f"node array must be (N, 2), got {nd.shape}")
    if not np.all(np.isfinite(nd)):
        raise MeshParseError("node coordinates must be finite")
    if el.ndim != 2 or el.shape[1] != 3:
        raise MeshParseError(f"element array must be (M, 3), got {el.shape}")
    if el.size and (el.min() < 0 or el.max() >= nd.shape[0]):
        raise MeshParseError("element index out of range")

    # Orientation fix: swap the last two vertices of inverted elements.  Huge
    # coordinates overflow to inf or NaN measures, which count as degenerate.
    with np.errstate(over="ignore", invalid="ignore"):
        sm, edge_sq = _element_geometry(nd, el)
        flip = sm < 0
        if np.any(flip):
            el[flip, -2], el[flip, -1] = el[flip, -1].copy(), el[flip, -2].copy()
            sm[flip], edge_sq[flip] = _element_geometry(nd, el[flip])
        bad = np.flatnonzero(degenerate(sm, edge_sq))
    if bad.size:
        i = bad[0]
        if not (np.isfinite(sm[i]) and np.isfinite(edge_sq[i]).all()):
            overflow = f"measure {abs(sm[i]):.3e} (longest squared edge {edge_sq[i].max():.3e}) is not finite"
            raise InvertedElementError(f"element {i} {overflow}: the coordinates overflow its closed form")
        raise InvertedElementError(f"element {i} has nonpositive measure after orientation fix")

    # In the sorted facet keys, a facet of three or more elements equals the
    # key two places on, and a boundary facet differs from both neighbours.
    keys = _keys(el, nd.shape[0], FACETS)
    keys.sort()
    if np.any(keys[2:] == keys[:-2]):
        uniq, counts = np.unique(keys, return_counts=True)
        bad = _decode(uniq[np.argmax(counts)], nd.shape[0])
        raise NonConformingMeshError(f"facet {bad.tolist()} shared by {counts.max()} elements")
    new = np.ones(keys.size + 1, dtype=bool)  # new[i]: keys[i] differs from keys[i - 1]
    np.not_equal(keys[1:], keys[:-1], out=new[1:-1])
    bfac = _decode(keys[new[:-1] & new[1:]], nd.shape[0])
    bnodes = np.unique(bfac)
    for arr in (nd, el, bfac, bnodes, sm, edge_sq):
        arr.setflags(write=False)
    # Every signed measure is positive here, so it equals the measure.  Every
    # per-element quantity is derived from it and the squared edges, block by
    # block.
    return SimplicialMesh(nd, el, bfac, bnodes, sm, edge_sq)


# ---------------------------------------------------------------------------
# generation


def generate_fan_refined(poly: PolyApprox, refine_levels: int = 0) -> SimplicialMesh:
    """Fan a convex polygon from its centroid, then refine uniformly.

    Each refinement level splits every triangle into four by edge midpoints;
    boundary midpoints stay on the polygon edges, so the meshed region is
    the polygon itself at every level.  Deterministic for fixed inputs.
    """
    if refine_levels < 0:
        raise InvalidPolygonError("refinement level must be nonnegative")
    v = poly.vertices
    m = v.shape[0]
    centroid = v.mean(axis=0)
    if not float(poly.signed_facet_distances(centroid)) < 0.0:
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
    levels = []
    for _ in range(refine_levels):
        coarse_count = nodes.shape[0]
        nodes, elements, parents = _refine(nodes, elements)
        levels.append((coarse_count, parents))
    return replace(build_mesh(2, nodes, elements), hierarchy=tuple(levels))


def refine_uniform(mesh: SimplicialMesh) -> SimplicialMesh:
    """Edge-midpoint refinement: every triangle into four similar children."""
    nodes, elements, parents = _refine(mesh.nodes, mesh.elements)
    return replace(build_mesh(2, nodes, elements), hierarchy=(*mesh.hierarchy, (mesh.node_count, parents)))


def _refine(nodes: np.ndarray, elements: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nodes and elements of the edge-midpoint refinement of a triangle mesh,
    unvalidated, and the read-only (E, 2) int32 parent pair of each midpoint:
    the midpoints follow the old nodes, and each child keeps its parent's
    orientation."""
    n, m = nodes.shape[0], elements.shape[0]
    keys, inverse = np.unique(_keys(elements, n, ((0, 1), (1, 2), (0, 2))), return_inverse=True)
    parents = _decode(keys, n)
    mid = 0.5 * (nodes[parents[:, 0]] + nodes[parents[:, 1]])
    m01, m12, m02 = inverse.reshape(3, m) + n
    a, b, c = elements.T
    children = np.empty((4, m, 3), dtype=np.int64)
    for child, corners in zip(children, ((a, m01, m02), (m01, b, m12), (m02, m12, c), (m01, m12, m02))):
        child.T[...] = corners
    parents = parents.astype(np.int32)
    parents.setflags(write=False)
    return np.vstack([nodes, mid]), children.reshape(-1, 3), parents


# ---------------------------------------------------------------------------
# per-element metrics and global quality


def _metric_blocks(mesh: SimplicialMesh) -> Iterator[ElementMetrics]:
    """`vertex_metrics` of each block of elements (`_blocks`), from the
    mesh's measures and squared edges, with (block,) arrays.  Mesh-wide
    maxima and minima reduce these, so no per-element array of the whole
    mesh is formed."""
    for rows in _blocks(mesh.element_count):
        yield vertex_metrics(mesh.measures[rows], mesh.edge_sq[rows])


def quality(mesh: SimplicialMesh) -> MeshQuality:
    """Global mesh metrics, computed once per mesh; sigma uses inscribed-circle
    diameters."""
    return _cached(mesh, "quality", _quality)


def _quality(mesh: SimplicialMesh) -> MeshQuality:
    # the extrema of each block, then of the blocks (max and min are exact);
    # the smallest angle is kept negated so that one maximum takes them all
    h, circum, sigma, neg_min_angle, max_angle = np.max(
        [
            [em.h.max(), em.circumradius.max(), (em.h / (2.0 * em.inradius)).max(), -em.min_angle.min(), em.max_angle.max()]
            for em in _metric_blocks(mesh)
        ],
        axis=0,
    )
    return MeshQuality(
        dim=2,
        h=float(h),
        max_circumradius=float(circum),
        min_angle=-float(neg_min_angle),
        sigma=float(sigma),
        nonblunt=bool(max_angle <= math.pi / 2.0 + NONBLUNT_TOL),
        element_count=mesh.element_count,
        node_count=mesh.node_count,
    )


def polytope_of_mesh(dom: ConvexDomain, mesh: SimplicialMesh) -> PolyApprox:
    """The polygon that `mesh` meshes, validated as inscribed in `dom`.

    The mesh boundary must be one closed loop, and the polygon's corners are
    its nodes with collinear boundary edges merged; `make_poly_approx` then
    checks convexity, that every corner lies on the boundary of `dom` (a
    corner that does not is named by its mesh node), and the gaps.  The
    corners depend on the mesh alone and are kept on it, and so is the
    polygon last validated, with the domain object it was validated for: a
    later call for that object returns it, and one for another domain runs
    only `make_poly_approx`.
    """
    vertices, nodes = _cached(mesh, "polytope", _boundary_polytope)
    last = mesh._cache.get("poly_approx")
    if last is None or last[0] is not dom:
        try:
            poly = make_poly_approx(dom, vertices)
        except NotInscribedError:
            off = _first_off_boundary(dom, vertices)
            if off is None:  # a facet, not a vertex, lies outside
                raise
            raise NotInscribedError("mesh node %d %s" % (nodes[off[0]], off[1])) from None
        last = mesh._cache["poly_approx"] = (dom, poly)
    return last[1]


def _boundary_polytope(mesh: SimplicialMesh) -> tuple[np.ndarray, np.ndarray]:
    """Read-only vertices of the polygon that `mesh` meshes (facet i joins
    vertices i and i + 1) and the mesh node of each vertex."""
    bnodes = mesh.boundary_nodes
    # each boundary facet as positions in `bnodes`
    local = np.searchsorted(bnodes, mesh.boundary_facets)
    ring = _boundary_loop(bnodes, local)
    points = mesh.nodes[ring]
    tol = BOUNDARY_TOL * float(np.linalg.norm(np.ptp(points, axis=0)))
    # a node is a corner unless it lies within tol of the line through its
    # neighbours (a NaN distance, from overflow, keeps it a corner)
    prev, nxt = np.roll(points, 1, axis=0), np.roll(points, -1, axis=0)
    chord, rel = nxt - prev, points - prev
    corner = ~(np.abs(chord[:, 0] * rel[:, 1] - chord[:, 1] * rel[:, 0]) <= tol * np.hypot(chord[:, 0], chord[:, 1]))
    corners = np.flatnonzero(corner)
    if corners.size < 3:
        raise InvalidPolygonError("the mesh boundary has fewer than 3 corners")
    # every other node must lie on the edge from the last corner before it
    # to the next one after it; run -1, before the first corner, wraps round
    run = np.cumsum(corner) - 1
    first, last = corners[run], corners[(run + 1) % corners.size]
    edge, rel = points[last] - points[first], points - points[first]
    t = np.clip((edge * rel).sum(axis=1) / (edge * edge).sum(axis=1), 0.0, 1.0)
    off = np.hypot(*(rel - t[:, None] * edge).T)
    bad = np.flatnonzero(~(off <= tol))
    if bad.size:
        i = int(bad[0])
        raise NotInscribedError(
            f"boundary node {ring[i]} lies {off[i]:.3e} off the polytope edge "
            f"from node {ring[first[i]]} to node {ring[last[i]]}"
        )
    # counterclockwise, from the corner with the lowest node index
    ids = ring[corners]
    if _shoelace(mesh.nodes[ids]) < 0.0:
        ids = ids[::-1]
    ids = np.roll(ids, -int(np.argmin(ids)))
    vertices = mesh.nodes[ids]
    vertices.setflags(write=False)
    ids.setflags(write=False)
    return vertices, ids


def _boundary_loop(bnodes: np.ndarray, local: np.ndarray) -> np.ndarray:
    """The boundary nodes in the order of one walk around the boundary, from
    its lowest node; raises unless every boundary node has two boundary edges
    and one walk visits them all (so no hole and one component)."""
    count = bnodes.size
    degree = np.bincount(local.ravel(), minlength=count)
    bad = np.flatnonzero(degree != 2)
    if bad.size:
        i = int(bad[0])
        raise InvalidPolygonError(f"boundary node {bnodes[i]} has {degree[i]} boundary edges, not 2")
    # the two neighbours of each boundary node: the far ends of its edges
    ends = local[:, ::-1].ravel()[np.argsort(local.ravel(), kind="stable")]
    one, other = ends[0::2].tolist(), ends[1::2].tolist()
    walk, prev, node = [0], 0, one[0]
    while node:
        walk.append(node)
        prev, node = node, one[node] if one[node] != prev else other[node]
    if len(walk) != count:
        raise InvalidPolygonError(
            f"the mesh boundary is not one closed loop: a walk from node {bnodes[0]} meets {len(walk)} "
            f"of its {count} boundary nodes (a hole, or more than one component)"
        )
    return bnodes[walk]


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
        # `json.dump` of {"dim", "nodes", "elements"} with compact separators,
        # _WRITE_CHUNK rows per `json.dumps`
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('{"dim":2')
            for key, rows in (("nodes", mesh.nodes), ("elements", mesh.elements)):
                fh.write(f',"{key}":[')
                for start in range(0, rows.shape[0], _WRITE_CHUNK):
                    text = json.dumps(rows[start : start + _WRITE_CHUNK].tolist(), separators=(",", ":"))
                    fh.write(text[1:-1] if start == 0 else "," + text[1:-1])
                fh.write("]")
            fh.write("}\n")
        return
    if fmt == "node_ele":
        base = _node_ele_base(path)
        bmark = np.zeros(mesh.node_count, dtype=np.int8)
        bmark[mesh.boundary_nodes] = 1
        _write_rows(base + ".node", f"{mesh.node_count} 2 0 1\n", "%d %.17g %.17g %d\n", [*mesh.nodes.T, bmark])
        _write_rows(base + ".ele", f"{mesh.element_count} 3 0\n", "%d %d %d %d\n", list(mesh.elements.T), shift=1)
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
        _check_dim(dim, f"{path}: ")
        # numpy reads a list mixing true/false with numbers as numbers, so
        # `build_mesh` would not see them.
        if isinstance(elements, list) and any(
            type(i) is bool for row in elements if isinstance(row, list) for i in row
        ):
            raise MeshParseError(f"{path}: element indices must be integers, got true/false")
        return build_mesh(dim, nodes, elements)
    if fmt == "node_ele":
        base = _node_ele_base(path)
        nodes = _read_node_file(base + ".node")
        return _build_mesh(nodes, _read_ele_file(base + ".ele"))  # parsed here, so no copies
    raise MeshParseError(f"unknown mesh format {fmt!r}")


_WRITE_CHUNK = 1024  # rows formatted and written per step of `save`


def _write_rows(path: str, header: str, row_fmt: str, columns: list[np.ndarray], shift: int = 0) -> None:
    """Write `header`, then line i = 1, 2, ... as `row_fmt % (i, *row)`, the
    row of `columns` plus `shift` (0 leaves float columns untouched).  Each
    step formats _WRITE_CHUNK rows, by `row_fmt * chunk` on one flat
    row-major list of their column slices (the same conversions as one `%`
    per row, at a fraction of the per-call cost), and writes them."""
    k, count = len(columns) + 1, len(columns[0])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header)
        for start in range(0, count, _WRITE_CHUNK):
            stop = min(start + _WRITE_CHUNK, count)
            flat = [None] * (k * (stop - start))
            flat[::k] = range(start + 1, stop + 1)
            for j, col in enumerate(columns, 1):
                flat[j::k] = (col[start:stop] + shift if shift else col[start:stop]).tolist()
            fh.write(row_fmt * (stop - start) % tuple(flat))


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


def _read_node_file(path: str) -> np.ndarray:
    with _mesh_file(path) as fh:
        count, dim = _read_header(fh, "node")
        _check_dim(dim, f"{path}: ")
        rows = _read_rows(fh, "node", count, range(3), float)
    index = rows[:, 0]
    wrong = np.flatnonzero(index != np.arange(1, count + 1))
    if wrong.size:
        i = int(wrong[0])
        raise MeshParseError(
            f"{path}: node {i + 1} is numbered {index[i]:.17g}; the index column must read 1..{count} in order"
        )
    # a copy, so that the index column is freed with `rows`
    return rows[:, 1:].copy()


def _read_ele_file(path: str) -> np.ndarray:
    with _mesh_file(path) as fh:
        count, per = _read_header(fh, "element")
        if per != 3:
            raise ValueError(f"expected 3 corners per element, header says {per}")
        # The element index column is not read: element order does not
        # change the mesh.
        elements = _read_rows(fh, "element", count, range(1, 4), np.int64)
    elements -= 1
    return elements


def measure_sum(mesh: SimplicialMesh) -> float:
    """Total measure of the meshed region (exact sum of element measures)."""
    return float(mesh.measures.sum())
