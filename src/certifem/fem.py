"""P1 Lagrange discretization of the homogeneous-Dirichlet Poisson problem.

Assembly is vectorized over elements; Dirichlet conditions are imposed by
reduction to interior unknowns (keeps the system symmetric positive
definite); the solver is a hand-rolled conjugate gradient so behavior is
deterministic and fully inspectable.  Its preconditioner is line Jacobi:
chains and rings of strongly coupled nodes (the rings of a fan-refined
m-gon, whose thin triangles couple ring neighbours ~125x more strongly
than spoke neighbours) are solved exactly by one tridiagonal solve plus a
rank-one correction per ring, every other node by its diagonal.  A matrix
with no such lines gets plain Jacobi.  A large system on a mesh that keeps
its refinement levels is instead preconditioned by a V-cycle over those
levels, with line Jacobi as its smoother (`_VCycle`): line-Jacobi CG needs
about twice the iterations per refinement, the V-cycle about the same
number at every depth.

||u_h|| and nodal f_h share one closed-form P1 L2 form (`_p1_l2`), summed
element by element: no mass matrix is assembled.

This is the one module that uses scipy, and it imports it inside the
functions that build the stiffness or call LAPACK, never at module level:
scipy.sparse and scipy.linalg are most of the cost of `import certifem`, and
neither the `mesh` commands nor `certify` need them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterator

import numpy as np

from . import mesh as meshmod
from .errors import CertifemError, InvalidSourceError, MissingNormMetadata, SupNormViolationError
from .geometry import _blocks
from .interp_constants import global_l2_bound
from .quadrature import TRI_D4_BARY, TRI_D4_WEIGHTS

if TYPE_CHECKING:
    import scipy.sparse as sp

FH_MODES = ("barycentric", "nodal", "exact")

SUP_SLACK = 1e-10

CG_TOL = 1e-12  # relative residual at which `solve_cg` stops

# Line-Jacobi preconditioner: an off-diagonal a_ij links nodes i and j when
# -a_ij >= _LINE_THETA * max(a_ii, a_jj), and a connected set of linked nodes
# is solved as one line when it has at least _LINE_MIN_NODES nodes.  0.45
# picks out the fan rings (|a_ij| / a_ii ~ 0.5); 0.4 also pairs thousands of
# nodes of a jittered square, which slows its solve.
_LINE_THETA = 0.45
_LINE_MIN_NODES = 3  # `_line_jacobi` tests for it as "some node has two links"

_SCATTER_SLOTS = 1 << 15  # (element, corner) slots per row block of `_scatter`

# V-cycle preconditioner (`_VCycle`): a system with at least _VCYCLE_MIN_SIZE
# unknowns on a mesh that carries its refinement levels is coarsened level by
# level until at most _COARSE_MAX_SIZE unknowns are left, which are solved
# densely.  Each level is smoothed by line Jacobi damped by _SMOOTHING_WEIGHT.
# On m-gon fans the cycle loses to line-Jacobi CG after 5 refinements (by
# 12-21% at 25k-99k unknowns) and wins after 6 or more (by 30-77% at
# 24k-101k), so the size at which it pays depends on the depth; every
# 5-level fan of the default refinement rule stays below this threshold.
_VCYCLE_MIN_SIZE = 100_000
_COARSE_MAX_SIZE = 400
_SMOOTHING_WEIGHT = 0.7


@dataclass
class SourceTerm:
    """Source data plus the norm metadata the certified bounds consume.

    `evaluate` must accept an (..., 2) array of points and return (...)
    values.  Every stored norm is an upper bound for the true norm over the
    domain, which keeps the resulting error bounds valid.
    """

    evaluate: Callable
    sup_norm: float
    grad_sup_norm: float | None = None
    h2_seminorm: float | None = None
    l2_norm: float | None = None
    name: str = ""

    @staticmethod
    def constant(value: float) -> "SourceTerm":
        _check_finite("constant source", [value])

        def f(pts):
            pts = np.asarray(pts, dtype=float)
            return np.full(pts.shape[:-1], float(value))

        return SourceTerm(
            evaluate=f,
            sup_norm=abs(float(value)),
            grad_sup_norm=0.0,
            h2_seminorm=0.0,
            name=f"const:{value:g}",
        )

    @staticmethod
    def sin_product() -> "SourceTerm":
        """f = 2 pi^2 sin(pi x) sin(pi y) on the unit square.

        Norm metadata (sup = 2 pi^2, |grad| sup = 2 pi^3, L2 = pi^2,
        H2 seminorm = 2 pi^4) is exact for the unit square.
        """

        def f(pts):
            pts = np.asarray(pts, dtype=float)
            return 2.0 * math.pi**2 * np.sin(math.pi * pts[..., 0]) * np.sin(math.pi * pts[..., 1])

        return SourceTerm(
            evaluate=f,
            sup_norm=2.0 * math.pi**2,
            grad_sup_norm=2.0 * math.pi**3,
            h2_seminorm=2.0 * math.pi**4,
            l2_norm=math.pi**2,
            name="sinsin",
        )

    @staticmethod
    def quadratic(coeffs, domain) -> "SourceTerm":
        """f = c0 + c1 x + c2 y + c3 x^2 + c4 x y + c5 y^2 on a 2D domain.

        Sup norms are certified coefficient bounds over the domain's
        bounding box; the H2 seminorm is exact (constant Hessian).
        """
        c = [float(x) for x in coeffs]
        if len(c) != 6:
            raise ValueError("quadratic source needs 6 coefficients")
        _check_finite("quadratic source", c)

        def f(pts):
            pts = np.asarray(pts, dtype=float)
            x, y = pts[..., 0], pts[..., 1]
            return c[0] + c[1] * x + c[2] * y + c[3] * x * x + c[4] * x * y + c[5] * y * y

        xmax = max(abs(domain.support(np.array([1.0, 0.0]))), abs(domain.support(np.array([-1.0, 0.0]))))
        ymax = max(abs(domain.support(np.array([0.0, 1.0]))), abs(domain.support(np.array([0.0, -1.0]))))
        sup = abs(c[0]) + abs(c[1]) * xmax + abs(c[2]) * ymax + abs(c[3]) * xmax**2 + abs(c[4]) * xmax * ymax + abs(c[5]) * ymax**2
        gx = abs(c[1]) + 2 * abs(c[3]) * xmax + abs(c[4]) * ymax
        gy = abs(c[2]) + abs(c[4]) * xmax + 2 * abs(c[5]) * ymax
        h2 = math.sqrt((4 * c[3] * c[3] + 2 * c[4] * c[4] + 4 * c[5] * c[5]) * domain.measure)
        return SourceTerm(
            evaluate=f,
            sup_norm=sup,
            grad_sup_norm=math.hypot(gx, gy),
            h2_seminorm=h2,
            name="poly:" + ",".join("%g" % x for x in c),
        )


def _check_finite(what: str, coeffs) -> None:
    bad = [x for x in coeffs if not math.isfinite(float(x))]
    if bad:
        raise InvalidSourceError(f"{what} needs finite coefficients, got {bad[0]}")


def _check_sup(f: SourceTerm, values: np.ndarray) -> None:
    worst = float(np.abs(values).max(initial=0.0))
    # NaN compares false with everything, so it is caught as not finite
    if not math.isfinite(worst) or worst > f.sup_norm + SUP_SLACK:
        raise SupNormViolationError(
            f"source exceeded declared sup norm: |f| reached {worst:.6g} > {f.sup_norm:.6g}"
        )


@dataclass
class DiscreteSource:
    """Approximation f_h of a source term on a fixed mesh."""

    mode: str
    mesh: meshmod.SimplicialMesh
    source: SourceTerm
    element_values: np.ndarray | None = None  # barycentric mode
    nodal_values: np.ndarray | None = None  # nodal mode
    # exact mode: the quadrature ||f||, stored by `assemble_load`, whose pass
    # over f computes it (`_source_l2`)
    quadrature_l2: float | None = field(default=None, repr=False)

    def l2_norm(self) -> float:
        """||f_h|| over the meshed region: exact for barycentric/nodal modes,
        degree-4 quadrature for exact mode."""
        mesh = self.mesh
        if self.mode == "barycentric":
            return math.sqrt(float((self.element_values**2 * mesh.measures).sum()))
        if self.mode == "nodal":
            return _p1_l2(mesh, self.nodal_values)
        if self.quadrature_l2 is None:
            self.quadrature_l2 = _source_l2(mesh, self.source)
        return self.quadrature_l2


def build_fh(mesh: meshmod.SimplicialMesh, f: SourceTerm, mode: str = "exact") -> DiscreteSource:
    """Discrete source: piecewise-constant barycenter values, vertex
    interpolation, or the source itself (zero perturbation)."""
    if mode not in FH_MODES:
        raise ValueError(f"unknown f_h mode {mode!r}")
    if mode == "barycentric":
        # (corner_0 + corner_1 + corner_2) / 3 per coordinate column: bit
        # for bit `mesh.element_vertices().mean(axis=1)`, without its
        # (M, 3, 2) gather
        el = mesh.elements
        centers = np.empty((2, mesh.element_count))
        for x, out in zip(mesh.nodes.T, centers):
            np.add(x[el[:, 0]], x[el[:, 1]], out=out)
            out += x[el[:, 2]]
            out /= 3
        vals = np.asarray(f.evaluate(centers.T), dtype=float)
        _check_sup(f, vals)
        return DiscreteSource(mode, mesh, f, element_values=vals)
    if mode == "nodal":
        vals = np.asarray(f.evaluate(mesh.nodes), dtype=float)
        _check_sup(f, vals)
        return DiscreteSource(mode, mesh, f, nodal_values=vals)
    return DiscreteSource(mode, mesh, f)


def _quadrature_blocks(mesh: meshmod.SimplicialMesh) -> Iterator[tuple[slice, np.ndarray]]:
    """`(rows, points)` for each block of elements (`geometry._blocks`): the
    (block, q, 2) physical points `sum_k bary[q, k] * corner_k` of the
    degree-4 rule on the elements `rows`, as the transposed view of a
    (2, q, block) array, so that each coordinate of each point is one
    contiguous column.

    Bit-identical to `np.einsum("qk,mkd->mqd", bary, mesh.element_vertices())[rows]`:
    the same products summed over k in the same order, but one coordinate
    and one point at a time on contiguous corner columns.
    """
    for rows in _blocks(mesh.element_count):
        block = mesh.elements[rows].T
        term = np.empty(block.shape[1])
        points = np.empty((2, TRI_D4_BARY.shape[0], block.shape[1]))
        for c, acc in enumerate(points):
            c0, c1, c2 = mesh.nodes[block, c]  # coordinate c of each corner
            for (b0, b1, b2), point in zip(TRI_D4_BARY, acc):
                np.multiply(b0, c0, out=point)
                point += np.multiply(b1, c1, out=term)
                point += np.multiply(b2, c2, out=term)
        yield rows, points.T


def _quadrature_norm(mesh: meshmod.SimplicialMesh, values: Callable[[slice, np.ndarray], np.ndarray]) -> float:
    """L2 norm by the degree-4 rule of a function given block by block:
    `values(rows, points)` returns its (block, q) values at the points of
    the elements `rows`.  The per-element sums fill one (M,) array, summed
    once.  The values are made C-contiguous first: the product with `w` sums
    each row in the order it takes on that layout."""
    w = TRI_D4_WEIGHTS
    sums = np.empty(mesh.element_count)
    for rows, points in _quadrature_blocks(mesh):
        sums[rows] = (np.ascontiguousarray(values(rows, points)) ** 2) @ w
    return math.sqrt(max(float((sums * mesh.measures).sum()), 0.0))


def _source_l2(mesh: meshmod.SimplicialMesh, f: SourceTerm, contrib: np.ndarray | None = None) -> float:
    """||f|| over `mesh` by the degree-4 rule, from the one pass that
    evaluates f at the rule's points; |f| is checked against `f.sup_norm` at
    all of them, naming the largest over all blocks.  Given a (3, M)
    array `contrib`, the pass also fills row j with corner j's load
    contributions |T| sum_q w_q f(x_q) bary[q, j]."""
    bary, w = TRI_D4_BARY, TRI_D4_WEIGHTS
    peaks = []

    def values(rows, points):
        vals = np.asarray(f.evaluate(points), dtype=float)
        peaks.append(np.abs(vals).max(initial=0.0))
        # values past the sup norm are rejected below; squared, they might
        # overflow first
        if not peaks[-1] <= f.sup_norm + SUP_SLACK:
            return np.zeros_like(vals)
        if contrib is not None:
            # sum_q (vals_q * w_q) * bary[q, j], summed over q in order, times
            # the measure: the einsum "mq,q,qk->mk" one column at a time
            weighted = vals * w
            for j, out in enumerate(contrib[:, rows]):
                np.multiply(weighted[:, 0], bary[0, j], out=out)
                for q in range(1, w.size):
                    out += weighted[:, q] * bary[q, j]
                out *= mesh.measures[rows]
        return vals

    norm = _quadrature_norm(mesh, values)
    _check_sup(f, np.array(peaks))
    return norm


def _gradients(mesh: meshmod.SimplicialMesh) -> tuple[np.ndarray, np.ndarray]:
    """Physical P1 basis gradients per element: (M, 2, 3) and measures.

    The rows of B are the edge vectors e_i = corner_i - corner_0, so grad
    lambda_i (i >= 1) is column i-1 of B^{-1} = adj(B) / det(B), and grad
    lambda_0 is minus their sum.  det(B) = 2 |T| = a d - b c, from the mesh's
    closed-form measures (`geometry._element_geometry`).  `build_mesh`
    orients every element positively, and a wrong sign would flip all
    gradients of an element, which its stiffness block g g^T does not see.
    The gradients are built from the four edge-difference columns into a
    (2, 3, M) array, returned as its transpose, so each component of each
    gradient is one contiguous column.
    """
    meas = mesh.measures
    det = 2 * meas
    # B = [[a, b], [c, d]], adj(B) = [[d, -b], [-c, a]]; -(b / det) is
    # (-b) / det bit for bit
    el = mesh.elements
    (a, c), (b, d) = ((x[el[:, 1]] - x[el[:, 0]], x[el[:, 2]] - x[el[:, 0]]) for x in mesh.nodes.T)
    cols = np.empty((2, 3, mesh.element_count))
    np.divide(d, det, out=cols[0, 1])
    np.negative(np.divide(b, det, out=cols[0, 2]), out=cols[0, 2])
    np.negative(np.divide(c, det, out=cols[1, 1]), out=cols[1, 1])
    np.divide(a, det, out=cols[1, 2])
    np.negative(np.add(cols[:, 1], cols[:, 2], out=cols[:, 0]), out=cols[:, 0])
    return cols.transpose(2, 0, 1), meas


def assemble_stiffness(mesh: meshmod.SimplicialMesh) -> sp.csr_matrix:
    """Full stiffness matrix over all nodes (constants lie in its kernel),
    with read-only arrays.  Not cached on the mesh: `solve_poisson` needs it
    only to form the reduced system, which also gives |u_h|_1."""
    return _scatter(mesh, _stiffness_rows(*_gradients(mesh)))


def _stiffness_rows(grads: np.ndarray, meas: np.ndarray) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """`rows(e, c)`: row c of element e's local stiffness matrix.  Its entries
    i <= j, meas * sum_d grads[:, d, i] * grads[:, d, j] summed over d in
    order (bit-identical to the einsum "mki,mkj->mij"), are formed once per
    element, k (k + 1) / 2 of them; a row gathers k."""
    count, _, k = grads.shape
    cols = grads.transpose(1, 2, 0)  # (2, k, M): a contiguous view
    entries = np.empty((k * (k + 1) // 2, count))
    pair = np.empty((k, k), dtype=np.intp)  # the entry of (i, j), in either order
    for p, (i, j) in enumerate((i, j) for i in range(k) for j in range(i, k)):
        pair[i, j] = pair[j, i] = p
        np.multiply(cols[0, i], cols[0, j], out=entries[p])
        entries[p] += cols[1, i] * cols[1, j]
        entries[p] *= meas

    def rows(e, c):
        return np.stack([np.take(entries, np.take(pair[:, j], c) * count + e) for j in range(k)], axis=1)

    return rows


def _scatter(mesh: meshmod.SimplicialMesh, local_rows: Callable[[np.ndarray, np.ndarray], np.ndarray]) -> sp.csr_matrix:
    """Global CSR matrix summing the local element matrices, of which
    `local_rows(e, c)` returns the (S, k) rows local[e, c, :] for S slots
    (element e, corner c), with read-only arrays.

    Bit-identical to `coo_matrix((local.ravel(), (rows, cols))).tocsr()`,
    which orders each row's entries by element, then column slot, before
    scipy sorts and sums the duplicates row by row: here the rows come in
    that order directly, read off the transposed element-corner incidence,
    one block of whole rows (about _SCATTER_SLOTS slots) at a time, so no
    (M, k, k) or whole-mesh pre-sum array is built.
    """
    import scipy.sparse as sp

    el = mesh.elements.astype(np.int32)
    count, k = el.shape
    n = mesh.node_count
    # per node, the elements that hold it (indices) and its corner in each
    # (data), in element order; a node is at most one corner of an element
    corners = np.tile(np.arange(k, dtype=np.int8), count)
    slots = sp.csr_matrix((corners, el.ravel(), np.arange(0, el.size + 1, k, dtype=np.int32)), shape=(count, n)).tocsc()
    starts, first = slots.indptr, 0
    data, indices, indptr = [], [], np.zeros(n + 1, dtype=np.int32)
    while first < n:
        lo = int(starts[first])
        stop = max(first + 1, int(np.searchsorted(starts, lo + _SCATTER_SLOTS, side="right")) - 1)
        e, c = slots.indices[lo : starts[stop]], slots.data[lo : starts[stop]]
        block_ptr = (starts[first : stop + 1] - lo) * np.int32(k)
        block = sp.csr_matrix((local_rows(e, c).ravel(), np.take(el, e, axis=0).ravel(), block_ptr), (stop - first, n))
        block.sum_duplicates()
        indptr[first + 1 : stop + 1] = block.indptr[1:] + indptr[first]
        data.append(block.data)
        indices.append(block.indices)
        first = stop
        del e, c, block  # e and c are views of the incidence arrays
    del slots, el, corners  # before the blocks are joined
    mat = sp.csr_matrix((np.concatenate([np.zeros(0), *data]), np.concatenate([indptr[:0], *indices]), indptr), (n, n))
    for arr in (mat.data, mat.indices, mat.indptr):
        arr.setflags(write=False)
    return mat


def assemble_load(mesh: meshmod.SimplicialMesh, fh: DiscreteSource) -> np.ndarray:
    """Load vector over all nodes for the given discrete source.

    Barycentric and nodal modes integrate exactly; exact mode uses the
    degree-4 rule, and stores the same rule's ||f|| on `fh` for
    `fh.l2_norm`, so f is evaluated once per solve.  Every mode scatters
    (3, M) corner contributions, corner by corner; nodal corner j of T
    gives |T| (v_j + sum_k v_k) / 12, row j of M_T v (`_p1_l2`).
    """
    if fh.mode == "nodal":
        v = fh.nodal_values[mesh.elements.T]
        contrib = (v + v.sum(axis=0)) * (mesh.measures / 12)
    elif fh.mode == "barycentric":
        contrib = np.broadcast_to(fh.element_values * mesh.measures / 3, (3, mesh.element_count))
    else:
        contrib = np.empty((3, mesh.element_count))
        norm = _source_l2(mesh, fh.source, contrib)
        if fh.mesh is mesh:
            fh.quadrature_l2 = norm
    b = np.zeros(mesh.node_count)
    for j in range(3):
        np.add.at(b, mesh.elements[:, j], contrib[j])
    return b


@dataclass
class LinearSystem:
    """Reduced SPD system over interior nodes.

    `prolongations` holds the interior-restricted prolongation of each
    refinement level of the mesh, coarsest first (see `_prolongations`);
    `solve_cg` preconditions by a V-cycle over them, and by line Jacobi when
    there are none.
    """

    matrix: sp.csr_matrix
    rhs: np.ndarray
    interior: np.ndarray
    prolongations: tuple = ()

    @property
    def size(self) -> int:
        return self.rhs.size


def dirichlet_system(mesh: meshmod.SimplicialMesh, stiffness: sp.csr_matrix, load: np.ndarray) -> LinearSystem:
    """Eliminate boundary rows/columns; validates the full-matrix kernel
    (row sums within 1e-10 of the largest entry) and positive interior
    diagonal.  A system of at least _VCYCLE_MIN_SIZE unknowns also gets the
    prolongations of the mesh's refinement levels."""
    row_sums = np.abs(np.asarray(stiffness.sum(axis=1)).ravel())
    largest = np.maximum(stiffness.data.max(initial=0.0), -stiffness.data.min(initial=0.0))  # no |data| array
    if row_sums.size and row_sums.max() > 1e-10 * largest:
        raise CertifemError(f"stiffness row sums reach {row_sums.max():.3e}; assembly broken")
    interior = mesh.interior_nodes
    # the prolongations first: their transients then do not sit on the
    # reduced matrix
    prolongations = _prolongations(mesh, interior) if interior.size >= _VCYCLE_MIN_SIZE else ()
    mat = _interior_block(stiffness, interior)
    if mat.shape[0] and np.any(mat.diagonal() <= 0.0):
        raise CertifemError("nonpositive diagonal after Dirichlet elimination")
    return LinearSystem(mat, load[interior], interior, prolongations)


def _interior_block(mat: sp.csr_matrix, interior: np.ndarray) -> sp.csr_matrix:
    """`mat[interior][:, interior]` for sorted unique `interior`, in one pass
    over the entries: an entry is kept when its row and column are interior,
    its column renumbered, and each row keeps its order, so the arrays equal
    scipy's fancy indexing bit for bit, with no (interior, N) copy."""
    import scipy.sparse as sp

    renumber = np.full(mat.shape[0], -1, dtype=mat.indices.dtype)
    renumber[interior] = np.arange(interior.size, dtype=renumber.dtype)
    columns = np.take(renumber, mat.indices)
    per_row = np.diff(mat.indptr)
    kept = (columns >= 0) & np.repeat(renumber >= 0, per_row)
    indices = columns[kept]
    # each interior row keeps its entries less those in boundary columns,
    # which are few: O(boundary nodes) for a mesh
    outside = np.searchsorted(mat.indptr, np.flatnonzero(columns < 0), side="right") - 1
    del columns
    per_row -= np.bincount(outside, minlength=per_row.size).astype(per_row.dtype)
    indptr = np.r_[0, np.cumsum(per_row[interior])].astype(mat.indptr.dtype)
    return sp.csr_matrix((mat.data[kept], indices, indptr), shape=(interior.size,) * 2)


def _prolongations(mesh: meshmod.SimplicialMesh, interior: np.ndarray) -> tuple[sp.csr_matrix, ...]:
    """Edge-midpoint prolongations between the interior nodes of successive
    refinement levels of `mesh`, coarsest first, down to the first level with
    at most _COARSE_MAX_SIZE interior nodes; () when the levels do not reach
    one.

    P maps coarse to fine nodal values of the same P1 function: an old node
    keeps its value, a midpoint takes half of each parent.  Boundary values
    are zero, so a boundary parent contributes nothing and its column is
    dropped.
    """
    import scipy.sparse as sp

    out = []
    fine = interior  # sorted interior nodes of the finer level
    for coarse_count, parents in reversed(mesh.hierarchy):
        if fine.size <= _COARSE_MAX_SIZE:
            break
        # coarse nodes are a prefix of the fine ones, with the same boundary
        old = fine < coarse_count
        coarse = fine[old]
        column = np.full(coarse_count, -1)
        column[coarse] = np.arange(coarse.size)
        mid_cols = column[parents[fine[~old] - coarse_count]]
        mid_rows = np.repeat(np.flatnonzero(~old), 2).reshape(-1, 2)
        kept = mid_cols >= 0
        rows = np.concatenate([np.flatnonzero(old), mid_rows[kept]])
        cols = np.concatenate([np.arange(coarse.size), mid_cols[kept]])
        vals = np.concatenate([np.ones(coarse.size), np.full(int(kept.sum()), 0.5)])
        out.append(sp.csr_matrix((vals, (rows, cols)), shape=(fine.size, coarse.size)))
        fine = coarse
    if fine.size > _COARSE_MAX_SIZE:
        return ()
    return tuple(reversed(out))


@dataclass
class FemSolution:
    """Nodal coefficients over all nodes (boundary entries exactly zero).

    `energy` is v^T K v = |u_h|_1^2 when the solve formed it from the reduced
    system (`solve_poisson`), None otherwise.
    """

    nodal_values: np.ndarray
    iterations: int
    residual: float
    converged: bool
    energy: float | None = None


def _line_links(a_mat: sp.csr_matrix, diag: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(i, j, a_ij) with i < j for the links the line preconditioner keeps.

    A link needs -a_ij >= _LINE_THETA * max(a_ii, a_jj); a node keeps its
    links only when it has at most two and their |a_ij| sum to less than
    a_ii.  The kept part of the matrix is then strictly diagonally dominant
    with a positive diagonal, hence SPD, and every connected set of linked
    nodes is a path or a cycle.  The links come row by row, i ascending, each
    row's in the order the row stores its columns (`_line_jacobi` relies on
    it).
    """
    n = diag.size
    indptr, cols, vals = a_mat.indptr, a_mat.indices, a_mat.data
    # the threshold tests, one block of rows at a time, so that no array as
    # long as the entries is formed; everything after them is O(links)
    threshold = -_LINE_THETA * diag
    links = [(np.zeros(0, dtype=np.int32), cols[:0], vals[:0])]
    for rows in _blocks(n):
        stop = min(rows.stop, n)
        row = np.repeat(np.arange(rows.start, stop, dtype=np.int32), np.diff(indptr[rows.start : stop + 1]))
        j, a = cols[indptr[rows.start] : indptr[stop]], vals[indptr[rows.start] : indptr[stop]]
        upper = np.flatnonzero((j > row) & (a <= threshold[row]))
        upper = upper[a[upper] <= threshold[j[upper]]]
        links.append((row[upper], j[upper], a[upper]))
    i, j, a = (np.concatenate(part) for part in zip(*links))
    ends = np.concatenate([i, j])
    degree = np.bincount(ends, minlength=n)
    link_sum = -np.bincount(ends, weights=np.concatenate([a, a]), minlength=n)
    keeps = (degree <= 2) & (link_sum < diag)
    kept = keeps[i] & keeps[j]
    return i[kept], j[kept], a[kept]


def _line_jacobi(a_mat: sp.csr_matrix) -> Callable[[np.ndarray, np.ndarray], None]:
    """`apply(r, out)` writing M^{-1} r, with M = diag(A) plus the kept links.

    Nodes on a line (a path or cycle of at least _LINE_MIN_NODES linked
    nodes) are ordered along it, so each path is a tridiagonal block and
    each cycle a tridiagonal block plus its closing link c between its
    first and last node.  All blocks are factored together once (LAPACK
    `dpttrf`); the closing link is split off as the rank-one term
    -d_0 v v^T, v = e_0 - (c / d_0) e_last, which adds d_0 and c^2 / d_0 to
    the block's end diagonals (so the block stays SPD) and is undone per
    apply by one Sherman-Morrison correction.  Other nodes get r_i / a_ii.
    Without lines `apply` is exactly the Jacobi step.
    """
    diag = a_mat.diagonal()
    n = diag.size
    i, j, a = _line_links(a_mat, diag)
    degree = np.bincount(np.concatenate([i, j]), minlength=n)
    # a linked set of three or more nodes has a node with two links; without
    # one there are only pairs and single nodes, and no graph work is needed
    if not np.any(degree == 2):
        inv_diag = 1.0 / diag
        return lambda r, out: np.multiply(inv_diag, r, out=out)

    from scipy.linalg.lapack import dpttrf, dpttrs

    order, starts, stops, cycles = _walk_lines(i, j, degree)
    # a kept link's value is the a_ij `_line_links` read.  It lists the links
    # row by row, each row's in the order the row stores its columns (which
    # scipy's sparse products leave unsorted), so node u's links to higher
    # nodes, at most two, start at from_node[u]
    from_node = np.zeros(n, dtype=np.intp)
    np.cumsum(np.bincount(i, minlength=n)[:-1], out=from_node[1:])

    def value(u, v):
        low, high = np.minimum(u, v), np.maximum(u, v)
        k = from_node[low]
        k += j[k] != high
        return a[k]

    d = diag[order]
    e = np.zeros(order.size - 1)
    inside = np.ones(order.size - 1, dtype=bool)
    inside[starts[1:] - 1] = False
    e[inside] = value(order[:-1][inside], order[1:][inside])
    first, last = starts[cycles], stops[cycles] - 1
    closing = value(order[first], order[last])
    del i, j, a, from_node, degree  # the link arrays, before the factorization
    d0 = d[first]
    v_last = -closing / d0
    d[first] += d0
    d[last] += closing * closing / d0
    d, e, info = dpttrf(d, e)
    if info != 0:
        raise CertifemError(f"line preconditioner factorization failed (dpttrf info {info})")
    u = np.zeros(order.size)
    u[first], u[last] = -d0, closing
    w = dpttrs(d, e, u)[0]
    kappa = 1.0 / (1.0 + w[first] + v_last * w[last])
    lengths = stops - starts
    s_line = np.zeros(starts.size)
    # only the nodes on no line take the Jacobi step
    on_line = np.zeros(n, dtype=bool)
    on_line[order] = True
    off_line = np.flatnonzero(~on_line)
    inv_off_line = 1.0 / diag[off_line]

    def apply(r, out):
        out[off_line] = inv_off_line * r[off_line]
        y = dpttrs(d, e, r[order])[0]
        s_line[cycles] = (y[first] + v_last * y[last]) * kappa
        y -= w * np.repeat(s_line, lengths)
        out[order] = y

    return apply


def _walk_lines(i: np.ndarray, j: np.ndarray, degree: np.ndarray) -> tuple[np.ndarray, ...]:
    """The nodes on lines (linked sets of at least _LINE_MIN_NODES nodes, by
    the links (i, j) of `_line_links`) in walk order, each line's start and
    stop in it, and whether each line is a cycle.  The graph arrays are
    freed on return."""
    from scipy.sparse import csgraph

    n = degree.size
    label = csgraph.connected_components(_link_graph(i, j, n), directed=False)[1]
    size = np.bincount(label)
    path_ends = np.flatnonzero((degree == 1) & (size[label] >= _LINE_MIN_NODES))
    is_cycle = size >= _LINE_MIN_NODES
    is_cycle[label[path_ends]] = False
    first = np.full(size.size, n)  # each component's first node
    np.minimum.at(first, label, np.arange(n))
    # depth-first from a virtual root joined to every path end and to one
    # node per cycle walks each line from end to end, one line after another
    walk = _link_graph(i, j, n, np.sort(np.concatenate([path_ends, first[is_cycle]])))
    # intp: numpy gathers and scatters with it about twice as fast as int32
    order = csgraph.depth_first_order(walk, n, directed=False, return_predecessors=False)[1:].astype(np.intp)
    line_label = label[order]
    starts = np.flatnonzero(np.r_[True, line_label[1:] != line_label[:-1]])
    return order, starts, np.r_[starts[1:], order.size], is_cycle[line_label[starts]]


def _link_graph(i: np.ndarray, j: np.ndarray, n: int, root_links: np.ndarray | None = None) -> sp.csr_matrix:
    """The graph of the links (i, j), i < j, of `_line_links` as the CSR
    matrix of ones that csgraph reads (the sorted CSR form of the COO links,
    without the conversion's copies): row u lists the j of u's links in
    ascending order.  Given sorted `root_links`, a virtual node n is added
    with them as its row.  The links come row by row and no node has more
    than two, so a row is sorted by swapping a descending pair."""
    import scipy.sparse as sp

    indices = j.astype(np.int32) if root_links is None else np.concatenate([j, root_links]).astype(np.int32)
    swap = np.flatnonzero((i[1:] == i[:-1]) & (j[1:] < j[:-1]))
    indices[swap], indices[swap + 1] = j[swap + 1], j[swap]
    rows = n if root_links is None else n + 1
    indptr = np.empty(rows + 1, dtype=np.int32)
    indptr[0], indptr[-1] = 0, indices.size
    indptr[1 : n + 1] = np.cumsum(np.bincount(i, minlength=n))
    return sp.csr_matrix((np.ones(indices.size), indices, indptr), shape=(rows, rows))


class _VCycle:
    """Symmetric V(1,1)-cycle: calling it as `(r, out)` writes B r, with B an
    SPD approximation of A^{-1}.

    Level 0 is A; level l + 1 is the Galerkin operator P^T A_l P of the
    prolongation P below it, and the coarsest level is factored densely
    (Cholesky).  On each finer level the cycle smooths once by damped line
    Jacobi, x = w M^{-1} b, restricts the residual, adds the prolongated
    coarse correction, and smooths once more, x += w M^{-1} (b - A x).  The
    two smoothing steps are the same symmetric map, so B is symmetric; it is
    positive definite when 2 M / w - A is.  See Briggs, Henson & McCormick,
    *A Multigrid Tutorial* (2000), ch. 7.

    The levels are walked by loops, not by recursion through a closure, so
    the level matrices are freed with the object.
    """

    def __init__(self, a_mat: sp.csr_matrix, prolongations: tuple[sp.csr_matrix, ...]) -> None:
        from scipy.linalg import cho_factor

        self.prolong = list(reversed(prolongations))  # finest first
        # P^T as P's transposed (CSC) view, not a kept CSR copy: its product
        # with a vector sums each entry in the same order, row j of P after
        # row j - 1, so bit for bit; the Galerkin product gets a CSR copy
        self.restrict = [p.T for p in self.prolong]
        self.mats, self.smooth = [a_mat], []
        for p in self.prolong:
            self.smooth.append(_line_jacobi(self.mats[-1]))
            self.mats.append((p.T.tocsr() @ (self.mats[-1] @ p)).tocsr())
        self.coarse = cho_factor(self.mats[-1].toarray())

    def __call__(self, r: np.ndarray, out: np.ndarray) -> None:
        from scipy.linalg import cho_solve

        w = _SMOOTHING_WEIGHT
        rhs, iterates = [r], []
        for a, smooth, pt in zip(self.mats, self.smooth, self.restrict):
            x = np.empty(a.shape[0])
            smooth(rhs[-1], x)
            x *= w
            iterates.append(x)
            rhs.append(pt @ (rhs[-1] - a @ x))
        x = cho_solve(self.coarse, rhs[-1])
        for a, smooth, p, b, fine in reversed(list(zip(self.mats, self.smooth, self.prolong, rhs, iterates))):
            fine += p @ x
            x = fine
            step = np.empty(a.shape[0])
            smooth(b - a @ x, step)
            step *= w
            x += step
        np.copyto(out, x)


def solve_cg(system: LinearSystem, maxiter: int | None = None) -> tuple[np.ndarray, int, float, bool]:
    """Preconditioned conjugate gradients.

    The preconditioner is one `_VCycle` over the system's prolongations,
    which `dirichlet_system` sets for a refined mesh with at least
    _VCYCLE_MIN_SIZE unknowns; every other system gets line Jacobi (see
    `_line_jacobi`).  Stops when ||b - A x|| / ||b|| <= CG_TOL; returns the
    best iterate with a convergence flag when the iteration cap is reached.
    Deterministic.
    """
    a_mat, b = system.matrix, system.rhs
    n = b.size
    if n == 0:
        return np.zeros(0), 0, 0.0, True
    norm_b = float(np.linalg.norm(b))
    if norm_b == 0.0:
        return np.zeros(n), 0, 0.0, True
    if maxiter is None:
        maxiter = max(100, 20 * n)
    precondition = _VCycle(a_mat, system.prolongations) if system.prolongations else _line_jacobi(a_mat)
    x = np.zeros(n)
    r = b.copy()
    z = np.empty(n)
    precondition(r, z)
    p = z.copy()
    step = np.empty(n)
    rz = float(r @ z)
    best_x, best_res = np.zeros(n), 1.0
    for it in range(1, maxiter + 1):
        ap = a_mat @ p
        alpha = rz / float(p @ ap)
        x += np.multiply(alpha, p, out=step)
        r -= np.multiply(alpha, ap, out=step)
        res = float(np.linalg.norm(r)) / norm_b
        if res < best_res:
            best_res = res
            np.copyto(best_x, x)
        if res <= CG_TOL:
            return x, it, res, True
        precondition(r, z)
        rz_new = float(r @ z)
        p *= rz_new / rz
        p += z
        rz = rz_new
    return best_x, maxiter, best_res, False


def solve_poisson(
    mesh: meshmod.SimplicialMesh,
    f: SourceTerm,
    fh_mode: str = "exact",
    maxiter: int | None = None,
) -> tuple[FemSolution, DiscreteSource]:
    fh = build_fh(mesh, f, fh_mode)
    # neither the full stiffness matrix nor the full load vector is held
    # through the solve
    system = dirichlet_system(mesh, assemble_stiffness(mesh), assemble_load(mesh, fh))
    x, iters, res, ok = solve_cg(system, maxiter=maxiter)
    full = np.zeros(mesh.node_count)
    full[system.interior] = x
    # K v is zero-padded A x: each interior row sums the same products in the
    # same order, less boundary terms that are zero, so v . (K v) bit for bit
    stiff_v = np.zeros(mesh.node_count)
    stiff_v[system.interior] = system.matrix @ x
    return FemSolution(full, iters, res, ok, float(full @ stiff_v)), fh


# ---------------------------------------------------------------------------
# norms and error quantities


def fem_l2_norm(mesh: meshmod.SimplicialMesh, sol: FemSolution) -> float:
    """||u_h||, exact for P1 (`_p1_l2`)."""
    return _p1_l2(mesh, sol.nodal_values)


def _p1_l2(mesh: meshmod.SimplicialMesh, nodal: np.ndarray) -> float:
    """L2 norm of the P1 function with `nodal` values, exact: the sum over
    elements of v^T M_T v = |T| (sum_k v_k^2 + (sum_k v_k)^2) / 12,
    M_T = |T| (J + I) / 12 the local mass matrix, J all ones.
    Every term is nonnegative, so none cancels."""
    v = nodal[mesh.elements]
    local = (v**2).sum(axis=1) + v.sum(axis=1) ** 2
    return math.sqrt(float((local * mesh.measures).sum()) / 12)


def fem_h1_seminorm(mesh: meshmod.SimplicialMesh, sol: FemSolution) -> float:
    """|u_h|_1 from the exact P1 stiffness matrix: the solve's `energy`, or
    v^T K v for a solution that has none."""
    energy = sol.energy
    if energy is None:
        v = sol.nodal_values
        energy = float(v @ (assemble_stiffness(mesh) @ v))
    return math.sqrt(max(energy, 0.0))


def l2_error_interior(mesh: meshmod.SimplicialMesh, sol: FemSolution, exact: Callable) -> float:
    """|| u_exact - u_h || over the meshed region by the degree-4 rule."""
    return _quadrature_norm(
        mesh, lambda rows, points: np.asarray(exact(points), dtype=float) - _p1_at_points(mesh, sol.nodal_values, rows)
    )


def _p1_at_points(mesh: meshmod.SimplicialMesh, nodal: np.ndarray, rows: slice) -> np.ndarray:
    """(block, q) values at the degree-4 rule's points of the P1 function
    with `nodal` values, sum_k bary[q, k] * nodal[corner_k], on the elements
    `rows`.

    Bit-identical to `np.einsum("qk,mk->mq", bary, nodal[mesh.elements[rows]])`,
    which sums the products on two SIMD lanes: (w0 c0 + w2 c2) + w1 c1;
    here one point at a time on contiguous corner columns.
    """
    c0, c1, c2 = nodal[mesh.elements[rows].T]
    return np.stack([(w0 * c0 + w2 * c2) + w1 * c1 for w0, w1, w2 in TRI_D4_BARY], axis=1)


def fh_perturbation_bound(mesh: meshmod.SimplicialMesh, f: SourceTerm, mode: str, qual=None) -> float:
    """Certified upper bound for ||f - f_h|| over the meshed region."""
    if mode == "exact":
        return 0.0
    if qual is None:
        qual = meshmod.quality(mesh)
    if mode == "barycentric":
        if f.grad_sup_norm is None:
            raise MissingNormMetadata("barycentric perturbation bound needs grad_sup_norm")
        return 2 / 3 * qual.h * math.sqrt(meshmod.measure_sum(mesh)) * f.grad_sup_norm
    if mode == "nodal":
        if f.h2_seminorm is None:
            raise MissingNormMetadata("nodal perturbation bound needs h2_seminorm")
        return global_l2_bound(qual.h) * f.h2_seminorm
    raise ValueError(f"unknown f_h mode {mode!r}")


def poincare_bound(diameter: float) -> float:
    """Upper bound D / (sqrt(2) pi) for the Poincare constant."""
    if diameter < 0:
        raise ValueError("diameter must be nonnegative")
    return diameter / (math.sqrt(2) * math.pi)


def poincare_residual(mesh: meshmod.SimplicialMesh, sol: FemSolution, diameter: float) -> tuple[float, float]:
    """(||u_h||, C_P-bound * |u_h|_1) with both sides from exact P1 quadrature."""
    return fem_l2_norm(mesh, sol), poincare_bound(diameter) * fem_h1_seminorm(mesh, sol)
