"""P1 Lagrange discretization of the homogeneous-Dirichlet Poisson problem.

Assembly is vectorized over elements; Dirichlet conditions are imposed by
reduction to interior unknowns (keeps the system symmetric positive
definite); the solver is a hand-rolled conjugate gradient so behavior is
deterministic and fully inspectable.  Its preconditioner is line Jacobi:
chains and rings of strongly coupled nodes (the rings of a fan-refined
m-gon, whose thin triangles couple ring neighbours ~125x more strongly
than spoke neighbours) are solved exactly by one tridiagonal solve plus a
rank-one correction per ring, every other node by its diagonal.  A matrix
with no such lines gets plain Jacobi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dpttrf, dpttrs

from . import mesh as meshmod
from .errors import CertifemError, InvalidSourceError, MissingNormMetadata, SupNormViolationError
from .interp_constants import global_l2_bound
from .quadrature import simplex_rule

FH_MODES = ("barycentric", "nodal", "exact")

SUP_SLACK = 1e-10

# Elements per block in `_quadrature_points`: the (q, block, dim) scratch
# buffers stay small while each numpy call still covers thousands of elements.
_QUAD_BLOCK = 4096

# Line-Jacobi preconditioner: an off-diagonal a_ij links nodes i and j when
# -a_ij >= _LINE_THETA * max(a_ii, a_jj), and a connected set of linked nodes
# is solved as one line when it has at least _LINE_MIN_NODES nodes.  0.45
# picks out the fan rings (|a_ij| / a_ii ~ 0.5); 0.4 also pairs thousands of
# nodes of a jittered square, which slows its solve.
_LINE_THETA = 0.45
_LINE_MIN_NODES = 3  # `_line_jacobi` tests for it as "some node has two links"


@dataclass
class SourceTerm:
    """Source data plus the norm metadata the certified bounds consume.

    `evaluate` must accept an (..., dim) array of points and return (...)
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
    # exact mode: the quadrature ||f||, stored by `assemble_load`, which
    # evaluates f at the same points
    quadrature_l2: float | None = field(default=None, repr=False)

    def l2_norm(self) -> float:
        """||f_h|| over the meshed region: exact for barycentric/nodal modes,
        degree-4 quadrature for exact mode."""
        mesh = self.mesh
        if self.mode == "barycentric":
            return math.sqrt(float((self.element_values**2 * meshmod._measures(mesh)).sum()))
        if self.mode == "nodal":
            m_full = assemble_mass(mesh)
            v = self.nodal_values
            return math.sqrt(max(float(v @ (m_full @ v)), 0.0))
        if self.quadrature_l2 is None:
            bary, w = simplex_rule(mesh.dim)
            vals = self.source.evaluate(_quadrature_points(mesh, bary))
            _check_sup(self.source, vals)
            self.quadrature_l2 = _quadrature_l2(mesh, vals, w)
        return self.quadrature_l2


def build_fh(mesh: meshmod.SimplicialMesh, f: SourceTerm, mode: str = "exact") -> DiscreteSource:
    """Discrete source: piecewise-constant barycenter values, vertex
    interpolation, or the source itself (zero perturbation)."""
    if mode not in FH_MODES:
        raise ValueError(f"unknown f_h mode {mode!r}")
    if mode == "barycentric":
        centers = mesh.element_vertices().mean(axis=1)
        vals = np.asarray(f.evaluate(centers), dtype=float)
        _check_sup(f, vals)
        return DiscreteSource(mode, mesh, f, element_values=vals)
    if mode == "nodal":
        vals = np.asarray(f.evaluate(mesh.nodes), dtype=float)
        _check_sup(f, vals)
        return DiscreteSource(mode, mesh, f, nodal_values=vals)
    return DiscreteSource(mode, mesh, f)


def _quadrature_points(mesh: meshmod.SimplicialMesh, bary: np.ndarray) -> np.ndarray:
    """(M, q, dim) physical quadrature points, `sum_k bary[q, k] * corner_k`.

    Bit-identical to `np.einsum("qk,mkd->mqd", bary, mesh.element_vertices())`:
    the same products summed over k in the same order, but in broadcast
    kernels over a (q, block, dim) buffer instead of numpy's generic einsum
    loop, one block of elements at a time.
    """
    nodes, elements = mesh.nodes, mesh.elements
    nq, dim = bary.shape[0], mesh.dim
    out = np.empty((mesh.element_count, nq, dim))
    acc = np.empty((nq, min(_QUAD_BLOCK, mesh.element_count), dim))
    term = np.empty_like(acc)
    for start in range(0, mesh.element_count, _QUAD_BLOCK):
        corners = nodes[elements[start : start + _QUAD_BLOCK].T]  # (dim+1, block, dim)
        size = corners.shape[1]
        np.multiply(bary[:, 0, None, None], corners[0], out=acc[:, :size])
        for k in range(1, dim + 1):
            acc[:, :size] += np.multiply(bary[:, k, None, None], corners[k], out=term[:, :size])
        out[start : start + size] = acc[:, :size].transpose(1, 0, 2)
    return out


def _gradients(mesh: meshmod.SimplicialMesh) -> tuple[np.ndarray, np.ndarray]:
    """Physical P1 basis gradients per element: (M, dim, dim+1) and measures.

    The rows of B are the edge vectors e_i = corner_i - corner_0, so grad
    lambda_i (i >= 1) is column i-1 of B^{-1} = adj(B) / det(B), and grad
    lambda_0 is minus their sum.  det(B) = dim! |T| from the cached
    measures (exact in 2D, where the factor is 2); `build_mesh` orients
    every element positively, and a wrong sign would flip all gradients of
    an element, which its stiffness block g g^T does not see.
    """
    verts = mesh.element_vertices()
    n = mesh.dim
    e = verts[:, 1:, :] - verts[:, :1, :]
    meas = meshmod._measures(mesh)
    det = math.factorial(n) * meas
    grads = np.empty((mesh.element_count, n, n + 1))
    if n == 2:
        # adj(B) = [[d, -b], [-c, a]] for B = [[a, b], [c, d]]
        (a, b), (c, d) = e[:, 0].T, e[:, 1].T
        adj = np.stack([d, -b, -c, a], axis=1).reshape(-1, 2, 2)
    else:
        # column j of adj(B) is the cross product of the other two edges
        adj = np.stack([np.cross(e[:, 1], e[:, 2]), np.cross(e[:, 2], e[:, 0]), np.cross(e[:, 0], e[:, 1])], axis=2)
    np.divide(adj, det[:, None, None], out=grads[:, :, 1:])
    np.negative(grads[:, :, 1:].sum(axis=2), out=grads[:, :, 0])
    return grads, meas


def assemble_stiffness(mesh: meshmod.SimplicialMesh) -> sp.csr_matrix:
    """Full stiffness matrix over all nodes (constants lie in its kernel).

    Assembled once per mesh and shared, so its arrays are read-only.
    """
    return meshmod._cached(mesh, "stiffness", _assemble_stiffness)


def _assemble_stiffness(mesh: meshmod.SimplicialMesh) -> sp.csr_matrix:
    grads, meas = _gradients(mesh)
    # local[m, i, j] = meas[m] * sum_k grads[m, k, i] * grads[m, k, j], summed
    # over k in order (bit-identical to the einsum "mki,mkj->mij").
    local = grads[:, 0, :, None] * grads[:, 0, None, :]
    for k in range(1, mesh.dim):
        local += grads[:, k, :, None] * grads[:, k, None, :]
    local *= meas[:, None, None]
    return _scatter(mesh, local)


def assemble_mass(mesh: meshmod.SimplicialMesh) -> sp.csr_matrix:
    """Full P1 mass matrix (exact closed-form local blocks).

    Assembled once per mesh and shared, so its arrays are read-only.
    """
    return meshmod._cached(mesh, "mass", _assemble_mass)


def _assemble_mass(mesh: meshmod.SimplicialMesh) -> sp.csr_matrix:
    n = mesh.dim
    meas = meshmod._measures(mesh)
    base = np.ones((n + 1, n + 1)) + np.eye(n + 1)
    denom = (n + 1) * (n + 2)
    local = base[None, :, :] * (meas / denom)[:, None, None]
    return _scatter(mesh, local)


def _scatter(mesh: meshmod.SimplicialMesh, local: np.ndarray) -> sp.csr_matrix:
    """Global CSR matrix summing the (M, k, k) local blocks; read-only, since
    the per-mesh cache shares it."""
    # int32 halves the (M, k*k) index arrays; scipy stores the CSR indices as
    # int32 anyway, so the matrix is the same bit for bit
    el = mesh.elements.astype(np.int32)
    k = el.shape[1]
    rows = np.repeat(el, k, axis=1).ravel()
    cols = np.tile(el, (1, k)).ravel()
    mat = sp.coo_matrix((local.ravel(), (rows, cols)), shape=(mesh.node_count, mesh.node_count)).tocsr()
    for arr in (mat.data, mat.indices, mat.indptr):
        arr.setflags(write=False)
    return mat


def assemble_load(mesh: meshmod.SimplicialMesh, fh: DiscreteSource) -> np.ndarray:
    """Load vector over all nodes for the given discrete source.

    Barycentric and nodal modes integrate exactly; exact mode uses the
    degree-4 rule, and stores the same rule's ||f|| on `fh` for
    `fh.l2_norm`, so f is evaluated once per solve.
    """
    n = mesh.dim
    meas = meshmod._measures(mesh)
    b = np.zeros(mesh.node_count)
    if fh.mode == "barycentric":
        contrib = fh.element_values * meas / (n + 1)
        for j in range(n + 1):
            np.add.at(b, mesh.elements[:, j], contrib)
        return b
    if fh.mode == "nodal":
        return assemble_mass(mesh) @ fh.nodal_values
    bary, w = simplex_rule(n)
    vals = np.asarray(fh.source.evaluate(_quadrature_points(mesh, bary)), dtype=float)
    _check_sup(fh.source, vals)
    if fh.mesh is mesh:
        fh.quadrature_l2 = _quadrature_l2(mesh, vals, w)
    contrib = np.einsum("mq,q,qk->mk", vals, w, bary) * meas[:, None]
    for j in range(n + 1):
        np.add.at(b, mesh.elements[:, j], contrib[:, j])
    return b


@dataclass
class LinearSystem:
    """Reduced SPD system over interior nodes."""

    matrix: sp.csr_matrix
    rhs: np.ndarray
    interior: np.ndarray

    @property
    def size(self) -> int:
        return self.rhs.size


def dirichlet_system(mesh: meshmod.SimplicialMesh, stiffness: sp.csr_matrix, load: np.ndarray) -> LinearSystem:
    """Eliminate boundary rows/columns; validates the full-matrix kernel
    (row sums ~ 0) and positive interior diagonal."""
    row_sums = np.abs(np.asarray(stiffness.sum(axis=1)).ravel())
    if row_sums.size and row_sums.max() > 1e-10:
        raise CertifemError(f"stiffness row sums reach {row_sums.max():.3e}; assembly broken")
    interior = mesh.interior_nodes
    mat = stiffness[interior][:, interior].tocsr()
    if mat.shape[0] and np.any(mat.diagonal() <= 0.0):
        raise CertifemError("nonpositive diagonal after Dirichlet elimination")
    return LinearSystem(mat, load[interior], interior)


@dataclass
class FemSolution:
    """Nodal coefficients over all nodes (boundary entries exactly zero)."""

    nodal_values: np.ndarray
    iterations: int
    residual: float
    converged: bool
    mesh: meshmod.SimplicialMesh | None = field(repr=False, default=None)


def _line_links(a_mat: sp.csr_matrix, diag: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(i, j, a_ij) with i < j for the links the line preconditioner keeps.

    A link needs -a_ij >= _LINE_THETA * max(a_ii, a_jj); a node keeps its
    links only when it has at most two and their |a_ij| sum to less than
    a_ii.  The kept part of the matrix is then strictly diagonally dominant
    with a positive diagonal, hence SPD, and every connected set of linked
    nodes is a path or a cycle.
    """
    n = diag.size
    indptr, cols, vals = a_mat.indptr, a_mat.indices, a_mat.data
    # the row test first, over all entries; everything after it is O(links)
    idx = np.flatnonzero(vals <= np.repeat(-_LINE_THETA * diag, np.diff(indptr)))
    i = (np.searchsorted(indptr, idx, side="right") - 1).astype(np.int32)
    j, a = cols[idx], vals[idx]
    upper = (j > i) & (a <= -_LINE_THETA * diag[j])
    i, j, a = i[upper], j[upper], a[upper]
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
    inv_diag = 1.0 / diag
    n = diag.size
    i, j, a = _line_links(a_mat, diag)
    degree = np.bincount(np.concatenate([i, j]), minlength=n)
    # a linked set of three or more nodes has a node with two links; without
    # one there are only pairs and single nodes, and no graph work is needed
    if not np.any(degree == 2):
        return lambda r, out: np.multiply(inv_diag, r, out=out)

    # ~2 MiB and ~18 ms of imports, paid only by matrices that form lines
    from scipy.sparse import csgraph

    links = sp.coo_matrix((np.ones(i.size), (i, j)), shape=(n, n))
    label = csgraph.connected_components(links, directed=False)[1]
    size = np.bincount(label)
    path_ends = np.flatnonzero((degree == 1) & (size[label] >= _LINE_MIN_NODES))
    is_cycle = size >= _LINE_MIN_NODES
    is_cycle[label[path_ends]] = False
    cycle_entries = np.unique(label, return_index=True)[1][is_cycle]

    # depth-first from a virtual root joined to every path end and to one
    # node per cycle walks each line from end to end, one line after another
    root_links = np.concatenate([path_ends, cycle_entries])
    walk_i = np.concatenate([i, np.full(root_links.size, n, np.int32)])
    walk_j = np.concatenate([j, root_links])
    walk = sp.coo_matrix((np.ones(walk_i.size), (walk_i, walk_j)), shape=(n + 1, n + 1))
    # intp: numpy gathers and scatters with it about twice as fast as int32
    order = csgraph.depth_first_order(walk, n, directed=False, return_predecessors=False)[1:].astype(np.intp)
    line_label = label[order]
    starts = np.flatnonzero(np.r_[True, line_label[1:] != line_label[:-1]])
    stops = np.r_[starts[1:], order.size]

    def value(u, v):
        # a kept link's value is A's upper-triangle entry, as `_line_links`
        # read it; scipy returns no value array for empty index arrays
        if not u.size:
            return np.zeros(0)
        return np.asarray(a_mat[np.minimum(u, v), np.maximum(u, v)]).ravel()

    d = diag[order]
    e = np.zeros(order.size - 1)
    inside = np.ones(order.size - 1, dtype=bool)
    inside[starts[1:] - 1] = False
    e[inside] = value(order[:-1][inside], order[1:][inside])

    cycles = is_cycle[line_label[starts]]
    first, last = starts[cycles], stops[cycles] - 1
    closing = value(order[first], order[last])
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
    line_of = np.repeat(np.arange(starts.size), stops - starts)
    s_line = np.zeros(starts.size)

    def apply(r, out):
        np.multiply(inv_diag, r, out=out)
        y = dpttrs(d, e, r[order])[0]
        s_line[cycles] = (y[first] + v_last * y[last]) * kappa
        y -= w * s_line[line_of]
        out[order] = y

    return apply


def solve_cg(system: LinearSystem, tol: float = 1e-12, maxiter: int | None = None) -> tuple[np.ndarray, int, float, bool]:
    """Line-Jacobi-preconditioned conjugate gradients (see `_line_jacobi`).

    Stops when ||b - A x|| / ||b|| <= tol; returns the best iterate with a
    convergence flag when the iteration cap is reached.  Deterministic.
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
    precondition = _line_jacobi(a_mat)
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
        if res <= tol:
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
    tol: float = 1e-12,
    maxiter: int | None = None,
) -> tuple[FemSolution, DiscreteSource]:
    fh = build_fh(mesh, f, fh_mode)
    stiffness = assemble_stiffness(mesh)
    load = assemble_load(mesh, fh)
    system = dirichlet_system(mesh, stiffness, load)
    x, iters, res, ok = solve_cg(system, tol=tol, maxiter=maxiter)
    full = np.zeros(mesh.node_count)
    full[system.interior] = x
    return FemSolution(full, iters, res, ok, mesh), fh


# ---------------------------------------------------------------------------
# norms and error quantities


def fem_l2_norm(mesh: meshmod.SimplicialMesh, sol: FemSolution) -> float:
    """||u_h||, exact for P1: the sum over elements of v^T M_T v with the
    closed-form local mass matrix M_T = |T| (J + I) / ((n+1)(n+2)), J the
    all-ones matrix, so no global mass matrix is assembled."""
    n = mesh.dim
    v = sol.nodal_values[mesh.elements]
    local = (v**2).sum(axis=1) + v.sum(axis=1) ** 2
    sq = float((local * meshmod._measures(mesh)).sum()) / ((n + 1) * (n + 2))
    return math.sqrt(max(sq, 0.0))


def fem_h1_seminorm(mesh: meshmod.SimplicialMesh, sol: FemSolution) -> float:
    """|u_h|_1 from the exact P1 stiffness matrix."""
    v = sol.nodal_values
    stiffness = meshmod._cached(mesh, "stiffness", _assemble_stiffness)
    return math.sqrt(max(float(v @ (stiffness @ v)), 0.0))


def l2_error_interior(mesh: meshmod.SimplicialMesh, sol: FemSolution, exact: Callable) -> float:
    """|| u_exact - u_h || over the meshed region by the degree-4 rule."""
    bary, w = simplex_rule(mesh.dim)
    u_ex = np.asarray(exact(_quadrature_points(mesh, bary)), dtype=float)
    u_h = np.einsum("qk,mk->mq", bary, sol.nodal_values[mesh.elements])
    return _quadrature_l2(mesh, u_ex - u_h, w)


def fh_error_measured(mesh: meshmod.SimplicialMesh, f: SourceTerm, mode: str) -> float:
    """Quadrature value of ||f - f_h||; exact when the integrand is degree <= 4."""
    fh = build_fh(mesh, f, mode)
    if mode == "exact":
        return 0.0
    bary, w = simplex_rule(mesh.dim)
    fvals = np.asarray(f.evaluate(_quadrature_points(mesh, bary)), dtype=float)
    if mode == "barycentric":
        fh_vals = fh.element_values[:, None] * np.ones_like(fvals)
    else:
        fh_vals = np.einsum("qk,mk->mq", bary, fh.nodal_values[mesh.elements])
    return _quadrature_l2(mesh, fvals - fh_vals, w)


def _quadrature_l2(mesh: meshmod.SimplicialMesh, vals: np.ndarray, w: np.ndarray) -> float:
    """L2 norm by the quadrature rule with weights `w` of (M, q) values at
    the rule's points."""
    return math.sqrt(max(float(((vals**2) @ w * meshmod._measures(mesh)).sum()), 0.0))


def fh_perturbation_bound(mesh: meshmod.SimplicialMesh, f: SourceTerm, mode: str, qual=None) -> float:
    """Certified upper bound for ||f - f_h|| over the meshed region."""
    if mode == "exact":
        return 0.0
    if qual is None:
        qual = meshmod.quality(mesh)
    if mode == "barycentric":
        if f.grad_sup_norm is None:
            raise MissingNormMetadata("barycentric perturbation bound needs grad_sup_norm")
        n = mesh.dim
        return n / (n + 1.0) * qual.h * math.sqrt(meshmod.measure_sum(mesh)) * f.grad_sup_norm
    if mode == "nodal":
        if f.h2_seminorm is None:
            raise MissingNormMetadata("nodal perturbation bound needs h2_seminorm")
        return global_l2_bound(mesh.dim, qual.h) * f.h2_seminorm
    raise ValueError(f"unknown f_h mode {mode!r}")


def poincare_bound(dim: int, diameter: float) -> float:
    """Upper bound D / (sqrt(n) pi) for the Poincare constant."""
    if dim not in (2, 3):
        raise ValueError(f"unsupported dimension {dim}")
    if diameter < 0:
        raise ValueError("diameter must be nonnegative")
    return diameter / (math.sqrt(dim) * math.pi)


def poincare_residual(mesh: meshmod.SimplicialMesh, sol: FemSolution, diameter: float) -> tuple[float, float]:
    """(||u_h||, C_P-bound * |u_h|_1) with both sides from exact P1 quadrature."""
    return fem_l2_norm(mesh, sol), poincare_bound(mesh.dim, diameter) * fem_h1_seminorm(mesh, sol)
