"""P1 Lagrange discretization of the homogeneous-Dirichlet Poisson problem.

Assembly is vectorized over elements; Dirichlet conditions are imposed by
reduction to interior unknowns (keeps the system symmetric positive
definite); the solver is a hand-rolled Jacobi-preconditioned conjugate
gradient so behavior is deterministic and fully inspectable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.sparse as sp

from . import mesh as meshmod
from .errors import CertifemError, MissingNormMetadata, SupNormViolationError
from .interp_constants import global_l2_bound
from .quadrature import simplex_rule

FH_MODES = ("barycentric", "nodal", "exact")

SUP_SLACK = 1e-10


@dataclass
class SourceTerm:
    """Source data plus the norm metadata the certified bounds consume.

    `evaluate` must accept an (..., dim) array of points and return (...)
    values; wrap plain scalar callables with `SourceTerm.from_scalar`.
    Every stored norm is an upper bound for the true norm over the domain,
    which keeps the resulting error bounds valid.
    """

    evaluate: Callable
    sup_norm: float
    gradient: Callable | None = None
    grad_sup_norm: float | None = None
    h2_seminorm: float | None = None
    l2_norm: float | None = None
    name: str = ""

    @staticmethod
    def constant(value: float, dim: int = 2) -> "SourceTerm":
        def f(pts):
            pts = np.asarray(pts, dtype=float)
            return np.full(pts.shape[:-1], float(value))

        return SourceTerm(
            evaluate=f,
            sup_norm=abs(float(value)),
            gradient=lambda pts: np.zeros(np.asarray(pts).shape),
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

        def grad(pts):
            pts = np.asarray(pts, dtype=float)
            gx = 2.0 * math.pi**3 * np.cos(math.pi * pts[..., 0]) * np.sin(math.pi * pts[..., 1])
            gy = 2.0 * math.pi**3 * np.sin(math.pi * pts[..., 0]) * np.cos(math.pi * pts[..., 1])
            return np.stack([gx, gy], axis=-1)

        return SourceTerm(
            evaluate=f,
            sup_norm=2.0 * math.pi**2,
            gradient=grad,
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

        def f(pts):
            pts = np.asarray(pts, dtype=float)
            x, y = pts[..., 0], pts[..., 1]
            return c[0] + c[1] * x + c[2] * y + c[3] * x * x + c[4] * x * y + c[5] * y * y

        def grad(pts):
            pts = np.asarray(pts, dtype=float)
            x, y = pts[..., 0], pts[..., 1]
            return np.stack([c[1] + 2 * c[3] * x + c[4] * y, c[2] + c[4] * x + 2 * c[5] * y], axis=-1)

        xmax = max(abs(domain.support(np.array([1.0, 0.0]))), abs(domain.support(np.array([-1.0, 0.0]))))
        ymax = max(abs(domain.support(np.array([0.0, 1.0]))), abs(domain.support(np.array([0.0, -1.0]))))
        sup = abs(c[0]) + abs(c[1]) * xmax + abs(c[2]) * ymax + abs(c[3]) * xmax**2 + abs(c[4]) * xmax * ymax + abs(c[5]) * ymax**2
        gx = abs(c[1]) + 2 * abs(c[3]) * xmax + abs(c[4]) * ymax
        gy = abs(c[2]) + abs(c[4]) * xmax + 2 * abs(c[5]) * ymax
        h2 = math.sqrt((4 * c[3] ** 2 + 2 * c[4] ** 2 + 4 * c[5] ** 2) * domain.measure)
        return SourceTerm(
            evaluate=f,
            sup_norm=sup,
            gradient=grad,
            grad_sup_norm=math.hypot(gx, gy),
            h2_seminorm=h2,
            name="poly:" + ",".join("%g" % x for x in c),
        )

    @staticmethod
    def from_scalar(func: Callable, sup_norm: float, **kw) -> "SourceTerm":
        def f(pts):
            pts = np.asarray(pts, dtype=float)
            if pts.ndim == 1:
                return func(pts)
            flat = pts.reshape(-1, pts.shape[-1])
            return np.array([func(p) for p in flat]).reshape(pts.shape[:-1])

        return SourceTerm(evaluate=f, sup_norm=sup_norm, **kw)


def _check_sup(f: SourceTerm, values: np.ndarray) -> None:
    worst = float(np.abs(values).max(initial=0.0))
    if worst > f.sup_norm + SUP_SLACK:
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

    def l2_norm(self) -> float:
        """||f_h|| over the meshed region: exact for barycentric/nodal modes,
        degree-4 quadrature for exact mode."""
        mesh = self.mesh
        meas = meshmod._measures(mesh)
        if self.mode == "barycentric":
            return math.sqrt(float((self.element_values**2 * meas).sum()))
        if self.mode == "nodal":
            m_full = assemble_mass(mesh)
            v = self.nodal_values
            return math.sqrt(max(float(v @ (m_full @ v)), 0.0))
        bary, w = simplex_rule(mesh.dim)
        pts = np.einsum("qk,mkd->mqd", bary, mesh.element_vertices())
        vals = self.source.evaluate(pts)
        _check_sup(self.source, vals)
        return math.sqrt(float(((vals**2) @ w * meas).sum()))


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


def _gradients(mesh: meshmod.SimplicialMesh) -> tuple[np.ndarray, np.ndarray]:
    """Physical P1 basis gradients per element: (M, dim, dim+1) and measures."""
    verts = mesh.element_vertices()
    n = mesh.dim
    b = verts[:, 1:, :] - verts[:, :1, :]  # rows are edge vectors
    ref = np.zeros((n, n + 1))
    ref[:, 0] = -1.0
    ref[:, 1:] = np.eye(n)
    rhs = np.broadcast_to(ref, (mesh.element_count, n, n + 1))
    grads = np.linalg.solve(b, rhs)  # grad of lambda_i in column i
    return grads, meshmod._measures(mesh)


def assemble_stiffness(mesh: meshmod.SimplicialMesh) -> sp.csr_matrix:
    """Full stiffness matrix over all nodes (constants lie in its kernel).

    Assembled once per mesh and shared, so its arrays are read-only.
    """
    return meshmod._cached(mesh, "stiffness", _assemble_stiffness)


def _assemble_stiffness(mesh: meshmod.SimplicialMesh) -> sp.csr_matrix:
    grads, meas = _gradients(mesh)
    local = np.einsum("mki,mkj->mij", grads, grads) * meas[:, None, None]
    mat = _scatter(mesh, local)
    for arr in (mat.data, mat.indices, mat.indptr):
        arr.setflags(write=False)
    return mat


def assemble_mass(mesh: meshmod.SimplicialMesh) -> sp.csr_matrix:
    """Full P1 mass matrix (exact closed-form local blocks)."""
    n = mesh.dim
    meas = meshmod._measures(mesh)
    base = np.ones((n + 1, n + 1)) + np.eye(n + 1)
    denom = (n + 1) * (n + 2)
    local = base[None, :, :] * (meas / denom)[:, None, None]
    return _scatter(mesh, local)


def _scatter(mesh: meshmod.SimplicialMesh, local: np.ndarray) -> sp.csr_matrix:
    el = mesh.elements
    k = el.shape[1]
    rows = np.repeat(el, k, axis=1).ravel()
    cols = np.tile(el, (1, k)).ravel()
    mat = sp.coo_matrix((local.ravel(), (rows, cols)), shape=(mesh.node_count, mesh.node_count))
    return mat.tocsr()


def assemble_load(mesh: meshmod.SimplicialMesh, fh: DiscreteSource) -> np.ndarray:
    """Load vector over all nodes for the given discrete source.

    Barycentric and nodal modes integrate exactly; exact mode uses the
    degree-4 rule.
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
    pts = np.einsum("qk,mkd->mqd", bary, mesh.element_vertices())
    vals = np.asarray(fh.source.evaluate(pts), dtype=float)
    _check_sup(fh.source, vals)
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


def solve_cg(system: LinearSystem, tol: float = 1e-12, maxiter: int | None = None) -> tuple[np.ndarray, int, float, bool]:
    """Jacobi-preconditioned conjugate gradients.

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
    inv_diag = 1.0 / a_mat.diagonal()
    x = np.zeros(n)
    r = b.copy()
    z = inv_diag * r
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
        np.multiply(inv_diag, r, out=z)
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
    """||u_h|| from the exact P1 mass matrix."""
    v = sol.nodal_values
    return math.sqrt(max(float(v @ (assemble_mass(mesh) @ v)), 0.0))


def fem_h1_seminorm(mesh: meshmod.SimplicialMesh, sol: FemSolution) -> float:
    """|u_h|_1 from the exact P1 stiffness matrix."""
    v = sol.nodal_values
    stiffness = meshmod._cached(mesh, "stiffness", _assemble_stiffness)
    return math.sqrt(max(float(v @ (stiffness @ v)), 0.0))


def l2_error_interior(mesh: meshmod.SimplicialMesh, sol: FemSolution, exact: Callable) -> float:
    """|| u_exact - u_h || over the meshed region by the degree-4 rule."""
    bary, w = simplex_rule(mesh.dim)
    verts = mesh.element_vertices()
    pts = np.einsum("qk,mkd->mqd", bary, verts)
    u_ex = np.asarray(exact(pts), dtype=float)
    u_h = np.einsum("qk,mk->mq", bary, sol.nodal_values[mesh.elements])
    meas = meshmod._measures(mesh)
    sq = float((((u_ex - u_h) ** 2) @ w * meas).sum())
    return math.sqrt(max(sq, 0.0))


def fh_error_measured(mesh: meshmod.SimplicialMesh, f: SourceTerm, mode: str) -> float:
    """Quadrature value of ||f - f_h||; exact when the integrand is degree <= 4."""
    fh = build_fh(mesh, f, mode)
    if mode == "exact":
        return 0.0
    bary, w = simplex_rule(mesh.dim)
    verts = mesh.element_vertices()
    pts = np.einsum("qk,mkd->mqd", bary, verts)
    fvals = np.asarray(f.evaluate(pts), dtype=float)
    if mode == "barycentric":
        fh_vals = fh.element_values[:, None] * np.ones_like(fvals)
    else:
        fh_vals = np.einsum("qk,mk->mq", bary, fh.nodal_values[mesh.elements])
    meas = meshmod._measures(mesh)
    sq = float((((fvals - fh_vals) ** 2) @ w * meas).sum())
    return math.sqrt(max(sq, 0.0))


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


def poincare_residual(mesh: meshmod.SimplicialMesh, sol: FemSolution, diameter: float) -> tuple[float, float]:
    """(||u_h||, C_P-bound * |u_h|_1) with both sides from exact P1 quadrature."""
    bound = diameter / (math.sqrt(mesh.dim) * math.pi)
    return fem_l2_norm(mesh, sol), bound * fem_h1_seminorm(mesh, sol)
