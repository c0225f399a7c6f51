import dataclasses
import itertools
import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp

from certifem import fem, geometry
from certifem import mesh as meshmod
from certifem import (
    CertifemError,
    ConvexPolygon,
    Disk,
    FemSolution,
    InvalidSourceError,
    LinearSystem,
    MissingNormMetadata,
    SourceTerm,
    SupNormViolationError,
    assemble_load,
    assemble_stiffness,
    build_fh,
    build_mesh,
    certify,
    dirichlet_system,
    disk_study_row,
    fem_h1_seminorm,
    fem_l2_norm,
    fh_perturbation_bound,
    generate_fan_refined,
    inscribed_regular_polygon,
    l2_error_interior,
    measure_sum,
    poincare_residual,
    registry,
    solve_cg,
    solve_poisson,
    verify_case,
)
from certifem.quadrature import TRI_D4_BARY, TRI_D4_WEIGHTS
from certifem.geometry import EDGES, FACETS
from oracles import _liu_batch, element_metrics, fh_error_measured, reference_monomial_integral, structured_square_mesh
from test_mesh import _jittered_square

REF_TRIANGLE = build_mesh(2, [[0, 0], [1, 0], [0, 1]], [[0, 1, 2]])
TWO_TRI_SQUARE = build_mesh(2, [[0, 0], [1, 0], [1, 1], [0, 1]], [[0, 1, 2], [0, 2, 3]])


def test_local_stiffness_reference_triangle():
    k = assemble_stiffness(REF_TRIANGLE).toarray()
    expect = np.array([[1.0, -0.5, -0.5], [-0.5, 0.5, 0.0], [-0.5, 0.0, 0.5]])
    assert k == pytest.approx(expect, abs=1e-14)


def test_stiffness_scale_invariance_2d():
    lam = 3.7
    scaled = build_mesh(2, lam * np.asarray(REF_TRIANGLE.nodes), [[0, 1, 2]])
    assert assemble_stiffness(scaled).toarray() == pytest.approx(
        assemble_stiffness(REF_TRIANGLE).toarray(), rel=1e-13
    )


def test_stiffness_row_sums_zero():
    k = assemble_stiffness(TWO_TRI_SQUARE)
    assert np.abs(np.asarray(k.sum(axis=1))).max() <= 1e-14
    assert (k != k.T).nnz == 0


def test_build_fh_constant_barycentric():
    mesh = generate_fan_refined(inscribed_regular_polygon(Disk(1.0), 8), 0)
    fh = build_fh(mesh, SourceTerm.constant(1.0), "barycentric")
    assert fh.element_values == pytest.approx(np.ones(8), rel=1e-15)
    assert fh.l2_norm() == pytest.approx(math.sqrt(measure_sum(mesh)), rel=1e-13)


def test_build_fh_nodal_reproduces_linear():
    f = SourceTerm(
        evaluate=lambda p: 2.0 * np.asarray(p)[..., 0] - np.asarray(p)[..., 1] + 0.5,
        sup_norm=10.0,
    )
    assert fh_error_measured(TWO_TRI_SQUARE, f, "nodal") <= 1e-14


def test_fan_center_load_entry():
    mesh = generate_fan_refined(inscribed_regular_polygon(Disk(1.0), 8), 0)
    fh = build_fh(mesh, SourceTerm.constant(1.0), "barycentric")
    b = assemble_load(mesh, fh)
    assert b[0] == pytest.approx(measure_sum(mesh) / 3.0, rel=1e-13)


def test_load_partition_of_unity():
    mesh = generate_fan_refined(inscribed_regular_polygon(Disk(1.0), 12), 1)
    for mode in ("barycentric", "nodal", "exact"):
        fh = build_fh(mesh, SourceTerm.constant(1.0), mode)
        b = assemble_load(mesh, fh)
        assert b.sum() == pytest.approx(measure_sum(mesh), rel=1e-12)


def test_single_triangle_loads():
    fh = build_fh(REF_TRIANGLE, SourceTerm.constant(1.0), "barycentric")
    b = assemble_load(REF_TRIANGLE, fh)
    assert b == pytest.approx(np.full(3, 0.5 / 3.0), rel=1e-14)

    f_lin = SourceTerm(evaluate=lambda p: np.asarray(p)[..., 0], sup_norm=1.0)
    fh_nodal = build_fh(REF_TRIANGLE, f_lin, "nodal")
    b_nodal = assemble_load(REF_TRIANGLE, fh_nodal)
    nodal = fh_nodal.nodal_values
    area = 0.5
    expect = [
        area / 12.0 * (2 * nodal[0] + nodal[1] + nodal[2]),
        area / 12.0 * (nodal[0] + 2 * nodal[1] + nodal[2]),
        area / 12.0 * (nodal[0] + nodal[1] + 2 * nodal[2]),
    ]
    assert b_nodal == pytest.approx(expect, rel=1e-13)


def _nodal_one_integrates_the_measure(mesh):
    """The nodal load of f = 1 sums to |Omega_h| (every mass matrix entry,
    once), and its ||f_h|| is sqrt|Omega_h|."""
    fh = build_fh(mesh, SourceTerm.constant(1.0), "nodal")
    assert assemble_load(mesh, fh).sum() == pytest.approx(measure_sum(mesh), rel=1e-13)
    assert fh.l2_norm() == pytest.approx(math.sqrt(measure_sum(mesh)), rel=1e-13)


def test_mass_matrix_total():
    assert measure_sum(TWO_TRI_SQUARE) == pytest.approx(1.0, rel=1e-13)
    _nodal_one_integrates_the_measure(TWO_TRI_SQUARE)


def test_cg_one_by_one():
    system = LinearSystem(sp.csr_matrix(np.array([[2.0]])), np.array([4.0]), np.array([0]))
    x, iters, res, ok = solve_cg(system)
    assert x == pytest.approx([2.0], rel=1e-15)
    assert iters == 1 and ok and res <= 1e-12


def test_empty_system_all_boundary():
    sol, _ = solve_poisson(TWO_TRI_SQUARE, SourceTerm.constant(1.0), "exact")
    assert sol.converged and sol.iterations == 0
    assert np.abs(sol.nodal_values).max() == 0.0


def test_structured_square_solution_max():
    f = registry()["square2d"].f
    sol, _ = solve_poisson(structured_square_mesh(8), f, "exact")
    assert sol.nodal_values.max() == pytest.approx(1.0, abs=0.05)


def test_maxiter_flag():
    mesh = structured_square_mesh(16)
    f = registry()["square2d"].f
    sol, _ = solve_poisson(mesh, f, "exact", maxiter=2)
    assert not sol.converged
    assert sol.iterations == 2
    assert sol.residual > 1e-12


def test_galerkin_residual():
    mesh = structured_square_mesh(12)
    f = registry()["square2d"].f
    fh = build_fh(mesh, f, "exact")
    k = assemble_stiffness(mesh)
    b = assemble_load(mesh, fh)
    system = dirichlet_system(mesh, k, b)
    x, _, _, _ = solve_cg(system)
    res = np.linalg.norm(system.rhs - system.matrix @ x)
    assert res <= 1e-12 * np.linalg.norm(system.rhs)


@pytest.mark.parametrize("scale", [1e-8, 1.0, 1e8])
def test_dirichlet_row_sum_check_is_relative(scale):
    """The row-sum check scales with the largest entry, so the square solves
    at every size, and one entry moved by 1e-8 of the largest is still
    caught."""
    square = _jittered_square(8, seed=1)
    mesh = build_mesh(2, square.nodes * scale, square.elements)
    sol, _ = solve_poisson(mesh, SourceTerm.constant(1.0), "exact")
    assert sol.converged
    stiffness = assemble_stiffness(mesh).copy()
    stiffness.data[stiffness.indptr[40]] += 1e-8 * np.abs(stiffness.data).max()
    with pytest.raises(CertifemError, match="assembly broken"):
        dirichlet_system(mesh, stiffness, np.zeros(mesh.node_count))


def test_boundary_values_exactly_zero():
    mesh = structured_square_mesh(6)
    sol, _ = solve_poisson(mesh, registry()["square2d"].f, "nodal")
    assert np.abs(sol.nodal_values[mesh.boundary_nodes]).max() == 0.0


def test_l2_error_identities():
    mesh = structured_square_mesh(5)
    sol, _ = solve_poisson(mesh, SourceTerm.constant(1.0), "exact")
    # exact == u_h: interpolate u_h through its own nodal values
    err0 = l2_error_interior(
        mesh,
        sol,
        lambda pts: _interp_p1(mesh, sol.nodal_values, pts),
    )
    assert err0 <= 1e-14
    c = 0.37
    err_c = l2_error_interior(mesh, sol, lambda pts: _interp_p1(mesh, sol.nodal_values, pts) + c)
    assert err_c == pytest.approx(c * math.sqrt(measure_sum(mesh)), rel=1e-12)


def _interp_p1(mesh, nodal, pts):
    """Evaluate the P1 field at quadrature points laid out as (M, Q, dim)."""
    bary = TRI_D4_BARY
    return np.einsum("qk,mk->mq", bary, nodal[mesh.elements])


def test_disk_interior_error_refinement():
    disk = registry()["disk2d"]
    poly = inscribed_regular_polygon(disk.domain, 50)
    errs = []
    for k in (1, 2, 3):
        mesh = generate_fan_refined(poly, k)
        sol, _ = solve_poisson(mesh, disk.f, "exact")
        errs.append(l2_error_interior(mesh, sol, disk.u))
    assert errs[0] > errs[1] > errs[2]
    # quadratic convergence before the domain-truncation floor kicks in
    assert 2.5 <= errs[0] / errs[1] <= 5.0


def test_fh_perturbation_bounds():
    mesh = generate_fan_refined(inscribed_regular_polygon(Disk(1.0), 16), 2)
    assert fh_perturbation_bound(mesh, SourceTerm.constant(1.0), "barycentric") == 0.0
    assert fh_perturbation_bound(mesh, SourceTerm.constant(1.0), "exact") == 0.0

    f_x = SourceTerm(
        evaluate=lambda p: np.asarray(p)[..., 0],
        sup_norm=1.0,
        grad_sup_norm=1.0,
    )
    from certifem import quality

    q = quality(mesh)
    bound = fh_perturbation_bound(mesh, f_x, "barycentric")
    assert bound == pytest.approx(2.0 / 3.0 * q.h * math.sqrt(measure_sum(mesh)), rel=1e-13)
    assert fh_error_measured(mesh, f_x, "barycentric") <= bound

    with pytest.raises(MissingNormMetadata):
        fh_perturbation_bound(mesh, f_x, "nodal")
    f_nograd = SourceTerm(evaluate=lambda p: np.asarray(p)[..., 0], sup_norm=1.0)
    with pytest.raises(MissingNormMetadata):
        fh_perturbation_bound(mesh, f_nograd, "barycentric")


def test_measured_fh_error_below_bound_random_polys(rng):
    disk = Disk(1.0)
    mesh = generate_fan_refined(inscribed_regular_polygon(disk, 16), 2)
    for _ in range(5):
        coeffs = rng.normal(size=6)
        f = SourceTerm.quadratic(coeffs, disk)
        assert fh_error_measured(mesh, f, "barycentric") <= fh_perturbation_bound(mesh, f, "barycentric")
        assert fh_error_measured(mesh, f, "nodal") <= fh_perturbation_bound(mesh, f, "nodal")


def test_quadrature_degree4_exactness():
    worst = 0.0
    for a in range(5):
        for b in range(5 - a):
            approx = 0.5 * float((TRI_D4_WEIGHTS * TRI_D4_BARY[:, 1] ** a * TRI_D4_BARY[:, 2] ** b).sum())
            worst = max(worst, abs(approx - reference_monomial_integral((a, b))))
    assert worst <= 1e-14


def test_discrete_maximum_principle_nonblunt():
    for mesh in (structured_square_mesh(8), generate_fan_refined(inscribed_regular_polygon(Disk(1.0), 12), 1)):
        sol, _ = solve_poisson(mesh, SourceTerm.constant(1.0), "exact")
        assert sol.nodal_values.min() >= -1e-12


def test_discrete_poincare():
    disk = registry()["disk2d"]
    mesh = generate_fan_refined(inscribed_regular_polygon(disk.domain, 20), 2)
    sol, _ = solve_poisson(mesh, disk.f, "exact")
    lhs, rhs = poincare_residual(mesh, sol, disk.domain.diameter)
    assert lhs <= rhs
    assert fem_l2_norm(mesh, sol) == pytest.approx(lhs, rel=1e-15)
    assert fem_h1_seminorm(mesh, sol) > 0


H1_MESHES = {
    "fan": lambda: generate_fan_refined(inscribed_regular_polygon(Disk(1.0), 12), 2),
    "jittered": lambda: _jittered_square(6, seed=3),
}


@pytest.mark.parametrize("name", sorted(H1_MESHES))
def test_h1_seminorm_is_the_stiffness_energy(name):
    """The energy a solve forms from the reduced system is v^T K v bit for
    bit, so |u_h|_1 is the same with or without it; a solve leaves no
    stiffness matrix on the mesh."""
    mesh = H1_MESHES[name]()
    sol, _ = solve_poisson(mesh, SourceTerm.constant(1.0))
    assert "stiffness" not in mesh._cache
    v = sol.nodal_values
    assert sol.energy == float(v @ (assemble_stiffness(mesh) @ v)) > 0.0
    assert fem_h1_seminorm(mesh, sol) == fem_h1_seminorm(mesh, FemSolution(v, 0, 0.0, True)) == math.sqrt(sol.energy)


def test_sup_norm_runtime_check():
    lying = SourceTerm(evaluate=lambda p: np.asarray(p)[..., 0], sup_norm=0.1)
    mesh = generate_fan_refined(inscribed_regular_polygon(Disk(1.0), 8), 1)
    with pytest.raises(SupNormViolationError):
        build_fh(mesh, lying, "nodal")
    with pytest.raises(SupNormViolationError):
        build_fh(mesh, lying, "barycentric")
    with pytest.raises(SupNormViolationError):
        assemble_load(mesh, build_fh(mesh, lying, "exact"))


def test_check_sup_rejects_nan_and_inf():
    f = SourceTerm.constant(1.0)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(SupNormViolationError):
            fem._check_sup(f, np.array([[0.5, bad], [1.0, 0.0]]))
    fem._check_sup(f, np.array([[0.5, -1.0]]))


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_sources_reject_non_finite_coefficients(value):
    dom = ConvexPolygon([[0, 0], [1, 0], [1, 1], [0, 1]])
    with pytest.raises(InvalidSourceError):
        SourceTerm.constant(value)
    with pytest.raises(InvalidSourceError):
        SourceTerm.quadratic([1.0, 0.0, 0.0, value, 0.0, 0.0], dom)


def test_exact_source_is_evaluated_once_per_solve(monkeypatch):
    """`assemble_load` stores the quadrature ||f||, so an exact-mode row walks
    the quadrature points twice (load, measured error), not three times."""
    calls = []
    blocks = fem._quadrature_blocks
    monkeypatch.setattr(fem, "_quadrature_blocks", lambda *a: calls.append(1) or blocks(*a))
    disk_study_row(30, 3)
    assert len(calls) == 2

    mesh = generate_fan_refined(inscribed_regular_polygon(Disk(1.0), 30), 3)
    f = SourceTerm(evaluate=lambda p: np.cos(np.asarray(p)[..., 0]), sup_norm=1.0)
    fh = build_fh(mesh, f, "exact")
    assemble_load(mesh, fh)
    calls.clear()
    stored = fh.l2_norm()
    assert not calls
    fresh = build_fh(mesh, f, "exact").l2_norm()
    assert len(calls) == 1
    assert stored == fresh

    lying = build_fh(mesh, SourceTerm(evaluate=f.evaluate, sup_norm=0.5), "exact")
    with pytest.raises(SupNormViolationError):
        assemble_load(mesh, lying)
    with pytest.raises(SupNormViolationError):
        lying.l2_norm()


# ---------------------------------------------------------------------------
# broadcast element kernels against the einsum expressions they replace


def _einsum_quadrature_points(mesh, bary):
    return np.einsum("qk,mkd->mqd", bary, mesh.element_vertices())


def _einsum_quadrature_blocks(mesh):
    """`fem._quadrature_blocks` with each block's points by `einsum`."""
    bary = TRI_D4_BARY
    for rows in geometry._blocks(mesh.element_count):
        yield rows, np.einsum("qk,mkd->mqd", bary, mesh.nodes[mesh.elements[rows]])


def _blocked_points(mesh):
    """The points of `fem._quadrature_blocks`, joined over all blocks."""
    return np.concatenate([points for _, points in fem._quadrature_blocks(mesh)])


def _einsum_stiffness(mesh):
    grads, meas = fem._gradients(mesh)
    return fem._scatter(mesh, _rows_of(np.einsum("mki,mkj->mij", grads, grads) * meas[:, None, None]))


def _rows_of(local):
    """`_scatter`'s `local_rows` for an (M, k, k) array of local matrices."""
    return lambda e, c: local[e, c]


def _local_blocks(grads, meas):
    """The (M, k, k) local stiffness matrices, read row by row through
    `fem._stiffness_rows`."""
    count, _, k = grads.shape
    e = np.repeat(np.arange(count, dtype=np.int32), k)
    c = np.tile(np.arange(k, dtype=np.int8), count)
    return fem._stiffness_rows(grads, meas)(e, c).reshape(count, k, k)


KERNEL_MESHES = {
    "fan-one-block": lambda: generate_fan_refined(inscribed_regular_polygon(Disk(1.0), 7), 2),
    "fan-partial-block": lambda: generate_fan_refined(inscribed_regular_polygon(Disk(1.0), 50), 5),
    "jittered-square": lambda: _jittered_square(32, seed=5),
}


@pytest.mark.parametrize("name", sorted(KERNEL_MESHES))
def test_quadrature_points_match_einsum(name):
    mesh = KERNEL_MESHES[name]()
    bary = TRI_D4_BARY
    start = 0
    for rows, points in fem._quadrature_blocks(mesh):
        # consecutive blocks of at most _BLOCK elements, in element order
        assert rows.start == start and 0 < points.shape[0] <= geometry._BLOCK
        start += points.shape[0]
        assert points.shape == (points.shape[0], bary.shape[0], mesh.dim)
        # the transposed view of a C-contiguous (dim, q, block) array
        assert points.T.flags.c_contiguous
    assert start == mesh.element_count
    assert np.array_equal(_blocked_points(mesh), _einsum_quadrature_points(mesh, bary))
    if name == "fan-partial-block":
        assert mesh.element_count > 2 * geometry._BLOCK and mesh.element_count % geometry._BLOCK


@pytest.mark.parametrize("name", sorted(KERNEL_MESHES))
def test_barycentric_fh_is_the_vertex_mean(name):
    """The barycentric f_h evaluates f at `element_vertices().mean(axis=1)`,
    bit for bit, and takes its values from there."""
    mesh = KERNEL_MESHES[name]()
    sinsin, points = SourceTerm.sin_product(), []
    f = dataclasses.replace(sinsin, evaluate=lambda p: points.append(np.array(p)) or sinsin.evaluate(p))
    fh = build_fh(mesh, f, "barycentric")
    centers = mesh.element_vertices().mean(axis=1)
    assert len(points) == 1 and np.array_equal(points[0], centers)
    assert np.array_equal(fh.element_values, sinsin.evaluate(centers))


@pytest.mark.parametrize("name", ["jittered-square"])
def test_stiffness_blocks_match_einsum(name):
    mesh = KERNEL_MESHES[name]()
    got, ref = assemble_stiffness(mesh), _einsum_stiffness(mesh)
    assert np.array_equal(got.indptr, ref.indptr) and np.array_equal(got.indices, ref.indices)
    assert np.array_equal(got.data, ref.data)


def _coo_scatter(mesh, local):
    """The global matrix by scipy's COO-to-CSR conversion."""
    el = mesh.elements
    k = el.shape[1]
    rows, cols = np.repeat(el, k, axis=1).ravel(), np.tile(el, (1, k)).ravel()
    return sp.coo_matrix((local.ravel(), (rows, cols)), shape=(mesh.node_count,) * 2).tocsr()


@pytest.mark.parametrize("name", sorted(KERNEL_MESHES))
def test_scatter_matches_coo_conversion_bit_for_bit(name):
    mesh = KERNEL_MESHES[name]()
    stiffness_blocks = _local_blocks(*fem._gradients(mesh))
    # unsymmetric random blocks: every entry must reach its own row and column
    random_blocks = np.random.default_rng(6).normal(size=stiffness_blocks.shape)
    for local in (stiffness_blocks, random_blocks):
        got, ref = fem._scatter(mesh, _rows_of(local)), _coo_scatter(mesh, local)
        assert got.has_canonical_format and ref.has_canonical_format
        for a, b in ((got.indptr, ref.indptr), (got.indices, ref.indices), (got.data, ref.data)):
            assert a.dtype == b.dtype and np.array_equal(a, b)
            assert not a.flags.writeable


def _solved_gradients(mesh):
    """The P1 gradients by a batched LAPACK solve of B G = [-1 | I]."""
    n = mesh.dim
    verts = mesh.element_vertices()
    b = verts[:, 1:, :] - verts[:, :1, :]
    ref = np.hstack([-np.ones((n, 1)), np.eye(n)])
    return np.linalg.solve(b, np.broadcast_to(ref, (mesh.element_count, n, n + 1)))


def _needles(count, seed):
    """`count` disjoint triangles of aspect 1..1e8: thin in one direction,
    then rotated, scaled by 1e-3..10 and translated by up to 3."""
    rng = np.random.default_rng(seed)
    local = np.zeros((count, 3, 2))
    local[:, 1, 0] = 1.0
    local[:, 2, 0] = rng.uniform(0.0, 1.0, count)
    local[:, 2, 1] = 10.0 ** -rng.uniform(0.0, 8.0, count)
    rot = np.linalg.qr(rng.normal(size=(count, 2, 2)))[0]
    scale = 10.0 ** rng.uniform(-3.0, 1.0, count)
    shift = rng.uniform(-3.0, 3.0, (count, 1, 2))
    verts = scale[:, None, None] * np.einsum("mkd,med->mke", local, rot) + shift
    return build_mesh(2, verts.reshape(-1, 2), np.arange(count * 3).reshape(count, 3))


GRADIENT_MESHES = {
    **KERNEL_MESHES,
    "needles-2d": lambda: _needles(2000, seed=11),
}


# unit roundoff of doubles
_U = Fraction(1, 2**53)
_fractions = np.vectorize(Fraction, otypes=[object])


def _gamma(k):
    """Higham's gamma_k = k u / (1 - k u) (Accuracy and Stability of
    Numerical Algorithms, ch. 3): |theta_k| <= gamma_k bounds k roundings
    (1 + delta_1) ... (1 + delta_k) = 1 + theta_k."""
    return k * _U / (1 - k * _U)


def _leibniz(e):
    """Exact determinant of each (n, n) block of the Fraction array `e`, and
    the sum of the absolute values of its n! Leibniz terms."""
    n = e.shape[1]
    det = abs_sum = 0
    for perm in itertools.permutations(range(n)):
        term = (-1) ** sum(a > b for a, b in itertools.combinations(perm, 2))
        for i, p in enumerate(perm):
            term = term * e[:, i, p]
        det, abs_sum = det + term, abs_sum + np.abs(term)
    return det, abs_sum


def _exact_edges(mesh):
    """Exact edge rows e_k = corner_k - corner_0 of the float vertices, as
    an (M, dim, dim) Fraction array: the rows of B."""
    v = _fractions(mesh.element_vertices())
    return v[:, 1:] - v[:, :1]


def _exact_gradients(mesh):
    """Exact P1 gradients of the float vertices, (M, 2, 3) Fractions, and a
    rigorous bound on the error of each entry of `fem._gradients`.

    Column i >= 1 is a / D, with a an entry of adj(B) and D = det(B).  The
    computed a is one difference of two vertex coordinates, so it is off by
    at most e_a = gamma_1 s.  The computed D = 2 |T| is off by at most
    e_d = gamma_4 S, the closed-form measure's bound
    (`test_closed_form_measures_within_rounding_bound`).  With s and S the
    sums of the absolute Leibniz terms of a and D, the rounded quotient is
    off by at most (1 + u) (e_a |D| + |a| e_d) / (|D| (|D| - e_d)) + u |a / D|.
    Column 0 is minus the sum of the others: their bounds plus gamma_1 times
    the sum of their magnitudes, exact plus bound.
    """
    n = mesh.dim
    e = _exact_edges(mesh)
    det, det_sum = _leibniz(e)
    err_d = _gamma(4) * det_sum
    grads = np.empty((mesh.element_count, n, n + 1), dtype=object)
    bound = np.empty_like(grads)
    for i in range(n):
        for j in range(n):
            minor = np.delete(np.delete(e, i, axis=1), j, axis=2)
            cof, cof_sum = _leibniz(minor)
            a = (-1) ** (i + j) * cof  # adj(B)[j, i]
            err_a = _gamma(1) * cof_sum
            grads[:, j, i + 1] = a / det
            quotient = (err_a * np.abs(det) + np.abs(a) * err_d) / (np.abs(det) * (np.abs(det) - err_d))
            bound[:, j, i + 1] = (1 + _U) * quotient + _U * np.abs(a / det)
    grads[:, :, 0] = -grads[:, :, 1:].sum(axis=2)
    bound[:, :, 0] = bound[:, :, 1:].sum(axis=2) + _gamma(n - 1) * (np.abs(grads[:, :, 1:]) + bound[:, :, 1:]).sum(axis=2)
    return grads, bound


def _random_triangles(count, seed):
    """`count` disjoint triangles with corners uniform in [-1, 1]^2."""
    verts = np.random.default_rng(seed).uniform(-1.0, 1.0, (count * 3, 2))
    return build_mesh(2, verts, np.arange(count * 3).reshape(count, 3))


MEASURE_MESHES = {
    "needles-2d": GRADIENT_MESHES["needles-2d"],
    "random-triangles": lambda: _random_triangles(2000, seed=13),
}


@pytest.mark.parametrize("name", sorted(MEASURE_MESHES))
def test_closed_form_measures_within_rounding_bound(name):
    """Each measure is within its forward-error bound of the exact measure
    D / 2 of the same float vertices, D = det(B) and S the sum of the
    absolute Leibniz terms of D (Higham, Accuracy and Stability of Numerical
    Algorithms, ch. 3): each term of a d - b c carries two differences, one
    product and the subtraction, so the error is at most gamma_4 S / 2; the
    division by 2 is exact.  Vertex arrays go through the same kernel, bit
    for bit.
    """
    mesh = MEASURE_MESHES[name]()
    det, abs_sum = _leibniz(_exact_edges(mesh))
    meas = mesh.measures
    err = np.abs(_fractions(meas) - det / 2)
    assert np.all(err <= _gamma(4) * abs_sum / 2)
    assert np.array_equal(geometry._vertex_geometry(mesh.element_vertices())[0], meas)


def _worst_relative_error(grads, exact):
    """max over elements of max |grads - exact| / max |exact|, exact in
    Fractions."""
    err = np.abs(_fractions(grads) - exact).max(axis=(1, 2)) / np.abs(exact).max(axis=(1, 2))
    return float(err.max())


@pytest.mark.parametrize("name", sorted(GRADIENT_MESHES))
def test_closed_form_gradients_match_lapack_solve(name):
    """On the kernel meshes, the closed-form gradients agree with a LAPACK
    solve to 1e-13 of the largest entry per element.  On needles the
    closed-form measures and the LU-based solve differ by up to ~7e-9
    relative, so there the solve is no reference: both are compared with
    the exact gradients of the same float vertices.  The closed form stays
    within its rounding bound (`_exact_gradients`), and its worst relative
    error is no larger than the solve's (3.7e-9 against 7.2e-9)."""
    mesh = GRADIENT_MESHES[name]()
    grads, meas = fem._gradients(mesh)
    ref = _solved_gradients(mesh)
    assert grads.shape == ref.shape == (mesh.element_count, mesh.dim, mesh.dim + 1)
    if name.startswith("needles"):
        exact, bound = _exact_gradients(mesh)
        assert np.all(np.abs(_fractions(grads) - exact) <= bound)
        assert _worst_relative_error(grads, exact) <= _worst_relative_error(ref, exact)
    else:
        scale = np.abs(ref).max(axis=(1, 2))
        assert np.all(np.abs(grads - ref).max(axis=(1, 2)) <= 1e-13 * scale)
    assert meas is mesh.measures
    # every local stiffness row sums to ~0: constants lie in its kernel
    local = np.einsum("mki,mkj->mij", grads, grads) * meas[:, None, None]
    assert np.all(np.abs(local.sum(axis=2)) <= 1e-14 * np.abs(local).max(axis=(1, 2))[:, None])


def test_gradients_use_no_linear_solve(monkeypatch):
    def refuse(*args):
        raise AssertionError("np.linalg.solve called")

    monkeypatch.setattr(np.linalg, "solve", refuse)
    for name in ("fan-one-block", "jittered-square"):
        fem._gradients(KERNEL_MESHES[name]())


@pytest.mark.parametrize("name", ["jittered-square"])
def test_matrix_free_l2_norm_matches_mass_matrix(name):
    mesh = KERNEL_MESHES[name]()
    v = np.random.default_rng(7).uniform(-1.0, 1.0, mesh.node_count)
    sol = FemSolution(v, 0, 0.0, True)
    mass = _coo_scatter(mesh, _mass_blocks(mesh))
    assert fem_l2_norm(mesh, sol) == pytest.approx(math.sqrt(v @ (mass @ v)), rel=1e-13)


def _sign_changing_quadratic(pts):
    x = np.asarray(pts, dtype=float)
    return 0.3 - x[..., 0] ** 2 + 1.5 * x[..., 0] * x[..., 1] - 0.8 * x[..., -1]


@pytest.mark.parametrize(
    "make",
    [
        lambda: generate_fan_refined(inscribed_regular_polygon(Disk(1.0), 20), 2),
        KERNEL_MESHES["jittered-square"],
    ],
    ids=["fan-20-2", "jittered-square"],
)
def test_nodal_load_and_norm_match_mass_matrix(make):
    """The per-corner nodal load and the closed-form ||f_h|| agree with the
    assembled P1 mass matrix M: M v and sqrt(v . M v)."""
    mesh = make()
    fh = build_fh(mesh, SourceTerm(evaluate=_sign_changing_quadratic, sup_norm=4.0), "nodal")
    v = fh.nodal_values
    assert v.min() < 0.0 < v.max()
    mass = _coo_scatter(mesh, _mass_blocks(mesh))
    load, ref = assemble_load(mesh, fh), mass @ v
    assert np.abs(load - ref).max() <= 1e-13 * np.abs(ref).max()
    assert fh.l2_norm() == pytest.approx(math.sqrt(v @ ref), rel=1e-13)


# ---------------------------------------------------------------------------
# column-wise kernels against the array expressions they replace, bit for bit


def _oracle_squared_edges(verts):
    i, j = EDGES
    return ((verts[:, i] - verts[:, j]) ** 2).sum(-1)


def _oracle_metrics(measures, edge_sq):
    """h, the circumradius, inradius and angle extremes, by array reductions
    over the (M, 3) edge and angle arrays."""
    h = np.sqrt(edge_sq.max(axis=1))
    lengths = np.sqrt(edge_sq)
    nxt, prev = [1, 2, 0], [2, 0, 1]
    ang = np.arctan2(4.0 * measures[:, None], edge_sq[:, nxt] + edge_sq[:, prev] - edge_sq)
    return {
        "h": h,
        "circumradius": lengths.prod(axis=1) / (4.0 * measures),
        "inradius": 2 * measures / lengths.sum(axis=1),
        "min_angle": ang.min(axis=1),
        "max_angle": ang.max(axis=1),
    }


def _oracle_facets(elements):
    fac = np.concatenate([elements[:, list(i)] for i in FACETS], axis=0)
    fac.sort(axis=1)
    return fac


def _oracle_gradients(mesh):
    """The closed-form gradients from an (M, 2, 2) adjugate stack."""
    verts = mesh.element_vertices()
    e = verts[:, 1:, :] - verts[:, :1, :]
    det = 2 * mesh.measures
    grads = np.empty((mesh.element_count, 2, 3))
    (a, b), (c, d) = e[:, 0].T, e[:, 1].T
    adj = np.stack([d, -b, -c, a], axis=1).reshape(-1, 2, 2)
    np.divide(adj, det[:, None, None], out=grads[:, :, 1:])
    np.negative(grads[:, :, 1:].sum(axis=2), out=grads[:, :, 0])
    return grads


def _oracle_stiffness_blocks(grads, meas):
    """Local stiffness blocks as broadcast outer products."""
    local = grads[:, 0, :, None] * grads[:, 0, None, :]
    for k in range(1, grads.shape[1]):
        local += grads[:, k, :, None] * grads[:, k, None, :]
    local *= meas[:, None, None]
    return local


def _oracle_load(mesh, vals, w, bary):
    b = np.zeros(mesh.node_count)
    contrib = np.einsum("mq,q,qk->mk", vals, w, bary) * mesh.measures[:, None]
    for j in range(mesh.dim + 1):
        np.add.at(b, mesh.elements[:, j], contrib[:, j])
    return b


def _oracle_p1_at_points(mesh, bary, nodal):
    return np.einsum("qk,mk->mq", bary, nodal[mesh.elements])


def _whole_quadrature_l2(mesh, vals, w):
    """L2 norm by the rule with weights `w` of (M, q) values at its points,
    from whole-mesh arrays."""
    return math.sqrt(max(float((((vals**2) @ w) * mesh.measures).sum()), 0.0))


def _wavy(pts):
    pts = np.asarray(pts)
    return np.cos(3.0 * pts[..., 0]) + np.sin(2.0 * pts[..., 1])


@pytest.mark.parametrize("name", sorted(GRADIENT_MESHES))
def test_mesh_kernels_match_oracles(name):
    mesh = GRADIENT_MESHES[name]()
    verts = mesh.element_vertices()
    edge_sq = _oracle_squared_edges(verts)
    assert np.array_equal(geometry._vertex_geometry(verts)[1], edge_sq)
    em = element_metrics(mesh)
    assert np.array_equal(em.edge_sq, edge_sq)
    for field, ref in _oracle_metrics(em.measures, edge_sq).items():
        assert np.array_equal(getattr(em, field), ref), field
    n = mesh.node_count
    facets = meshmod._decode(meshmod._keys(mesh.elements, n, FACETS), n)
    assert facets.shape == (mesh.element_count * 3, 2)
    assert np.array_equal(facets, _oracle_facets(mesh.elements))
    i, j = EDGES
    edges = np.concatenate([mesh.elements[:, [a, b]] for a, b in zip(i, j)])
    edges.sort(axis=1)
    assert np.array_equal(meshmod._decode(meshmod._keys(mesh.elements, n, list(zip(i, j))), n), edges)


@pytest.mark.parametrize("name", sorted(GRADIENT_MESHES))
def test_fem_kernels_match_oracles(name):
    mesh = GRADIENT_MESHES[name]()
    grads, meas = fem._gradients(mesh)
    assert grads.shape == (mesh.element_count, mesh.dim, mesh.dim + 1)
    assert np.array_equal(grads, _oracle_gradients(mesh))
    assert np.array_equal(_local_blocks(grads, meas), _oracle_stiffness_blocks(grads, meas))

    bary, w = TRI_D4_BARY, TRI_D4_WEIGHTS
    f = SourceTerm(evaluate=_wavy, sup_norm=2.0)
    vals = _wavy(_einsum_quadrature_points(mesh, bary))
    assert np.array_equal(assemble_load(mesh, build_fh(mesh, f, "exact")), _oracle_load(mesh, vals, w, bary))

    nodal = np.random.default_rng(3).uniform(-1.0, 1.0, mesh.node_count)
    p1 = np.concatenate([fem._p1_at_points(mesh, nodal, rows) for rows in geometry._blocks(mesh.element_count)])
    assert np.array_equal(p1, _oracle_p1_at_points(mesh, bary, nodal))
    error = _whole_quadrature_l2(mesh, vals - _oracle_p1_at_points(mesh, bary, nodal), w)
    assert l2_error_interior(mesh, FemSolution(nodal, 0, 0.0, True), _wavy) == error


def test_disk_solution_matches_oracle():
    pts = np.random.default_rng(4).uniform(-1.0, 1.0, (1000, 6, 2))
    assert np.array_equal(registry()["disk2d"].u(pts), 0.25 * (1.0 - (pts**2).sum(axis=-1)))


def test_squared_edges_run_once_per_built_mesh(monkeypatch):
    """The degeneracy check's measures and squared edges are the element
    metrics' ones: one geometry kernel call per built mesh, none after."""
    calls = {"kernel": 0, "build": 0}
    kernel, build = geometry._element_geometry, meshmod.build_mesh

    def counted_kernel(*args):
        calls["kernel"] += 1
        return kernel(*args)

    def counted_build(*args):
        calls["build"] += 1
        return build(*args)

    monkeypatch.setattr(geometry, "_element_geometry", counted_kernel)
    monkeypatch.setattr(meshmod, "_element_geometry", counted_kernel)
    monkeypatch.setattr(meshmod, "build_mesh", counted_build)
    disk_study_row(20, 2)
    assert calls["build"] == 2 and calls["kernel"] == calls["build"]

    mesh = build(2, TWO_TRI_SQUARE.nodes, TWO_TRI_SQUARE.elements)
    calls["kernel"] = 0
    meshmod.quality(mesh)
    assert calls["kernel"] == 0


def test_quadrature_points_peak_memory_below_einsum():
    mesh = KERNEL_MESHES["fan-partial-block"]()
    bary = TRI_D4_BARY

    def peak(kernel):
        kernel()  # warm up
        tracemalloc.start()
        try:
            kernel()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # walking the blocks holds the points of a block or two at a time
    points_bytes = mesh.element_count * bary.shape[0] * 2 * 8
    assert peak(lambda: sum(1 for _ in fem._quadrature_blocks(mesh))) < 0.5 * points_bytes
    assert points_bytes <= peak(lambda: _einsum_quadrature_points(mesh, bary))


def _square_certify_json():
    dom = ConvexPolygon([[0, 0], [1, 0], [1, 1], [0, 1]])
    mesh = _jittered_square(32, seed=2)
    return certify(dom, mesh, SourceTerm.sin_product(), "exact").to_json()


def test_reported_numbers_do_not_depend_on_quadrature_kernel(monkeypatch):
    """Every reported digit is the same with the einsum quadrature points."""

    exact = registry()["disk2d"]

    def run():
        mesh = generate_fan_refined(inscribed_regular_polygon(exact.domain, 30), 3)
        rows = [verify_case(exact, mesh, mode) for mode in fem.FH_MODES]
        return [(sol.iterations, actual, certified.to_json()) for sol, actual, certified in rows], _square_certify_json()

    rows, report = run()
    calls = []
    monkeypatch.setattr(fem, "_quadrature_blocks", lambda *a: calls.append(1) or _einsum_quadrature_blocks(*a))
    ref_rows, ref_report = run()
    assert calls
    assert rows == ref_rows
    assert report == ref_report


# ---------------------------------------------------------------------------
# line-Jacobi preconditioner


def _jacobi_cg(system, tol=1e-12, maxiter=None):
    """The point-Jacobi CG loop `solve_cg` runs when a matrix forms no lines."""
    a_mat, b = system.matrix, system.rhs
    n = b.size
    norm_b = float(np.linalg.norm(b))
    if maxiter is None:
        maxiter = max(100, 20 * n)
    inv_diag = 1.0 / a_mat.diagonal()
    x, r = np.zeros(n), b.copy()
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


def _poisson_system(mesh, f=None):
    fh = build_fh(mesh, f or SourceTerm.constant(1.0), "exact")
    return dirichlet_system(mesh, assemble_stiffness(mesh), assemble_load(mesh, fh))


def _stretched_rectangle(n):
    """[0, 4] x [0, 1] cut into n x n cells of aspect 4:1: vertical
    neighbours couple 16x more strongly than horizontal ones."""
    square = structured_square_mesh(n)
    return build_mesh(2, np.asarray(square.nodes) * [4.0, 1.0], square.elements)


def _kept_line_matrix(a_mat):
    """Dense M: diag(A) plus the kept links of linked sets of >= 3 nodes,
    and the number of such sets that are paths and cycles."""
    from scipy.sparse import csgraph

    n = a_mat.shape[0]
    i, j, a = fem._line_links(a_mat, a_mat.diagonal())
    _, label = csgraph.connected_components(sp.coo_matrix((a, (i, j)), shape=(n, n)), directed=False)
    size = np.bincount(label)
    line = size[label[i]] >= 3
    m_dense = np.diag(a_mat.diagonal())
    m_dense[i[line], j[line]] = a[line]
    m_dense[j[line], i[line]] = a[line]
    degree = np.bincount(np.concatenate([i, j]), minlength=n)
    lines = np.flatnonzero(size >= 3)
    has_end = np.isin(lines, label[degree == 1])
    return m_dense, int(has_end.sum()), int((~has_end).sum())


LINE_MESHES = {
    "fan-cycles": lambda: generate_fan_refined(inscribed_regular_polygon(Disk(1.0), 20), 2),
    "stretched-paths": lambda: _stretched_rectangle(8),
}


@pytest.mark.parametrize("name", sorted(LINE_MESHES))
def test_line_preconditioner_is_exact_solve_of_kept_matrix(name):
    a_mat = _poisson_system(LINE_MESHES[name]()).matrix
    m_dense, paths, cycles = _kept_line_matrix(a_mat)
    assert (paths, cycles) == ((0, 3) if name == "fan-cycles" else (7, 0))
    apply = fem._line_jacobi(a_mat)
    # nodes on no line (the fan's centre) get their Jacobi step bit for bit
    off_line = np.flatnonzero(np.count_nonzero(m_dense, axis=1) == 1)
    assert off_line.size == (1 if name == "fan-cycles" else 0)
    for seed in range(3):
        r = np.random.default_rng(seed).normal(size=a_mat.shape[0])
        z = np.full_like(r, np.nan)  # every entry must be written
        apply(r, z)
        assert z == pytest.approx(np.linalg.solve(m_dense, r), rel=1e-12)
        assert np.array_equal(z[off_line], (1.0 / a_mat.diagonal()[off_line]) * r[off_line])


@pytest.mark.parametrize("name", sorted(LINE_MESHES))
def test_line_matrix_is_symmetric_and_strictly_dominant(name):
    a_mat = _poisson_system(LINE_MESHES[name]()).matrix
    m_dense = _kept_line_matrix(a_mat)[0]
    assert np.array_equal(m_dense, m_dense.T)
    off = np.abs(m_dense).sum(axis=1) - np.diag(m_dense)
    assert np.all(np.diag(m_dense) > off)
    assert np.count_nonzero(off) == a_mat.shape[0] - (1 if name == "fan-cycles" else 0)  # all but the centre


def _shuffled_rows(a_mat, seed):
    """`a_mat` with the entries of each row in a random order."""
    out, rng = a_mat.copy(), np.random.default_rng(seed)
    for start, stop in zip(a_mat.indptr[:-1], a_mat.indptr[1:]):
        perm = start + rng.permutation(stop - start)
        out.indices[start:stop], out.data[start:stop] = a_mat.indices[perm], a_mat.data[perm]
    out.has_sorted_indices = False
    return out


def _coarse_level(mesh):
    """The first coarse level of the V-cycle over `mesh`: scipy's sparse
    product P^T A P, whose rows are not sorted."""
    system = _with_prolongations(mesh)
    return fem._VCycle(system.matrix, system.prolongations).mats[1]


LINE_LEVELS = {
    "fan-cycles": (lambda: _poisson_system(LINE_MESHES["fan-cycles"]()).matrix, (0, 3)),
    "fan-coarse": (lambda: _coarse_level(generate_fan_refined(inscribed_regular_polygon(Disk(1.0), 20), 3)), (0, 3)),
    "stretched-paths": (lambda: _poisson_system(LINE_MESHES["stretched-paths"]()).matrix, (7, 0)),
    "stretched-coarse": (lambda: _coarse_level(meshmod.refine_uniform(meshmod.refine_uniform(_stretched_rectangle(4)))), (7, 0)),
}


@pytest.mark.parametrize("name", sorted(LINE_LEVELS))
def test_line_jacobi_reads_link_values_from_rows_in_any_order(monkeypatch, name):
    """The smoother of a finest or coarse V-cycle level solves its kept
    matrix, and shuffling the entries within the rows of the level (a ring's
    first node then lists its two upper links in either order) changes no
    bit of `apply`."""
    monkeypatch.setattr(fem, "_COARSE_MAX_SIZE", 30)
    build, lines = LINE_LEVELS[name]
    a_mat = build()
    unsorted = any(np.any(np.diff(a_mat.indices[a:b]) < 0) for a, b in zip(a_mat.indptr[:-1], a_mat.indptr[1:]))
    assert unsorted == name.endswith("coarse")
    m_dense, *found = _kept_line_matrix(a_mat)
    assert tuple(found) == lines
    r = np.random.default_rng(0).normal(size=a_mat.shape[0])
    z = np.full_like(r, np.nan)
    fem._line_jacobi(a_mat)(r, z)
    assert z == pytest.approx(np.linalg.solve(m_dense, r), rel=1e-12)
    for seed in range(3):
        shuffled = np.full_like(r, np.nan)
        fem._line_jacobi(_shuffled_rows(a_mat, seed))(r, shuffled)
        assert np.array_equal(shuffled, z)


def _walk_lines_coo(i, j, degree):
    """`fem._walk_lines` as written on COO graphs, with each component's
    first node from `np.unique`: the reference for the walk on CSR graphs."""
    from scipy.sparse import csgraph

    n = degree.size
    label = csgraph.connected_components(sp.coo_matrix((np.ones(i.size), (i, j)), shape=(n, n)), directed=False)[1]
    size = np.bincount(label)
    path_ends = np.flatnonzero((degree == 1) & (size[label] >= fem._LINE_MIN_NODES))
    is_cycle = size >= fem._LINE_MIN_NODES
    is_cycle[label[path_ends]] = False
    cycle_entries = np.unique(label, return_index=True)[1][is_cycle]
    root_links = np.concatenate([path_ends, cycle_entries])
    walk_i = np.concatenate([i, np.full(root_links.size, n, np.int32)])
    walk_j = np.concatenate([j, root_links])
    walk = sp.coo_matrix((np.ones(walk_i.size), (walk_i, walk_j)), shape=(n + 1, n + 1))
    order = csgraph.depth_first_order(walk, n, directed=False, return_predecessors=False)[1:].astype(np.intp)
    line_label = label[order]
    starts = np.flatnonzero(np.r_[True, line_label[1:] != line_label[:-1]])
    return order, starts, np.r_[starts[1:], order.size], is_cycle[line_label[starts]]


# meshes whose V-cycle levels have lines, and the line threshold: a jittered
# square has none at the default one
WALK_MESHES = {
    "fan": (lambda: generate_fan_refined(inscribed_regular_polygon(Disk(1.0), 20), 4), fem._LINE_THETA),
    "jittered-square": (lambda: _refined(_jittered_square(4, seed=3), 3), 0.2),
    "stretched-paths": (lambda: _refined(_stretched_rectangle(4), 3), fem._LINE_THETA),
}


def _refined(mesh, levels):
    for _ in range(levels):
        mesh = meshmod.refine_uniform(mesh)
    return mesh


@pytest.mark.parametrize("name", sorted(WALK_MESHES))
def test_walk_on_csr_link_graphs_is_the_coo_walk(monkeypatch, name):
    """On every V-cycle level, the line walk equals the walk on COO graphs,
    array for array, and the link graph is the CSR form of the COO links,
    also when the rows of the level are shuffled."""
    make, theta = WALK_MESHES[name]
    monkeypatch.setattr(fem, "_COARSE_MAX_SIZE", 30)
    monkeypatch.setattr(fem, "_LINE_THETA", theta)
    walk, levels = fem._walk_lines, []

    def compared(i, j, degree):
        got, ref = walk(i, j, degree), _walk_lines_coo(i, j, degree)
        assert all(np.array_equal(a, b) and a.dtype == b.dtype for a, b in zip(got, ref))
        n = degree.size
        graph, coo = fem._link_graph(i, j, n), sp.coo_matrix((np.ones(i.size), (i, j)), shape=(n, n)).tocsr()
        for a, b in ((graph.indptr, coo.indptr), (graph.indices, coo.indices), (graph.data, coo.data)):
            assert np.array_equal(a, b) and a.dtype == b.dtype
        levels.append(got[1].size)
        return got

    monkeypatch.setattr(fem, "_walk_lines", compared)
    system = _with_prolongations(make())
    cycle = fem._VCycle(system.matrix, system.prolongations)
    assert len(levels) == len(cycle.mats) - 1 == len(system.prolongations) >= 2 and min(levels) >= 1
    for seed in range(2):
        fem._line_jacobi(_shuffled_rows(cycle.mats[1], seed))
    assert len(levels) == len(cycle.mats) + 1


def _tridiagonal_system(diag, off, n=12):
    mat = sp.diags([np.full(n - 1, off), np.full(n, diag), np.full(n - 1, off)], [-1, 0, 1], format="csr")
    return LinearSystem(mat, np.linspace(1.0, 2.0, n), np.arange(n))


def test_line_links_need_threshold_and_strict_dominance():
    links = lambda system: fem._line_links(system.matrix, system.matrix.diagonal())[0].size
    assert links(_tridiagonal_system(1.0, -0.46)) == 11  # one path through all nodes
    assert links(_tridiagonal_system(1.0, -0.44)) == 0  # below 0.45 of the diagonal
    # the Dirichlet 1D Laplacian's links reach 0.5 of the diagonal, but two
    # of them sum to the diagonal: not strictly dominant, so no line
    laplace = _tridiagonal_system(2.0, -1.0)
    assert links(laplace) == 0
    assert all(np.array_equal(u, v) for u, v in zip(solve_cg(laplace), _jacobi_cg(laplace)))


def test_line_links_pass_the_threshold_of_both_nodes():
    """With diagonals alternating 1.0 and 1.1, |a_ij| = 0.46 passes 0.45 of
    the smaller diagonal but not of the larger, so no pair links."""
    mat = sp.diags([np.full(11, -0.46), np.tile([1.0, 1.1], 6), np.full(11, -0.46)], [-1, 0, 1], format="csr")
    assert fem._line_links(mat, mat.diagonal())[0].size == 0


@pytest.mark.parametrize("mesh", [structured_square_mesh(16), _jittered_square(32, seed=5)], ids=["square", "jittered"])
def test_cg_without_lines_is_jacobi_cg_bit_for_bit(mesh):
    system = _poisson_system(mesh, registry()["square2d"].f)
    x, iters, res, ok = solve_cg(system)
    ref_x, ref_iters, ref_res, ref_ok = _jacobi_cg(system)
    assert ok and ref_ok and iters == ref_iters and res == ref_res
    assert np.array_equal(x, ref_x)


def test_line_cg_maxiter_returns_best_iterate():
    system = _poisson_system(LINE_MESHES["fan-cycles"]())
    res1 = solve_cg(system, maxiter=1)[2]
    x, iters, res, ok = solve_cg(system, maxiter=2)
    assert not ok and iters == 2
    assert res <= res1 and res > 1e-12
    true_res = np.linalg.norm(system.rhs - system.matrix @ x) / np.linalg.norm(system.rhs)
    assert true_res == pytest.approx(res, rel=1e-8)


def test_fan_line_cg_iterations_and_solution():
    """disk m=50, k=5 (24,801 unknowns): point-Jacobi CG needs 302 iterations."""
    from certifem.verify import _disk2d, actual_l2_error

    disk = _disk2d()
    poly = inscribed_regular_polygon(disk.domain, 50)
    mesh = generate_fan_refined(poly, 5)
    sol, actual, _ = verify_case(disk, mesh)
    assert sol.iterations <= 60
    system = _poisson_system(mesh, disk.f)
    x, _, _, ok = _jacobi_cg(system)
    full = np.zeros(mesh.node_count)
    full[system.interior] = x
    assert ok
    assert actual == pytest.approx(actual_l2_error(disk, poly, mesh, FemSolution(full, 0, 0.0, True)), rel=1e-9)


# ---------------------------------------------------------------------------
# V-cycle preconditioner, forced on small meshes through its private builders


def _with_prolongations(mesh, f=None):
    system = _poisson_system(mesh, f)
    return dataclasses.replace(system, prolongations=fem._prolongations(mesh, system.interior))


def _dense_vcycle(system):
    cycle = fem._VCycle(system.matrix, system.prolongations)
    n = system.size
    b_dense = np.empty((n, n))
    for i, e in enumerate(np.eye(n)):
        cycle(e, b_dense[:, i])
    return b_dense


VCYCLE_MESHES = {
    "fan-12-3": lambda: generate_fan_refined(inscribed_regular_polygon(Disk(1.0), 12), 3),
    "jittered-refined": lambda: meshmod.refine_uniform(meshmod.refine_uniform(_jittered_square(6, seed=3))),
}


@pytest.mark.parametrize("name", sorted(VCYCLE_MESHES))
def test_vcycle_is_symmetric_positive_definite(monkeypatch, name):
    monkeypatch.setattr(fem, "_COARSE_MAX_SIZE", 30)
    system = _with_prolongations(VCYCLE_MESHES[name]())
    assert len(system.prolongations) == 2  # three levels, the coarsest dense
    b_dense = _dense_vcycle(system)
    assert np.abs(b_dense - b_dense.T).max() <= 1e-13 * np.abs(b_dense).max()
    assert np.linalg.eigvalsh(0.5 * (b_dense + b_dense.T)).min() > 0.0
    # the cycle's error map I - BA is A-nonnegative and A-contracting, so
    # every eigenvalue of BA lies in (0, 1]
    mu = np.linalg.eigvals(b_dense @ system.matrix.toarray()).real
    assert mu.min() > 0.1 and mu.max() <= 1.0 + 1e-12


def test_vcycle_iterations_do_not_grow_with_refinement(monkeypatch):
    """Line-Jacobi CG roughly doubles its iterations per level; the V-cycle
    holds them within 20% of their mean from 3 levels on (a fan refined once
    or twice has a shallower cycle, which needs no more)."""
    monkeypatch.setattr(fem, "_COARSE_MAX_SIZE", 10)  # every fan coarsens to its centre
    disk = Disk(1.0)
    for f in (SourceTerm.constant(1.0), SourceTerm.quadratic([1, 2, -1, 3, 0.5, -2], disk)):
        vcycle, line = [], []
        for k in range(2, 6):
            system = _with_prolongations(generate_fan_refined(inscribed_regular_polygon(disk, 30), k), f)
            assert len(system.prolongations) == k
            vcycle.append(solve_cg(system)[1])
            line.append(solve_cg(dataclasses.replace(system, prolongations=()))[1])
        mean = np.mean(vcycle[1:])
        assert all(abs(it - mean) <= 0.2 * mean for it in vcycle[1:]), vcycle
        assert vcycle[0] <= max(vcycle[1:]), vcycle
        assert line[-1] >= 3 * line[1], line


@pytest.mark.parametrize("name", sorted(VCYCLE_MESHES))
def test_vcycle_solution_matches_line_cg(monkeypatch, name):
    monkeypatch.setattr(fem, "_COARSE_MAX_SIZE", 30)
    system = _with_prolongations(VCYCLE_MESHES[name](), registry()["square2d"].f)
    x, iters, res, ok = solve_cg(system)
    ref, _, _, ref_ok = solve_cg(dataclasses.replace(system, prolongations=()))
    assert ok and ref_ok and res <= fem.CG_TOL
    assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)


def test_prolongation_interpolates_p1_functions():
    """P maps the interior values of a coarse P1 function that vanishes on
    the boundary to the interior values of the same function on the fine
    mesh: old nodes keep theirs, midpoints take their parents' mean."""
    mesh = generate_fan_refined(inscribed_regular_polygon(Disk(1.0), 20), 3)
    interior = mesh.interior_nodes
    prolongations = fem._prolongations(mesh, interior)
    assert [p.shape for p in prolongations] == [(561, 121)]  # 121 <= _COARSE_MAX_SIZE
    coarse_count, parents = mesh.hierarchy[-1]
    coarse_interior = interior[interior < coarse_count]
    values = np.zeros(mesh.node_count)
    values[coarse_interior] = np.random.default_rng(8).normal(size=coarse_interior.size)
    values[coarse_count:] = 0.5 * (values[parents[:, 0]] + values[parents[:, 1]])
    assert np.array_equal(prolongations[0] @ values[coarse_interior], values[interior])


def test_below_threshold_solve_is_the_line_jacobi_path():
    """Systems below _VCYCLE_MIN_SIZE carry no prolongations, and solve_cg
    runs line-Jacobi CG on them bit for bit."""
    mesh = generate_fan_refined(inscribed_regular_polygon(Disk(1.0), 50), 5)
    system = _poisson_system(mesh)
    assert system.size < fem._VCYCLE_MIN_SIZE and system.prolongations == ()
    x, iters, res, ok = solve_cg(system)
    ref_x, ref_iters, ref_res, ref_ok = _reference_pcg(system, fem._line_jacobi(system.matrix))
    assert (iters, res, ok) == (ref_iters, ref_res, ref_ok) == (44, res, True)
    assert np.array_equal(x, ref_x)


def _reference_pcg(system, precondition):
    """The CG loop of `solve_cg`, with the preconditioner given."""
    a_mat, b = system.matrix, system.rhs
    n = b.size
    norm_b = float(np.linalg.norm(b))
    x, r, z = np.zeros(n), b.copy(), np.empty(n)
    precondition(r, z)
    p = z.copy()
    step = np.empty(n)
    rz = float(r @ z)
    for it in range(1, max(100, 20 * n) + 1):
        ap = a_mat @ p
        alpha = rz / float(p @ ap)
        x += np.multiply(alpha, p, out=step)
        r -= np.multiply(alpha, ap, out=step)
        res = float(np.linalg.norm(r)) / norm_b
        if res <= fem.CG_TOL:
            return x, it, res, True
        precondition(r, z)
        rz_new = float(r @ z)
        p *= rz_new / rz
        p += z
        rz = rz_new
    raise AssertionError("reference CG did not converge")


def test_prolongations_need_a_hierarchy_that_reaches_the_coarse_size(tmp_path):
    fan = generate_fan_refined(inscribed_regular_polygon(Disk(1.0), 50), 3)
    assert [p.shape for p in fem._prolongations(fan, fan.interior_nodes)] == [(1401, 301)]
    path = str(tmp_path / "fan.json")
    meshmod.save(fan, path)
    loaded = meshmod.load(path)
    assert fem._prolongations(loaded, loaded.interior_nodes) == ()
    # one refinement of a 40 x 40 grid leaves 1,521 > 400 unknowns below
    refined = meshmod.refine_uniform(structured_square_mesh(40))
    assert len(refined.hierarchy) == 1
    assert fem._prolongations(refined, refined.interior_nodes) == ()


def test_blocked_error_quadrature_is_bit_identical_and_smaller():
    """`l2_error_interior` and the exact-mode `l2_norm` go block by block and
    still equal the whole-array quadrature bit for bit, with a lower peak."""
    mesh = KERNEL_MESHES["fan-partial-block"]()
    bary, w = TRI_D4_BARY, TRI_D4_WEIGHTS
    nodal = np.random.default_rng(5).uniform(-1.0, 1.0, mesh.node_count)
    sol = FemSolution(nodal, 0, 0.0, True)
    f = SourceTerm(evaluate=_wavy, sup_norm=2.0)

    def whole():
        pts = _einsum_quadrature_points(mesh, bary)
        return _whole_quadrature_l2(mesh, _wavy(pts) - _oracle_p1_at_points(mesh, bary, nodal), w)

    assert l2_error_interior(mesh, sol, _wavy) == whole()
    whole_norm = _whole_quadrature_l2(mesh, _wavy(_einsum_quadrature_points(mesh, bary)), w)
    assert build_fh(mesh, f, "exact").l2_norm() == whole_norm

    def peak(run):
        run()  # warm up
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    points_bytes = mesh.element_count * bary.shape[0] * 2 * 8
    assert peak(lambda: l2_error_interior(mesh, sol, _wavy)) < 1.5 * points_bytes < peak(whole)


def test_blocked_norm_reports_the_largest_value_over_all_blocks():
    mesh = KERNEL_MESHES["fan-partial-block"]()
    assert mesh.element_count > 2 * geometry._BLOCK
    # |f| = 1 + x grows to 2 on the right, far from the first block's elements
    lying = SourceTerm(evaluate=lambda p: 1.0 + np.asarray(p)[..., 0], sup_norm=1.5)
    with pytest.raises(SupNormViolationError) as err:
        build_fh(mesh, lying, "exact").l2_norm()
    bary = TRI_D4_BARY
    worst = float(np.abs(lying.evaluate(_einsum_quadrature_points(mesh, bary))).max())
    assert f"|f| reached {worst:.6g} > 1.5" in str(err.value)
    # the load's pass reports the same maximum
    with pytest.raises(SupNormViolationError, match=re.escape(f"|f| reached {worst:.6g} > 1.5")):
        assemble_load(mesh, build_fh(mesh, lying, "exact"))


# ---------------------------------------------------------------------------
# the element-block pass against the whole-mesh array forms it replaced

BLOCK_MESHES = {
    "below-a-block": lambda: generate_fan_refined(inscribed_regular_polygon(Disk(1.0), 7), 2),
    "one-block": lambda: generate_fan_refined(inscribed_regular_polygon(Disk(1.0), 16), 4),
    "ragged-blocks": lambda: generate_fan_refined(inscribed_regular_polygon(Disk(1.0), 13), 5),
}


def _whole_source_pass(mesh, f):
    """The exact-mode load vector and quadrature ||f|| from whole-mesh arrays:
    einsum points, (M, q) values, corner contributions summed over q in
    order and scattered by one `np.add.at` per corner."""
    bary, w = TRI_D4_BARY, TRI_D4_WEIGHTS
    vals = np.asarray(f.evaluate(_einsum_quadrature_points(mesh, bary)), dtype=float)
    meas = mesh.measures
    weighted = vals * w
    b = np.zeros(mesh.node_count)
    for j in range(mesh.dim + 1):
        contrib = weighted[:, 0] * bary[0, j]
        for q in range(1, w.size):
            contrib += weighted[:, q] * bary[q, j]
        contrib *= meas
        np.add.at(b, mesh.elements[:, j], contrib)
    return b, _whole_quadrature_l2(mesh, vals, w)


def _whole_load(mesh, fh):
    if fh.mode == "exact":
        return _whole_source_pass(mesh, fh.source)[0]
    n = mesh.dim
    b = np.zeros(mesh.node_count)
    if fh.mode == "nodal":
        # row j of |T| (J + I) / ((n+1)(n+2)) times the corner values
        v = fh.nodal_values[mesh.elements]
        contrib = (v + v.sum(axis=1, keepdims=True)).T * (mesh.measures / ((n + 1) * (n + 2)))
        for j in range(n + 1):
            np.add.at(b, mesh.elements[:, j], contrib[j])
        return b
    contrib = fh.element_values * mesh.measures / (mesh.dim + 1)
    for j in range(mesh.dim + 1):
        np.add.at(b, mesh.elements[:, j], contrib)
    return b


def _whole_fh_error(mesh, f, mode):
    bary, w = TRI_D4_BARY, TRI_D4_WEIGHTS
    fh = build_fh(mesh, f, mode)
    fvals = np.asarray(f.evaluate(_einsum_quadrature_points(mesh, bary)), dtype=float)
    if mode == "barycentric":
        fh_vals = fh.element_values[:, None] * np.ones_like(fvals)
    else:
        fh_vals = _oracle_p1_at_points(mesh, bary, fh.nodal_values)
    return _whole_quadrature_l2(mesh, fvals - fh_vals, w)


def test_block_meshes_cover_the_block_cases():
    counts = {name: make().element_count for name, make in BLOCK_MESHES.items()}
    assert counts["below-a-block"] < geometry._BLOCK == counts["one-block"]
    assert counts["ragged-blocks"] > 3 * geometry._BLOCK and counts["ragged-blocks"] % geometry._BLOCK


@pytest.mark.parametrize("mode", fem.FH_MODES)
@pytest.mark.parametrize("name", sorted(BLOCK_MESHES))
def test_block_pass_load_matches_whole_arrays(name, mode):
    mesh = BLOCK_MESHES[name]()
    f = SourceTerm(evaluate=_wavy, sup_norm=2.0, grad_sup_norm=3.7, h2_seminorm=100.0)
    fh = build_fh(mesh, f, mode)
    load = assemble_load(mesh, fh)
    assert np.array_equal(load, _whole_load(mesh, fh))
    if mode == "nodal":
        ref = _coo_scatter(mesh, _mass_blocks(mesh)) @ fh.nodal_values
        assert np.abs(load - ref).max() <= 1e-13 * np.abs(ref).max()
    if mode == "exact":
        # the load's pass stores the same rule's ||f||
        assert fh.quadrature_l2 == _whole_source_pass(mesh, f)[1]
    else:
        assert fh_error_measured(mesh, f, mode) == _whole_fh_error(mesh, f, mode)


@pytest.mark.parametrize("name", sorted(BLOCK_MESHES))
def test_block_pass_norms_match_whole_arrays(name):
    mesh = BLOCK_MESHES[name]()
    bary, w = TRI_D4_BARY, TRI_D4_WEIGHTS
    f = SourceTerm(evaluate=_wavy, sup_norm=2.0)
    # without a load first, `l2_norm` runs the pass without corner sums
    assert build_fh(mesh, f, "exact").l2_norm() == _whole_source_pass(mesh, f)[1]
    nodal = np.random.default_rng(9).uniform(-1.0, 1.0, mesh.node_count)
    points = _einsum_quadrature_points(mesh, bary)
    whole = _whole_quadrature_l2(mesh, _wavy(points) - _oracle_p1_at_points(mesh, bary, nodal), w)
    assert l2_error_interior(mesh, FemSolution(nodal, 0, 0.0, True), _wavy) == whole


@pytest.mark.parametrize("name", ["below-a-block", "one-block", "ragged-blocks"])
def test_block_pass_maxima_match_whole_arrays(name):
    from certifem import interp_constants as icmod
    from certifem import mesh_constants

    mesh = BLOCK_MESHES[name]()
    em = element_metrics(mesh)
    whole_kobayashi = icmod._kobayashi_batch_2d(em.edge_sq, em.measures)
    assert icmod._kobayashi_maximum(mesh) == float(whole_kobayashi.max())
    # the same pass keeps the former definition, min(Liu, Kobayashi)
    whole = np.minimum(_liu_batch(em.edge_sq, em.measures), whole_kobayashi).max()
    assert mesh_constants(mesh).elementwise == float(whole)


def test_block_pass_catches_nan_in_the_last_block():
    mesh = BLOCK_MESHES["ragged-blocks"]()
    bary = TRI_D4_BARY
    # a quadrature point lies inside its element, so only the last block has it
    target = _einsum_quadrature_points(mesh, bary)[-1, 0]

    def evaluate(p):
        return np.where((np.asarray(p) == target).all(axis=-1), np.nan, 1.0)

    f = SourceTerm(evaluate=evaluate, sup_norm=1.0)
    with pytest.raises(SupNormViolationError, match="reached nan"):
        assemble_load(mesh, build_fh(mesh, f, "exact"))
    with pytest.raises(SupNormViolationError, match="reached nan"):
        build_fh(mesh, f, "exact").l2_norm()


def test_block_pass_rejects_huge_values_without_squaring_them():
    """A block past the sup norm is not squared: |f| = 1e200 would overflow
    (a RuntimeWarning, an error here) before the check names it."""
    mesh = BLOCK_MESHES["ragged-blocks"]()
    f = SourceTerm(evaluate=lambda p: 1e200 * np.asarray(p)[..., 0], sup_norm=1.0)
    with pytest.raises(SupNormViolationError, match=r"reached 9\.\d+e\+199 > 1$"):
        assemble_load(mesh, build_fh(mesh, f, "exact"))
    with pytest.raises(SupNormViolationError, match=r"reached 9\.\d+e\+199 > 1$"):
        build_fh(mesh, f, "exact").l2_norm()


def test_block_pass_peak_memory_below_whole_arrays():
    mesh = KERNEL_MESHES["fan-partial-block"]()
    f = SourceTerm(evaluate=_wavy, sup_norm=2.0)

    def peak(run):
        run()  # warm up
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    whole = peak(lambda: _whole_source_pass(mesh, f))
    assert peak(lambda: assemble_load(mesh, build_fh(mesh, f, "exact"))) < whole
    assert peak(lambda: build_fh(mesh, f, "exact").l2_norm()) < whole
    bary, w = TRI_D4_BARY, TRI_D4_WEIGHTS
    whole_norm = peak(lambda: _whole_quadrature_l2(mesh, _wavy(_einsum_quadrature_points(mesh, bary)), w))
    assert peak(lambda: build_fh(mesh, f, "exact").l2_norm()) < whole_norm


# ---------------------------------------------------------------------------
# solve path in bounded memory: row-block scatter, one-pass Dirichlet
# reduction, lean line-smoother set-up


def _mass_blocks(mesh):
    """The (M, k, k) local mass matrices as one broadcast product."""
    n = mesh.dim
    base = np.ones((n + 1, n + 1)) + np.eye(n + 1)
    return base[None, :, :] * (mesh.measures / ((n + 1) * (n + 2)))[:, None, None]


ROW_BLOCK_MESHES = {
    "fan": lambda: generate_fan_refined(inscribed_regular_polygon(Disk(1.0), 12), 3),
    "jittered-refined-twice": lambda: meshmod.refine_uniform(meshmod.refine_uniform(_jittered_square(6, seed=3))),
}


@pytest.mark.parametrize("slots", [5, 64])
@pytest.mark.parametrize("name", sorted(ROW_BLOCK_MESHES))
def test_row_block_scatter_is_the_coo_conversion(monkeypatch, name, slots):
    """With row blocks of a few slots the stiffness, the mass matrix and
    unsymmetric random local matrices equal scipy's one-shot COO-to-CSR
    conversion bit for bit; a node with more slots than a block (every node
    at 5 slots) makes a block of its own."""
    mesh = ROW_BLOCK_MESHES[name]()
    monkeypatch.setattr(fem, "_SCATTER_SLOTS", slots)
    grads, meas = fem._gradients(mesh)
    random = np.random.default_rng(7).normal(size=(mesh.element_count,) + (mesh.dim + 1,) * 2)
    blocks = []

    def random_rows(e, c):
        blocks.append(e.size)
        return random[e, c]

    cases = [
        (assemble_stiffness(mesh), _oracle_stiffness_blocks(grads, meas)),
        (fem._scatter(mesh, _rows_of(_mass_blocks(mesh))), _mass_blocks(mesh)),
        (fem._scatter(mesh, random_rows), random),
    ]
    for got, local in cases:
        ref = _coo_scatter(mesh, local)
        for a, b in ((got.indptr, ref.indptr), (got.indices, ref.indices), (got.data, ref.data)):
            assert a.dtype == b.dtype and np.array_equal(a, b)
            assert not a.flags.writeable
    slots_per_node = np.bincount(mesh.elements.ravel())
    assert sum(blocks) == mesh.elements.size and len(blocks) > 10
    if slots == 5:
        assert max(blocks) == slots_per_node.max() > slots
    else:
        assert max(blocks) <= slots


def _random_csr(n, seed):
    """A canonical random CSR matrix with empty rows, and sorted interior
    nodes among which row 5 has all its off-diagonals in boundary columns."""
    dense = np.random.default_rng(seed).normal(size=(n, n)) * (np.random.default_rng(seed + 1).random((n, n)) < 0.2)
    boundary = np.array([0, 3, 9, 10, 21, n - 1])
    dense[[2, 7, n - 2]] = 0.0  # empty interior rows, one of them next to last
    dense[5] = 0.0
    dense[5, boundary] = 1.0
    dense[5, 5] = 4.0
    interior = np.setdiff1d(np.arange(n), boundary)
    return sp.csr_matrix(dense), interior


REDUCTION_CASES = {
    "fan": lambda: _stiffness_and_interior(generate_fan_refined(inscribed_regular_polygon(Disk(1.0), 12), 3)),
    "no-interior-node": lambda: _stiffness_and_interior(TWO_TRI_SQUARE),
    # the unrefined fan's centre is interior, all its neighbours boundary
    "centre-only": lambda: _stiffness_and_interior(generate_fan_refined(inscribed_regular_polygon(Disk(1.0), 6), 0)),
    "random-with-empty-rows": lambda: _random_csr(30, 4),
}


def _stiffness_and_interior(mesh):
    return assemble_stiffness(mesh), mesh.interior_nodes


@pytest.mark.parametrize("name", sorted(REDUCTION_CASES))
def test_one_pass_reduction_is_fancy_indexing(name):
    mat, interior = REDUCTION_CASES[name]()
    got, ref = fem._interior_block(mat, interior), mat[interior][:, interior].tocsr()
    assert got.shape == ref.shape == (interior.size, interior.size)
    for a, b in ((got.indptr, ref.indptr), (got.indices, ref.indices), (got.data, ref.data)):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    if name == "centre-only":
        assert got.nnz == 1 and mat[interior[0]].nnz == 7
    if name == "random-with-empty-rows":
        assert np.diff(got.indptr)[np.searchsorted(interior, [2, 5, 7, 28])].tolist() == [0, 1, 0, 0]


@pytest.fixture(scope="module")
def fine_fan_system():
    """disk m=50, k=6: 204,800 triangles, 100,801 unknowns."""
    mesh = generate_fan_refined(inscribed_regular_polygon(Disk(1.0), 50), 6)
    fh = build_fh(mesh, SourceTerm.constant(1.0), "exact")
    return mesh, dirichlet_system(mesh, assemble_stiffness(mesh), assemble_load(mesh, fh))


def _traced(run):
    """`run()`, its traced peak and the bytes it leaves allocated, after one
    untraced call that loads every module it imports."""
    run()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = run()
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak - before, after - before


def test_stiffness_assembly_memory_per_triangle(fine_fan_system):
    """Above its output, the assembly holds the gradients (48 B per
    triangle), the slot incidence and one row block: an (M, 3, 3) local
    array alone would be 72 B per triangle."""
    mesh = fine_fan_system[0]
    mat, peak, _ = _traced(lambda: assemble_stiffness(mesh))
    output = mat.data.nbytes + mat.indices.nbytes + mat.indptr.nbytes
    assert (peak - output) / mesh.element_count < 120


def test_dirichlet_reduction_transient_per_unknown(fine_fan_system):
    """`dirichlet_system` holds little above what it returns: the reduced
    matrix, right-hand side, interior nodes and prolongations."""
    mesh, system = fine_fan_system
    stiffness, load = assemble_stiffness(mesh), np.ones(mesh.node_count)
    reduced, peak, kept = _traced(lambda: dirichlet_system(mesh, stiffness, load))
    assert reduced.prolongations and kept > reduced.matrix.data.nbytes
    assert (peak - kept) / reduced.size < 32


def test_finest_line_smoother_setup_transient_per_unknown(fine_fan_system):
    """The finest line-Jacobi set-up holds O(links) link arrays and a few
    vectors above the factors it keeps."""
    a_mat = fine_fan_system[1].matrix
    _, peak, kept = _traced(lambda: fem._line_jacobi(a_mat))
    assert (peak - kept) / a_mat.shape[0] < 90
