import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from certifem import fem
from certifem import mesh as meshmod
from certifem import (
    ConvexPolygon,
    Disk,
    FemSolution,
    InvalidSourceError,
    LinearSystem,
    MissingNormMetadata,
    SourceTerm,
    SupNormViolationError,
    assemble_load,
    assemble_mass,
    assemble_stiffness,
    build_fh,
    build_mesh,
    certify,
    dirichlet_system,
    disk_study_row,
    fem_h1_seminorm,
    fem_l2_norm,
    fh_error_measured,
    fh_perturbation_bound,
    generate_fan_refined,
    inscribed_regular_polygon,
    l2_error_interior,
    measure_sum,
    poincare_residual,
    poly_approx_of_polygon,
    registry,
    solve_cg,
    solve_poisson,
    structured_square_mesh,
)
from certifem.quadrature import (
    TET_D4_BARY,
    TET_D4_WEIGHTS,
    TRI_D4_BARY,
    TRI_D4_WEIGHTS,
    reference_monomial_integral,
    simplex_rule,
)
from test_mesh import _jittered_square, _kuhn_cube

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


def test_mass_matrix_total():
    m = assemble_mass(TWO_TRI_SQUARE)
    assert m.sum() == pytest.approx(1.0, rel=1e-13)


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
    worst = 0.0
    for a in range(5):
        for b in range(5 - a):
            for c in range(5 - a - b):
                approx = (1.0 / 6.0) * float(
                    (TET_D4_WEIGHTS * TET_D4_BARY[:, 1] ** a * TET_D4_BARY[:, 2] ** b * TET_D4_BARY[:, 3] ** c).sum()
                )
                worst = max(worst, abs(approx - reference_monomial_integral((a, b, c))))
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
    """`assemble_load` stores the quadrature ||f||, so an exact-mode row runs
    the quadrature points twice (load, measured error), not three times."""
    calls = []
    points = fem._quadrature_points
    monkeypatch.setattr(fem, "_quadrature_points", lambda *a: calls.append(1) or points(*a))
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


def test_3d_mass_and_stiffness():
    mesh = build_mesh(3, [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], [[0, 1, 2, 3]])
    m = assemble_mass(mesh)
    assert m.sum() == pytest.approx(1.0 / 6.0, rel=1e-13)
    k = assemble_stiffness(mesh)
    assert np.abs(np.asarray(k.sum(axis=1))).max() <= 1e-14
    fh = build_fh(mesh, SourceTerm.constant(1.0), "barycentric")
    b = assemble_load(mesh, fh)
    assert b == pytest.approx(np.full(4, 1.0 / 24.0), rel=1e-13)


# ---------------------------------------------------------------------------
# broadcast element kernels against the einsum expressions they replace


def _einsum_quadrature_points(mesh, bary):
    return np.einsum("qk,mkd->mqd", bary, mesh.element_vertices())


def _einsum_stiffness(mesh):
    grads, meas = fem._gradients(mesh)
    return fem._scatter(mesh, np.einsum("mki,mkj->mij", grads, grads) * meas[:, None, None])


def _jittered_kuhn_cube(n, seed):
    cube = _kuhn_cube(n)
    nodes = np.array(cube.nodes)
    interior = ((nodes > 0.0) & (nodes < 1.0)).all(axis=1)
    nodes[interior] += (0.15 / n) * np.random.default_rng(seed).uniform(-1.0, 1.0, (int(interior.sum()), 3))
    return build_mesh(3, nodes, cube.elements)


def test_3d_regularity_dominates_elementwise_bit_for_bit():
    from certifem import mesh_constants

    for n in (2, 3, 4):
        for seed in range(60):
            mesh = _jittered_kuhn_cube(n, seed)
            for conv in ("radius", "diameter"):
                gc = mesh_constants(mesh, rho_convention=conv)
                assert gc.regularity >= gc.elementwise, (n, seed, conv)


KERNEL_MESHES = {
    "fan-one-block": lambda: generate_fan_refined(inscribed_regular_polygon(Disk(1.0), 7), 2),
    "fan-partial-block": lambda: generate_fan_refined(inscribed_regular_polygon(Disk(1.0), 50), 5),
    "jittered-square": lambda: _jittered_square(32, seed=5),
    "jittered-kuhn-cube": lambda: _jittered_kuhn_cube(3, seed=4),
}


@pytest.mark.parametrize("name", sorted(KERNEL_MESHES))
def test_quadrature_points_match_einsum(name):
    mesh = KERNEL_MESHES[name]()
    bary, _ = simplex_rule(mesh.dim)
    got = fem._quadrature_points(mesh, bary)
    assert got.shape == (mesh.element_count, bary.shape[0], mesh.dim)
    assert got.flags.c_contiguous
    assert np.array_equal(got, _einsum_quadrature_points(mesh, bary))
    if name == "fan-partial-block":
        assert mesh.element_count > 2 * fem._QUAD_BLOCK and mesh.element_count % fem._QUAD_BLOCK
    if name == "jittered-kuhn-cube":
        assert bary.shape == (11, 4)


@pytest.mark.parametrize("name", ["jittered-square", "jittered-kuhn-cube"])
def test_stiffness_blocks_match_einsum(name):
    mesh = KERNEL_MESHES[name]()
    got, ref = fem._assemble_stiffness(mesh), _einsum_stiffness(mesh)
    assert np.array_equal(got.indptr, ref.indptr) and np.array_equal(got.indices, ref.indices)
    assert np.array_equal(got.data, ref.data)


def _solved_gradients(mesh):
    """The P1 gradients by a batched LAPACK solve of B G = [-1 | I]."""
    n = mesh.dim
    verts = mesh.element_vertices()
    b = verts[:, 1:, :] - verts[:, :1, :]
    ref = np.hstack([-np.ones((n, 1)), np.eye(n)])
    return np.linalg.solve(b, np.broadcast_to(ref, (mesh.element_count, n, n + 1)))


def _needles(dim, count, seed):
    """`count` disjoint elements of aspect 1..1e8: thin in one direction,
    then rotated, scaled by 1e-3..10 and translated by up to 3."""
    rng = np.random.default_rng(seed)
    thin = 10.0 ** -rng.uniform(0.0, 8.0, count)
    local = np.zeros((count, dim + 1, dim))
    local[:, 1, 0] = 1.0
    local[:, 2, 0] = rng.uniform(0.0, 1.0, count)
    local[:, 2, 1] = thin
    if dim == 3:
        local[:, 3] = np.stack([rng.uniform(0.0, 1.0, count), rng.uniform(-1.0, 1.0, count) * thin, np.ones(count)], 1)
    rot = np.linalg.qr(rng.normal(size=(count, dim, dim)))[0]
    scale = 10.0 ** rng.uniform(-3.0, 1.0, count)
    shift = rng.uniform(-3.0, 3.0, (count, 1, dim))
    verts = scale[:, None, None] * np.einsum("mkd,med->mke", local, rot) + shift
    return build_mesh(dim, verts.reshape(-1, dim), np.arange(count * (dim + 1)).reshape(count, dim + 1))


GRADIENT_MESHES = {
    **KERNEL_MESHES,
    "needles-2d": lambda: _needles(2, 2000, seed=11),
    "needles-3d": lambda: _needles(3, 2000, seed=12),
}


@pytest.mark.parametrize("name", sorted(GRADIENT_MESHES))
def test_closed_form_gradients_match_lapack_solve(name):
    """Per element, the closed-form gradients agree with a LAPACK solve to
    1e-13 of the largest entry.  (On a needle thin in two directions the
    solve and the closed form are both up to ~3e-13 from the exact inverse,
    so there the solve is no reference.)"""
    mesh = GRADIENT_MESHES[name]()
    grads, meas = fem._gradients(mesh)
    ref = _solved_gradients(mesh)
    assert grads.shape == ref.shape == (mesh.element_count, mesh.dim, mesh.dim + 1)
    scale = np.abs(ref).max(axis=(1, 2))
    assert np.all(np.abs(grads - ref).max(axis=(1, 2)) <= 1e-13 * scale)
    assert meas is meshmod._measures(mesh)
    # every local stiffness row sums to ~0: constants lie in its kernel
    local = np.einsum("mki,mkj->mij", grads, grads) * meas[:, None, None]
    assert np.all(np.abs(local.sum(axis=2)) <= 1e-14 * np.abs(local).max(axis=(1, 2))[:, None])


def test_gradients_use_no_linear_solve(monkeypatch):
    def refuse(*args):
        raise AssertionError("np.linalg.solve called")

    monkeypatch.setattr(np.linalg, "solve", refuse)
    for name in ("fan-one-block", "jittered-kuhn-cube"):
        fem._gradients(KERNEL_MESHES[name]())


@pytest.mark.parametrize("name", ["jittered-square", "jittered-kuhn-cube"])
def test_matrix_free_l2_norm_matches_mass_matrix(name):
    mesh = KERNEL_MESHES[name]()
    v = np.random.default_rng(7).uniform(-1.0, 1.0, mesh.node_count)
    sol = FemSolution(v, 0, 0.0, True, mesh)
    assert fem_l2_norm(mesh, sol) == pytest.approx(math.sqrt(v @ (assemble_mass(mesh) @ v)), rel=1e-13)


def test_quadrature_points_peak_memory_below_einsum():
    mesh = KERNEL_MESHES["fan-partial-block"]()
    bary, _ = simplex_rule(2)

    def peak(kernel):
        kernel(mesh, bary)  # warm up
        tracemalloc.start()
        try:
            kernel(mesh, bary)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(fem._quadrature_points) < peak(_einsum_quadrature_points)


def _square_certify_json():
    dom = ConvexPolygon([[0, 0], [1, 0], [1, 1], [0, 1]])
    mesh = _jittered_square(32, seed=2)
    return certify(dom, poly_approx_of_polygon(dom), mesh, SourceTerm.sin_product(), "exact").to_json()


def test_reported_numbers_do_not_depend_on_quadrature_kernel(monkeypatch):
    """Every reported digit is the same with the einsum quadrature points."""

    def run():
        return [disk_study_row(30, 3, mode) for mode in fem.FH_MODES], _square_certify_json()

    rows, report = run()
    calls = []
    monkeypatch.setattr(fem, "_quadrature_points", lambda *a: calls.append(1) or _einsum_quadrature_points(*a))
    ref_rows, ref_report = run()
    assert calls
    for row, ref in zip(rows, ref_rows):
        assert dataclasses.asdict(row) == dataclasses.asdict(ref)
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
    for seed in range(3):
        r = np.random.default_rng(seed).normal(size=a_mat.shape[0])
        z = np.empty_like(r)
        apply(r, z)
        assert z == pytest.approx(np.linalg.solve(m_dense, r), rel=1e-12)


@pytest.mark.parametrize("name", sorted(LINE_MESHES))
def test_line_matrix_is_symmetric_and_strictly_dominant(name):
    a_mat = _poisson_system(LINE_MESHES[name]()).matrix
    m_dense = _kept_line_matrix(a_mat)[0]
    assert np.array_equal(m_dense, m_dense.T)
    off = np.abs(m_dense).sum(axis=1) - np.diag(m_dense)
    assert np.all(np.diag(m_dense) > off)
    assert np.count_nonzero(off) == a_mat.shape[0] - (1 if name == "fan-cycles" else 0)  # all but the centre


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
    row = disk_study_row(50, 5, mesh=mesh)
    assert row.iterations <= 60
    system = _poisson_system(mesh, disk.f)
    x, _, _, ok = _jacobi_cg(system)
    full = np.zeros(mesh.node_count)
    full[system.interior] = x
    assert ok
    assert row.actual == pytest.approx(actual_l2_error(disk, poly, mesh, FemSolution(full, 0, 0.0, True, mesh)), rel=1e-9)
