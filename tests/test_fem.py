import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from certifem import fem
from certifem import (
    ConvexPolygon,
    Disk,
    FemSolution,
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


def test_3d_mass_and_stiffness():
    mesh = build_mesh(3, [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], [[0, 1, 2, 3]])
    m = assemble_mass(mesh)
    assert m.sum() == pytest.approx(1.0 / 6.0, rel=1e-13)
    k = assemble_stiffness(mesh)
    assert np.abs(np.asarray(k.sum(axis=1))).max() <= 1e-14
    fh = build_fh(mesh, SourceTerm.constant(1.0, dim=3), "barycentric")
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
