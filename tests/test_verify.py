import math

import numpy as np
import pytest

from certifem import (
    CertifemError,
    Disk,
    actual_l2_error,
    barrier_check,
    build_mesh,
    convergence_study,
    default_refine_rule,
    disk_study_csv,
    disk_study_json,
    disk_study_row,
    gap_error_term,
    generate_fan_refined,
    inscribed_regular_polygon,
    l2_error_interior,
    poly_approx_of_polygon,
    quality,
    registry,
    run_disk_study,
    solve_poisson,
    structured_square_mesh,
)
from certifem.quadrature import gauss_legendre
from certifem.verify import BESSEL_J0_FIRST_ZERO, REFERENCE_DELAUNAY


def segment_quadrature_oracle(m: int, n_theta: int = 120, n_r: int = 24) -> float:
    """Independent 2D tensor-product quadrature over the circular segments."""
    c = math.cos(math.pi / m)
    xs, ws = gauss_legendre(n_theta)
    xr, wr = gauss_legendre(n_r)
    total = 0.0
    for xt, wt in zip(xs, ws):
        theta = xt * math.pi / m
        w_theta = wt * math.pi / m
        r0 = c / math.cos(theta)
        rr = 0.5 * (xr + 1.0) * (1.0 - r0) + r0
        wrr = wr * 0.5 * (1.0 - r0)
        total += w_theta * float((wrr * (1.0 - rr**2) ** 2 * rr).sum())
    return m / 16.0 * total


def test_registry_contents():
    reg = registry()
    assert set(reg) >= {"disk2d", "square2d"}
    assert reg["disk2d"].u_l2_norm == pytest.approx(math.sqrt(math.pi / 48.0), rel=1e-14)
    assert reg["disk2d"].u_l2_norm == pytest.approx(0.2558317, abs=1e-7)
    assert reg["square2d"].u_l2_norm == 0.5


def test_registry_solutions_vanish_on_boundary():
    for name, exact in registry().items():
        for t in np.linspace(0.0, 1.0, 1000, endpoint=False):
            p = exact.domain.boundary_point(float(t))
            assert abs(float(exact.u(p))) <= 1e-10, name


def test_registry_laplacian_matches_source(rng):
    for exact in registry().values():
        dim = exact.domain.dim
        pts = []
        while len(pts) < 1000:
            cand = rng.uniform(-1.0, 1.0, size=dim) if dim == 3 else rng.uniform(-1.0, 1.5, size=dim)
            if bool(np.asarray(exact.domain.contains(cand))):
                pts.append(cand)
        pts = np.array(pts)
        lhs = np.asarray(exact.minus_laplacian(pts))
        rhs = np.asarray(exact.f.evaluate(pts))
        assert np.abs(lhs - rhs).max() <= 1e-10


def test_gap_error_term_monotone():
    assert gap_error_term(100) < gap_error_term(50) < gap_error_term(10)


def test_gap_error_term_against_oracle():
    for m in (4, 10):
        ours = gap_error_term(m)
        oracle = segment_quadrature_oracle(m)
        assert abs(ours - oracle) <= 1e-10 * oracle


def test_gap_error_term_symmetry():
    from certifem.quadrature import adaptive_simpson

    m = 7
    c2 = math.cos(math.pi / m) ** 2

    def g(theta):
        return (1.0 - c2 / math.cos(theta) ** 2) ** 3

    full = adaptive_simpson(g, -math.pi / m, math.pi / m, tol=1e-15)
    half = adaptive_simpson(g, 0.0, math.pi / m, tol=1e-15)
    assert abs(full - 2.0 * half) <= 1e-14


def test_actual_error_square_is_pure_interior():
    exact = registry()["square2d"]
    poly = poly_approx_of_polygon(exact.domain)
    mesh = structured_square_mesh(8)
    sol, _ = solve_poisson(mesh, exact.f, "exact")
    assert actual_l2_error(exact, poly, mesh, sol) == l2_error_interior(mesh, sol, exact.u)


def test_actual_error_zero_solution_equals_solution_norm():
    exact = registry()["disk2d"]
    poly = inscribed_regular_polygon(exact.domain, 3)
    mesh = build_mesh(2, poly.vertices, [[0, 1, 2]])  # no interior nodes
    sol, _ = solve_poisson(mesh, exact.f, "exact")
    assert np.abs(sol.nodal_values).max() == 0.0
    got = actual_l2_error(exact, poly, mesh, sol)
    assert got == pytest.approx(exact.u_l2_norm, abs=1e-6)


def test_actual_error_decreases_under_refinement():
    exact = registry()["disk2d"]
    poly = inscribed_regular_polygon(exact.domain, 20)
    errs = []
    for k in (0, 1, 2):
        mesh = generate_fan_refined(poly, k)
        sol, _ = solve_poisson(mesh, exact.f, "exact")
        errs.append(actual_l2_error(exact, poly, mesh, sol))
    assert errs[0] > errs[1] > errs[2]


def test_actual_error_rejects_unknown_gap():
    exact = registry()["square2d"]
    disk_poly = inscribed_regular_polygon(Disk(1.0), 8)
    mesh = generate_fan_refined(disk_poly, 0)
    sol, _ = solve_poisson(mesh, exact.f, "exact")
    with pytest.raises(CertifemError):
        actual_l2_error(exact, disk_poly, mesh, sol)


def test_barrier_closed_forms():
    exact = registry()["disk2d"]
    rep10 = barrier_check(exact, inscribed_regular_polygon(exact.domain, 10), seed=0)
    assert rep10.passed
    assert rep10.max_abs_u == pytest.approx(math.sin(math.pi / 10) ** 2 / 4.0, abs=1e-9)
    assert rep10.bound == pytest.approx(2.0 * math.sin(math.pi / 20) ** 2, rel=1e-12)
    rep50 = barrier_check(exact, inscribed_regular_polygon(exact.domain, 50), seed=0)
    assert rep50.passed
    assert rep50.max_abs_u == pytest.approx(math.sin(math.pi / 50) ** 2 / 4.0, abs=1e-9)
    assert rep50.bound == pytest.approx(1.97327e-3, rel=1e-5)


def test_barrier_vacuous_for_exact_polygon():
    exact = registry()["square2d"]
    rep = barrier_check(exact, poly_approx_of_polygon(exact.domain))
    assert rep.passed and rep.max_abs_u == 0.0 and rep.samples == 0


def test_barrier_seed_determinism():
    exact = registry()["disk2d"]
    poly = inscribed_regular_polygon(exact.domain, 12)
    a = barrier_check(exact, poly, seed=3)
    b = barrier_check(exact, poly, seed=3)
    assert a.max_abs_u == b.max_abs_u
    assert a.samples == b.samples
    assert np.array_equal(a.worst_point, b.worst_point)


def test_structured_square_mesh_shape():
    mesh = structured_square_mesh(4)
    assert mesh.element_count == 32
    assert mesh.node_count == 25
    q = quality(mesh)
    assert q.nonblunt is True
    assert q.h == pytest.approx(math.sqrt(2) / 4, rel=1e-14)


def test_default_refine_rule():
    assert default_refine_rule(6) == 0
    assert default_refine_rule(10) == 1
    assert default_refine_rule(20) == 2
    assert default_refine_rule(50) == 4


def test_disk_study_row_fields():
    row = disk_study_row(12, 1)
    assert row.m == 12 and row.refine_levels == 1
    assert 0 < row.actual < row.predicted
    assert row.actual <= row.certified.total
    assert row.ratio == pytest.approx(row.predicted / row.actual, rel=1e-15)


def test_disk_study_external_mesh_matches_generated(tmp_path):
    from certifem import load, save

    poly = inscribed_regular_polygon(Disk(1.0), 10)
    mesh = generate_fan_refined(poly, 1)
    base = str(tmp_path / "m10")
    save(mesh, base, "node_ele")
    reloaded = load(base + ".node")
    row_gen = disk_study_row(10, 1)
    row_ext = disk_study_row(10, mesh=reloaded)
    assert row_ext.actual == pytest.approx(row_gen.actual, rel=1e-12)
    assert row_ext.a_m == pytest.approx(row_gen.a_m, rel=1e-12)
    assert row_ext.predicted == pytest.approx(row_gen.predicted, rel=1e-12)


def test_disk_study_row_rejects_mesh_outside_polygon():
    from certifem import NotInscribedError

    # a 12-gon fan inside the 10-gon's disk: its boundary is no 10-gon edge
    mesh = generate_fan_refined(inscribed_regular_polygon(Disk(1.0), 12), 1)
    with pytest.raises(NotInscribedError):
        disk_study_row(10, mesh=mesh)


def test_run_disk_study_threads_match_serial():
    serial = run_disk_study([10, 20, 30], threads=1)
    pooled = run_disk_study([10, 20, 30], threads=2)
    assert [r.m for r in pooled] == [10, 20, 30]
    for a, b in zip(serial, pooled):
        assert a.actual == b.actual
        assert a.iterations == b.iterations
        assert a.certified.to_json() == b.certified.to_json()


def test_run_disk_study_empty_raises():
    with pytest.raises(ValueError):
        run_disk_study([])


def test_disk_study_output_formats():
    rows = run_disk_study([8, 12])
    csv_text = disk_study_csv(rows)
    lines = csv_text.strip().splitlines()
    assert lines[0] == "m,h,A_m,actual,predicted,ratio"
    assert len(lines) == 3
    payload = disk_study_json(rows)
    import json

    obj = json.loads(payload)
    assert obj[0]["m"] == 8
    assert set(obj[0]["certified"]) == {"total", "terms", "metadata"}
    assert obj[0]["reference_delaunay"] is None
    assert set(REFERENCE_DELAUNAY) == {10, 20, 30, 40, 50}


def test_convergence_study_report():
    report = convergence_study((4, 8, 16))
    assert len(report.levels) == 3
    assert report.levels[0].error > report.levels[1].error > report.levels[2].error
    for lv in report.levels:
        assert lv.error <= lv.closed_form_bound
    assert 1.8 <= report.slope <= 2.2


def test_disk_poincare_constant_documented():
    # exact constant of the unit disk vs the dimension-only bound
    assert 1.0 / BESSEL_J0_FIRST_ZERO == pytest.approx(0.41583, abs=1e-5)
    assert 1.0 / BESSEL_J0_FIRST_ZERO < math.sqrt(2.0) / math.pi


def test_disk_study_row_builds_each_mesh_quantity_once(monkeypatch):
    import dataclasses

    from certifem import assemble_stiffness, element_metrics
    from certifem import fem as femmod
    from certifem import mesh as meshmod

    seen = {}

    def spy(module, name):
        build = getattr(module, name)

        def wrapper(mesh):
            seen.setdefault(name, []).append(mesh)
            return build(mesh)

        monkeypatch.setattr(module, name, wrapper)

    spy(meshmod, "_element_metrics")
    spy(meshmod, "_quality")
    spy(femmod, "_assemble_stiffness")
    disk_study_row(10, 1)

    assert {name: len(meshes) for name, meshes in seen.items()} == {
        "_element_metrics": 1,
        "_quality": 1,
        "_assemble_stiffness": 1,
    }
    final = seen["_element_metrics"][0]
    assert final.element_count == 40
    assert seen["_assemble_stiffness"][0] is final

    em = element_metrics(final)
    arrays = [getattr(em, f.name) for f in dataclasses.fields(em)]
    arrays = [a for a in arrays if a is not None] + [meshmod._measures(final)]
    stiffness = assemble_stiffness(final)
    arrays += [stiffness.data, stiffness.indices, stiffness.indptr]
    assert all(not a.flags.writeable for a in arrays)
    with pytest.raises(ValueError):
        em.h[0] = 0.0
    assert em.measures is meshmod._measures(final)


def test_nodal_disk_study_row_assembles_mass_once(monkeypatch):
    from certifem import assemble_mass
    from certifem import fem as femmod

    meshes = []
    build = femmod._assemble_mass
    monkeypatch.setattr(femmod, "_assemble_mass", lambda mesh: meshes.append(mesh) or build(mesh))
    disk_study_row(30, 3, "nodal")
    assert len(meshes) == 1
    mass = assemble_mass(meshes[0])
    assert len(meshes) == 1
    assert not any(a.flags.writeable for a in (mass.data, mass.indices, mass.indptr))


@pytest.mark.parametrize("mode", ["exact", "barycentric", "nodal"])
def test_disk_study_row_builds_fh_once(monkeypatch, mode):
    from certifem import fem as femmod

    modes = []
    build = femmod.build_fh

    def spy(mesh, f, fh_mode="exact"):
        modes.append(fh_mode)
        return build(mesh, f, fh_mode)

    monkeypatch.setattr(femmod, "build_fh", spy)
    disk_study_row(10, 1, mode)
    assert modes == [mode]
