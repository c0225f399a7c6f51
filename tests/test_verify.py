import math

import numpy as np
import pytest

from certifem import (
    BoundViolationError,
    CertifemError,
    Disk,
    NotInscribedError,
    FemSolution,
    StrategyInapplicableError,
    actual_l2_error,
    build_mesh,
    convergence_study,
    default_refine_rule,
    disk_study_row,
    generate_fan_refined,
    inscribed_regular_polygon,
    l2_error_interior,
    make_poly_approx,
    poly_approx_of_polygon,
    quality,
    registry,
    run_disk_study,
    solve_poisson,
    verify_case,
)
from certifem import estimator as estmod
from certifem.fem import FH_MODES
from certifem.interp_constants import STRATEGIES
from certifem.quadrature import gauss_legendre
from certifem.verify import _segment_l2_sq
from oracles import BESSEL_J0_FIRST_ZERO, U_L2_NORM, barrier_check, boundary_point, element_metrics, structured_square_mesh

mpmath = pytest.importorskip("mpmath")


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
    assert set(reg) == set(U_L2_NORM) == {"disk2d", "square2d", "square2d-poly"}
    assert U_L2_NORM["disk2d"] == pytest.approx(0.2558317, abs=1e-7)
    assert reg["square2d-poly"].f.name == "poly:0,2,2,-2,0,-2"


def test_registry_solutions_vanish_on_boundary():
    for name, exact in registry().items():
        for t in np.linspace(0.0, 1.0, 1000, endpoint=False):
            p = boundary_point(exact.domain, float(t))
            assert abs(float(exact.u(p))) <= 1e-10, name


def test_registry_laplacian_matches_source(rng):
    # -Lap u by central differences, h = 1e-3: truncation
    # h^2/12 (|u_xxxx| + |u_yyyy|) <= 1.7e-5 for square2d, rounding only
    # for the quadratic disk2d solution
    h = 1e-3
    for name, exact in registry().items():
        pts = []
        while len(pts) < 1000:
            cand = rng.uniform(-1.0, 1.5, size=2)
            if bool(np.asarray(exact.domain.contains(cand))):
                pts.append(cand)
        pts = np.array(pts)
        lap = -4.0 * exact.u(pts)
        for e in np.eye(2):
            lap = lap + exact.u(pts + h * e) + exact.u(pts - h * e)
        f = np.asarray(exact.f.evaluate(pts))
        assert np.abs(-lap / (h * h) - f).max() <= 1e-5 * np.abs(f).max(), name


def disk_gap(m: int) -> float:
    """The squared L2 norm of the disk solution over the gap between the unit
    disk and the inscribed regular m-gon."""
    return registry()["disk2d"].gap_l2_sq(inscribed_regular_polygon(Disk(1.0), m))


def _squared_norm_disk2d(exact):
    # the degree-4 rule integrates u^2 exactly on the m-gon; the closed-form
    # gap term adds the segments between the m-gon and the circle
    for m in (3, 7, 20):
        mesh = generate_fan_refined(inscribed_regular_polygon(exact.domain, m), 2)
        yield _squared_norm_on(mesh, exact) + disk_gap(m)


def _squared_norm_square2d(exact):
    yield _squared_norm_on(structured_square_mesh(64), exact)


def _squared_norm_on(mesh, exact):
    zero = FemSolution(np.zeros(mesh.node_count), 0, 0.0, True)
    return l2_error_interior(mesh, zero, exact.u) ** 2


@pytest.mark.parametrize("name", sorted(registry()))
def test_registry_u_l2_norm_matches_quadrature(name):
    exact = registry()[name]
    squared = {"disk2d": _squared_norm_disk2d, "square2d": _squared_norm_square2d, "square2d-poly": _squared_norm_square2d}[name]
    for value in squared(exact):
        assert value == pytest.approx(U_L2_NORM[name] ** 2, rel=1e-12)


def test_gap_error_term_monotone():
    assert disk_gap(100) < disk_gap(50) < disk_gap(10)


def test_gap_error_term_against_oracle():
    for m in (4, 10):
        ours = disk_gap(m)
        oracle = segment_quadrature_oracle(m)
        assert abs(ours - oracle) <= 1e-10 * oracle


def _mp_segment_l2_sq(alpha):
    """(1/15) int_0^alpha sin^6 t dt in 40-digit arithmetic, written as
    alpha^7 / 15 int_0^1 (sin(alpha s) / alpha)^6 ds so that the quadrature
    sees an integrand of size ~1 at every alpha."""
    with mpmath.workdps(40):
        a = mpmath.mpf(alpha)
        return a**7 / 15 * mpmath.quad(lambda s: (mpmath.sin(a * s) / a) ** 6, [0, 1])


def test_segment_rule_against_mpmath():
    alphas = np.concatenate([[1e-6, 1e-3, 1e-2], np.linspace(0.05, math.pi - 1e-3, 60), [math.pi - 1e-9]])
    ours = _segment_l2_sq(alphas)
    for alpha, got in zip(alphas, ours):
        ref = _mp_segment_l2_sq(alpha)
        assert abs(got - ref) <= 1e-14 * ref, alpha


def test_disk_gap_of_regular_polygons_against_mpmath():
    exact = registry()["disk2d"]
    for m in range(3, 101):
        ref = m * _mp_segment_l2_sq(mpmath.pi / m)
        got = exact.gap_l2_sq(inscribed_regular_polygon(exact.domain, m))
        assert abs(got - ref) <= 1e-14 * ref, m


def test_gap_error_term_large_m_against_mpmath():
    for m in (64, 100):
        ref = m * _mp_segment_l2_sq(mpmath.pi / m)
        assert abs(disk_gap(m) - ref) <= 1e-13 * ref, m


def _random_inscribed_polygons(count=20, seed=12):
    """Seeded polygons with random vertices on the unit circle; the first
    two keep every vertex on an arc shorter than a half circle."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        k = int(rng.integers(3, 13))
        span = rng.uniform(0.5, 0.9) * math.pi if i < 2 else 2.0 * math.pi
        ang = np.sort(rng.uniform(0.0, span, k)) + rng.uniform(0.0, 2.0 * math.pi)
        yield make_poly_approx(Disk(1.0), np.stack([np.cos(ang), np.sin(ang)], axis=1))


def test_random_inscribed_polygons_verify():
    exact = registry()["disk2d"]
    polys = list(_random_inscribed_polygons())
    assert sum(bool(p.signed_facet_distances(np.zeros(2)) > 0.0) for p in polys) >= 2
    for poly in polys:
        # independent oracle: ||u||^2 over the disk minus the degree-4 rule,
        # exact for u^2, over the polygon
        coarse = generate_fan_refined(poly, 0)
        inside = _squared_norm_on(coarse, exact)
        assert exact.gap_l2_sq(poly) == pytest.approx(U_L2_NORM["disk2d"] ** 2 - inside, abs=1e-14)
        _, measured, certified = verify_case(exact, generate_fan_refined(poly, 2))
        assert 0.0 < measured <= certified.total


def test_verify_case_raises_when_measured_exceeds_certified(monkeypatch):
    import dataclasses

    certify = estmod.certify
    tiny = (estmod.Term("tiny", 1e-12, 0),)
    monkeypatch.setattr(estmod, "certify", lambda *a, **k: dataclasses.replace(certify(*a, **k), terms=tiny))
    exact = registry()["disk2d"]
    poly = inscribed_regular_polygon(exact.domain, 8)
    with pytest.raises(BoundViolationError):
        verify_case(exact, generate_fan_refined(poly, 1))


def test_gap_and_barrier_reject_polygon_of_another_disk():
    exact = registry()["disk2d"]
    poly = inscribed_regular_polygon(Disk(2.0), 8)
    mesh = generate_fan_refined(poly, 0)
    sol, _ = solve_poisson(mesh, exact.f, "exact")
    with pytest.raises(NotInscribedError):
        actual_l2_error(exact, poly, mesh, sol)
    with pytest.raises(NotInscribedError):
        barrier_check(exact, poly)


def test_square_gap_rejects_polygon_inside_square():
    exact = registry()["square2d"]
    assert exact.gap_l2_sq(poly_approx_of_polygon(exact.domain)) == 0.0
    diamond = make_poly_approx(exact.domain, [[0.5, 0.0], [1.0, 0.5], [0.5, 1.0], [0.0, 0.5]])
    with pytest.raises(CertifemError):
        exact.gap_l2_sq(diamond)


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
    assert got == pytest.approx(U_L2_NORM["disk2d"], abs=1e-6)


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


def _predicted(a_h: float, m: int) -> float:
    """The paper's bound sqrt(pi) (A_m^2 + 2 sin^2(pi / 2m)), written out."""
    return math.sqrt(math.pi) * (a_h * a_h + 2.0 * math.sin(math.pi / (2.0 * m)) ** 2)


def _inscribed_fan(angles: np.ndarray, refine: int = 1):
    """The fan of the polygon with corners on the unit circle at `angles`."""
    poly = make_poly_approx(Disk(1.0), np.stack([np.cos(angles), np.sin(angles)], axis=1))
    return generate_fan_refined(poly, refine)


def test_disk_study_row_fields():
    row = disk_study_row(12, 1)
    mesh = generate_fan_refined(inscribed_regular_polygon(Disk(1.0), 12), 1)
    assert (row.m, row.nodes, row.h) == (12, mesh.node_count, quality(mesh).h)
    assert 0 < row.actual < row.predicted
    assert row.actual <= row.certified.total


def test_disk_study_external_mesh_matches_generated(tmp_path):
    """On the fans m = 10..50, `predicted` is the paper's formula on the
    certified `a_h`, bit for bit, and the same fan reloaded from .node
    predicts the same."""
    from certifem import load, save

    exact = registry()["disk2d"]
    for m in range(10, 51, 10):
        row = disk_study_row(m)
        assert row.m == m
        assert row.predicted == _predicted(row.certified.metadata["a_h"], m)
        path = str(tmp_path / f"m{m}.node")
        save(generate_fan_refined(inscribed_regular_polygon(exact.domain, m), default_refine_rule(m)), path)
        (loaded,) = convergence_study(exact, [load(path)]).levels
        assert (loaded.m, loaded.actual, loaded.predicted) == (m, row.actual, row.predicted)


def test_rotated_regular_polygon_gets_a_prediction():
    ang = 2.0 * math.pi * np.arange(12) / 12 + 0.3
    (level,) = convergence_study(registry()["disk2d"], [_inscribed_fan(ang)]).levels
    assert level.m == 12
    assert level.actual < level.predicted == _predicted(level.certified.metadata["a_h"], 12)


def test_irregular_inscribed_polygon_verifies_without_prediction(tmp_path):
    """An inscribed 12-gon with unequal chords has no predicted bound: its
    level reports None, and `certifem verify` writes null and exits 0."""
    import json

    from certifem import cli, save

    mesh = _inscribed_fan(np.sort(np.random.default_rng(1).uniform(0.0, 2.0 * math.pi, 12)))
    (level,) = convergence_study(registry()["disk2d"], [mesh]).levels
    assert level.m == 12 and level.predicted is None
    assert 0.0 < level.actual <= level.certified.total
    path, out = str(tmp_path / "irregular.node"), str(tmp_path / "v.json")
    save(mesh, path)
    assert cli.main(["verify", "--exact", "disk2d", "--mesh", path, "--out", out]) == 0
    (obj,) = json.load(open(out))["levels"]
    assert obj["m"] == 12 and obj["predicted"] is None


def test_measured_error_above_prediction_raises(monkeypatch, capsys):
    """A hook that predicts half the measured error is a bound violation:
    `convergence_study` raises, and `certifem verify` exits 3."""
    import dataclasses

    from certifem import cli
    from certifem import verify as vermod

    exact = registry()["disk2d"]
    mesh = generate_fan_refined(inscribed_regular_polygon(exact.domain, 10), 1)
    _, measured, _ = verify_case(exact, mesh)
    halved = dataclasses.replace(exact, predicted=lambda poly, certified: 0.5 * measured)
    with pytest.raises(BoundViolationError, match="exceeds predicted bound"):
        convergence_study(halved, [mesh])
    monkeypatch.setattr(vermod, "registry", lambda: {"disk2d": halved})
    assert cli.main(["verify", "--exact", "disk2d", "--generate", "10,1"]) == 3
    assert "BOUND VIOLATED" in capsys.readouterr().err


def test_run_disk_study_runs_rows_one_at_a_time():
    with pytest.raises(ValueError, match="threads must be 1"):
        run_disk_study([10], threads=2)
    assert run_disk_study([]) == []


def test_convergence_study_report():
    """One `verify_case` row per mesh, in order, and an O(h^2) slope."""
    exact = registry()["square2d"]
    meshes = [structured_square_mesh(n) for n in (4, 8, 16)]
    report = convergence_study(exact, meshes)
    assert report.exact == "square2d"
    assert [lv.nodes for lv in report.levels] == [25, 81, 289]
    assert report.levels[0].actual > report.levels[1].actual > report.levels[2].actual
    for lv, mesh in zip(report.levels, meshes):
        _, actual, certified = verify_case(exact, mesh)
        assert lv.actual == actual <= lv.certified.total
        assert lv.certified.to_json() == certified.to_json()
        assert lv.h == quality(mesh).h
    assert 1.8 <= report.slope <= 2.2
    assert convergence_study(exact, meshes[:1]).slope is None
    assert convergence_study(exact, meshes[:1] * 2).slope is None  # one mesh size


def test_convergence_study_certifies_once_per_level(monkeypatch):
    """With the defaults, exact f_h and the element-wise A_h, as `certify`."""
    calls = []
    certify = estmod.certify

    def spy(dom, mesh, f, fh_mode="exact", strategy="elementwise", **kwargs):
        calls.append((fh_mode, strategy))
        return certify(dom, mesh, f, fh_mode, strategy, **kwargs)

    monkeypatch.setattr(estmod, "certify", spy)
    convergence_study(registry()["square2d"], (structured_square_mesh(n) for n in (4, 8, 16)))
    assert calls == [("exact", "elementwise")] * 3


def test_disk_poincare_constant_documented():
    # exact constant of the unit disk vs the dimension-only bound
    assert 1.0 / BESSEL_J0_FIRST_ZERO == pytest.approx(0.41583, abs=1e-5)
    assert 1.0 / BESSEL_J0_FIRST_ZERO < math.sqrt(2.0) / math.pi


def test_disk_study_row_builds_each_mesh_quantity_once(monkeypatch):
    import dataclasses

    from certifem import assemble_stiffness
    from certifem import domain as domainmod
    from certifem import fem as femmod
    from certifem import mesh as meshmod

    seen = {}

    def spy(module, name):
        build = getattr(module, name)

        def wrapper(mesh):
            seen.setdefault(name, []).append(mesh)
            return build(mesh)

        monkeypatch.setattr(module, name, wrapper)

    spy(meshmod, "_boundary_polytope")
    spy(meshmod, "_quality")
    spy(femmod, "assemble_stiffness")
    polys = []
    make = domainmod.make_poly_approx

    def counted(*args):
        polys.append(args)
        return make(*args)

    monkeypatch.setattr(domainmod, "make_poly_approx", counted)
    monkeypatch.setattr(meshmod, "make_poly_approx", counted)
    disk_study_row(10, 1)

    # the generator's regular 10-gon and `polytope_of_mesh`'s polygon; the
    # prediction reads the polygon that verify_case cached on the mesh
    assert len(polys) == 2

    # one boundary walk gives the polytope that verify_case measures and
    # certify bounds; quality and the element-wise constants walk blocks of
    # elements: no whole-mesh metric arrays are built or left on the mesh
    assert {name: len(seen.get(name, ())) for name in ("_boundary_polytope", "_quality", "assemble_stiffness")} == {
        "_boundary_polytope": 1,
        "_quality": 1,
        "assemble_stiffness": 1,
    }
    final = seen["_quality"][0]
    assert final.element_count == 40
    assert seen["assemble_stiffness"][0] is final and seen["_boundary_polytope"][0] is final
    assert "metrics" not in final._cache

    em = element_metrics(final)
    arrays = [getattr(em, f.name) for f in dataclasses.fields(em)]
    arrays = [a for a in arrays if a is not None] + [final.measures]
    stiffness = assemble_stiffness(final)
    arrays += [stiffness.data, stiffness.indices, stiffness.indptr]
    assert all(not a.flags.writeable for a in arrays)
    with pytest.raises(ValueError):
        em.h[0] = 0.0
    assert em.measures is final.measures


def test_disk_study_row_takes_a_m_from_the_elementwise_pass(monkeypatch):
    """A_m, the certified `a_h`, is the Kobayashi maximum of
    `mesh_constants`' element-wise pass, bit for bit the whole-array
    maximum: one Kobayashi call per block of elements, none for the
    prediction alone."""
    from certifem import interp_constants as icmod

    mesh = generate_fan_refined(inscribed_regular_polygon(Disk(1.0), 20), 2)
    blocks = []
    kobayashi = icmod._kobayashi_batch_2d
    monkeypatch.setattr(icmod, "_kobayashi_batch_2d", lambda *a: blocks.append(a) or kobayashi(*a))
    (row,) = convergence_study(registry()["disk2d"], [mesh]).levels
    assert len(blocks) == 1 and mesh.element_count == 320
    em = element_metrics(mesh)
    a_m = float(kobayashi(em.edge_sq, em.measures).max())
    assert row.certified.metadata["a_h"] == a_m and row.predicted == _predicted(a_m, 20)


def test_nodal_disk_study_row_scatters_only_the_stiffness(monkeypatch):
    """Nodal f_h loads and takes its norm element by element: the one
    sparse assembly of a nodal row is the stiffness."""
    from certifem import assemble_stiffness
    from certifem import fem as femmod

    built = []
    scatter = femmod._scatter

    def spy(mesh, rows):
        built.append((mesh, scatter(mesh, rows)))
        return built[-1][1]

    mesh = generate_fan_refined(inscribed_regular_polygon(Disk(1.0), 30), 3)
    monkeypatch.setattr(femmod, "_scatter", spy)
    verify_case(registry()["disk2d"], mesh, "nodal")
    assert len(built) == 1
    mesh, mat = built[0]
    monkeypatch.setattr(femmod, "_scatter", scatter)
    stiffness = assemble_stiffness(mesh)
    for a, b in ((mat.data, stiffness.data), (mat.indices, stiffness.indices), (mat.indptr, stiffness.indptr)):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("mode", ["exact", "barycentric", "nodal"])
def test_disk_study_row_builds_fh_once(monkeypatch, mode):
    from certifem import fem as femmod

    modes = []
    build = femmod.build_fh

    def spy(mesh, f, fh_mode="exact"):
        modes.append(fh_mode)
        return build(mesh, f, fh_mode)

    mesh = generate_fan_refined(inscribed_regular_polygon(Disk(1.0), 10), 1)
    monkeypatch.setattr(femmod, "build_fh", spy)
    verify_case(registry()["disk2d"], mesh, mode)
    assert modes == [mode]


def test_run_disk_study_threads_match_serial_with_vcycle(monkeypatch):
    """The rows run one at a time; with the V-cycle forced on the m=30 and
    m=50 rows, each builds one, and every row still verifies."""
    from certifem import fem

    monkeypatch.setattr(fem, "_VCYCLE_MIN_SIZE", 500)  # the m=30 and m=50 rows
    built = []
    cycle = fem._VCycle
    monkeypatch.setattr(fem, "_VCycle", lambda *a: built.append(1) or cycle(*a))
    rows = run_disk_study([20, 30, 50], threads=1)
    assert len(built) == 2
    assert [r.m for r in rows] == [20, 30, 50]
    assert all(0.0 < r.actual <= min(r.predicted, r.certified.total) for r in rows)


# ---------------------------------------------------------------------------
# every accepted (problem, mesh, f_h mode, strategy) combination, end to end

# the meshes of each registry entry; "-file" is the mesh before it, saved as
# .node/.ele and loaded back, so that its polytope comes from a file
CASE_MESHES = {
    "square2d": ("structured", "jittered", "jittered-file"),
    "square2d-poly": ("structured", "jittered", "jittered-file"),
    "disk2d": ("fan", "fan-file"),
}


@pytest.fixture(scope="module")
def case_meshes(tmp_path_factory):
    from certifem import load, save
    from test_mesh import _jittered_square

    meshes = {
        "structured": structured_square_mesh(16),
        "jittered": _jittered_square(16, seed=1),
        "fan": generate_fan_refined(inscribed_regular_polygon(Disk(1.0), 20), 2),
    }
    for name in ("jittered", "fan"):
        path = str(tmp_path_factory.mktemp("meshes") / f"{name}.node")
        save(meshes[name], path)
        meshes[f"{name}-file"] = load(path)
    return meshes


@pytest.mark.parametrize("strategy", (*STRATEGIES, "regularity"))
@pytest.mark.parametrize("fh_mode", FH_MODES)
@pytest.mark.parametrize("entry, mesh_name", [(e, m) for e, names in CASE_MESHES.items() for m in names])
def test_every_accepted_combination_verifies(case_meshes, entry, mesh_name, fh_mode, strategy):
    """Measured error <= certified total through `verify_case`, or a typed
    refusal: `regularity`, removed with 3D, is an unknown strategy, and
    `nonblunt` needs a mesh without obtuse angles."""
    mesh = case_meshes[mesh_name]
    refused = strategy == "regularity" or (strategy == "nonblunt" and mesh_name.startswith("jittered"))
    if refused:
        with pytest.raises(StrategyInapplicableError):
            verify_case(registry()[entry], mesh, fh_mode, strategy)
        return
    _, measured, certified = verify_case(registry()[entry], mesh, fh_mode, strategy)
    assert 0.0 < measured <= certified.total
