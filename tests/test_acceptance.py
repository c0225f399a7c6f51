"""End-to-end acceptance suite.

Each test checks one acceptance criterion at its stated tolerance and
prints a single PASS/FAIL line (run with -s or -v to see them inline).
"""

import math
import os
import time

import numpy as np
import pytest

import certifem as cf
from conftest import (
    nonblunt_corner_apexes,
    nonblunt_triangle,
    sample_nonblunt_apex,
    sample_triangle,
    triangle_from_angles,
)
from spectral_probe import rayleigh_lower_bound
from oracles import (
    BESSEL_J0_FIRST_ZERO,
    REFERENCE_DELAUNAY,
    barrier_check,
    element_constants,
    fh_error_measured,
    liu_bound,
    nonblunt_profile_bound,
    structured_square_mesh,
)
from test_verify import disk_gap, segment_quadrature_oracle

M_SWEEP = (10, 20, 30, 40, 50)
NONBLUNT_LIMIT = math.sqrt(11.0 / 60.0)


def _report(criterion: str, passed: bool, detail: str = "") -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} {detail}".rstrip())
    assert passed, f"criterion {criterion} failed: {detail}"


@pytest.fixture(scope="module")
def disk_sweep():
    """The paper's table for criteria 1 and 2, as `certifem verify --exact
    disk2d --generate m,k ...` runs it, with wall-clock timing."""
    exact = cf.registry()["disk2d"]
    start = time.perf_counter()
    fans = (cf.generate_fan_refined(cf.inscribed_regular_polygon(exact.domain, m), cf.default_refine_rule(m)) for m in M_SWEEP)
    rows = cf.convergence_study(exact, fans).levels
    elapsed = time.perf_counter() - start
    return rows, elapsed


def test_criterion_1_bound_validity(disk_sweep):
    rows, elapsed = disk_sweep
    ok = True
    for row in rows:
        ok &= row.actual <= row.predicted
        ok &= row.actual <= row.certified.total
    ok &= elapsed < 10.0
    detail = f"5 runs in {elapsed:.2f}s; " + "; ".join(
        f"m={r.m}: actual={r.actual:.3e} <= predicted={r.predicted:.3e}" for r in rows
    )
    _report("1 (bound validity, <10s)", ok, detail)


def test_criterion_2_order_of_magnitude(disk_sweep):
    rows, _ = disk_sweep
    ok = True
    lines = []
    for row in rows:
        ref = REFERENCE_DELAUNAY[row.m]
        ratio = row.predicted / row.actual
        lines.append(
            f"m={row.m}: ratio={ratio:.2f} "
            f"[built-in actual={row.actual:.3e} predicted={row.predicted:.3e}; "
            f"reference actual={ref[0]:.3e} predicted={ref[1]:.3e}]"
        )
        if row.m >= 20:
            ok &= 1.0 < ratio < 12.0
    _report("2 (predicted/actual in (1,12) for m>=20)", ok, " | ".join(lines))


def test_criterion_3_fixture_mechanics(tmp_path):
    """The external-mesh path: a node/ele export feeds the same pipeline and
    reproduces the in-memory run."""
    m, k = 20, 2
    poly = cf.inscribed_regular_polygon(cf.Disk(1.0), m)
    mesh = cf.generate_fan_refined(poly, k)
    base = str(tmp_path / f"m{m}")
    cf.save(mesh, base, "node_ele")
    reloaded = cf.load(base + ".node")
    row_mem = cf.disk_study_row(m, k)
    (row_ext,) = cf.convergence_study(cf.registry()["disk2d"], [reloaded]).levels
    ok = (
        abs(row_ext.actual - row_mem.actual) <= 1e-12 * row_mem.actual
        and abs(row_ext.predicted - row_mem.predicted) <= 1e-12 * row_mem.predicted
        and row_ext.actual <= row_ext.predicted
    )
    _report("3 (node/ele ingestion mechanics)", ok,
            f"external m={m}: actual={row_ext.actual:.6e} == in-memory {row_mem.actual:.6e}")


FIXTURE_DIR = os.path.join(os.path.dirname(__file__), "fixtures", "delaunay")


@pytest.mark.skipif(
    not os.path.isdir(FIXTURE_DIR),
    reason="optional: drop Delaunay .node/.ele exports (m10..m50) into tests/fixtures/delaunay/",
)
def test_criterion_3_reference_reproduction():
    """With a user-supplied Delaunay export of the m-gon at the reference
    resolution, the measured error must match the reference within 5%."""
    exact = cf.registry()["disk2d"]
    ok = True
    details = []
    for m, (ref_actual, _) in REFERENCE_DELAUNAY.items():
        base = os.path.join(FIXTURE_DIR, f"m{m}")
        if not os.path.exists(base + ".node"):
            continue
        mesh = cf.load(base + ".node")
        (row,) = cf.convergence_study(exact, [mesh]).levels
        details.append(f"m={m}: actual={row.actual:.3e} ref={ref_actual:.3e}")
        ok &= row.m == m and row.predicted is not None  # the regular m-gon
        ok &= abs(row.actual - ref_actual) <= 0.05 * ref_actual
    _report("3 (reference reproduction within 5%)", ok, " | ".join(details))


def test_criterion_4_nonblunt_constant():
    rng = np.random.default_rng(4)
    apexes = nonblunt_corner_apexes(50) + [sample_nonblunt_apex(rng) for _ in range(9950)]
    worst_kob = 0.0
    worst_profile = 0.0
    for a, b in apexes:
        kob = cf.kobayashi_bound_2d(nonblunt_triangle(a, b))
        worst_kob = max(worst_kob, kob)
        worst_profile = max(worst_profile, nonblunt_profile_bound(a, b))
    ok = worst_kob <= NONBLUNT_LIMIT + 1e-12
    # sharpness witness: the case-analysis profile reaches the constant
    # (the closed-form formula itself tops out at sqrt(2/15) ~ 0.365)
    ok &= abs(worst_profile - NONBLUNT_LIMIT) <= 1e-3
    _report(
        "4 (non-obtuse constant sqrt(11/60))",
        ok,
        f"max formula={worst_kob:.7f} <= {NONBLUNT_LIMIT:.7f}; witness profile={worst_profile:.7f}",
    )


def test_criterion_5_closed_form_dominance():
    rng = np.random.default_rng(5)
    ok = True
    for _ in range(10000):
        t = sample_triangle(rng)
        kob = cf.kobayashi_bound_2d(t)
        ok &= kob <= cf.circumradius(t) * (1.0 + 1e-12)
        closed_form = cf.min_angle_global(cf.min_angle(t), cf.edge_lengths(t)[0])
        ok &= liu_bound(t) <= closed_form * (1.0 + 1e-12)
        # elementwise, Kobayashi's maximum, is at least as sharp as minangle
        ok &= kob <= closed_form
        if not ok:
            break
    _report("5 (circumradius and min-angle domination, 1e4 samples)", ok)


def test_criterion_6_oracle_consistency():
    rng = np.random.default_rng(6)
    ok = True
    checked = 0
    worst_gap = math.inf
    while checked < 98:
        t = sample_triangle(rng, min_area=1e-4)
        if math.degrees(cf.min_angle(t)) < 5.0:
            continue
        lo = rayleigh_lower_bound(t, 4)
        best = element_constants(t).h1_best
        ok &= lo <= best * (1.0 + 1e-9)
        worst_gap = min(worst_gap, best - lo)
        checked += 1
    for angles_deg in ((5.0, 170.0), (5.0, 87.5)):
        t = triangle_from_angles(*angles_deg)
        lo = rayleigh_lower_bound(t, 4)
        best = element_constants(t).h1_best
        ok &= lo <= best * (1.0 + 1e-9)
        checked += 1
    eq = cf.triangle([0, 0], [1, 0], [0.5, math.sqrt(3) / 2])
    kob_eq = cf.kobayashi_bound_2d(eq)
    ok &= abs(kob_eq - 0.3476108) <= 1e-6
    _report(
        "6 (spectral lower bound <= certified upper, 100 triangles)",
        ok,
        f"min upper-lower gap={worst_gap:.2e}; equilateral formula={kob_eq:.7f}",
    )


def test_criterion_7_gap_barrier():
    exact = cf.registry()["disk2d"]
    ok = True
    for m in range(3, 101):
        rep = barrier_check(exact, cf.inscribed_regular_polygon(exact.domain, m), seed=0)
        ok &= rep.passed
    rep10 = barrier_check(exact, cf.inscribed_regular_polygon(exact.domain, 10), seed=0)
    closed = math.sin(math.pi / 10) ** 2 / 4.0
    ok &= abs(rep10.max_abs_u - closed) <= 1e-6
    _report(
        "7 (gap barrier, m=3..100)",
        ok,
        f"m=10: measured max={rep10.max_abs_u:.8f} vs closed form {closed:.8f}, bound={rep10.bound:.8f}",
    )


def test_criterion_8_poincare(disk_sweep):
    rows, _ = disk_sweep
    ok = True
    details = []
    for m in (10, 50):
        poly = cf.inscribed_regular_polygon(cf.Disk(1.0), m)
        mesh = cf.generate_fan_refined(poly, cf.default_refine_rule(m))
        sol, _ = cf.solve_poisson(mesh, cf.registry()["disk2d"].f, "exact")
        lhs, rhs = cf.poincare_residual(mesh, sol, 2.0)
        ok &= lhs <= rhs
        details.append(f"disk m={m}: {lhs:.4e} <= {rhs:.4e}")
    for n in (8, 16):
        mesh = structured_square_mesh(n)
        sol, _ = cf.solve_poisson(mesh, cf.registry()["square2d"].f, "nodal")
        lhs, rhs = cf.poincare_residual(mesh, sol, math.sqrt(2.0))
        ok &= lhs <= rhs
        details.append(f"square n={n}: {lhs:.4e} <= {rhs:.4e}")
    # documented exact constant of the unit disk vs the geometric bound
    exact_cp = 1.0 / BESSEL_J0_FIRST_ZERO
    geom_cp = math.sqrt(2.0) / math.pi
    ok &= exact_cp < geom_cp
    details.append(f"disk exact C_P={exact_cp:.5f} < bound {geom_cp:.5f}")
    _report("8 (discrete Poincare inequality)", ok, "; ".join(details))


def test_criterion_9_source_term_bounds():
    rng = np.random.default_rng(9)
    disk = cf.Disk(1.0)
    mesh = cf.generate_fan_refined(cf.inscribed_regular_polygon(disk, 16), 2)
    ok = True
    worst = math.inf
    for _ in range(20):
        a, b, c, d = rng.normal(size=4)
        # isotropic quadratic: exact sup of |grad f| over the disk
        f = cf.SourceTerm(
            evaluate=lambda p, a=a, b=b, c=c, d=d: (
                a
                + b * np.asarray(p)[..., 0]
                + c * np.asarray(p)[..., 1]
                + d * ((np.asarray(p) ** 2).sum(axis=-1))
            ),
            sup_norm=abs(a) + math.hypot(b, c) + abs(d),
            grad_sup_norm=math.hypot(b, c) + 2.0 * abs(d),
        )
        measured = fh_error_measured(mesh, f, "barycentric")
        bound = cf.fh_perturbation_bound(mesh, f, "barycentric")
        ok &= measured <= bound
        if measured > 0:
            worst = min(worst, bound / measured)
    sinsin = cf.SourceTerm.sin_product()
    details = [f"20 quadratics: min bound/measured={worst:.2f}"]
    for n in (8, 16, 32):
        sq = structured_square_mesh(n)
        measured = fh_error_measured(sq, sinsin, "nodal")
        bound = cf.fh_perturbation_bound(sq, sinsin, "nodal")
        ok &= measured <= bound
        details.append(f"sinsin n={n}: {measured:.3e} <= {bound:.3e}")
    _report("9 (source perturbation bounds)", ok, "; ".join(details))


def test_criterion_10_convergence_and_closed_form():
    meshes = [structured_square_mesh(n) for n in (8, 16, 32)]
    exact = cf.registry()["square2d"]
    report = cf.convergence_study(exact, meshes)
    ok = 1.8 <= report.slope <= 2.2
    closed_forms = [cf.certify_closed_form_2d(exact.domain, mesh, exact.f) for mesh in meshes]
    for lv, closed_form in zip(report.levels, closed_forms):
        ok &= lv.actual <= lv.certified.total
        ok &= lv.actual <= closed_form
    _report(
        "10 (O(h^2) convergence + closed-form bound)",
        ok,
        f"slope={report.slope:.3f}; "
        + "; ".join(
            f"{lv.nodes} nodes: {lv.actual:.3e} <= {lv.certified.total:.3e}, closed form {closed_form:.3e}"
            for lv, closed_form in zip(report.levels, closed_forms)
        ),
    )


def test_criterion_11_gap_integral_oracle():
    ok = True
    details = []
    for m in (4, 10):
        ours = disk_gap(m)
        oracle = segment_quadrature_oracle(m)
        rel = abs(ours - oracle) / oracle
        ok &= rel <= 1e-10
        details.append(f"m={m}: rel diff={rel:.2e}")
    _report("11 (gap integral vs segment quadrature)", ok, "; ".join(details))
