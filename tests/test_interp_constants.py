import dataclasses
import math

import numpy as np
import pytest

from certifem import (
    Disk,
    NegativeRadicandError,
    Simplex,
    build_mesh,
    default_refine_rule,
    disk_study_row,
    generate_fan_refined,
    global_l2_bound,
    inscribed_regular_polygon,
    kobayashi_bound_2d,
    mesh_constants,
    min_angle_global,
    triangle,
)
from certifem import geometry
from certifem import interp_constants as icmod
from certifem.errors import CertifemError
from certifem.geometry import NONBLUNT_TOL
from certifem.interp_constants import _kobayashi_batch_2d, _positive_radicand
from certifem.mesh import MeshQuality, quality
from conftest import (
    nonblunt_corner_apexes,
    nonblunt_triangle,
    random_rotation,
    sample_nonblunt_apex,
    sample_triangle,
    triangle_from_angles,
)
from oracles import (
    _liu_batch,
    angles_and_liu_60,
    element_constants,
    element_metrics,
    liu_bound,
    nonblunt_profile_bound,
)
from spectral_probe import ConstraintRankError, rayleigh_lower_bound
from test_mesh import _jittered_square

EQUILATERAL = triangle([0, 0], [1, 0], [0.5, math.sqrt(3) / 2])
RIGHT_ISO = triangle([0, 0], [1, 0], [0, 1])


def test_liu_hand_values():
    # equilateral: (1 + cos60)/sin60 = sqrt(3); inner radical collapses to 1
    assert liu_bound(EQUILATERAL) == pytest.approx(0.49293 * math.sqrt(4.5), rel=1e-13)
    assert liu_bound(EQUILATERAL) == pytest.approx(1.0456624, abs=1e-6)
    # right isoceles: evaluation at the right angle wins and reduces to the coefficient
    assert liu_bound(RIGHT_ISO) == pytest.approx(0.49293, rel=1e-13)


def test_liu_scaling():
    doubled = triangle([0, 0], [2, 0], [1, math.sqrt(3)])
    assert liu_bound(doubled) == pytest.approx(2 * liu_bound(EQUILATERAL), rel=1e-12)


def test_kobayashi_hand_values():
    assert kobayashi_bound_2d(EQUILATERAL) == pytest.approx(math.sqrt(29.0 / 240.0), rel=1e-13)
    assert kobayashi_bound_2d(EQUILATERAL) == pytest.approx(0.3476108, abs=1e-6)
    assert kobayashi_bound_2d(RIGHT_ISO) == pytest.approx(math.sqrt(29.0 / 120.0), rel=1e-13)
    assert kobayashi_bound_2d(RIGHT_ISO) == pytest.approx(0.4915960, abs=1e-6)


def test_global_l2_bound_values():
    assert global_l2_bound(2, 0.1) == pytest.approx(math.sqrt(3.0 / 83.0) * 0.01, rel=1e-13)
    assert global_l2_bound(2, 0.1) == pytest.approx(0.0019012, abs=1e-7)
    assert global_l2_bound(2, 0.0) == 0.0
    with pytest.raises(ValueError, match="unsupported dimension 3"):
        global_l2_bound(3, 0.5)


def test_element_constants_best_is_min():
    ec = element_constants(EQUILATERAL)
    assert ec.h1_best == min(ec.h1_liu, ec.h1_kobayashi)
    assert ec.h1_best == pytest.approx(0.3476108, abs=1e-6)
    assert ec.l2_bound == pytest.approx(math.sqrt(3.0 / 83.0), rel=1e-13)


def test_mesh_constants_single_equilateral():
    mesh = build_mesh(2, EQUILATERAL.vertices, [[0, 1, 2]])
    gc = mesh_constants(mesh)
    assert gc.elementwise == pytest.approx(0.3476108, abs=1e-6)
    assert gc.circumradius == pytest.approx(1 / math.sqrt(3), rel=1e-12)
    assert gc.nonblunt == pytest.approx(math.sqrt(11.0 / 60.0), rel=1e-12)
    assert gc.value("elementwise") <= min(gc.circumradius, gc.minangle, gc.nonblunt)


def test_mesh_constants_scaling():
    mesh = build_mesh(2, EQUILATERAL.vertices, [[0, 1, 2]])
    big = build_mesh(2, 2.0 * np.asarray(EQUILATERAL.vertices), [[0, 1, 2]])
    gc, gb = mesh_constants(mesh), mesh_constants(big)
    for name in ("elementwise", "circumradius", "minangle", "nonblunt"):
        assert gb.value(name) == pytest.approx(2 * gc.value(name), rel=1e-12)
    assert gb.l2_global == pytest.approx(4 * gc.l2_global, rel=1e-12)


def test_mesh_constants_minangle_right_isoceles():
    mesh = build_mesh(2, RIGHT_ISO.vertices, [[0, 1, 2]])
    gc = mesh_constants(mesh)
    expect = 0.69711 * math.cos(math.pi / 8) ** 2 / math.sin(math.pi / 8) * math.sqrt(2)
    assert gc.minangle == pytest.approx(expect, rel=1e-12)
    assert gc.minangle == pytest.approx(2.1989, abs=2e-4)
    assert min_angle_global(math.pi / 4, math.sqrt(2)) == pytest.approx(expect, rel=1e-15)


@pytest.mark.parametrize(
    "name, value",
    [
        ("NONBLUNT_COEFF", math.nextafter(icmod.NONBLUNT_COEFF, 0.0)),
        ("L2_COEFF_2D", math.nextafter(icmod.L2_COEFF_2D, 0.0)),
        ("MIN_ANGLE_COEFF", 0.6971),
    ],
)
def test_coefficient_self_test_refuses_a_coefficient_below_its_value(monkeypatch, name, value):
    icmod._check_coefficients()
    monkeypatch.setattr(icmod, name, value)
    with pytest.raises(CertifemError, match="below the square root"):
        icmod._check_coefficients()


def test_mesh_constants_blunt_mesh_has_no_nonblunt_value():
    poly3 = inscribed_regular_polygon(Disk(1.0), 3)
    mesh = generate_fan_refined(poly3, 0)  # 120-degree apex angles
    gc = mesh_constants(mesh)
    assert gc.nonblunt is None
    from certifem import StrategyInapplicableError

    with pytest.raises(StrategyInapplicableError):
        gc.value("nonblunt")
    with pytest.raises(StrategyInapplicableError, match="unknown strategy 'regularity'"):
        gc.value("regularity")


def test_batch_matches_scalar(rng):
    tris = [sample_triangle(rng) for _ in range(10)]
    nodes = np.vstack([t.vertices for t in tris])
    elements = np.arange(30).reshape(-1, 3)
    mesh = build_mesh(2, nodes, elements)
    em = element_metrics(mesh)
    liu = _liu_batch(em.edge_sq, em.measures)
    kob = _kobayashi_batch_2d(em.edge_sq, em.measures)
    for i in range(mesh.element_count):
        t = Simplex(mesh.nodes[mesh.elements[i]])
        assert liu[i] == pytest.approx(liu_bound(t), rel=1e-10)
        assert kob[i] == pytest.approx(kobayashi_bound_2d(t), rel=1e-10)


def test_nonpositive_radicand_raises():
    """A radicand that is not > 0, NaN included, raises instead of setting
    the element's constant to 0; the error names the first such element."""
    q = np.zeros(3, dtype=int)
    np.testing.assert_array_equal(_positive_radicand(np.array([0.25, 1e-300, 3.0]), 0, q), [0.25, 1e-300, 3.0])
    for bad in (-1e-13, 0.0, -0.0, math.nan):
        with pytest.raises(NegativeRadicandError, match=r"^element 5: "):
            _positive_radicand(np.array([0.25, bad, -1.0]), 4, q)


def test_radicand_report_is_in_the_original_units():
    """On an element scaled by 4**-q the error names the radicand times 4**q."""
    q = np.array([100])
    with pytest.raises(NegativeRadicandError, match=r"^element 7: radicand -1\.607e\+47 is not positive$"):
        _positive_radicand(np.array([-1e-13]), 7, q)


HUGE_TRIANGLE = np.array([[0.0, 0.0], [1.0, 0.5], [0.5, 1.0]])


def test_liu_and_kobayashi_run_on_unit_sized_elements():
    """Edges of 1e80 overflow their sixth power (Kobayashi) and fourth
    power (Liu) unscaled; on elements scaled to unit size both bounds stay
    finite, and a power-of-two scaling of the triangle scales them exactly."""
    ref = element_constants(Simplex(HUGE_TRIANGLE))
    huge = element_constants(Simplex(1e80 * HUGE_TRIANGLE))
    assert math.isfinite(huge.h1_best) and huge.h1_best == pytest.approx(1e80 * ref.h1_best, rel=1e-14)
    exact = element_constants(Simplex(2.0**260 * HUGE_TRIANGLE))
    assert (exact.h1_liu, exact.h1_kobayashi) == (2.0**260 * ref.h1_liu, 2.0**260 * ref.h1_kobayashi)
    unit = element_metrics(generate_fan_refined(inscribed_regular_polygon(Disk(1.0), 12), 2))
    for scale in (2.0**-300, 1e-3, 7.3, 2.0**300):  # sixth powers under- and overflow at the ends
        em = element_metrics(generate_fan_refined(inscribed_regular_polygon(Disk(scale), 12), 2))
        liu = _liu_batch(em.edge_sq, em.measures)
        assert liu == pytest.approx(scale * _liu_batch(unit.edge_sq, unit.measures), rel=1e-12)
        kob = _kobayashi_batch_2d(em.edge_sq, em.measures)
        assert kob == pytest.approx(scale * _kobayashi_batch_2d(unit.edge_sq, unit.measures), rel=1e-12)


def test_rigid_motion_invariance(rng):
    for _ in range(100):
        t = sample_triangle(rng)
        q = random_rotation(rng)
        t2 = Simplex(t.vertices @ q.T + rng.normal(size=2))
        assert liu_bound(t2) == pytest.approx(liu_bound(t), rel=1e-10)
        assert kobayashi_bound_2d(t2) == pytest.approx(kobayashi_bound_2d(t), rel=1e-10)


def test_degree_one_homogeneity(rng):
    for _ in range(100):
        t = sample_triangle(rng)
        lam = rng.uniform(0.2, 5.0)
        t2 = Simplex(np.asarray(t.vertices) * lam)
        assert liu_bound(t2) == pytest.approx(lam * liu_bound(t), rel=1e-10)
        assert kobayashi_bound_2d(t2) == pytest.approx(lam * kobayashi_bound_2d(t), rel=1e-10)


def test_circumradius_domination_spot(rng):
    from certifem import circumradius

    for _ in range(500):
        t = sample_triangle(rng)
        assert kobayashi_bound_2d(t) <= circumradius(t) * (1 + 1e-12)


def test_min_angle_domination_spot(rng):
    from certifem import edge_lengths, min_angle

    for _ in range(500):
        t = sample_triangle(rng)
        theta0 = min_angle(t)
        h_t = edge_lengths(t)[0]
        assert liu_bound(t) <= min_angle_global(theta0, h_t) * (1 + 1e-12)


def test_nonblunt_profile_dominates_kobayashi(rng):
    for _ in range(2000):
        a, b = sample_nonblunt_apex(rng)
        t = nonblunt_triangle(a, b)
        prof = nonblunt_profile_bound(a, b)
        assert kobayashi_bound_2d(t) <= prof * (1 + 1e-10)
        assert prof <= math.sqrt(11.0 / 60.0) * (1 + 1e-12)


def test_rayleigh_nested_degrees():
    v2 = rayleigh_lower_bound(EQUILATERAL, 2)
    v4 = rayleigh_lower_bound(EQUILATERAL, 4)
    v6 = rayleigh_lower_bound(EQUILATERAL, 6)
    assert v2 <= v4 * (1 + 1e-9)
    assert v4 <= v6 * (1 + 1e-9)


def test_rayleigh_equilateral_bracket():
    v = rayleigh_lower_bound(EQUILATERAL, 4)
    assert 0.25 < v <= 0.3476108 + 1e-7
    assert v == pytest.approx(0.3182923, abs=5e-6)


def test_rayleigh_equilateral_matches_exact_arithmetic():
    # reference: the same Rayleigh-Ritz problem (monomials vanishing at the
    # vertices, exact Gram integrals) in mpmath at mp.dps = 40, solved by
    # mpmath.cholesky of the H2 form and mpmath.eigsy; degree 2 is 1/sqrt(12)
    exact = {2: 0.288675134594812882, 4: 0.318292312340125958}
    for degree, value in exact.items():
        assert rayleigh_lower_bound(EQUILATERAL, degree) == pytest.approx(value, rel=1e-12)


def test_rayleigh_below_upper_bounds(rng):
    for _ in range(20):
        t = sample_triangle(rng, min_area=1e-3)
        lo = rayleigh_lower_bound(t, 4)
        assert lo <= element_constants(t).h1_best * (1 + 1e-9)
    sharp = triangle_from_angles(5.0, 87.5)
    lo = rayleigh_lower_bound(sharp, 4)
    assert lo <= element_constants(sharp).h1_best * (1 + 1e-9)


def test_rayleigh_degenerate_raises():
    with pytest.raises(ConstraintRankError):
        rayleigh_lower_bound(Simplex([[0, 0], [1, 0], [2, 1e-15]]), 4)
    with pytest.raises(ValueError):
        rayleigh_lower_bound(EQUILATERAL, 7)


def test_corner_apexes_stay_in_region():
    for a, b in nonblunt_corner_apexes():
        assert (a + 0.5) ** 2 + b * b <= 1.0 + 1e-12
        assert a * a + b * b >= 0.25 - 1e-12


# ---------------------------------------------------------------------------
# the scalar API is the pipeline kernel on one element

NEEDLE = triangle([0, 0], [1, 0], [0.5, 1e-9])


@pytest.mark.filterwarnings("error")
def test_needle_liu_is_finite_and_accurate():
    """On this needle a sine taken as sqrt(1 - cos^2) rounds to 0 at every
    angle; from 4|T| Liu's bound is finite and matches its 60-digit value,
    Kobayashi's 1.25e8 still wins, and the smallest angle is a number."""
    mesh = build_mesh(2, NEEDLE.vertices, [[0, 1, 2]])
    gc, em = mesh_constants(mesh), element_metrics(mesh)
    liu = liu_bound(NEEDLE)
    assert math.isfinite(liu) and abs(liu - angles_and_liu_60(NEEDLE.vertices)[1]) <= 1e-12 * liu
    assert _liu_batch(em.edge_sq, em.measures)[0] == liu
    assert gc.elementwise == kobayashi_bound_2d(NEEDLE) == pytest.approx(1.25e8, rel=1e-12)
    assert element_constants(NEEDLE).h1_best == gc.elementwise
    assert gc.minangle is not None and math.isfinite(gc.value("minangle"))


def _needle_mesh(rng, count):
    """`count` disjoint needles of aspect 1e3..1e8, rotated, scaled and translated."""
    tris = []
    for _ in range(count):
        base = 10 ** rng.uniform(-3, 1)
        apex = [rng.uniform(-0.5, 1.5) * base, base / 10 ** rng.uniform(3, 8)]
        corners = np.array([[0.0, 0.0], [base, 0.0], apex])
        tris.append(corners @ random_rotation(rng).T + rng.uniform(-3, 3, 2))
    nodes = np.vstack(tris)
    return build_mesh(2, nodes, np.arange(len(nodes)).reshape(-1, 3))


def test_scalar_constants_equal_pipeline_kernels_bit_for_bit():
    rng = np.random.default_rng(3)
    fans = [inscribed_regular_polygon(Disk(1.0), m) for m in range(10, 51, 10)]
    meshes = [generate_fan_refined(poly, k) for poly in fans for k in range(3)]
    meshes.append(_needle_mesh(rng, 200))
    for mesh in meshes:
        em = element_metrics(mesh)
        best = np.minimum(_liu_batch(em.edge_sq, em.measures), _kobayashi_batch_2d(em.edge_sq, em.measures))
        assert mesh_constants(mesh).elementwise == best.max()
        scalar = [element_constants(Simplex(v)).h1_best for v in mesh.element_vertices()]
        np.testing.assert_array_equal(scalar, best)


def _whole_array_quality(mesh):
    """`quality` from the whole-mesh arrays of `element_metrics`."""
    em = element_metrics(mesh)
    return MeshQuality(
        dim=2,
        h=float(em.h.max()),
        max_circumradius=float(em.circumradius.max()),
        min_angle=float(em.min_angle.min()),
        sigma=float((em.h / (2.0 * em.inradius)).max()),
        nonblunt=bool((em.max_angle <= math.pi / 2.0 + NONBLUNT_TOL).all()),
        element_count=mesh.element_count,
        node_count=mesh.node_count,
    )


def _whole_array_elementwise(mesh):
    """`mesh_constants(mesh).elementwise` from the whole-mesh arrays of
    `element_metrics`."""
    em = element_metrics(mesh)
    return float(np.minimum(_liu_batch(em.edge_sq, em.measures), _kobayashi_batch_2d(em.edge_sq, em.measures)).max())


QUALITY_MESHES = {
    "fan": lambda: generate_fan_refined(inscribed_regular_polygon(Disk(1.0), 50), 4),
    "jittered-square": lambda: _jittered_square(48, seed=4),
    "needles": lambda: _needle_mesh(np.random.default_rng(7), 2 * geometry._BLOCK + 100),
}


@pytest.mark.parametrize("name", sorted(QUALITY_MESHES))
def test_blockwise_quality_and_constants_match_whole_arrays(name):
    """`quality` and `mesh_constants` reduce blocks of elements: bit for bit
    the extrema of the whole-mesh `element_metrics` arrays, which they
    neither build nor leave on the mesh."""
    mesh = QUALITY_MESHES[name]()
    assert mesh.element_count > geometry._BLOCK  # two blocks or more
    qual = quality(mesh)
    got = mesh_constants(mesh)
    assert "metrics" not in mesh._cache
    assert qual == _whole_array_quality(mesh)
    assert got.elementwise == _whole_array_elementwise(mesh)


def test_blockwise_elementwise_maximum_matches_whole_arrays():
    """`mesh_constants` takes the element-wise maximum one block of elements
    at a time: bit for bit the whole-array maximum wherever the worst element
    lies, and a bad radicand is named by its index in the whole mesh."""
    from certifem import interp_constants as icmod

    block = geometry._BLOCK
    mesh = _needle_mesh(np.random.default_rng(5), 2 * block + 100)
    em = element_metrics(mesh)
    whole = np.minimum(_liu_batch(em.edge_sq, em.measures), _kobayashi_batch_2d(em.edge_sq, em.measures))
    worst = int(np.argmax(whole))
    for position in (0, block + 7, mesh.element_count - 1):
        rolled = build_mesh(2, mesh.nodes, np.roll(mesh.elements, position - worst, axis=0))
        assert mesh_constants(rolled).elementwise == float(whole.max())

    edge_sq = np.ones((mesh.element_count, 3))
    area = np.full(mesh.element_count, math.sqrt(3.0) / 4.0)
    area[block + 3] = 1.0  # no triangle with unit edges has unit area
    crafted = dataclasses.replace(build_mesh(2, mesh.nodes, mesh.elements), edge_sq=edge_sq, measures=area)
    with pytest.raises(NegativeRadicandError, match=rf"^element {block + 3}: "):
        icmod._kobayashi_maximum(crafted)


def test_elementwise_keeps_the_min_of_liu_and_kobayashi_bit_for_bit():
    """`elementwise`, Kobayashi's maximum alone, equals the maximum of
    min(Liu, Kobayashi), its former definition, on the disk fans and the
    jittered squares; `disk2d`'s prediction reads it as A_m."""
    fans = [(m, default_refine_rule(m)) for m in range(10, 51, 10)] + [(50, 5)]
    meshes = [generate_fan_refined(inscribed_regular_polygon(Disk(1.0), m), k) for m, k in fans]
    meshes += [_jittered_square(64, seed) for seed in (1, 2, 3)]
    for mesh in meshes:
        em = element_metrics(mesh)
        best = np.minimum(_liu_batch(em.edge_sq, em.measures), _kobayashi_batch_2d(em.edge_sq, em.measures))
        assert mesh_constants(mesh).elementwise == best.max()
    for (m, _), mesh in zip(fans[:5], meshes):  # the default-rule fans
        assert disk_study_row(m).certified.metadata["a_h"] == icmod._kobayashi_maximum(mesh)


def test_liu_dominates_kobayashi_over_shape_space():
    """Float evidence, not a proof, that Liu >= Kobayashi on every triangle:
    with the base [0,0]-[1,0] the longest edge, the apex (x, y) ranges over
    x in [0, 1/2], (x - 1)^2 + y^2 <= 1, y geometric from 1e-6 to 1e-2 and
    then linear to 1.  Liu / Kobayashi stays above 1.002; its smallest value
    known, 1.0027135, is at the right isosceles apex (1/2, 1/2)."""
    xs = np.linspace(0.0, 0.5, 201)
    ys = np.concatenate([np.geomspace(1e-6, 1e-2, 81)[:-1], np.arange(2, 201) / 200.0])
    x, y = (a.ravel() for a in np.meshgrid(xs, ys))
    inside = (x - 1.0) ** 2 + y * y <= 1.0
    x, y = x[inside], y[inside]
    edge_sq = np.stack([(1.0 - x) ** 2 + y * y, x * x + y * y, np.ones_like(x)], axis=1)
    ratio = _liu_batch(edge_sq, y / 2.0) / _kobayashi_batch_2d(edge_sq, y / 2.0)
    assert x.size > 40000 and ratio.min() >= 1.002
    right = (x == 0.5) & (y == 0.5)
    assert ratio.min() == pytest.approx(ratio[right][0], abs=1e-6) and ratio[right][0] == pytest.approx(1.0027135)
