import math
import tracemalloc

import numpy as np
import pytest

from certifem import domain as dommod
from certifem import (
    ConvexPolygon,
    Disk,
    InvalidDirectionError,
    InvalidPolygonError,
    NotInscribedError,
    gap_delta,
    inscribed_regular_polygon,
    make_poly_approx,
    poly_approx_of_polygon,
)
from conftest import random_rotation
from oracles import boundary_point

UNIT_SQUARE = ConvexPolygon([[0, 0], [1, 0], [1, 1], [0, 1]])


def test_support_disk():
    disk = Disk(1.0)
    for ang in np.linspace(0, 2 * math.pi, 17):
        d = np.array([math.cos(ang), math.sin(ang)])
        assert disk.support(d) == pytest.approx(1.0, rel=1e-14)
    shifted = Disk(2.0, center=(1.0, 0.0))
    assert shifted.support(np.array([1.0, 0.0])) == pytest.approx(3.0, rel=1e-15)


def test_support_square_corner():
    d = np.array([1.0, 1.0]) / math.sqrt(2)
    assert UNIT_SQUARE.support(d) == pytest.approx(math.sqrt(2), rel=1e-14)


def test_support_rejects_non_unit():
    with pytest.raises(InvalidDirectionError):
        Disk(1.0).support(np.array([1.0, 1.0]))


def test_support_sublinearity(rng):
    for dom in (Disk(1.5, center=(0.3, -0.2)), UNIT_SQUARE):
        for _ in range(200):
            d1 = rng.normal(size=2)
            d2 = rng.normal(size=2)
            s = d1 + d2
            n1, n2, ns = (np.linalg.norm(v) for v in (d1, d2, s))
            if min(n1, n2, ns) < 1e-6:
                continue
            lhs = ns * dom.support(s / ns)
            rhs = n1 * dom.support(d1 / n1) + n2 * dom.support(d2 / n2)
            assert lhs <= rhs + 1e-10


def test_gap_regular_polygons():
    disk = Disk(1.0)
    for m, expect in ((4, 1 - math.cos(math.pi / 4)), (10, 1 - math.cos(math.pi / 10)),
                      (50, 2 * math.sin(math.pi / 100) ** 2)):
        poly = inscribed_regular_polygon(disk, m)
        delta, per_facet = gap_delta(disk, poly)
        assert delta == pytest.approx(expect, rel=1e-12)
        assert per_facet == pytest.approx(np.full(m, expect), rel=1e-10)
        assert poly.gap == pytest.approx(expect, rel=1e-12)
    assert inscribed_regular_polygon(disk, 50).gap == pytest.approx(1.97327e-3, rel=1e-5)
    assert inscribed_regular_polygon(disk, 10).gap == pytest.approx(4.89435e-2, rel=1e-5)


def test_gap_exact_polygon_is_zero():
    poly = poly_approx_of_polygon(UNIT_SQUARE)
    delta, _ = gap_delta(UNIT_SQUARE, poly)
    assert delta == 0.0
    assert poly.gap == 0.0


def test_regular_polygon_vertices_and_facets():
    disk = Disk(1.0)
    sq = inscribed_regular_polygon(disk, 4)
    got = sorted(map(tuple, np.round(sq.vertices, 12)))
    assert got == sorted([(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (-0.0, -1.0)])
    tri = inscribed_regular_polygon(disk, 3)
    # facet i is the edge i -> i+1: both ends lie on its line
    for ends in (tri.vertices, np.roll(tri.vertices, -1, axis=0)):
        assert np.abs((tri.normals * ends).sum(1) - tri.offsets).max() <= 1e-15
    assert tri.offsets == pytest.approx(np.full(3, 0.5), rel=1e-12)
    with pytest.raises(InvalidPolygonError):
        inscribed_regular_polygon(disk, 2)


def test_poly_approx_is_a_read_only_convex_polygon():
    """An inscribed polygon is a `ConvexPolygon`, whose `contains` reads its
    `signed_facet_distances`; its arrays, and every polygon's half-planes,
    are read-only."""
    poly = inscribed_regular_polygon(Disk(1.0), 12)
    assert isinstance(poly, ConvexPolygon)
    pts = np.random.default_rng(3).uniform(-1.1, 1.1, (500, 2))
    for tol in (0.0, 1e-12, 0.05):
        assert np.array_equal(poly.contains(pts, tol), poly.signed_facet_distances(pts) <= tol)
    arrays = [getattr(poly, name) for name in ("vertices", "normals", "offsets", "gap_per_facet")]
    arrays += [UNIT_SQUARE.normals, UNIT_SQUARE.offsets]
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0.0


def test_poly_approx_invariants():
    disk = Disk(1.0)
    poly = inscribed_regular_polygon(disk, 12)
    assert np.linalg.norm(poly.normals, axis=1) == pytest.approx(np.ones(12), abs=1e-12)
    assert (poly.vertices @ poly.normals.T - poly.offsets).max() <= 1e-12
    for v in poly.vertices:
        assert disk.boundary_distance(v) <= 1e-10
    assert poly.gap >= 0.0
    assert poly.gap <= disk.diameter


def test_gap_rigid_motion_invariance(rng):
    base_disk = Disk(1.0)
    base = inscribed_regular_polygon(base_disk, 9)
    for _ in range(25):
        q = random_rotation(rng)
        shift = rng.normal(size=2)
        dom2 = Disk(1.0, center=shift)
        verts2 = base.vertices @ q.T + shift
        poly2 = make_poly_approx(dom2, verts2)
        assert poly2.gap == pytest.approx(base.gap, rel=1e-10)


def test_gap_quadratic_scaling_in_edge_length():
    # smooth boundary: gap ~ (edge length)^2 / 8
    poly = inscribed_regular_polygon(Disk(1.0), 100)
    edge = 2 * math.sin(math.pi / 100)
    assert poly.gap / edge**2 == pytest.approx(0.125, rel=0.01)


def test_not_inscribed_detection():
    with pytest.raises(NotInscribedError):
        make_poly_approx(Disk(1.0), [[2, 0], [0, 2], [-2, 0]])
    # vertices inside but off the boundary are rejected too
    with pytest.raises(NotInscribedError):
        make_poly_approx(Disk(1.0), [[0.5, 0], [0, 0.5], [-0.5, 0]])


@pytest.mark.parametrize(
    "domain", [Disk(1.0), ConvexPolygon([[-1, -1], [1, -1], [1, 1], [-1, 1]])], ids=["disk", "square"]
)
def test_boundary_validation_names_the_first_bad_vertex(domain):
    """All vertices are checked at once; the error names the first vertex
    that fails, and whether it lies outside or only off the boundary."""
    on = [boundary_point(domain, t) for t in (0.05, 0.3, 0.55, 0.8)]
    outside, inside = 1.5 * on[2], 0.5 * on[1]
    with pytest.raises(NotInscribedError, match=r"^vertex 2 lies outside the domain$"):
        make_poly_approx(domain, [on[0], on[1], outside, on[3]])
    with pytest.raises(NotInscribedError, match=r"^vertex 1 does not lie on the domain boundary$"):
        make_poly_approx(domain, [on[0], inside, on[2], on[3]])
    # the first failing vertex decides, whichever check it fails
    with pytest.raises(NotInscribedError, match=r"^vertex 1 does not lie on the domain boundary$"):
        make_poly_approx(domain, [on[0], inside, outside, on[3]])
    with pytest.raises(NotInscribedError, match=r"^vertex 1 lies outside the domain$"):
        make_poly_approx(domain, [on[0], 1.5 * on[1], inside, on[3]])


@pytest.mark.parametrize("domain", [Disk(1.0), UNIT_SQUARE], ids=["disk", "square"])
def test_boundary_distance_of_many_points_matches_one_at_a_time(domain, rng):
    points = rng.uniform(-2.0, 2.0, (40, 2))
    many = domain.boundary_distance(points)
    assert many.shape == (40,)
    single = [domain.boundary_distance(p) for p in points]
    assert all(isinstance(d, float) for d in single)
    assert many == pytest.approx(single, rel=1e-15, abs=1e-15)


def test_nonconvex_rejected():
    with pytest.raises(InvalidPolygonError):
        ConvexPolygon([[0, 0], [2, 0], [1, 0.2], [2, 2], [0, 2]])


def _star_pentagon(step):
    """Five points of the unit circle visited `step` fifths of a turn apart,
    repeated until the boundary closes: step 2 is a pentagram; a doubled
    pentagon lists the pentagon twice."""
    turns = np.arange(10 if step == 1 else 5) * step / 5.0
    return np.stack([np.cos(2 * math.pi * turns), np.sin(2 * math.pi * turns)], axis=1)


@pytest.mark.parametrize("step, reason", [(1, "repeated vertices"), (2, "not convex")])
def test_multiply_wound_polygons_rejected(step, reason):
    verts = _star_pentagon(step)
    for build in (ConvexPolygon, lambda v: make_poly_approx(Disk(1.0), v)):
        with pytest.raises(InvalidPolygonError, match=reason):
            build(verts)
        with pytest.raises(InvalidPolygonError, match=reason):
            build(verts[::-1])


def test_repeated_vertices_rejected():
    for verts in ([[0, 0], [1, 0], [1, 0], [0, 1]], [[0, 0], [1, 0], [0, 1], [1e-9, 0]]):
        with pytest.raises(InvalidPolygonError, match="repeated vertices"):
            ConvexPolygon(verts)


def _all_pairs_diameter(v):
    """The (m, m, dim) form that `domain._diameter` walks in row blocks."""
    diffs = v[:, None, :] - v[None, :, :]
    dist = np.sqrt((diffs**2).sum(-1))
    diameter = float(dist.max())
    return diameter, bool(np.any(dist[np.triu_indices(len(v), 1)] <= dommod.REPEATED_VERTEX_TOL * diameter))


@pytest.mark.parametrize("pair_block", [1, 7, 64, 1 << 16])
def test_blocked_diameter_matches_all_pairs(monkeypatch, pair_block):
    """Bit for bit the all-pairs diameter and the same repeated-vertex
    verdict, whether the blocks hold one row, a few rows or all of them; the
    blocked half-space check keeps its verdict too."""
    monkeypatch.setattr(dommod, "_PAIR_BLOCK", pair_block)
    rng = np.random.default_rng(3)
    for m, dim in ((3, 2), (11, 2), (40, 3), (97, 2)):
        for v in (rng.normal(size=(m, dim)) * 10.0 ** rng.uniform(-3, 3), _star_pentagon(1)):
            diameter, repeated = _all_pairs_diameter(v)
            if repeated:
                with pytest.raises(InvalidPolygonError, match="repeated vertices"):
                    dommod._diameter(v)
            else:
                assert dommod._diameter(v) == diameter
    assert inscribed_regular_polygon(Disk(1.0), 50).vertices.shape == (50, 2)
    with pytest.raises(InvalidPolygonError, match="not convex"):
        ConvexPolygon(_star_pentagon(2))


def test_many_vertex_polygon_memory_is_bounded():
    """A 3000-gon is validated without the O(m^2) arrays of all vertex pairs
    (343 MiB traced when they were formed whole)."""
    tracemalloc.start()
    try:
        poly = inscribed_regular_polygon(Disk(1.0), 3000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    assert poly.vertices.shape == (3000, 2)


@pytest.mark.parametrize(
    "verts",
    [
        [[0, 0], [1, 0], [2, 0]],
        [[0, 0], [2, 0], [1, 0]],
        [[0, 0], [1, 1], [2, 2], [3, 3]],
        [[0, 0], [1, 0], [0.5, 1e-13]],
    ],
    ids=["collinear", "collinear-unordered", "collinear-quad", "flat"],
)
def test_degenerate_polygons_rejected(verts):
    for build in (ConvexPolygon, lambda v: make_poly_approx(Disk(10.0), np.asarray(v) / 10.0)):
        with pytest.raises(InvalidPolygonError, match="degenerate"):
            build(verts)


def test_thin_polygon_measure_is_relative_to_diameter():
    for scale in (1e-6, 1.0, 1e6):
        thin = ConvexPolygon(scale * np.array([[0, 0], [1, 0], [0.5, 1e-9]]))
        assert thin.measure == pytest.approx(0.5e-9 * scale**2, rel=1e-9)
        with pytest.raises(InvalidPolygonError, match="degenerate"):
            ConvexPolygon(scale * np.array([[0, 0], [1, 0], [0.5, 1e-13]]))


def test_polygon_halfplanes_match_polytope():
    pent = ConvexPolygon([[0.0, 0.0], [2.0, 0.1], [2.6, 1.3], [1.1, 2.2], [-0.4, 1.1]])
    poly = poly_approx_of_polygon(pent)
    assert np.array_equal(poly.normals, pent.normals)
    assert np.array_equal(poly.offsets, pent.offsets)
    # offsets are taken at the edge midpoints
    mid = 0.5 * (pent.vertices + np.roll(pent.vertices, -1, axis=0))
    assert np.abs((pent.normals * mid).sum(1) - pent.offsets).max() <= 1e-15


def test_polygon_contains_and_boundary():
    assert bool(UNIT_SQUARE.contains(np.array([0.5, 0.5])))
    assert not bool(UNIT_SQUARE.contains(np.array([1.5, 0.5])))
    for t in np.linspace(0, 1, 37, endpoint=False):
        p = boundary_point(UNIT_SQUARE, t)
        assert UNIT_SQUARE.boundary_distance(p) <= 1e-12


def test_domain_measures_and_diameters():
    assert Disk(2.0).measure == pytest.approx(4 * math.pi, rel=1e-15)
    assert Disk(2.0).diameter == 4.0
    assert UNIT_SQUARE.measure == pytest.approx(1.0, rel=1e-15)
    assert UNIT_SQUARE.diameter == pytest.approx(math.sqrt(2), rel=1e-15)


def test_ball_measures_overflow_to_inf():
    """r**2 raises OverflowError where the disk's measure overflows; the
    measure is inf there instead, with no warning, and keeps its bits
    elsewhere."""
    assert Disk(1.4e154).measure == math.inf
    assert Disk(1e150).measure == math.pi * 1e150**2


@pytest.mark.parametrize(
    "vertices, reason",
    [
        (1e160 * np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]]), "diameter inf is not finite"),
        # distances stay finite, but x_i * y_(i+1) sums past the largest double
        ([[8e153, 8e153], [9e153, 8e153], [8e153, 9e153]], "measure nan is not finite"),
    ],
    ids=["diameter", "measure"],
)
def test_polygon_whose_closed_forms_overflow_is_refused_by_name(vertices, reason):
    """No RuntimeWarning (an error under the suite's filter), and not the
    "repeated vertices" that an infinite distance used to read as."""
    with pytest.raises(InvalidPolygonError, match=reason):
        ConvexPolygon(vertices)


@pytest.mark.parametrize("bad", [math.inf, math.nan], ids=["inf", "nan"])
def test_polygon_with_non_finite_coordinates_is_refused_as_such(bad):
    """An inf or NaN coordinate is refused by name before any closed form
    reads it: with no RuntimeWarning (an error under the suite's filter),
    and not as an overflow of the diameter."""
    with pytest.raises(InvalidPolygonError, match="^polygon vertex coordinates must be finite, not inf or NaN$"):
        ConvexPolygon([[0.0, 0.0], [1.0, 0.0], [0.0, bad]])
