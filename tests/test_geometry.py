import math

import numpy as np
import pytest

from certifem import (
    DegenerateSimplexError,
    InvertedElementError,
    Simplex,
    angles,
    barycenter,
    build_mesh,
    circumcenter,
    circumradius,
    edge_lengths,
    inradius,
    measure,
    quality,
    triangle,
)
from conftest import random_rotation, sample_triangle
from oracles import element_constants, is_nonblunt, signed_measure

EQUILATERAL = triangle([0, 0], [1, 0], [0.5, math.sqrt(3) / 2])
RIGHT_ISO = triangle([0, 0], [1, 0], [0, 1])


def test_measure_closed_forms():
    assert measure(EQUILATERAL) == pytest.approx(math.sqrt(3) / 4, rel=1e-14)
    assert measure(RIGHT_ISO) == pytest.approx(0.5, rel=1e-14)


def test_measure_rejects_degenerate():
    with pytest.raises(DegenerateSimplexError):
        measure(triangle([0, 0], [1, 0], [2, 0]))
    with pytest.raises(DegenerateSimplexError):
        measure(triangle([0, 0], [1, 0], [0.5, 1e-16]))


OVERFLOW_VERTS = {2: [[0, 0], [1, 0.5], [0.5, 1]]}


@pytest.mark.parametrize("dim, scale", [(2, 1e155)])
def test_overflowing_simplex_is_rejected_by_name(dim, scale):
    """Finite coordinates whose closed-form measure overflows raise a typed
    error that names the non-finite measure, with no RuntimeWarning (an
    error under the suite's filter); 1e-3 of the scale still measures."""
    verts = np.array(OVERFLOW_VERTS[dim])
    with pytest.raises(DegenerateSimplexError, match=r"measure (nan|inf) .* is not finite"):
        measure(Simplex(scale * verts))
    assert math.isfinite(measure(Simplex(1e-3 * scale * verts)))


@pytest.mark.parametrize("entry", [edge_lengths, signed_measure, element_constants])
@pytest.mark.parametrize("dim, scale", [(2, 1e155)])
def test_every_entry_point_rejects_overflowing_simplex(entry, dim, scale):
    """`edge_lengths`, `signed_measure` and `element_constants` check the
    closed forms as `measure` does: a typed error, no RuntimeWarning."""
    verts = np.array(OVERFLOW_VERTS[dim])
    with pytest.raises(DegenerateSimplexError, match="is not finite"):
        entry(Simplex(scale * verts))
    entry(Simplex(verts))


@pytest.mark.parametrize("k", [500, -500])
def test_circumradius_of_a_huge_or_tiny_triangle_scales_exactly(k):
    """`vertex_metrics` forms abc / (4 area) with the lengths scaled to
    about 1: at 2^500 times a unit triangle the product of the lengths
    (~2^1500) would overflow, at 2^-500 it would underflow to 0, but the
    circumradius is the unit one times 2^k, bit for bit, with no
    RuntimeWarning."""
    from certifem.geometry import _vertex_geometry, vertex_metrics

    unit = np.array([OVERFLOW_VERTS[2]], dtype=float)
    circum = []
    for verts in (unit, np.ldexp(unit, k)):
        signed, edge_sq = _vertex_geometry(verts)
        circum.append(vertex_metrics(np.abs(signed), edge_sq).circumradius[0])
    assert circum[1] == np.ldexp(circum[0], k) > 0.0 and math.isfinite(circum[1])


@pytest.mark.parametrize("dim", [2])
def test_huge_simplex_with_finite_measure_is_not_degenerate(dim):
    """The degeneracy test never forms h^2, which overflows before the
    measure does: a right triangle whose squared hypotenuse is near the
    largest double.  A flat triangle at the same scale is still degenerate."""
    s = 9e153
    simplex, volume = triangle([0, 0], [s, 0], [0, s]), 0.5 * s * s
    flat = triangle([0, 0], [s, 0], [0.5 * s, 1e-15 * s])
    assert measure(simplex) == pytest.approx(volume, rel=1e-13)
    assert build_mesh(dim, simplex.vertices, [[0, 1, 2]]).element_count == 1
    with pytest.raises(DegenerateSimplexError, match="below degeneracy threshold"):
        measure(flat)
    with pytest.raises(InvertedElementError):
        build_mesh(dim, flat.vertices, [[0, 1, 2]])


def test_signed_measure_orientation():
    assert signed_measure(RIGHT_ISO) > 0
    assert signed_measure(triangle([0, 0], [0, 1], [1, 0])) < 0


def test_edge_lengths_sorted_descending():
    assert edge_lengths(RIGHT_ISO) == pytest.approx([math.sqrt(2), 1.0, 1.0], rel=1e-15)
    side2 = triangle([0, 0], [2, 0], [1, math.sqrt(3)])
    assert edge_lengths(side2) == pytest.approx([2.0, 2.0, 2.0], rel=1e-14)


def test_circumradius_closed_forms():
    assert circumradius(RIGHT_ISO) == pytest.approx(math.sqrt(2) / 2, rel=1e-13)
    assert circumradius(EQUILATERAL) == pytest.approx(1 / math.sqrt(3), rel=1e-13)


def test_circumcenter_equidistant():
    for s in (EQUILATERAL, RIGHT_ISO):
        c = circumcenter(s)
        dists = np.linalg.norm(s.vertices - c, axis=1)
        assert dists.max() - dists.min() <= 1e-10 * dists.max()


def test_inradius_closed_forms():
    assert inradius(RIGHT_ISO) == pytest.approx((2 - math.sqrt(2)) / 2, rel=1e-13)
    assert inradius(EQUILATERAL) == pytest.approx(1 / (2 * math.sqrt(3)), rel=1e-13)


def test_angles_closed_forms():
    got = sorted(angles(RIGHT_ISO))
    assert got == pytest.approx([math.pi / 4, math.pi / 4, math.pi / 2], rel=1e-13)
    assert angles(EQUILATERAL) == pytest.approx([math.pi / 3] * 3, rel=1e-13)
    thin = triangle([0, 0], [2, 0], [1, 0.01])
    assert max(angles(thin)) > 3.1


def test_nonblunt_classification():
    assert is_nonblunt(RIGHT_ISO)  # right angle admitted
    assert is_nonblunt(EQUILATERAL)
    assert not is_nonblunt(triangle([0, 0], [2, 0], [1, 0.2]))


def test_blunt_apex_angle_matches_law_of_cosines():
    # apex (1, 0.2): adjacent edges to (0,0) and (2,0)
    u = np.array([-1.0, -0.2])
    w = np.array([1.0, -0.2])
    apex = math.acos(float(u @ w) / (np.linalg.norm(u) * np.linalg.norm(w)))
    assert apex == pytest.approx(2.7468, abs=2e-4)
    assert apex > math.pi / 2
    got = max(angles(triangle([0, 0], [2, 0], [1, 0.2])))
    assert got == pytest.approx(apex, rel=1e-12)


def test_barycenter():
    assert barycenter(RIGHT_ISO) == pytest.approx([1 / 3, 1 / 3], rel=1e-15)
    assert barycenter(triangle([0, 0], [3, 0], [0, 3])) == pytest.approx([1.0, 1.0], rel=1e-15)


def test_random_triangle_properties(rng):
    """Angle sums, two-route circumradius agreement (the perpendicular-
    bisector solve against abc / (4|T|)), and radius inequalities."""
    for _ in range(10000):
        t = sample_triangle(rng)
        ang = angles(t)
        assert abs(sum(ang) - math.pi) <= 1e-12
        r_solve = float(np.linalg.norm(circumcenter(t) - t.vertices[0]))
        lengths = edge_lengths(t)
        r_formula = lengths[0] * lengths[1] * lengths[2] / (4.0 * measure(t))
        assert abs(r_solve - r_formula) <= 1e-10 * r_formula
        assert abs(circumradius(t) - r_solve) <= 1e-10 * r_solve
        assert 2.0 * r_solve >= lengths[0] * (1.0 - 1e-12)
        assert inradius(t) <= r_solve / 2.0 * (1.0 + 1e-12)


def test_circumradius_is_the_mesh_kernel(rng):
    """`circumradius` of a triangle is the one-element mesh's
    `max_circumradius`, bit for bit, on random draws and on needles of
    aspect up to 1e9; the triangle is oriented first, as the mesh would
    otherwise swap two vertices and so multiply its edges in another order."""
    draws = [sample_triangle(rng) for _ in range(2000)]
    needles = [triangle([0, 0], [1, 0], [x, eps]) for x in (-0.5, 0.3, 1.7) for eps in np.geomspace(1e-9, 1e-2, 8)]
    for t in draws + needles:
        if signed_measure(t) < 0:
            t = Simplex(t.vertices[[0, 2, 1]])
        assert circumradius(t) == quality(build_mesh(2, t.vertices, [[0, 1, 2]])).max_circumradius


def test_rigid_motion_invariance(rng):
    for _ in range(300):
        t = sample_triangle(rng)
        q = random_rotation(rng)
        shift = rng.normal(size=2)
        t2 = Simplex(t.vertices @ q.T + shift)
        assert measure(t2) == pytest.approx(measure(t), rel=1e-10)
        assert edge_lengths(t2) == pytest.approx(edge_lengths(t), rel=1e-10)
        assert circumradius(t2) == pytest.approx(circumradius(t), rel=1e-10)
        assert inradius(t2) == pytest.approx(inradius(t), rel=1e-10)
        assert sorted(angles(t2)) == pytest.approx(sorted(angles(t)), rel=1e-9, abs=1e-10)


def test_scaling_homogeneity(rng):
    for _ in range(200):
        t = sample_triangle(rng)
        lam = rng.uniform(0.1, 10.0)
        t2 = Simplex(t.vertices * lam)
        assert measure(t2) == pytest.approx(lam**2 * measure(t), rel=1e-12)
        assert edge_lengths(t2) == pytest.approx([lam * e for e in edge_lengths(t)], rel=1e-12)
        assert circumradius(t2) == pytest.approx(lam * circumradius(t), rel=1e-10)
        assert inradius(t2) == pytest.approx(lam * inradius(t), rel=1e-10)


def test_simplex_validation():
    with pytest.raises(ValueError):
        Simplex([[0, 0], [1, 0]])
    with pytest.raises(ValueError):
        Simplex([[0, 0], [1, 0], [0, float("nan")]])
    with pytest.raises(ValueError, match=r"\(3, 2\) vertex array"):  # a tetrahedron
        Simplex([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]])


def test_vertices_read_only():
    with pytest.raises(ValueError):
        RIGHT_ISO.vertices[0, 0] = 5.0
