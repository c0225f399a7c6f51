"""Property test of the one angle formula: every triangle angle and Liu's
bound come from 4|T| and the squared edges (`geometry._angle_pair`), and stay
within their rounding bounds of 60-digit values on thin, near-right, flat
obtuse and uniform triangles at any scale."""

import math

import mpmath
import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from certifem import angles, liu_bound, triangle
from certifem.errors import DegenerateSimplexError
from oracles import angles_and_liu_60

U = 2.0**-53


@st.composite
def triangles(draw):
    """Corner 0 at the origin, corner 1 at (1, 0) before the rotation (except
    for uniform draws), then rotated and scaled by 2^k 10^[-3, 1]."""
    kind = draw(st.sampled_from(["thin", "uniform", "near-right", "flat-obtuse"]))
    if kind == "thin":  # aspect 1e0..1e8, apex over the base
        corners = [[1.0, 0.0], [draw(st.floats(0.05, 0.95)), 10.0 ** -draw(st.floats(0.0, 8.0))]]
    elif kind == "uniform":
        corners = [[draw(st.floats(-1.0, 1.0)) for _ in range(2)] for _ in range(2)]
    elif kind == "near-right":  # legs 1 and up to 1e8, the right angle tilted by up to 1e-6
        leg = 10.0 ** draw(st.floats(0.0, 8.0))
        corners = [[1.0, 0.0], [draw(st.floats(-1e-6, 1e-6)) * leg, leg]]
    else:  # the apex beyond the base, low: an angle near pi
        corners = [[1.0, 0.0], [1.0 + draw(st.floats(0.05, 2.0)), 10.0 ** -draw(st.floats(1.0, 8.0))]]
    phi = draw(st.floats(0.0, 2.0 * math.pi))
    rotation = np.array([[math.cos(phi), -math.sin(phi)], [math.sin(phi), math.cos(phi)]])
    scale = math.ldexp(10.0 ** draw(st.floats(-3.0, 1.0)), draw(st.integers(-300, 300)))
    return np.vstack([[0.0, 0.0], np.array(corners) @ rotation.T * scale])


@settings(max_examples=1000, derandomize=True, database=None, deadline=None)
@given(triangles())
def test_angles_and_liu_match_60_digits(verts):
    t = triangle(*verts)
    try:
        got = angles(t)
    except DegenerateSimplexError:
        assume(False)
    (x1, y1), (x2, y2) = verts[1], verts[2]
    kappa = (abs(x1 * y2) + abs(y1 * x2)) / abs(x1 * y2 - y1 * x2)  # the measure's condition number
    lengths = np.sqrt(((verts - np.roll(verts, 1, axis=0)) ** 2).sum(axis=1))
    aspect = lengths.max() / lengths.min()
    ref_angles, ref_liu = angles_and_liu_60(verts)
    with mpmath.workdps(60):
        for theta, ref in zip(got, ref_angles):
            assert abs(theta - ref) <= 8 * U * (kappa * theta + aspect)
        assert abs(mpmath.fsum(got) - mpmath.pi) <= 8 * U * (kappa + aspect)
    liu = liu_bound(t)
    assert math.isfinite(liu) and abs(liu - ref_liu) <= (8 * U * (kappa + aspect) + 1e-12) * ref_liu
