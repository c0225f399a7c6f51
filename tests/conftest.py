import math

import numpy as np
import pytest

from certifem import DegenerateSimplexError, Simplex, measure


def sample_triangle(rng, scale=1.0, min_area=1e-6):
    """Uniform random triangle in [-scale, scale]^2, rejecting degenerates."""
    while True:
        pts = rng.uniform(-scale, scale, (3, 2))
        t = Simplex(pts)
        try:
            if measure(t) >= min_area * scale * scale:
                return t
        except DegenerateSimplexError:
            continue


def sample_nonblunt_apex(rng):
    """Apex (a, b) of a non-obtuse triangle with base (-1/2,0)-(1/2,0) and
    unit longest edge: inside the unit circle about (-1/2, 0), outside the
    circle of radius 1/2 about the origin."""
    while True:
        a = rng.random() * 0.5
        b = rng.random() * (math.sqrt(3.0) / 2.0)
        if b <= 1e-12:
            continue
        if (a + 0.5) ** 2 + b * b <= 1.0 and a * a + b * b >= 0.25:
            return a, b


def nonblunt_corner_apexes(count=50):
    """Deterministic apexes approaching the extremal corner of the region."""
    out = []
    for b in np.geomspace(1e-4, 0.05, count):
        a = math.sqrt(1.0 - b * b) - 0.5
        out.append((a, float(b)))
    return out


def nonblunt_triangle(a, b) -> Simplex:
    return Simplex([[-0.5, 0.0], [0.5, 0.0], [a, b]])


def triangle_from_angles(deg1, deg2) -> Simplex:
    """Triangle with the given two angles (degrees) at the unit base."""
    t1 = math.radians(deg1)
    t2 = math.radians(deg2)
    t3 = math.pi - t1 - t2
    cx = math.sin(t2) / math.sin(t3) * math.cos(t1)
    cy = math.sin(t2) / math.sin(t3) * math.sin(t1)
    return Simplex([[0.0, 0.0], [1.0, 0.0], [cx, cy]])


def random_rotation(rng):
    a = rng.uniform(0.0, 2.0 * math.pi)
    return np.array([[math.cos(a), -math.sin(a)], [math.sin(a), math.cos(a)]])


@pytest.fixture
def rng():
    return np.random.default_rng(0)
