"""Test-only quantities that no certify or verify path computes, kept beside
the tests that check them."""

import math

import numpy as np

from certifem import Simplex, angles
from certifem import mesh as meshmod
from certifem.geometry import EDGES, NONBLUNT_TOL


def edge_count(mesh: meshmod.SimplicialMesh) -> int:
    """Unique edges, for Euler-formula style checks."""
    return np.unique(meshmod._keys(mesh.elements, mesh.node_count, list(zip(*EDGES[mesh.dim])))).size


def is_nonblunt(t: Simplex) -> bool:
    """True iff no interior angle exceeds pi/2 (right angles admitted)."""
    return max(angles(t)) <= math.pi / 2.0 + NONBLUNT_TOL
