"""Quadrature rules on reference simplices and the 1D Gauss-Legendre rule."""

from __future__ import annotations

import numpy as np

# 6-point rule on the triangle, exact for total degree <= 4.
# Barycentric points; weights normalized to sum to 1 (multiply by |T|).
_A1, _B1 = 0.816847572980459, 0.091576213509771
_A2, _B2 = 0.108103018168070, 0.445948490915965
TRI_D4_BARY = np.array(
    [
        [_A1, _B1, _B1],
        [_B1, _A1, _B1],
        [_B1, _B1, _A1],
        [_A2, _B2, _B2],
        [_B2, _A2, _B2],
        [_B2, _B2, _A2],
    ]
)
TRI_D4_WEIGHTS = np.array(
    [
        0.109951743655322,
        0.109951743655322,
        0.109951743655322,
        0.223381589678011,
        0.223381589678011,
        0.223381589678011,
    ]
)

# 11-point rule on the tetrahedron, exact for total degree <= 4.
# One negative weight is inherent to this rule. Weights sum to 1.
_C1 = 11.0 / 14.0
_C2 = 1.0 / 14.0
_D1 = 0.399403576166799
_D2 = 0.100596423833201


def _perms4(a, b):
    """Distinct permutations of the multiset (a, a, b, b)."""
    out = []
    for i in range(4):
        for j in range(i + 1, 4):
            p = [b, b, b, b]
            p[i] = a
            p[j] = a
            out.append(p)
    return out


TET_D4_BARY = np.array(
    [[0.25, 0.25, 0.25, 0.25]]
    + [[_C1 if k == i else _C2 for k in range(4)] for i in range(4)]
    + _perms4(_D1, _D2)
)
TET_D4_WEIGHTS = np.array([-0.0789333333333333] + [0.0457333333333333] * 4 + [0.1493333333333333] * 6)


def simplex_rule(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Degree-4 rule for the given dimension: (barycentric points, weights)."""
    if dim == 2:
        return TRI_D4_BARY, TRI_D4_WEIGHTS
    if dim == 3:
        return TET_D4_BARY, TET_D4_WEIGHTS
    raise ValueError(f"unsupported dimension {dim}")


def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss-Legendre rule on [-1, 1]."""
    return np.polynomial.legendre.leggauss(n)
