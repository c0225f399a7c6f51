"""The degree-4 rule on the reference triangle and the 1D Gauss-Legendre rule."""

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


def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss-Legendre rule on [-1, 1]."""
    return np.polynomial.legendre.leggauss(n)
