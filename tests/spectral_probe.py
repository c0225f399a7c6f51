"""Spectral lower-bound probe for the P1 interpolation constant (test oracle).

A dense generalized eigen-solve yields *lower* bounds for the H1
interpolation constant of a triangle, which tests use to sanity-check the
certified upper bounds of `certifem.interp_constants`.  They are lower bounds
in exact arithmetic; in floating point their error grows with the triangle's
conditioning, so tests apply them to triangles with angles >= 5 degrees or
area >= 1e-3.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import eigh

from certifem import CertifemError, Simplex
from certifem.geometry import _vertex_geometry
from oracles import reference_monomial_integral


class ConstraintRankError(CertifemError):
    """Vertex constraints of the eigenvalue probe are rank deficient."""


def rayleigh_lower_bound(t: Simplex, degree: int = 4) -> float:
    """Lower bound for the element H1 interpolation constant.

    Maximizes |v|_1 / |v|_2 over polynomials of total degree <= `degree`
    vanishing at the vertices: both forms come from derivative matrices on the
    monomial coefficients and the exact reference-triangle Gram matrix, and one
    generalized eigen-solve gives the top eigenvector.  The result is the square
    root of its Rayleigh quotient, which bounds the supremum from below in exact
    arithmetic.  In floating point its error grows with the triangle's
    conditioning (on a needle it can exceed a certified upper bound), so tests
    use it on triangles with angles >= 5 degrees or area >= 1e-3.
    """
    if not 2 <= degree <= 6:
        raise ValueError("degree must be between 2 and 6")
    b_map = t.vertices[1:] - t.vertices[0]  # rows are edge vectors; x = v0 + B^T xi
    signed, edge_sq = _vertex_geometry(t.vertices[None])  # det(B) = 2 * signed measure
    if abs(2.0 * signed[0]) <= 1e-13 * edge_sq.max():
        raise ConstraintRankError("degenerate vertex placement")

    exps = [(i, total - i) for total in range(degree + 1) for i in range(total + 1)]
    index = {e: k for k, e in enumerate(exps)}
    n = len(exps)
    d_ref = np.zeros((2, n, n))  # d/dxi, d/deta on monomial coefficients
    for k, (i, j) in enumerate(exps):
        if i:
            d_ref[0, index[i - 1, j], k] = i
        if j:
            d_ref[1, index[i, j - 1], k] = j
    gram = np.array([[reference_monomial_integral((i + p, j + q)) for p, q in exps] for i, j in exps])
    # polynomials vanishing at the reference vertices (0,0), (1,0), (0,1):
    # the monomials of degree >= 2, pure powers of xi (eta) minus xi (eta)
    basis = np.eye(n)[:, 3:]
    basis[index[1, 0]] = [-float(j == 0) for _, j in exps[3:]]
    basis[index[0, 1]] = [-float(i == 0) for i, _ in exps[3:]]
    grad = np.einsum("ab,bmn->amn", np.linalg.inv(b_map), d_ref)  # grad_x = B^-1 grad_xi
    first = grad @ basis
    second = (grad[:, None] @ first[None]).reshape(4, n, n - 3)
    # the Jacobian |det B| scales both forms alike and cancels in the quotient
    a_form = sum(f.T @ gram @ f for f in first)
    m_form = sum(s.T @ gram @ s for s in second)
    try:
        _, vec = eigh(a_form, m_form, subset_by_index=[n - 4, n - 4])
    except np.linalg.LinAlgError as exc:
        raise ConstraintRankError(f"H2 form not positive definite on constrained space: {exc}") from exc
    w = vec[:, 0]
    lam = float(w @ a_form @ w) / float(w @ m_form @ w)
    return math.sqrt(max(lam, 0.0))
