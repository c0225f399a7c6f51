"""Certified total L2 error bound for the P1 solve on an inscribed polytope.

The polytope is the one the mesh meshes (`mesh.polytope_of_mesh`: the mesh
boundary with its collinear edges merged), validated as convex and
inscribed in the exact domain; no second polytope is passed in.  The bound
is the sum of three certified terms:

  boundary  (1/2) D |Omega|^(1/2) delta ||f||_inf   (domain truncation)
  source    C_P^2 ||f - f_h||                        (data perturbation)
  fem       A_h^2 ||f_h||                            (discretization)

with C_P bounded by D / (sqrt(2) pi) and A_h a guaranteed mesh-wide H1
interpolation constant.  All bound arithmetic carries a multiplicative
rounding guard of (1 + 1e-13) per floating operation, reported in the
metadata; no exact-arithmetic machinery is pretended.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import fem as femmod
from . import interp_constants as icmod
from . import mesh as meshmod
from .domain import ConvexDomain, PolyApprox
from .errors import (
    CertifemError,
    MissingNormMetadata,
    NotNonBluntError,
    StrategyInapplicableError,
)
from .fem import poincare_bound

GUARD_PER_OP = 1.0 + 1e-13

@dataclass(frozen=True)
class CertifiedBound:
    term_boundary: float
    term_source: float
    term_fem: float
    total: float
    metadata: dict

    def to_json_dict(self) -> dict:
        return {
            "total": self.total,
            "terms": {
                "boundary": self.term_boundary,
                "source": self.term_source,
                "fem": self.term_fem,
            },
            "metadata": self.metadata,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, allow_nan=False)


def _guard(value: float, ops: int) -> float:
    """Inflate a nonnegative bound by the rounding guard for `ops` operations."""
    return value * GUARD_PER_OP**ops


def _boundary_term(dom: ConvexDomain, poly: PolyApprox, f: femmod.SourceTerm) -> float:
    """Guarded domain-truncation term (1/2) D |Omega|^(1/2) delta ||f||_inf."""
    return _guard(0.5 * dom.diameter * math.sqrt(dom.measure) * poly.gap * f.sup_norm, 4)


def _worst_angle_element(mesh: meshmod.SimplicialMesh) -> tuple[int, float]:
    """The first element with the largest angle, and that angle."""
    idx, widest, first = 0, -math.inf, 0
    for em in meshmod._metric_blocks(mesh):
        k = int(np.argmax(em.max_angle))
        if em.max_angle[k] > widest:
            idx, widest = first + k, float(em.max_angle[k])
        first += em.max_angle.size
    return idx, widest


def certify(
    dom: ConvexDomain,
    mesh: meshmod.SimplicialMesh,
    f: femmod.SourceTerm,
    fh_mode: str = "exact",
    strategy: str = "elementwise",
    fh: femmod.DiscreteSource | None = None,
) -> CertifiedBound:
    """Assemble the certified three-term L2 error bound on the polytope that
    `mesh` meshes (`mesh.polytope_of_mesh`).

    `fh` reuses the discrete source of an earlier solve (the second value
    `solve_poisson` returns); it must have been built on `mesh` from `f` in
    `fh_mode`, else ValueError.  Raises StrategyInapplicableError when the
    chosen mesh-wide constant does not apply (naming the worst element for
    the non-obtuse strategy), a CertifemError such as NotInscribedError when
    the mesh's polytope is not a convex polytope inscribed in `dom`, and
    CertifemError when the bound overflows, or underflows below the smallest
    normal double for a nonzero source.
    """
    if fh is not None and not (fh.mesh is mesh and fh.source is f and fh.mode == fh_mode):
        raise ValueError("fh was built for another mesh, source or f_h mode")
    poly = meshmod.polytope_of_mesh(dom, mesh)
    qual = meshmod.quality(mesh)
    if strategy == "nonblunt" and not qual.nonblunt:
        idx, ang = _worst_angle_element(mesh)
        raise StrategyInapplicableError(
            f"nonblunt strategy needs a mesh without obtuse angles; element {idx} has max angle {ang:.6f} rad"
        )

    constants = icmod.mesh_constants(mesh, qual)
    a_h = constants.value(strategy)

    c_p = poincare_bound(2, dom.diameter)

    if fh is None:
        fh = femmod.build_fh(mesh, f, fh_mode)
    # a huge source overflows ||f_h|| to inf, which the check below rejects
    with np.errstate(over="ignore", invalid="ignore"):
        fh_norm = fh.l2_norm()
    pert = femmod.fh_perturbation_bound(mesh, f, fh_mode, qual)

    term_boundary = _boundary_term(dom, poly, f)
    term_source = _guard(c_p * c_p * pert, 2)
    term_fem = _guard(a_h * a_h * fh_norm, 2)
    total = term_boundary + term_source + term_fem
    # the terms are nonnegative, so the total is finite exactly when each is
    if not math.isfinite(total):
        raise CertifemError(
            f"certified bound is not finite: boundary {term_boundary}, source {term_source}, fem {term_fem}"
        )
    if f.sup_norm > 0 and total < sys.float_info.min:  # the relative guard bounds no subnormal total
        raise CertifemError(f"certified bound {total:.3e} is below the smallest normal double: its rounding is not bounded")

    metadata = {
        "dim": 2,
        "diameter": dom.diameter,
        "domain_measure": dom.measure,
        "gap": poly.gap,
        "poincare_bound": c_p,
        "strategy": strategy,
        "a_h": a_h,
        "a_h_available": constants.available(),
        "fh_mode": fh_mode,
        "fh_norm": fh_norm,
        "fh_perturbation_bound": pert,
        "mesh": {"h": qual.h, "elements": qual.element_count, "nodes": qual.node_count},
        "guard_factor": GUARD_PER_OP**8,
        "source": f.name,
    }
    return CertifiedBound(term_boundary, term_source, term_fem, total, metadata)


def certify_closed_form_2d(dom: ConvexDomain, mesh: meshmod.SimplicialMesh, f: femmod.SourceTerm) -> float:
    """Closed-form bound for non-obtuse 2D meshes with vertex-interpolated
    sources, on the polytope that `mesh` meshes: the terms of
    `certify(..., fh_mode="nodal", strategy="nonblunt")` with ||f_h|| replaced
    by ||f|| + ||f - f_h||, so that it depends on h, D, delta and the norms
    of f alone and upper-bounds that route.
    """
    poly = meshmod.polytope_of_mesh(dom, mesh)
    qual = meshmod.quality(mesh)
    if not qual.nonblunt:
        idx, ang = _worst_angle_element(mesh)
        raise NotNonBluntError(f"mesh has an obtuse element {idx} (max angle {ang:.6f} rad)")
    if f.sup_norm is None or f.h2_seminorm is None:
        raise MissingNormMetadata("closed-form bound needs sup_norm and h2_seminorm")
    l2 = f.l2_norm
    if l2 is None:
        # Exact for polynomial data up to degree 2; quadrature-accurate otherwise.
        l2 = femmod.build_fh(mesh, f, "exact").l2_norm()
    c_p = poincare_bound(2, dom.diameter)
    pert = femmod.fh_perturbation_bound(mesh, f, "nodal", qual)
    a = icmod.NONBLUNT_COEFF * qual.h
    return _boundary_term(dom, poly, f) + _guard(c_p * c_p * pert, 2) + _guard(a * a * (l2 + pert), 3)
