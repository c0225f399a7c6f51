"""Certified total L2 error bound for the P1 solve on an inscribed polytope.

The bound is the sum of three certified terms:

  boundary  (1/2) D |Omega|^(1/2) delta ||f||_inf   (domain truncation)
  source    C_P^2 ||f - f_h||                        (data perturbation)
  fem       A_h^2 ||f_h||                            (discretization)

with C_P bounded by D / (sqrt(n) pi) and A_h a guaranteed mesh-wide H1
interpolation constant.  All bound arithmetic carries a multiplicative
rounding guard of (1 + 1e-13) per floating operation, reported in the
metadata; no exact-arithmetic machinery is pretended.
"""

from __future__ import annotations

import json
import math
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

# Published closed-form coefficients for the non-obtuse, vertex-interpolated
# source variant; each rounds the exact product up.
CLOSED_FORM_C_L2 = 0.1834  # >= 11/60
CLOSED_FORM_C_POINCARE = 9.632e-3  # >= sqrt(3/83) / (2 pi^2)
CLOSED_FORM_C_H4 = 3.486e-2  # >= (11/60) sqrt(3/83)


def _check_closed_form_coefficients() -> None:
    """Startup self-test: the published coefficients must reconstruct from
    {11/60, sqrt(3/83), 2 pi^2} within 5e-4 relative and never round down."""
    exact = (
        11.0 / 60.0,
        math.sqrt(3.0 / 83.0) / (2.0 * math.pi**2),
        (11.0 / 60.0) * math.sqrt(3.0 / 83.0),
    )
    published = (CLOSED_FORM_C_L2, CLOSED_FORM_C_POINCARE, CLOSED_FORM_C_H4)
    for pub, ref in zip(published, exact):
        if pub < ref or abs(pub - ref) / ref > 5e-4:
            raise CertifemError(f"closed-form coefficient {pub} inconsistent with exact value {ref}")


_check_closed_form_coefficients()


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
    em = meshmod.element_metrics(mesh)
    idx = int(np.argmax(em.max_angle))
    return idx, float(em.max_angle[idx])


def certify(
    dom: ConvexDomain,
    poly: PolyApprox,
    mesh: meshmod.SimplicialMesh,
    f: femmod.SourceTerm,
    fh_mode: str = "exact",
    strategy: str = "elementwise",
    rho_convention: str = "radius",
    fh: femmod.DiscreteSource | None = None,
) -> CertifiedBound:
    """Assemble the certified three-term L2 error bound.

    `fh` reuses the discrete source of an earlier solve (the second value
    `solve_poisson` returns); it must have been built on `mesh` from `f` in
    `fh_mode`, else ValueError.  Raises StrategyInapplicableError when the
    chosen mesh-wide constant does not apply (naming the worst element for
    the non-obtuse strategy), NotInscribedError when the mesh boundary
    leaves the polytope, and CertifemError when the bound overflows.
    """
    # identity, not ==: comparing meshes would compare their arrays
    if fh is not None and not (fh.mesh is mesh and fh.source is f and fh.mode == fh_mode):
        raise ValueError("fh was built for another mesh, source or f_h mode")
    meshmod.check_boundary_on_poly(mesh, poly)
    qual = meshmod.quality(mesh)
    if strategy == "nonblunt" and mesh.dim == 2 and not qual.nonblunt:
        idx, ang = _worst_angle_element(mesh)
        raise StrategyInapplicableError(
            f"nonblunt strategy needs a mesh without obtuse angles; element {idx} has max angle {ang:.6f} rad"
        )
    if strategy == "minangle" and mesh.dim != 2:
        raise StrategyInapplicableError("minangle strategy is 2D only")
    if strategy == "regularity" and mesh.dim != 3:
        raise StrategyInapplicableError("regularity strategy is 3D only")

    constants = icmod.mesh_constants(mesh, qual, rho_convention)
    a_h = constants.value(strategy)

    c_p = poincare_bound(mesh.dim, dom.diameter)

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

    metadata = {
        "dim": mesh.dim,
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
    if mesh.dim == 3:
        metadata["rho_convention"] = rho_convention
    return CertifiedBound(term_boundary, term_source, term_fem, total, metadata)


def certify_closed_form_2d(
    dom: ConvexDomain,
    poly: PolyApprox,
    mesh: meshmod.SimplicialMesh,
    f: femmod.SourceTerm,
) -> float:
    """Fully closed-form bound for non-obtuse 2D meshes with vertex-interpolated
    sources:

        (1/2) D |Omega|^(1/2) delta ||f||_inf + 0.1834 h^2 |f|_0
        + 9.632e-3 D^2 h^2 |f|_2 + 3.486e-2 h^4 |f|_2

    Upper-bounds the sharper `certify(..., strategy="nonblunt", fh_mode="nodal")`
    route because ||f_h|| is replaced by |f|_0 plus an interpolation remainder.
    """
    if mesh.dim != 2:
        raise NotNonBluntError("closed-form bound is 2D only")
    qual = meshmod.quality(mesh)
    if not qual.nonblunt:
        idx, ang = _worst_angle_element(mesh)
        raise NotNonBluntError(f"mesh has an obtuse element {idx} (max angle {ang:.6f} rad)")
    if f.sup_norm is None or f.h2_seminorm is None:
        raise MissingNormMetadata("closed-form bound needs sup_norm and h2_seminorm")
    l2 = f.l2_norm
    if l2 is None:
        # Exact for polynomial data up to degree 2; quadrature-accurate otherwise.
        fh = femmod.build_fh(mesh, f, "exact")
        l2 = fh.l2_norm()
    h = qual.h
    d = dom.diameter
    term1 = _boundary_term(dom, poly, f)
    term2 = _guard(CLOSED_FORM_C_L2 * h * h * l2, 3)
    term3 = _guard(CLOSED_FORM_C_POINCARE * d * d * h * h * f.h2_seminorm, 5)
    term4 = _guard(CLOSED_FORM_C_H4 * h**4 * f.h2_seminorm, 3)
    return term1 + term2 + term3 + term4
