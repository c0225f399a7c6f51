"""Certified total L2 error bound for the P1 solve on an inscribed polytope.

The polytope is the one the mesh meshes (`mesh.polytope_of_mesh`: the mesh
boundary with its collinear edges merged), validated as convex and
inscribed in the exact domain; no second polytope is passed in.  The bound
is the sum of three certified terms:

  boundary  (1/2) D |Omega|^(1/2) delta ||f||_inf   (domain truncation)
  source    C_P^2 ||f - f_h||                        (data perturbation)
  fem       A_h^2 ||f_h||                            (discretization)

with C_P bounded by D / (sqrt(2) pi) and A_h a guaranteed mesh-wide H1
interpolation constant.  Each `Term` is inflated by (1 + 1e-13) per floating
operation that computed it; the metadata's `guard_factor` is that guard for
all their operations.  No exact-arithmetic machinery is pretended.
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
class Term:
    """A term of the bound: `value`, computed in `ops` floating operations,
    and `bound`, the value inflated by the rounding guard of each."""

    name: str
    value: float
    ops: int

    @property
    def bound(self) -> float:
        return self.value * GUARD_PER_OP**self.ops


@dataclass(frozen=True)
class CertifiedBound:
    """The terms of the bound, and `total`, the sum of their bounds in order."""

    terms: tuple[Term, ...]
    metadata: dict

    @property
    def total(self) -> float:
        return sum(t.bound for t in self.terms)

    def to_json_dict(self) -> dict:
        return {"total": self.total, "terms": {t.name: t.bound for t in self.terms}, "metadata": self.metadata}

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, allow_nan=False)


def _terms(dom: ConvexDomain, poly: PolyApprox, f, c_p: float, pert: float, a_h: float, norm: float, fem_ops: int = 2):
    """The three terms above, in the order they are summed; fem is A_h^2 `norm`."""
    return (
        Term("boundary", 0.5 * dom.diameter * math.sqrt(dom.measure) * poly.gap * f.sup_norm, 4),
        Term("source", c_p * c_p * pert, 2),
        Term("fem", a_h * a_h * norm, fem_ops),
    )


def _certified(terms: tuple[Term, ...], metadata: dict, f) -> CertifiedBound:
    """The bound of `terms`, with `metadata` and the `guard_factor` of all
    their operations; refused by CertifemError when its total overflows, or
    underflows below the smallest normal double for a nonzero source `f`."""
    bound = CertifiedBound(terms, {**metadata, "guard_factor": GUARD_PER_OP ** sum(t.ops for t in terms)})
    # the terms are nonnegative, so the total is finite exactly when each is
    if not math.isfinite(bound.total):
        raise CertifemError("certified bound is not finite: " + ", ".join(f"{t.name} {t.bound}" for t in terms))
    if f.sup_norm > 0 and bound.total < sys.float_info.min:  # the relative guard bounds no subnormal total
        raise CertifemError(f"certified bound {bound.total:.3e} is below the smallest normal double: its rounding is not bounded")
    return bound


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

    c_p = poincare_bound(dom.diameter)

    if fh is None:
        fh = femmod.build_fh(mesh, f, fh_mode)
    # a huge source overflows ||f_h|| to inf, which the check below rejects
    with np.errstate(over="ignore", invalid="ignore"):
        fh_norm = fh.l2_norm()
    pert = femmod.fh_perturbation_bound(mesh, f, fh_mode, qual)

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
        "source": f.name,
    }
    return _certified(_terms(dom, poly, f, c_p, pert, a_h, fh_norm), metadata, f)


def certify_closed_form_2d(dom: ConvexDomain, mesh: meshmod.SimplicialMesh, f: femmod.SourceTerm) -> float:
    """Closed-form bound for non-obtuse 2D meshes with vertex-interpolated
    sources, on the polytope that `mesh` meshes: the terms of
    `certify(..., fh_mode="nodal", strategy="nonblunt")` with ||f_h|| replaced
    by ||f|| + ||f - f_h||, so that it depends on h, D, delta and the norms
    of f alone and upper-bounds that route.  Refuses the totals `certify`
    refuses, with its messages.
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
    c_p = poincare_bound(dom.diameter)
    pert = femmod.fh_perturbation_bound(mesh, f, "nodal", qual)
    return _certified(_terms(dom, poly, f, c_p, pert, icmod.NONBLUNT_COEFF * qual.h, l2 + pert, 3), {}, f).total
