"""Certified a-priori L2 error bounds for P1 finite elements on convex domains.

The pipeline: model an exact convex domain through its support function,
inscribe a polytope with an exactly computed boundary gap, mesh it, bound
the mesh-wide interpolation constants, and assemble a fully explicit error
bound that provably dominates the measured error of the P1 solve.
"""

from .domain import (
    ConvexDomain,
    ConvexPolygon,
    Disk,
    PolyApprox,
    gap_delta,
    inscribed_regular_polygon,
    make_poly_approx,
    poly_approx_of_polygon,
)
from .errors import (
    BoundViolationError,
    CertifemError,
    DegenerateSimplexError,
    InvalidDirectionError,
    InvalidPolygonError,
    InvalidSourceError,
    InvertedElementError,
    MeshParseError,
    MissingNormMetadata,
    NegativeRadicandError,
    NonConformingMeshError,
    NotInscribedError,
    NotNonBluntError,
    StrategyInapplicableError,
    SupNormViolationError,
)
from .estimator import CertifiedBound, Term, certify, certify_closed_form_2d, poincare_bound
from .fem import (
    FemSolution,
    LinearSystem,
    SourceTerm,
    assemble_load,
    assemble_stiffness,
    build_fh,
    dirichlet_system,
    fem_h1_seminorm,
    fem_l2_norm,
    fh_perturbation_bound,
    l2_error_interior,
    poincare_residual,
    solve_cg,
    solve_poisson,
)
from .geometry import (
    Simplex,
    angles,
    barycenter,
    circumcenter,
    circumradius,
    edge_lengths,
    inradius,
    measure,
    min_angle,
    triangle,
)
from .interp_constants import (
    GlobalConstants,
    global_l2_bound,
    kobayashi_bound_2d,
    mesh_constants,
    min_angle_global,
)
from .mesh import (
    MeshQuality,
    SimplicialMesh,
    build_mesh,
    generate_fan_refined,
    load,
    measure_sum,
    polytope_of_mesh,
    quality,
    refine_uniform,
    save,
)
from .verify import (
    ConvergenceLevel,
    ConvergenceReport,
    ExactSolution,
    actual_l2_error,
    convergence_study,
    default_refine_rule,
    disk_study_row,
    registry,
    run_disk_study,
    verify_case,
)

__version__ = "0.1.0"
