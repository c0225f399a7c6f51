"""Exception types shared across the package."""


class CertifemError(Exception):
    """Base class for all certifem errors."""


class DegenerateSimplexError(CertifemError):
    """Simplex measure is below the degeneracy threshold."""


class InvalidDirectionError(CertifemError):
    """Support-function direction is not a unit vector."""


class NotInscribedError(CertifemError):
    """Polytope sticks out of the domain it is supposed to approximate."""


class InvalidPolygonError(CertifemError):
    """Vertex/facet list does not describe a valid convex polytope."""


class MeshParseError(CertifemError):
    """Mesh file is malformed (bad syntax, indices out of range, ...)."""


class NonConformingMeshError(CertifemError):
    """A facet is shared by more than two elements."""


class InvertedElementError(CertifemError):
    """Element has nonpositive measure even after an orientation fix."""


class NegativeRadicandError(CertifemError):
    """Interpolation-constant radicand is negative beyond tolerance."""


class ConstraintRankError(CertifemError):
    """Vertex constraints of the eigenvalue probe are rank deficient."""


class MissingNormMetadata(CertifemError):
    """Source term lacks the norm required by the chosen bound."""


class SupNormViolationError(CertifemError):
    """Source term exceeded its declared sup norm at a quadrature point."""


class StrategyInapplicableError(CertifemError):
    """Requested global-constant strategy does not apply to this mesh."""


class NotNonBluntError(CertifemError):
    """Closed-form bound requires a mesh without obtuse triangles."""


class BoundViolationError(CertifemError):
    """Measured error exceeded a certified bound."""
