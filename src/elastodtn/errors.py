"""Exception hierarchy for the solver library."""


class ElastoDtnError(Exception):
    """Base class for all library errors."""


class InvalidParameter(ElastoDtnError, ValueError):
    """A numeric or categorical input lies outside its valid range."""


# --- special functions ---

class NonPositiveArgument(ElastoDtnError):
    """Bessel/Hankel argument must be strictly positive."""


class OverflowRegime(ElastoDtnError):
    """|Y_n(z)| left the representable range before the requested order."""


class OrderCapExceeded(ElastoDtnError, ValueError):
    """Requested Bessel order is above the supported maximum (1024)."""


class DegenerateMode(ElastoDtnError):
    """Lambda_n is numerically singular; the mode matrix cannot be formed."""


# --- geometry / radii ---

class InvalidRadii(ElastoDtnError):
    """Radius ordering violated (need 0 < inner < outer)."""


class OriginEvaluation(ElastoDtnError):
    """Field requested at r = 0 where the expression is singular."""


# --- boundary traces ---

class EmptyBoundary(ElastoDtnError):
    """Fewer than 3 nodes on the outer circle."""


# --- mesh ---

class ParseError(ElastoDtnError):
    """Mesh file is malformed; message carries the line number."""


class NonConforming(ElastoDtnError):
    """An edge is shared by more than two triangles (or duplicated)."""


class OrientationError(ElastoDtnError):
    """A triangle is not counterclockwise."""


class ThetaOutOfRange(ElastoDtnError):
    """Marking fraction must lie strictly inside (0, 1)."""


# --- assembly / solve ---

class SingularElement(ElastoDtnError):
    """Triangle area below tolerance; the mesh is broken."""


class SingularSystem(ElastoDtnError):
    """Factorization failed or the residual check did not pass."""


class MeshMismatch(ElastoDtnError):
    """Fields live on different mesh generations."""


# --- driver / verification ---

class IterationCapReached(ElastoDtnError):
    """Adaptive loop hit the iteration cap before reaching tolerance.

    The partial run history is attached as ``.history``.
    """

    def __init__(self, message, history=None):
        super().__init__(message)
        self.history = history


class InsufficientData(ElastoDtnError):
    """Not enough points for a least-squares rate fit."""
