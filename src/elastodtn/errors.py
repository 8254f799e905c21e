"""Exception hierarchy for the solver library, and the shared count check."""

import numbers


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


# --- driver / verification ---

class InsufficientData(ElastoDtnError):
    """Not enough points for a least-squares rate fit."""


def check_count(name: str, value, least: int) -> None:
    """Raise InvalidParameter unless value is an integer >= least; a bool,
    a fractional, nan or inf count is refused before any work."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise InvalidParameter(f"{name} must be a finite integer, got {value!r}")
    if value < least:
        raise InvalidParameter(f"need {name} >= {least}, got {value}")
