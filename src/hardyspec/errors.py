"""Exception types shared across the package."""


class HardySpecError(Exception):
    """Base class for all package errors."""


class InvalidParameter(HardySpecError, ValueError):
    """A parameter outside the range that the code owning it admits."""


# -- geometry ---------------------------------------------------------------

class PointOutsideDomain(HardySpecError):
    pass


class TooCloseToBoundary(HardySpecError):
    pass


# -- meshing ----------------------------------------------------------------

class InvalidGrading(HardySpecError):
    pass


class MeshGenerationFailure(HardySpecError):
    pass


class StripTooThin(HardySpecError):
    pass


# -- coefficient parsing ----------------------------------------------------

class ParseError(HardySpecError):
    """Syntax error in a coefficient expression.

    Carries the character offset and the set of tokens that would have
    been accepted at that position.
    """

    def __init__(self, message, position, expected=()):
        super().__init__(f"{message} (offset {position})")
        self.position = position
        self.expected = frozenset(expected)


class UnknownVariable(HardySpecError, NameError):
    """A coefficient names a variable its evaluation point does not bind."""


class DivisionByZero(HardySpecError, ZeroDivisionError):
    """A coefficient divides by a subexpression that is the constant zero."""


class NotAxisymmetric(HardySpecError):
    """A torus coefficient names a Cartesian coordinate."""


# -- assembly ---------------------------------------------------------------

class AssemblyError(HardySpecError):
    pass


class NonpositiveDiffusion(AssemblyError):
    pass


class NonpositiveWeight(AssemblyError):
    pass


class SingularQuadrature(AssemblyError):
    pass


class DegenerateBand(AssemblyError):
    pass


# -- eigensolver ------------------------------------------------------------

class FactorizationFailure(HardySpecError):
    pass


class NoConvergence(HardySpecError):
    """Raised when the eigensolver gives up; carries partial results."""

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


# -- hardy constants --------------------------------------------------------

class ExponentOutOfRange(HardySpecError):
    pass


class MethodNotApplicable(HardySpecError):
    pass


# -- CLI --------------------------------------------------------------------

class ConfigError(HardySpecError):
    pass
