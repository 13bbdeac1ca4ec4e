"""Exception types raised by the engine."""


class CurveFormsError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInput(CurveFormsError, ValueError):
    """Weights, a minimal polynomial or a term outside its valid range."""


class UnknownFixture(CurveFormsError, KeyError):
    """No corpus fixture has the requested name."""


class DivisionByZero(CurveFormsError, ZeroDivisionError):
    """Division by zero, or by a non-invertible element of an extension field."""


class FieldMismatch(CurveFormsError):
    """Operands belong to different coefficient fields."""


class PolySyntaxError(CurveFormsError):
    """Malformed polynomial text.  Carries the 0-based offset of the problem."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownSymbol(PolySyntaxError):
    """A symbol other than x, y or the field generator appeared in input."""


class ZeroInput(CurveFormsError):
    """The operation is undefined for the zero polynomial."""


class RankMismatch(CurveFormsError):
    """Module vectors of different ranks were mixed."""


class NotSquare(CurveFormsError):
    """A square matrix was required."""


class NotTame(CurveFormsError):
    """The top weighted-homogeneous part has an infinite-dimensional quotient."""


class NotFiniteDimensional(CurveFormsError):
    """The Jacobian ideal quotient is not a finite-dimensional vector space."""


class SmoothCurve(CurveFormsError):
    """The construction needs a singular curve (0 must be a critical value)."""


class NotSmooth(CurveFormsError):
    """The shortcut applies to smooth curves only."""


class NotInJacobian(CurveFormsError):
    """A polynomial expected to lie in the Jacobian ideal does not."""


class NotTangent(CurveFormsError):
    """A 1-form does not leave the curve invariant."""


class NotHomogeneous(CurveFormsError):
    """A weighted-homogeneous polynomial was required."""


class FactorNotDividing(CurveFormsError):
    """The given factor does not divide the minimal polynomial."""


class MissingEmbedding(CurveFormsError):
    """Numeric evaluation over an extension field needs a generator embedding."""


class DegenerateWindow(CurveFormsError):
    """Plot window or grid resolution is unusable."""


class InvariantViolation(CurveFormsError):
    """An internal consistency check failed; indicates an engine bug."""
