"""Exception hierarchy for the toolkit."""


class OdeCartanError(Exception):
    """Base class for all toolkit errors."""


class ExpressionSyntaxError(OdeCartanError):
    """Raised on malformed input text; carries the 0-based position."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownSymbolError(OdeCartanError):
    """A free name is neither a chart coordinate nor a declared function."""


class SymbolCollisionError(OdeCartanError):
    """An opaque-function name clashes with an existing symbol."""


class ChartError(OdeCartanError):
    """Operands live on incompatible charts, or a coordinate is missing."""


class SingularEvaluationError(OdeCartanError):
    """A denominator vanished, or a symbol was left unassigned."""


class SingularSubstitutionError(OdeCartanError):
    """A substitution made a denominator identically zero."""


class DegenerateOdeError(OdeCartanError):
    """The right-hand side has F_qq identically zero."""


class DegenerateCoframeError(OdeCartanError):
    """A coframe's coefficient matrix is singular."""


class StructureConsistencyError(OdeCartanError):
    """The derived coframe differentials do not fit the expected pattern."""


class FamilyRejectionError(OdeCartanError):
    """The right-hand side is not of the Einstein-reducible cubic form."""

    WRONG_Q_DEPENDENCE = "wrong q-dependence"
    COEFFICIENT_DEPENDS_ON_PQ = "coefficient depends on p or q"
    SIGMA_TERM_PRESENT = "sigma-term present"

    def __init__(self, reason, detail=""):
        self.reason = reason
        self.detail = detail
        super().__init__(f"{reason}: {detail}" if detail else reason)


class PetrovDegeneracyError(OdeCartanError):
    """Classification failed at the sample point (pole or singular metric)."""


class ExponentOverflowError(OdeCartanError):
    """An exponent of a symbol exceeds what a monomial can hold."""
