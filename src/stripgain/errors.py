"""Exception hierarchy shared by all stripgain modules.

Every error raised on purpose by the library derives from StripgainError so
callers (and the CLI) can separate analysis failures from programming bugs.
"""


class StripgainError(Exception):
    """Base class for all errors raised by stripgain."""


class InvalidInput(StripgainError):
    """An argument fails a documented precondition."""


class NumericalFailure(StripgainError):
    """A computation finished but violated its own residual check."""


class PoleInStrip(StripgainError):
    """A pole lies inside the closed strip under analysis."""


class PoleOnLine(StripgainError):
    """A pole lies on (or numerically on) the evaluation line."""


class ImproperTransferFunction(StripgainError):
    """Numerator degree exceeds what the operation supports."""


class Unsupported(StripgainError):
    """Input is structurally outside the supported class."""


class WindowTooShort(StripgainError):
    """Sampled window truncates a non-negligible part of the signal."""


class DivergentIntegral(StripgainError):
    """The requested integral does not converge for this input."""


class SingularSylvester(StripgainError):
    """Sylvester/Lyapunov spectra overlap; the equation is singular."""


class NotPDominant(StripgainError):
    """Eigenvalue count right of the shifted axis differs from p."""

    def __init__(self, msg, expected=None, actual=None):
        super().__init__(msg)
        self.expected = expected
        self.actual = actual


class NotPDominantAtSlope(NotPDominant):
    """Dominance failed at one sampled slope of a sector search."""

    def __init__(self, msg, slope=None, expected=None, actual=None):
        super().__init__(msg, expected=expected, actual=actual)
        self.slope = slope


class MarginalRate(StripgainError):
    """An eigenvalue sits numerically on the shifted axis; count unreliable."""


class IllPosed(StripgainError):
    """The algebraic feedback loop is singular."""


class NoCommonROC(StripgainError):
    """Signal terms have no common region of convergence."""


class PoleInROC(StripgainError):
    """The requested region of convergence contains a pole."""
