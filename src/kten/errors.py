"""Exception and warning types shared across the package.

Two failure families matter for the CLI exit-code contract: bad inputs
(ValidationError, exit 1) and numerical breakdowns detected at run time
(NumericalError, exit 2).
"""


class KtenError(Exception):
    """Base class for all package errors."""


class ValidationError(KtenError):
    """Input violates a documented precondition or type invariant."""


class NumericalError(KtenError):
    """A computation failed or left its supported regime."""


# -- validation family --------------------------------------------------------

class NonUnitNormal(ValidationError):
    """A direction argument is not a unit vector."""


class ZeroRelativeVelocity(ValidationError):
    """Pre- and post-collision velocities coincide where they must not."""


class EqualMasses(ValidationError):
    """Mixture operation called with m_i == m_j; use the mono-species path."""


class CoincidentPoints(ValidationError):
    """Kernel evaluation requested at u == u'."""


class SingularAtZeroSpeed(ValidationError):
    """Kernel with negative speed exponent evaluated at zero relative speed."""


class EpsOutOfRange(ValidationError):
    """Region-estimate eps outside (0, 1 - 1/rho)."""


class InsufficientGrid(ValidationError):
    """Scaling fit requested with fewer than 4 points in a regime."""


class InsufficientData(ValidationError):
    """Tail fit window lacks the required populated bins."""


class HistoryGap(ValidationError):
    """Loss-rate history does not cover the requested time interval."""


class EmptySeries(ValidationError):
    """Uniformity scan received no snapshots past t0."""


class UnknownSubcommand(ValidationError):
    """CLI dispatch got an unrecognized subcommand."""


# -- numerical family ---------------------------------------------------------

class ConvergenceFailure(NumericalError):
    """Root finding exhausted its iteration budget."""


class DivergentIntegral(NumericalError):
    """Angular integral fails the refinement tail test (s >= 1 strength)."""


class GuardViolated(NumericalError):
    """A spreading-step guard inequality failed."""

    def __init__(self, message, n=None):
        super().__init__(message)
        self.n = n


class MajorantViolation(NumericalError):
    """Observed pair rate exceeded the majorant (recoverable by inflation)."""


class NonFiniteResult(NumericalError):
    """Inner quadrature remainder indicates a non-integrable singularity."""


# -- warnings ------------------------------------------------------------------

class QuadratureTruncationWarning(UserWarning):
    """Truncated quadrature may carry non-negligible tail mass."""


class DegenerateGeometry(UserWarning):
    """Every sampled hyperplane missed the ball; estimate is zero."""


class MajorantInflationWarning(UserWarning):
    """Majorant was inflated after an observed violation."""
