"""Exception taxonomy shared by all subsystems.

Every error that a caller is expected to handle programmatically derives
from :class:`FractalFourierError`.  Each class states its own exit code
and the prefix of the line ``cli.main`` reports it with,
``<prefix>: <message>`` on stderr: config problems exit 2, inconsistent
profiles 3, budget overruns 4, and any other library error 5.
"""


class FractalFourierError(Exception):
    """Base class for all library errors."""

    exit_code, prefix = 5, "error"


class InvalidIFS(FractalFourierError):
    """An iterated function system violates a structural invariant."""

    exit_code, prefix = 2, "config error"


class BadConfig(FractalFourierError):
    """A configuration value is out of range or malformed."""

    exit_code, prefix = 2, "config error"


class ResourceExceeded(FractalFourierError):
    """A computation would exceed its enumeration budget.

    ``budget_name`` identifies which budget was hit, and the prefix names it.
    """

    exit_code = 4

    def __init__(self, message: str, budget_name: str = "leaf_budget"):
        super().__init__(message)
        self.budget_name = budget_name

    @property
    def prefix(self) -> str:
        return f"resource exceeded ({self.budget_name})"


class InconsistentProfile(FractalFourierError):
    """A dimension profile violates the exponent ordering chain.

    ``violated`` names the specific inequality, e.g. ``"kappa1 <= d_inf"``.
    """

    exit_code, prefix = 3, "inconsistent profile"

    def __init__(self, violated: str, detail: str = ""):
        self.violated = violated
        message = f"inconsistent profile, violated: {violated}"
        if detail:
            message += f" ({detail})"
        super().__init__(message)


class MissingExponent(FractalFourierError):
    """A bound formula needs an exponent the profile does not supply."""

    exit_code, prefix = 2, "config error"


class NotApplicable(FractalFourierError):
    """The hypotheses of the requested formula are not met."""

    exit_code, prefix = 2, "config error"


class Unsupported(FractalFourierError):
    """The operation is not defined for this ambient dimension or kind."""

    exit_code, prefix = 2, "config error"


class MissingHessianBound(FractalFourierError):
    """The order-1 scheme needs a Hessian bound that was not supplied."""

    exit_code, prefix = 2, "config error"


class SupportNotPositive(FractalFourierError):
    """A factor measure's support hull is not contained in (0, inf)."""

    exit_code, prefix = 2, "config error"


class CenterInsideSupport(FractalFourierError):
    """A radial-projection centre coordinate intersects the support hull."""

    exit_code, prefix = 2, "config error"
