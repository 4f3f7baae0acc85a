"""Exception hierarchy shared across the package.

Numerical failures (blow-ups, rank deficiencies, ill-conditioned fits) are kept
separate from configuration/input problems so the CLI can map them to distinct
exit codes.
"""


class FppLabError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(FppLabError):
    """Malformed configuration, schema violation, or inconsistent inputs."""


class InsufficientSampleError(FppLabError):
    """Too few Monte Carlo paths (or samples) for the requested diagnostic."""


class NumericalError(FppLabError):
    """Base class for failures of the numerical routines themselves."""


class SingularModelError(NumericalError):
    """sigma(y) is rank-deficient at a point where full column rank is required."""


class SingularProjectionError(NumericalError):
    """Correlation estimate is rank-deficient; the orthonormal factor is undefined."""


class DimensionError(ConfigError):
    """Matrix/vector dimensions are incompatible with the requested operation."""


class RiccatiBlowUpError(NumericalError):
    """Riccati solution escapes the finite-value region before the horizon."""

    def __init__(self, blow_up_time: float, component: int | None = None):
        self.blow_up_time = blow_up_time
        self.component = component
        where = f" (component {component})" if component is not None else ""
        super().__init__(f"Riccati solution blows up at t={blow_up_time:.6g}{where}")


class ClosedFormInapplicableError(NumericalError):
    """The closed-form Riccati solution does not apply (non-diagonal coupling
    or a non-positive discriminant)."""


class ExponentOverflowError(NumericalError):
    """exp() argument beyond the double-precision range."""


class NonRepresentableError(NumericalError):
    """Sample series is not a positive exponential mixture at the requested order."""


class ConditioningError(NumericalError):
    """Linear system too ill-conditioned for a trustworthy solve."""


class InconsistentDataError(NumericalError):
    """Sample series cannot be reconciled with the fixed spectral measure."""


class IntegrationError(NumericalError):
    """ODE/quadrature routine failed to reach the requested target."""


class SimulationError(NumericalError):
    """Non-finite value encountered while generating sample paths."""

    def __init__(self, message: str, path: int | None = None, step: int | None = None):
        self.path = path
        self.step = step
        if path is not None or step is not None:
            message = f"{message} [path={path}, step={step}]"
        super().__init__(message)


class ConcavityViolationError(NumericalError):
    """Candidate value function is not strictly concave in wealth on the grid."""


class PositivityError(NumericalError):
    """A quantity required to be strictly positive is not."""
