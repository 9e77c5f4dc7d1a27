"""Exception types shared across the package."""


class DrwaveError(Exception):
    """Base class for all drwave errors."""


class ValidationError(DrwaveError, ValueError):
    """A structural constraint on input parameters is violated."""


class DomainError(DrwaveError, ValueError):
    """An argument lies outside the domain an operation supports."""


class PoleError(DrwaveError, ArithmeticError):
    """Evaluation requested exactly at a pole."""


class ResolutionError(DrwaveError, RuntimeError):
    """A quadrature or grid failed its self-consistency refinement check."""


class TailMassError(DrwaveError, ValueError):
    """A profile carries too much mass beyond the truncation radius."""


class CalibrationError(DrwaveError, RuntimeError):
    """The Plancherel calibration oracle's reference profiles disagree."""


class PhiBoundError(DrwaveError, RuntimeError):
    """A computed spherical-function value violates the |phi| <= 1 bound."""
