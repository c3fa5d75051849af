"""Exception types shared across the package."""

from __future__ import annotations

import math

__all__ = [
    "LfvdwError",
    "DomainError",
    "ConvergenceError",
    "GeometryError",
    "InvariantError",
    "ConfigError",
]


class LfvdwError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(LfvdwError, ValueError):
    """Argument outside the physical domain: a frequency u < 0, or u = 0 at
    a pole; a model parameter out of range; a multipole order other than 1 or 2."""


class ConvergenceError(LfvdwError, RuntimeError):
    """Adaptive quadrature exhausted its subdivision budget.

    Carries the partial result so callers can inspect how far the
    integration got.
    """

    def __init__(self, message: str, value: float, err_est: float, evals: int):
        super().__init__(message)
        self.value = value
        self.err_est = err_est
        self.evals = evals


class GeometryError(LfvdwError, ValueError):
    """Invalid geometric configuration (separations, shell radii,
    coincident points)."""


class InvariantError(LfvdwError, AssertionError):
    """A physics invariant checked at run time was violated."""


class ConfigError(LfvdwError, ValueError):
    """Malformed or inconsistent run configuration."""


def _check_radius(name: str, value: float) -> None:
    """The one radius check of the package: cavity and shell radii are finite and > 0."""
    if not 0.0 < value < math.inf:
        raise GeometryError(f"{name} radius must be finite and > 0")
