"""Exception types shared across the package."""

from __future__ import annotations


class CocycleLabError(Exception):
    """Base class for all package errors."""


class ConfigError(CocycleLabError):
    """Malformed or incomplete experiment configuration."""


class HorizonExceeded(CocycleLabError):
    """An orbit access stepped outside a finite symbol window."""


class SingularValueError(CocycleLabError):
    """A matrix that must be invertible is singular to working precision."""


class NoGap(CocycleLabError):
    """No spectral gap resolved at the given sampling budget."""
