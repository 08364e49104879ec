"""Package-wide exception types."""

__all__ = ["ReproError", "ConfigError", "InfeasibleBufferError"]


class ReproError(Exception):
    """Base class for errors raised by this package."""


class ConfigError(ReproError):
    """Invalid configuration — e.g. a numeric join over a distance the
    joiners have no kernel cascade for.

    Raised eagerly, before any work starts, so an unsupported setup
    fails loudly instead of surfacing mid-join.
    """


class InfeasibleBufferError(ReproError):
    """A join method cannot run within the given buffer budget.

    BFRJ raises this when its intermediate join index alone would exceed
    the buffer — the reason Figure 13(a) omits BFRJ below 200 pages.
    """
