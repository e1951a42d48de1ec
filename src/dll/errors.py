"""Exception hierarchy for the dll package.

Numerical failures (singular windows, rank deficiency, too little local
data) derive from :class:`NumericalError` so callers can map
them to a single failure class; input problems derive from
:class:`DataError`.
"""


class DLLError(Exception):
    """Base class for all package errors."""


class DataError(DLLError):
    """Malformed or unusable input data (CSV parsing, shape mismatches)."""


class NumericalError(DLLError):
    """A computation could not be carried out reliably."""


class InvalidBandwidthError(NumericalError):
    """Bandwidth must be strictly positive."""


class InsufficientLocalDataError(NumericalError):
    """Too few observations inside the kernel window."""


class SingularDesignError(NumericalError):
    """A normalizing sum is numerically zero; the estimator is undefined."""


class RankDeficientError(NumericalError):
    """Design matrix does not have full column rank."""


class SampleTooSmallError(NumericalError):
    """Not enough observations for the requested fit."""


class ZeroMassError(NumericalError):
    """A density places no mass on the integration window."""


class BandwidthSelectionError(NumericalError):
    """Automatic bandwidth selection failed; supply h manually."""
