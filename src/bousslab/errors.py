"""Exception hierarchy for the simulation lab."""


class BousslabError(Exception):
    """Base class for all package errors."""


class ConfigurationError(BousslabError):
    """Invalid or inconsistent configuration input."""


class HistoryUnderrunError(BousslabError):
    """A delayed-trace query fell before the buffered history span."""


class NumericalError(BousslabError):
    """Linear-algebra breakdown (singular closure, failed factorization)."""


class NonlinearDivergenceError(BousslabError):
    """A nonlinear step has no certified Picard fixed point.

    Raised when an iterate is not finite, when the measured contraction
    factor q = |d_k| / |d_{k-1}| of the increments reaches 1 (the discrete
    map does not contract, so the fixed-point argument no longer applies:
    the data have left the small-data regime), or when Banach's bound has
    not accepted an iterate by the iteration cap (`run` logs its step and time).
    """


class CertificationError(BousslabError):
    """Decay certification refused (domain length out of range)."""


class InadmissibleGainsError(BousslabError):
    """Feedback gains violate the admissibility constraint."""
