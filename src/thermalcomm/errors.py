"""Error and warning types shared across the library."""


class NumericFailure(RuntimeError):
    """A numerical routine failed to converge or overflowed."""


class TruncationError(RuntimeError):
    """A truncated Fock-space computation is unreliable at the given dimension."""


class TruncationWarning(UserWarning):
    """The requested truncation dimension is marginal for the state involved."""


class SupportError(NumericFailure):
    """First argument of a relative entropy has mass outside the second's
    support.  Numeric, not usage: against a thermal tau, as in the rates,
    it comes only from tau's tail weights falling under ``fock.EIG_FLOOR``."""
