"""Exception hierarchy shared across the package."""


class PhaseRetrievalError(Exception):
    """Base class for every error raised by stftpr."""


class DimensionMismatchError(PhaseRetrievalError, ValueError):
    """Array lengths or shapes do not agree."""


class ConfigurationError(PhaseRetrievalError, ValueError):
    """Invalid instance geometry or parameter values."""


class InvalidWindowError(PhaseRetrievalError, ValueError):
    """A window is identically zero (after tolerance thresholding) or has a
    NaN or infinite entry."""


class CertificationError(PhaseRetrievalError):
    """The window family fails a recoverability certificate.

    Raised when a modulation matrix is rank-deficient or a supporting length
    exceeds half the signal length.  ``failing`` lists the offending hop
    residues (or window indices, for the length check).
    """

    def __init__(self, message: str, failing=()):
        super().__init__(message)
        self.failing = tuple(failing)


class DisconnectedGraphError(PhaseRetrievalError):
    """A support graph required to be connected is not.

    ``components`` carries the certificate: sorted vertex lists, one per
    connected component.
    """

    def __init__(self, message: str, components=()):
        super().__init__(message)
        self.components = tuple(tuple(c) for c in components)


class DegenerateEdgeError(PhaseRetrievalError):
    """Every witness of an edge has evidence magnitude below tolerance."""

    def __init__(self, message: str, endpoints=None):
        super().__init__(message)
        self.endpoints = endpoints


class InvalidPartitionError(PhaseRetrievalError, ValueError):
    """Component set does not separate the support graph."""


class InvalidPriorError(PhaseRetrievalError, ValueError):
    """A required prior (e.g. smallest nonzero magnitude) is missing or nonpositive."""


class UndefinedBudgetError(PhaseRetrievalError, ValueError):
    """Error budget undefined: empty reference support, or a bound denominator that underflows."""


class SearchSpaceError(PhaseRetrievalError, ValueError):
    """Exhaustive search refused: candidate count above the hard cap."""
