"""Core domain types: instance configuration, support sets, global-phase comparison.

Signals and windows are plain 1-d complex ndarrays of length ``n``; every index
is cyclic with canonical representative in ``[0, n)``.  Reconstruction is only
ever defined modulo a global phase, so signal comparisons go through
:func:`phase_distance` rather than plain norms.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigurationError, DimensionMismatchError, InvalidPriorError, InvalidWindowError,
)

DEFAULT_ZERO_TOL = 1e-12
TWO_PI = 2.0 * np.pi


def check_tolerance(name: str, value: float) -> None:
    """Raise ``ConfigurationError`` unless ``value`` is finite and nonnegative.

    Comparisons with NaN are false, so a NaN tolerance would otherwise pass a
    plain ``value < 0`` check and then silently drop or admit everything.
    """
    if not (math.isfinite(value) and value >= 0):
        raise ConfigurationError(f"{name} must be finite and nonnegative, got {value}")


def check_hop(n: int, hop: int) -> None:
    """Raise ``ConfigurationError`` unless ``hop`` is positive and divides ``n``."""
    if hop <= 0 or n % hop != 0:
        raise ConfigurationError(f"hop {hop} does not divide signal length {n}")


def check_prior(value, message: str | None = None) -> float:
    """Minimum-magnitude prior as a float; ``InvalidPriorError`` unless finite and positive.

    NaN fails ``value > 0`` and gets ``message``, as a missing or nonpositive prior does.
    Any other value that is not a real scalar, an array or a bool included, is named by
    its type.
    """
    if value is not None and (isinstance(value, bool) or not isinstance(value, numbers.Real)):
        shape = f" of shape {value.shape}" if hasattr(value, "shape") else ""
        raise InvalidPriorError(
            f"minimum-magnitude prior must be a real scalar, got {type(value).__name__}{shape}"
        )
    if value is None or not value > 0:
        raise InvalidPriorError(message or f"minimum-magnitude prior must be positive, got {value}")
    if not math.isfinite(value):
        raise InvalidPriorError(f"minimum-magnitude prior must be finite, got {value}")
    return float(value)


@dataclass(frozen=True)
class ProblemConfig:
    """Instance geometry shared by the whole pipeline.

    Parameters
    ----------
    n : int
        Signal (and window) length.
    hop : int
        Separation between adjacent short-time sections; must divide ``n``.
    num_windows : int
        Number of windows in the measurement family.
    zero_tol : float
        Relative tolerance for declaring an entry zero: an index belongs to
        the support iff its magnitude exceeds ``zero_tol`` times the largest
        magnitude of the vector.
    """

    n: int
    hop: int
    num_windows: int
    zero_tol: float = DEFAULT_ZERO_TOL

    def __post_init__(self):
        if self.n <= 0:
            raise ConfigurationError(f"signal length must be positive, got {self.n}")
        if self.num_windows <= 0:
            raise ConfigurationError(
                f"window count must be positive, got {self.num_windows}"
            )
        check_hop(self.n, self.hop)
        check_tolerance("zero_tol", self.zero_tol)

    @property
    def num_hops(self) -> int:
        """Number of short-time sections, ``n // hop``."""
        return self.n // self.hop


@dataclass(frozen=True)
class GlobalPhaseDistance:
    """Result of comparing two signals modulo a global phase rotation.

    ``distance`` is the l2 norm of ``x - exp(1j * aligning_phase) * y`` at the
    optimal phase; ``aligning_phase`` is canonicalized to ``[0, 2*pi)``.
    """

    distance: float
    aligning_phase: float


def as_signal(x, n: int | None = None) -> np.ndarray:
    """Coerce ``x`` to a 1-d complex array, optionally checking its length."""
    arr = np.asarray(x, dtype=complex)
    if arr.ndim != 1:
        raise DimensionMismatchError(f"expected a 1-d signal, got shape {arr.shape}")
    if n is not None and arr.shape[0] != n:
        raise DimensionMismatchError(f"expected length {n}, got {arr.shape[0]}")
    return arr


def as_window_family(windows, n: int | None = None) -> np.ndarray:
    """Coerce to a (num_windows, n) complex array, rejecting all-zero rows.

    A NaN or infinite entry raises ``InvalidWindowError`` as well.
    """
    fam = np.asarray(windows, dtype=complex)
    if fam.ndim == 1:
        fam = fam[None, :]
    if fam.ndim != 2 or fam.shape[0] == 0:
        raise DimensionMismatchError(
            f"expected a (num_windows, n) window family, got shape {fam.shape}"
        )
    if n is not None and fam.shape[1] != n:
        raise DimensionMismatchError(
            f"windows have length {fam.shape[1]}, expected {n}"
        )
    finite = np.isfinite(fam).all(axis=1)
    if not finite.all():
        r = int(np.argmin(finite))
        raise InvalidWindowError(f"window {r} has a NaN or infinite entry")
    nonzero = fam.any(axis=1)
    if not nonzero.all():
        r = int(np.argmin(nonzero))
        raise InvalidWindowError(f"window {r} is identically zero")
    return fam


def _above_tolerance(mags: np.ndarray, zero_tol: float) -> np.ndarray:
    """Mask of the entries of ``mags`` above ``zero_tol`` times their row's (last axis's) peak.

    A negative, infinite or NaN ``zero_tol`` raises ``ConfigurationError``.  A
    threshold that overflows to inf (``zero_tol`` near the float maximum)
    marks nothing, and does not warn.
    """
    check_tolerance("zero_tol", zero_tol)
    peak = mags.max(axis=-1, keepdims=True, initial=0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        return mags > zero_tol * peak


def support(x, zero_tol: float = DEFAULT_ZERO_TOL) -> tuple[int, ...]:
    """Indices whose magnitude exceeds ``zero_tol`` relative to the peak.

    The threshold scales with the largest magnitude so the support set is
    invariant under nonzero rescaling.  An all-zero signal has empty support.
    """
    return tuple(np.flatnonzero(_above_tolerance(np.abs(as_signal(x)), zero_tol)).tolist())


def phase_distance(x, y) -> GlobalPhaseDistance:
    """Distance between two signals modulo a global phase rotation of ``y``.

    Minimizes ``||x - exp(1j*theta) * y||`` over theta.  The minimizer is the
    phase of the inner product ``<y, x>``, so no search is needed; a zero
    inner product leaves ``theta = 0``.
    """
    xa = as_signal(x)
    ya = as_signal(y, xa.shape[0])
    inner = np.vdot(ya, xa)  # sum over conj(y) * x
    theta = 0.0 if inner == 0 else float(np.angle(inner))
    dist = float(np.linalg.norm(xa - np.exp(1j * theta) * ya))
    return GlobalPhaseDistance(distance=dist, aligning_phase=theta % TWO_PI)
