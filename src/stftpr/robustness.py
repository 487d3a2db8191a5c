"""Worst-case stability constants, noise error budgets, and support thresholding.

All bounds here are deterministic worst-case statements driven by three
constants of the window family: its total l2 mass, the smallest endpoint
product over the supporting intervals, and the summed absolute mass of the
per-residue Gram inverses.  Given an entrywise noise level and the smallest
nonzero magnitude of the target signal, the budget says whether the noise is
admissible and, if so, bounds both the squared-magnitude error and the
per-entry phase error of the reconstruction.
"""

from __future__ import annotations

import math
import sys
from dataclasses import asdict, dataclass

import numpy as np

from .errors import CertificationError, UndefinedBudgetError
from .model import _root_sum_square, as_signal, check_prior, check_tolerance, support
from .spectral import ModulationMatrices


@dataclass(frozen=True)
class StabilityConstants:
    """The three window-family constants entering the error bounds.

    ``window_l2``: sqrt of the total squared magnitude over all windows.
    ``min_endpoint_product``: smallest |w(anchor) * w(anchor + length - 1)|
    over the family (for length-1 windows the two endpoints coincide).
    ``gram_inverse_l1``: entrywise l1 mass of all per-residue Gram inverses.
    ``gain``: the error budget's ``gram_inverse_l1 * window_l2**2``, formed
    from scaled factors where ``gram_inverse_l1`` alone is past or below the
    normal float range, so it is finite and nonzero wherever its value is in
    range (see :func:`stability_constants`).
    """

    window_l2: float
    min_endpoint_product: float
    gram_inverse_l1: float
    n: int
    gain: float

    def to_dict(self) -> dict:
        return {
            "W_norm2": self.window_l2,
            "W_star": self.min_endpoint_product,
            "A_norm1": self.gram_inverse_l1,
            "n": self.n,
        }


@dataclass(frozen=True)
class ErrorBudget:
    """Admissibility verdict and the two worst-case error bounds.

    ``magnitude_bound`` bounds ``| |x_noisy(t)|**2 - |x(t)|**2 |`` entrywise;
    ``phase_bound`` bounds the per-entry unit-phasor error after optimal
    global alignment.  ``admissible`` is inclusive at the boundary.
    """

    noise_level: float
    admissible: bool
    magnitude_bound: float
    phase_bound: float
    min_support_magnitude_sq: float

    def to_dict(self) -> dict:
        return asdict(self)


def stability_constants(mats: ModulationMatrices) -> StabilityConstants:
    """The three constants of the family ``mats`` certifies; requires a passing certificate.

    The family and its supports are ``mats.geometry``'s.  The Gram inverses are
    read off the rank gate's pseudo-inverses, ``(A^H A)^-1 = P P^H``, so no
    residue is factored a second time and no Gram matrix (whose condition
    number is the square of A's) is formed.  P is divided by its largest
    modulus before the product and the sum is scaled back in Python floats:
    an l1 mass past the float range reads ``inf``, never NaN, and numpy warns
    of no overflow.  ``W_norm2`` is :func:`~stftpr.model._root_sum_square` of
    the moduli, finite also where the plain sum of squares is not, and
    ``W_star`` is read off :attr:`~stftpr.supportgraph.Geometry.endpoint_taps`.
    ``gain`` is the plain ``A_norm1 * W_norm2**2`` where A_norm1 is a normal
    float and that product is a positive finite float; else it is the scaled
    mass times ``(peak * W_norm2)**2``.  For a family scaled by c that scales
    as |c|**-2, and it is finite and nonzero wherever the gain is in range.
    """
    if not mats.certified:
        raise CertificationError(
            f"stability constants need certified matrices; failing residues "
            f"{list(mats.failing)}",
            failing=mats.failing,
        )
    window_l2 = _root_sum_square(np.abs(mats.geometry.windows)).item()
    near, far = (tap.tolist() for tap in mats.geometry.endpoint_taps)
    peak = float(np.abs(mats.pseudo_inverses).max())
    scaled = mats.pseudo_inverses / peak
    mass = float(np.abs(scaled @ scaled.conj().transpose(0, 2, 1)).sum())
    gram_l1 = mass * peak * peak
    # the plain product where A_norm1 is a normal float (below, it has lost
    # bits) and the product is positive and finite, so that W_norm2**2 (a
    # float power, which raises past the float range) is too; else the scaled form
    gain = mass * (peak * window_l2) * (peak * window_l2)
    if gram_l1 >= sys.float_info.min and 0.0 < gram_l1 * (window_l2 * window_l2) < math.inf:
        gain = gram_l1 * window_l2 ** 2
    return StabilityConstants(
        window_l2=window_l2,
        # Python complex products and abs, entry by entry: np.abs can move its last bit
        min_endpoint_product=min(abs(a * b) for a, b in zip(near, far)),
        gram_inverse_l1=gram_l1,
        n=mats.n,
        gain=gain,
    )


def min_support_magnitude(x, zero_tol: float) -> float:
    """Smallest magnitude on ``support(x, zero_tol)``, the prior :func:`error_budget` takes.

    An empty support raises ``UndefinedBudgetError``.
    """
    x = as_signal(x)
    supp = support(x, zero_tol)
    if not supp:
        raise UndefinedBudgetError("reference signal has empty support")
    return float(np.min(np.abs(x[list(supp)])))


def error_budget(consts: StabilityConstants, noise_level: float, prior: float) -> ErrorBudget:
    """Evaluate the admissibility condition and both error bounds.

    ``prior`` is the signal's smallest nonzero magnitude, positive and finite,
    which the half-minimum support rule also takes.  A prior so small that the
    phase bound's denominator, ``min_endpoint_product * prior**2``, underflows
    to zero raises ``UndefinedBudgetError``, and so does a gain of zero, which
    :func:`stability_constants` gives only where the gain itself is below the
    float range, not where ``gram_inverse_l1`` alone is.
    """
    check_tolerance("noise_level", noise_level)
    min_mag = check_prior(prior)
    min_sq = min_mag * min_mag
    phase_denom = consts.min_endpoint_product * min_sq
    if phase_denom == 0.0:
        raise UndefinedBudgetError(
            f"smallest magnitude {min_mag!r} is too small for the error budget: the "
            f"phase bound's denominator underflows to zero"
        )
    gain = consts.gain
    if gain == 0.0:
        raise UndefinedBudgetError("the budget's gain A_norm1 * W_norm2**2 underflows to zero")
    admissible = bool(noise_level <= min_sq / (4.0 * gain))
    # zero noise means zero error, also where A_norm1 reads inf (inf * 0 is NaN)
    magnitude_bound = gain * noise_level if noise_level else 0.0
    phase_bound = 2.0 * consts.n ** 3 * noise_level / phase_denom
    return ErrorBudget(
        noise_level=float(noise_level),
        admissible=admissible,
        magnitude_bound=float(magnitude_bound),
        phase_bound=float(phase_bound),
        min_support_magnitude_sq=min_sq,
    )


def threshold_support(estimate, min_support_magnitude: float) -> np.ndarray:
    """The estimate with every entry at or below half the smallest-magnitude prior zeroed.

    Under admissible noise the surviving index set equals the true support
    (and hence so does the endpoint graph built on it).  Noisy reconstruction
    shares this rule: its support is what this keeps of the magnitudes.
    """
    threshold = 0.5 * check_prior(min_support_magnitude)
    x = as_signal(estimate)
    return np.where(np.abs(x) <= threshold, 0.0 + 0.0j, x)
