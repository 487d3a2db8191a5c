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

from dataclasses import asdict, dataclass

import numpy as np

from .errors import CertificationError, UndefinedBudgetError
from .model import as_signal, check_prior, check_tolerance, support
from .spectral import ModulationMatrices


@dataclass(frozen=True)
class StabilityConstants:
    """The three window-family constants entering the error bounds.

    ``window_l2``: sqrt of the total squared magnitude over all windows.
    ``min_endpoint_product``: smallest |w(anchor) * w(anchor + length - 1)|
    over the family (for length-1 windows the two endpoints coincide).
    ``gram_inverse_l1``: entrywise l1 mass of all per-residue Gram inverses.
    """

    window_l2: float
    min_endpoint_product: float
    gram_inverse_l1: float
    n: int

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
    formed explicitly here, all residues in one batched inverse (the one place
    the explicit inverse is the quantity of interest, not a solver).
    """
    if not mats.certified:
        raise CertificationError(
            f"stability constants need certified matrices; failing residues "
            f"{list(mats.failing)}",
            failing=mats.failing,
        )
    fam, ws, n = mats.geometry.windows, mats.geometry.supports, mats.n
    window_l2 = float(np.sqrt(np.sum(np.abs(fam) ** 2)))
    rows = np.arange(fam.shape[0])
    near, far = fam[rows, ws.anchor].tolist(), fam[rows, ws.far(n)].tolist()
    inverses = np.linalg.inv(mats.matrices.conj().transpose(0, 2, 1) @ mats.matrices)
    gram_l1 = 0.0
    for l1 in np.abs(inverses).sum(axis=(1, 2)).tolist():  # in residue order: A_norm1 keeps its bytes
        gram_l1 += l1
    return StabilityConstants(
        window_l2=window_l2,
        # Python complex products and abs, entry by entry: np.abs can move its last bit
        min_endpoint_product=min(abs(a * b) for a, b in zip(near, far)),
        gram_inverse_l1=gram_l1,
        n=n,
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
    to zero raises ``UndefinedBudgetError``.
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
    denom = 4.0 * consts.gram_inverse_l1 * consts.window_l2 ** 2
    admissible = bool(noise_level <= min_sq / denom)
    magnitude_bound = consts.gram_inverse_l1 * consts.window_l2 ** 2 * noise_level
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
