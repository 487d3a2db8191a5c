"""Squared-magnitude recovery: window power spectra, modulation matrices, rank gate.

The per-hop energies of the measurement grid are a linear image of the
signal's power spectrum (the DFT of ``|x|**2``).  That linear map factors into
one small matrix per hop residue, built from the windows' power spectra; when
every one of those modulation matrices has full column rank the map is
invertible and ``|x(t)|**2`` is recovered exactly.  Certification of that rank
condition is a hard gate: recovery refuses to run without it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CertificationError, DimensionMismatchError
from .model import ProblemConfig, as_window_family, check_tolerance
from .stft import AggregateMeasurements


def window_power_spectra(windows) -> np.ndarray:
    """Normalized DFT of each window's squared magnitudes, one row per window.

    Row r is ``fft(|w_r|**2) / n``; entry 0 is the window's mean power (real
    and positive) and rows are conjugate-symmetric.
    """
    fam = as_window_family(windows)
    return np.fft.fft(np.abs(fam) ** 2, axis=1) / fam.shape[1]


def default_rank_tol(num_windows: int, hop: int) -> float:
    """Default relative threshold for numerical rank decisions."""
    return 64.0 * max(num_windows, hop) * float(np.finfo(float).eps)


@dataclass(frozen=True)
class ModulationMatrices:
    """Per-hop-residue modulation matrices with their rank certificate.

    ``matrices[m]`` has shape (num_windows, hop); its columns sample the
    window power spectra on the m-th residue class mod ``n // hop``.
    ``pseudo_inverses[m]`` is the (hop, num_windows) least-squares solver for
    certified residues, None otherwise.
    """

    hop: int
    matrices: tuple[np.ndarray, ...]
    pseudo_inverses: tuple[np.ndarray | None, ...]
    ranks: tuple[int, ...]
    singular_values: tuple[np.ndarray, ...]
    rank_tol: float
    failing: tuple[int, ...]

    @property
    def num_windows(self) -> int:
        return self.matrices[0].shape[0]

    @property
    def num_hops(self) -> int:
        return len(self.matrices)

    @property
    def n(self) -> int:
        return self.hop * self.num_hops

    @property
    def certified(self) -> bool:
        return not self.failing

    def report(self) -> dict:
        """Certification report: per-residue ranks and the overall verdict."""
        smallest = [float(s[-1]) if s.size else 0.0 for s in self.singular_values]
        return {
            "per_m_rank": list(self.ranks),
            "singular_value_min": min(smallest) if smallest else 0.0,
            "certified": self.certified,
            "failing_m": list(self.failing),
            "rank_tol": self.rank_tol,
        }


def certify_rank(windows, hop: int, rank_tol: float | None = None) -> ModulationMatrices:
    """Build every modulation matrix and certify full column rank.

    Numerical rank counts singular values above ``rank_tol`` times the largest
    singular value across the *whole family* of matrices, so a residue whose
    matrix is essentially zero cannot certify itself against its own scale.
    For hop 1 the condition reduces to every spectrum column being nonzero;
    for hop n it reduces to the matrix of squared window magnitudes having
    full rank.  Full rank requires at least as many windows as the hop.  A
    negative or non-finite ``rank_tol`` raises ``ConfigurationError``: below
    zero every singular value would count, certifying rank-deficient families.
    """
    fam = as_window_family(windows)
    n = fam.shape[1]
    if hop <= 0 or n % hop != 0:
        raise DimensionMismatchError(f"hop {hop} does not divide signal length {n}")
    if rank_tol is None:
        rank_tol = default_rank_tol(fam.shape[0], hop)
    check_tolerance("rank_tol", rank_tol)
    spectra = window_power_spectra(fam)
    num_hops = n // hop
    cols = np.arange(num_hops)[:, None] + np.arange(hop)[None, :] * num_hops
    # one (num_hops, num_windows, hop) stack, factored by batched LAPACK calls
    stack = np.ascontiguousarray(spectra[:, cols].transpose(1, 0, 2))
    svals = np.linalg.svd(stack, compute_uv=False)
    threshold = rank_tol * float(svals[:, 0].max())
    ranks = tuple(int(k) for k in np.sum(svals > threshold, axis=1))
    pinv_stack = np.linalg.pinv(stack)
    pinvs = tuple(p if rank == hop else None for p, rank in zip(pinv_stack, ranks))
    failing = tuple(m for m, rank in enumerate(ranks) if rank != hop)
    return ModulationMatrices(
        hop=hop,
        matrices=tuple(stack),
        pseudo_inverses=pinvs,
        ranks=ranks,
        singular_values=tuple(svals),
        rank_tol=float(rank_tol),
        failing=failing,
    )


@dataclass(frozen=True)
class MagnitudeSpectrum:
    """Recovered power spectrum and squared magnitudes, with recovery residues.

    ``power_spectrum`` is the DFT (with 1/n) of ``|x|**2``;
    ``magnitudes_sq`` its inverse DFT with negatives clamped to zero.
    ``clamped_mass`` and ``imag_residue`` record what clamping discarded;
    both are zero (to machine precision) for exact data.
    """

    power_spectrum: np.ndarray
    magnitudes_sq: np.ndarray
    clamped_mass: float
    imag_residue: float
    severe_clamping: bool


def recover_magnitudes(
    agg: AggregateMeasurements,
    mats: ModulationMatrices,
    cfg: ProblemConfig | None = None,
) -> MagnitudeSpectrum:
    """Recover ``|x(t)|**2`` from the per-hop energies.

    A DFT of the energy rows over the hop axis gives, per residue m, a vector
    in the column span of the m-th modulation matrix; solving each small
    system through the rank gate's SVD pseudo-inverse yields the signal's
    power spectrum on that residue class, and an inverse DFT produces the
    squared magnitudes.  :func:`stftpr.oracle.magnitudes_direct` evaluates
    the explicit Gram-inverse formula term by term and is the reference this
    path is checked against.

    Negative squared magnitudes (noise artifacts) are clamped to zero;
    ``severe_clamping`` flags a clamped mass above 10% of the total.
    """
    if not mats.certified:
        raise CertificationError(
            f"modulation matrices are rank-deficient at residues {list(mats.failing)}",
            failing=mats.failing,
        )
    num_windows, num_hops = agg.energy.shape
    if num_windows != mats.num_windows or num_hops != mats.num_hops:
        raise DimensionMismatchError(
            f"aggregates of shape {agg.energy.shape} do not match "
            f"{mats.num_windows} windows x {mats.num_hops} hops"
        )
    n = mats.n
    if cfg is not None and (cfg.n != n or cfg.hop != mats.hop):
        raise DimensionMismatchError(
            f"config ({cfg.n}, hop {cfg.hop}) does not match matrices ({n}, hop {mats.hop})"
        )
    rhs = np.fft.fft(agg.energy, axis=1) / num_hops  # (R, M)
    # one stacked solve: (M, hop, R) @ (M, R, 1) -> power[m + M*j] = solution[m, j]
    solution = np.stack(mats.pseudo_inverses) @ rhs.T[:, :, None]
    power = solution[:, :, 0].T.reshape(n)
    raw = np.fft.ifft(power) * n
    imag_residue = float(np.max(np.abs(raw.imag))) if n else 0.0
    real = raw.real
    clamped_mass = float(-real[real < 0.0].sum())
    total = float(np.abs(real).sum())
    return MagnitudeSpectrum(
        power_spectrum=power,
        magnitudes_sq=np.clip(real, 0.0, None),
        clamped_mass=clamped_mass,
        imag_residue=imag_residue,
        severe_clamping=bool(total > 0.0 and clamped_mass > 0.1 * total),
    )
