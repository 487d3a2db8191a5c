"""Squared-magnitude recovery: window power spectra, modulation matrices, rank gate.

The per-hop energies of the measurement grid are a linear image of the
signal's power spectrum (the DFT of ``|x|**2``).  That linear map factors into
one small matrix per hop residue, built from the windows' power spectra; when
every one of those modulation matrices has full column rank the map is
invertible and ``|x(t)|**2`` is recovered exactly.  Certification of that rank
condition is a hard gate: recovery refuses to run without it.  The matrices
hold the run's :class:`~stftpr.supportgraph.Geometry`, the family they certify.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CertificationError, DimensionMismatchError
from .model import check_tolerance
from .stft import AggregateMeasurements
from .supportgraph import Geometry


def window_power_spectra(geom: Geometry) -> np.ndarray:
    """Normalized DFT of each window's squared magnitudes, one row per window of the geometry.

    Row r is ``fft(|w_r|**2) / n``; entry 0 is the window's mean power (real
    and positive) and rows are conjugate-symmetric.
    """
    return np.fft.fft(np.abs(geom.windows) ** 2, axis=1) / geom.cfg.n


def default_rank_tol(num_windows: int, hop: int) -> float:
    """Default relative threshold for numerical rank decisions."""
    return 64.0 * max(num_windows, hop) * float(np.finfo(float).eps)


@dataclass(frozen=True, eq=False)
class ModulationMatrices:
    """Per-hop-residue modulation matrices and their rank certificate, as stacks.

    ``geometry`` is the certified run geometry, which gives ``n`` and ``hop``;
    ``matrices`` is (num_hops, num_windows, hop); ``matrices[m]`` samples the
    window power spectra on residue class m mod ``n // hop``.  ``singular_values``
    is (num_hops, min(num_windows, hop)), each row descending; ``pseudo_inverses``
    is the (num_hops, hop, num_windows) solver stack if every residue certifies, else None.
    For residues m <= num_hops / 2 both are numpy's SVD results bit for bit;
    residue num_hops - m holds the exact mirror of residue m (see
    :func:`certify_rank`).  Thin stacks (one window or hop 1) take the closed
    form of :func:`certify_rank` instead.  A residue whose pseudo-inverse is
    not finite is in ``failing`` whatever its rank.
    """

    geometry: Geometry
    matrices: np.ndarray
    pseudo_inverses: np.ndarray | None
    ranks: tuple[int, ...]
    singular_values: np.ndarray
    rank_tol: float
    failing: tuple[int, ...]

    @property
    def num_windows(self) -> int:
        return self.matrices.shape[1]

    @property
    def num_hops(self) -> int:
        return self.matrices.shape[0]

    @property
    def hop(self) -> int:
        return self.geometry.cfg.hop

    @property
    def n(self) -> int:
        return self.geometry.cfg.n

    @property
    def certified(self) -> bool:
        return not self.failing

    def report(self) -> dict:
        """Certification report: per-residue ranks and the overall verdict."""
        return {
            "per_m_rank": list(self.ranks),
            "singular_value_min": float(self.singular_values[:, -1].min()),
            "certified": self.certified,
            "failing_m": list(self.failing),
            "rank_tol": self.rank_tol,
        }


def _thin_singular_values(stack: np.ndarray) -> np.ndarray:
    """2-norm of each one-row or one-column matrix of ``stack``, as (num_hops, 1).

    The moduli are divided by their peak, rounded to a power of two, before
    squaring: the scaling is exact, so in range the result is bit for bit the
    plain root-sum-square, and it underflows or overflows only where LAPACK's
    would.  ``frexp(0)`` has exponent 0, so a zero matrix gives 0.
    """
    moduli = np.hypot(stack.real, stack.imag).reshape(len(stack), -1)
    _, exponent = np.frexp(moduli.max(axis=1, keepdims=True))
    scaled = np.ldexp(moduli, -exponent)
    return np.ldexp(np.sqrt(np.sum(scaled * scaled, axis=1, keepdims=True)), exponent)


def certify_rank(geom: Geometry, rank_tol: float | None = None) -> ModulationMatrices:
    """Build every modulation matrix of the geometry and certify full column rank.

    Numerical rank counts singular values above ``rank_tol`` times the largest
    singular value across the *whole family* of matrices, so a residue whose
    matrix is essentially zero cannot certify itself against its own scale.
    For hop 1 the condition reduces to every spectrum column being nonzero;
    for hop n it reduces to the matrix of squared window magnitudes having
    full rank.  Full rank requires at least as many windows as the hop.  A
    negative or non-finite ``rank_tol`` raises ``ConfigurationError``: below
    zero every singular value would count, certifying rank-deficient
    families.  A residue whose pseudo-inverse is not finite (a singular value
    so small that its reciprocal overflows) fails too, so a certified stack
    always solves.
    The window power spectra are Hermitian, so residue ``M - m`` (``M = n //
    hop``) is residue m conjugated with its columns reversed; the stack holds
    that exact mirror.  Residues ``0 .. M // 2`` are factored once, by one
    batched SVD of their conjugates (numpy's pseudo-inverse recipe): it gives
    the ranks and, when every residue certifies, the stacked pseudo-inverses
    ``V S^-1 U^H``, for residues ``<= M / 2`` bit for bit numpy's.  Residue
    ``M - m`` takes residue m's singular values, and its pseudo-inverse is
    residue m's conjugated with its rows reversed; these agree with numpy's
    factorisation of the mirror to a few eps.
    Thin stacks (one window or hop 1) skip LAPACK: each matrix is one row or
    one column ``a``, its one singular value ``s`` is its 2-norm and its
    pseudo-inverse ``conj(a).T / s / s`` (divided twice, so ``s**2`` never
    underflows); these agree with numpy's to a few eps, not bit for bit.
    """
    spectra = window_power_spectra(geom)
    (num_windows, n), hop = spectra.shape, geom.cfg.hop
    if rank_tol is None:
        rank_tol = default_rank_tol(num_windows, hop)
    check_tolerance("rank_tol", rank_tol)
    num_hops = n // hop
    cols = np.arange(num_hops)[:, None] + np.arange(hop)[None, :] * num_hops
    stack = np.ascontiguousarray(spectra[:, cols].transpose(1, 0, 2))
    thin = min(num_windows, hop) == 1
    if thin:
        svals = _thin_singular_values(stack)
    else:
        # the spectra are Hermitian, so residue M - m is residue m conjugated
        # with its columns reversed: factor residues 0 .. M // 2 and fill rows
        # half .. M - 1 with the exact mirrors of residues M - half .. 1
        half = num_hops // 2 + 1
        mirrored = slice(num_hops - half, 0, -1)
        np.conjugate(stack[mirrored, :, ::-1], out=stack[half:])
        u, s_half, vt = np.linalg.svd(stack[:half].conj(), full_matrices=False)
        svals = np.empty((num_hops, s_half.shape[1]))
        svals[:half] = s_half
        svals[half:] = s_half[mirrored]
    ranks = np.sum(svals > rank_tol * float(svals[:, 0].max()), axis=1)
    failing = ranks != hop
    pseudo_inverses = None
    if not failing.any():
        with np.errstate(over="ignore", invalid="ignore"):
            if thin:  # full rank at hop 1: one column per residue, s > 0
                s = svals[:, :, None]
                pseudo_inverses = stack.conj().transpose(0, 2, 1) / s / s
            else:
                pseudo_inverses = np.empty((num_hops, hop, num_windows), dtype=complex)
                np.matmul(vt.transpose(0, 2, 1), (1.0 / s_half)[:, :, None] * u.transpose(0, 2, 1),
                          out=pseudo_inverses[:half])
                # the mirror of a pseudo-inverse: conjugated, rows reversed
                np.conjugate(pseudo_inverses[mirrored, ::-1], out=pseudo_inverses[half:])
        failing = ~np.isfinite(pseudo_inverses).all(axis=(1, 2))
    failing = tuple(np.flatnonzero(failing).tolist())
    return ModulationMatrices(
        geometry=geom,
        matrices=stack,
        pseudo_inverses=None if failing else pseudo_inverses,
        ranks=tuple(ranks.tolist()),
        singular_values=svals,
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


def _check_aggregates(agg: AggregateMeasurements, geom: Geometry) -> None:
    """Raise ``DimensionMismatchError`` unless ``agg`` holds the geometry's (windows, hops)."""
    want = (geom.cfg.num_windows, geom.cfg.num_hops)
    if agg.energy.shape != want:
        raise DimensionMismatchError(f"aggregates of shape {agg.energy.shape} do not match "
                                     f"{want[0]} windows x {want[1]} hops")


def recover_magnitudes(agg: AggregateMeasurements, mats: ModulationMatrices) -> MagnitudeSpectrum:
    """Recover ``|x(t)|**2`` from the per-hop energies.

    A DFT of the energy rows over the hop axis gives, per residue m, a vector
    in the column span of the m-th modulation matrix; one product with the
    rank gate's stacked pseudo-inverses solves every residue's system,
    yielding the power spectrum on each residue class, and an inverse DFT
    gives the squared magnitudes.  :func:`stftpr.oracle.magnitudes_direct`
    evaluates the explicit Gram-inverse formula term by term and is the
    reference this path is checked against.

    Negative squared magnitudes (noise artifacts) are clamped to zero;
    ``severe_clamping`` flags a clamped mass above 10% of the total.  n and
    hop come from ``mats``; aggregates of another shape raise
    ``DimensionMismatchError``.
    """
    if not mats.certified:
        # the gate forms pseudo-inverses only at full rank, so a stack fails
        # either on rank or, with every residue at full rank, on overflow
        full_rank = all(mats.ranks[m] == mats.hop for m in mats.failing)
        what = ("pseudo-inverses overflow" if full_rank
                else "modulation matrices are rank-deficient")
        raise CertificationError(f"{what} at residues {list(mats.failing)}", failing=mats.failing)
    _check_aggregates(agg, mats.geometry)
    n, num_hops = mats.n, mats.num_hops
    rhs = np.fft.fft(agg.energy, axis=1) / num_hops  # (R, M)
    # one stacked solve: (M, hop, R) @ (M, R, 1) -> power[m + M*j] = solution[m, j]
    solution = mats.pseudo_inverses @ rhs.T[:, :, None]
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
