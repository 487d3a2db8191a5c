import math
import warnings

import numpy as np
import pytest

from stftpr import model, supportgraph
from stftpr import (
    ProblemConfig,
    aggregate,
    certify_rank,
    magnitudes_direct,
    measure,
    reconstruct,
    recover_magnitudes,
    window_power_spectra,
)
from stftpr.errors import (
    CertificationError, ConfigurationError, DimensionMismatchError, InvalidWindowError,
)
from stftpr.generators import (
    certified_instance, chain_family, random_interval_window, rectangular_window,
)
from stftpr.stft import AggregateMeasurements

from conftest import geom_at, residue_matrices


class TestWindowPowerSpectra:
    def test_constant_window(self):
        spectra = window_power_spectra(geom_at([np.ones(4)], 1))
        assert np.allclose(spectra[0], [1, 0, 0, 0], atol=1e-14)

    def test_impulse_window(self):
        w = np.zeros(4, complex)
        w[0] = 1.0
        spectra = window_power_spectra(geom_at([w], 1))
        assert np.allclose(spectra[0], 0.25)

    def test_two_tap_window(self):
        spectra = window_power_spectra(geom_at([[1, 1, 0, 0]], 1))
        k = np.arange(4)
        assert np.allclose(spectra[0], 0.25 * (1 + np.exp(-1j * np.pi * k / 2)))

    def test_symmetry_and_positivity(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            n = int(rng.integers(2, 17))
            w = rng.normal(size=n) + 1j * rng.normal(size=n)
            row = window_power_spectra(geom_at([w], 1))[0]
            assert row[0].real > 0 and abs(row[0].imag) < 1e-14
            assert np.allclose(row[(-np.arange(n)) % n], np.conj(row), atol=1e-12)


class TestCertifyRank:
    def test_constant_window_fails_off_zero(self):
        mats = certify_rank(geom_at([np.ones(4)], 1))
        assert not mats.certified
        assert mats.failing == (1, 2, 3)
        assert mats.ranks == (1, 0, 0, 0)

    def test_impulse_window_certifies(self):
        w = np.zeros(5, complex)
        w[0] = 1.0
        mats = certify_rank(geom_at([w], 1))
        assert mats.certified
        assert all(np.allclose(a, 0.2) for a in residue_matrices([w], 1))
        assert np.allclose(mats.singular_values, 0.2)
        assert np.allclose(mats.pseudo_inverses, 5.0)

    def test_impulse_masks_full_hop(self):
        # one impulse per position: the power matrix is a scaled permutation
        n = 4
        fam = np.eye(n, dtype=complex)
        mats = certify_rank(geom_at(fam, n))
        assert mats.certified
        assert mats.ranks == (n,)

    def test_duplicated_windows_rejected(self):
        rng = np.random.default_rng(43)
        w = random_interval_window(8, 3, rng)
        mats = certify_rank(geom_at([w, w], 2))
        assert not mats.certified
        assert mats.failing == tuple(range(4))

    def test_report_fields(self):
        mats = certify_rank(geom_at([np.ones(4)], 1))
        rep = mats.report()
        assert rep["certified"] is False
        assert rep["failing_m"] == [1, 2, 3]
        assert set(rep) == {
            "per_m_rank", "singular_value_min", "certified", "failing_m", "rank_tol",
        }

    def test_hop_one_specialization(self):
        # rank gate == every power-spectrum column nonzero
        rng = np.random.default_rng(47)
        for _ in range(10):
            fam = [random_interval_window(8, int(rng.integers(1, 9)), rng)]
            mats = certify_rank(geom_at(fam, 1))
            spectra = window_power_spectra(geom_at(fam, 1))
            threshold = mats.rank_tol * max(np.abs(spectra).max(), 0.0)
            nonzero = [bool(np.linalg.norm(spectra[:, m]) > threshold) for m in range(8)]
            assert [r == 1 for r in mats.ranks] == nonzero

    @pytest.mark.parametrize("family", ["certified-chain", "duplicated-windows"])
    def test_batched_gate_matches_per_residue_factorizations(self, family):
        # the gate factors conj(A), as np.linalg.pinv does, for residues up to
        # M/2, so their singular values are that factorisation's bit for bit;
        # residue M - m takes the exact mirror of residue m's, within 4 eps of
        # its own factorisation
        eps = np.finfo(float).eps
        rng = np.random.default_rng(59)
        if family == "certified-chain":
            fam, hop = chain_family(16, 4, 6, rng), 4
        else:
            w = random_interval_window(8, 3, rng)
            fam, hop = np.stack([w, w]), 2
        mats = certify_rank(geom_at(fam, hop))
        stack = residue_matrices(fam, hop)
        num_hops = len(stack)
        scale = 0.0
        for m in range(num_hops):
            s = np.linalg.svd(stack[m].conj())[1]
            if m <= num_hops // 2:
                assert np.array_equal(mats.singular_values[m], s)
            else:
                mirror = num_hops - m
                assert np.array_equal(mats.singular_values[m], mats.singular_values[mirror])
                assert np.all(np.abs(mats.singular_values[m] - s) <= 4 * eps * s[0])
            scale = max(scale, float(s[0]))
        for m in range(num_hops):
            rank = int(np.sum(mats.singular_values[m] > mats.rank_tol * scale))
            assert mats.ranks[m] == rank
        assert mats.certified == (family == "certified-chain")
        if mats.certified:
            for m in range(num_hops):
                ref = np.linalg.pinv(stack[m])
                if m <= num_hops // 2:
                    assert np.array_equal(mats.pseudo_inverses[m], ref)
                else:
                    mirror = mats.pseudo_inverses[num_hops - m].conj()[::-1]
                    assert np.array_equal(mats.pseudo_inverses[m], mirror)
                    svals = mats.singular_values[m]
                    tol = 8 * eps * svals[0] / svals[-1] * np.abs(ref).max()
                    assert np.all(np.abs(mats.pseudo_inverses[m] - ref) <= tol)
        else:
            assert mats.pseudo_inverses is None

    def test_one_factorisation(self, monkeypatch):
        # one batched SVD over residues 0 .. M/2; the rest are their mirrors
        calls = {"svd": [], "pinv": 0}
        svd, pinv = np.linalg.svd, np.linalg.pinv

        def counting_svd(a, *args, **kwargs):
            calls["svd"].append(a.shape)
            return svd(a, *args, **kwargs)

        def counting_pinv(*args, **kwargs):
            calls["pinv"] += 1
            return pinv(*args, **kwargs)

        fam = chain_family(16, 4, 6, np.random.default_rng(5))
        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        monkeypatch.setattr(np.linalg, "pinv", counting_pinv)
        mats = certify_rank(geom_at(fam, 4))
        assert mats.certified
        assert calls == {"svd": [(mats.num_hops // 2 + 1, 6, 4)], "pinv": 0}

    def test_hop_one_makes_no_svd_call(self, monkeypatch):
        # one-column (hop 1) and one-row (one window) stacks take the closed form
        calls = []
        svd = np.linalg.svd

        def counting_svd(*args, **kwargs):
            calls.append(1)
            return svd(*args, **kwargs)

        fam = chain_family(1024, 1, 1, np.random.default_rng(5))
        row = chain_family(16, 1, 1, np.random.default_rng(7))
        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        assert certify_rank(geom_at(fam, 1)).certified
        assert not certify_rank(geom_at(row, 4)).certified
        assert calls == []

    @staticmethod
    def _sweep(rng):
        """60 (family, hop) pairs: chain, random-interval and duplicated windows at hop 1-4."""
        for trial in range(60):
            hop = int(rng.choice([1, 2, 3, 4]))
            n = hop * int(rng.integers(4, 9))
            kind = trial % 3
            if kind == 0:
                fam = chain_family(n, hop, hop + int(rng.integers(0, 3)), rng)
            elif kind == 1:
                length = int(rng.integers(1, n + 1))
                fam = [random_interval_window(n, length, rng) for _ in range(int(rng.integers(1, 6)))]
            else:
                w = random_interval_window(n, int(rng.integers(1, n + 1)), rng)
                fam = [w] * int(rng.integers(1, 4))
            yield fam, hop

    def test_rank_certificate_matches_singular_values_only(self):
        # ranks, verdict and failing residues agree with a per-residue
        # svd(compute_uv=False) at the family-wide threshold; when
        # min(R, hop) > 1 the smallest singular value is LAPACK's minimum over
        # residues 0 .. M/2 bit for bit (the others are their mirrors), and
        # for thin stacks it is the plain root-sum-square, within 4 eps of LAPACK's
        eps = np.finfo(float).eps
        for fam, hop in self._sweep(np.random.default_rng(61)):
            mats = certify_rank(geom_at(fam, hop))
            stack = residue_matrices(fam, hop)
            svals = [np.linalg.svd(a, compute_uv=False) for a in stack]
            threshold = mats.rank_tol * max(float(s[0]) for s in svals)
            ranks = tuple(int(np.sum(s > threshold)) for s in svals)
            failing = tuple(m for m, rank in enumerate(ranks) if rank != hop)
            assert mats.ranks == ranks
            assert mats.failing == failing
            assert mats.certified == (not failing)
            assert (mats.pseudo_inverses is None) == bool(failing)
            smallest = mats.report()["singular_value_min"]
            if min(mats.num_windows, hop) > 1:
                paired = stack[: mats.num_hops // 2 + 1]
                assert smallest == min(float(np.linalg.svd(a.conj())[1][-1]) for a in paired)
            else:
                lapack = min(float(np.linalg.svd(a.conj())[1][-1]) for a in stack)
                moduli = np.hypot(stack.real, stack.imag)
                assert smallest == float(np.sqrt(np.sum(moduli ** 2, axis=(1, 2))).min())
                assert abs(smallest - lapack) <= 4 * eps * lapack

    def test_hermitian_pairing_matches_per_residue_lapack(self):
        # the spectra are Hermitian, so residue M - m is residue m conjugated
        # with its columns reversed; the gate factors residues 0 .. M/2 and
        # mirrors their results exactly, without moving a rank decision
        paired = mirrored = certified = 0
        for fam, hop in self._sweep(np.random.default_rng(61)):
            mats = certify_rank(geom_at(fam, hop))
            if min(mats.num_windows, hop) == 1:
                continue
            paired += 1
            num_hops, half = mats.num_hops, mats.num_hops // 2 + 1
            unpaired = residue_matrices(fam, hop)
            lapack = np.stack([np.linalg.svd(a.conj())[1] for a in unpaired])
            assert np.array_equal(mats.singular_values[:half], lapack[:half])
            threshold = mats.rank_tol * float(lapack[:, 0].max())
            ranks = tuple(np.sum(lapack > threshold, axis=1).tolist())
            failing = tuple(m for m, rank in enumerate(ranks) if rank != hop)
            assert mats.ranks == ranks
            assert mats.failing == failing
            assert mats.certified == (not failing)
            for m in range(half, num_hops):
                mirrored += 1
                assert np.array_equal(mats.singular_values[m], mats.singular_values[num_hops - m])
            if mats.certified:
                certified += 1
                for m in range(half):
                    assert np.array_equal(mats.pseudo_inverses[m], np.linalg.pinv(unpaired[m]))
                for m in range(half, num_hops):
                    mirror = mats.pseudo_inverses[num_hops - m].conj()[::-1]
                    assert np.array_equal(mats.pseudo_inverses[m], mirror)
        assert paired >= 30 and mirrored > 0 and 0 < certified < paired

    @staticmethod
    def _thin_stacks(rng):
        """(family, hop) pairs with min(R, hop) == 1: hop-1 columns and one-window rows."""
        for trial in range(240):
            kind = trial % 4
            n = int(rng.integers(4, 17))
            num_windows = int(rng.integers(1, 6))
            if kind == 0:
                fam, hop = chain_family(n, 1, num_windows, rng), 1
            elif kind == 1:  # rectangular windows give exactly-zero spectrum columns
                fam = np.stack([
                    random_interval_window(n, int(rng.integers(1, n + 1)), rng)
                    if rng.random() < 0.5 else
                    np.roll(rectangular_window(n, int(rng.integers(1, n + 1))), int(rng.integers(0, n)))
                    for _ in range(num_windows)
                ])
                hop = 1
            elif kind == 2:
                w = random_interval_window(n, int(rng.integers(1, n + 1)), rng)
                fam, hop = np.stack([w] * num_windows), 1
            else:
                hop = int(rng.choice([2, 3, 4]))
                n = hop * int(rng.integers(1, 6))
                fam = random_interval_window(n, int(rng.integers(1, n + 1)), rng)[None, :]
            yield fam * [1.0, 1e-100, 1e100][trial % 3], hop

    def test_thin_closed_form_matches_lapack(self):
        # hop 1 and one-window stacks skip LAPACK; the rank decisions must not
        # move, singular values stay within 4 eps and pseudo-inverses within
        # 8 eps of numpy's, including families scaled by 1e-100 and 1e100
        eps = np.finfo(float).eps
        thin = certified = 0
        for fam, hop in self._thin_stacks(np.random.default_rng(71)):
            mats = certify_rank(geom_at(fam, hop))
            assert mats.singular_values.shape == (mats.num_hops, 1)
            stack = residue_matrices(fam, hop)
            lapack = np.stack([np.linalg.svd(a.conj(), compute_uv=False) for a in stack])
            threshold = mats.rank_tol * float(lapack[:, 0].max())
            ranks = tuple(np.sum(lapack > threshold, axis=1).tolist())
            failing = tuple(m for m, rank in enumerate(ranks) if rank != hop)
            assert mats.ranks == ranks
            assert mats.failing == failing
            assert mats.certified == (not failing)
            assert np.all(np.abs(mats.singular_values - lapack) <= 4 * eps * lapack)
            if mats.certified:
                certified += 1
                ref = np.stack([np.linalg.pinv(a) for a in stack])
                # relative to each residue's largest entry: entries near an exact
                # zero of the spectrum carry only rounding noise in both
                scale = np.abs(ref).max(axis=(1, 2), keepdims=True)
                assert np.all(np.abs(mats.pseudo_inverses - ref) <= 8 * eps * scale)
            else:
                assert mats.pseudo_inverses is None
            thin += 1
        assert thin >= 200 and 0 < certified < thin
        # the closed form's root-sum-square, along either axis: moduli whose
        # squares are past the float range give a finite norm within 2 ulp of
        # math.hypot, with no overflow warning, and an all-zero row gives 0
        huge = np.array([[1e308, 1e308, 3e307, 1.0], [0.0, 0.0, 0.0, 0.0]])
        want = math.hypot(*huge[0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for got in (model._root_sum_square(huge, 1), model._root_sum_square(huge.T, 0).T):
                assert got.shape == (2, 1)
                assert abs(got[0, 0] - want) <= 2 * math.ulp(want)
                assert got[1, 0] == 0.0

    @pytest.mark.parametrize("hop", [1, 4])
    def test_overflowing_pseudo_inverse_does_not_certify(self, hop):
        # windows at 1e-160 give singular values near 1e-322, whose reciprocals
        # overflow: the gate used to certify them and recovery returned an
        # all-zero estimate with an empty support
        x, fam = certified_instance(64, hop, 6 if hop > 1 else 1, np.random.default_rng(3))
        tiny = fam * 1e-160
        mats = certify_rank(geom_at(tiny, hop))
        assert 0.0 < mats.report()["singular_value_min"] < 1e-300
        assert not mats.certified
        assert mats.pseudo_inverses is None
        assert mats.failing == tuple(range(mats.num_hops))
        grid = measure(x, tiny, hop)
        with pytest.raises(CertificationError) as err:
            recover_magnitudes(aggregate(grid, geom_at(tiny, grid.hop)), mats)
        assert err.value.failing == mats.failing
        assert str(err.value).startswith("pseudo-inverses overflow at residues [0, 1, ")
        with pytest.raises(CertificationError):
            reconstruct(grid, tiny, ProblemConfig(64, hop, len(tiny)))

    def test_equality_is_identity(self):
        fam = chain_family(8, 2, 3, np.random.default_rng(67))
        mats = certify_rank(geom_at(fam, 2))
        assert mats == mats
        assert certify_rank(geom_at(fam, 2)) != certify_rank(geom_at(fam, 2))

    @pytest.mark.parametrize("rank_tol", [-1.0, float("nan"), float("inf")])
    def test_bad_rank_tol_rejected(self, rank_tol):
        # a negative tolerance counts every singular value, certifying anything
        with pytest.raises(ConfigurationError, match="rank_tol"):
            certify_rank(geom_at([np.array([1, 1, 0, 0, 0, 0, 0, 0])], 1), rank_tol)

    @pytest.mark.parametrize("hop", [1, 2])  # the thin closed form and the batched SVD
    def test_overflowing_power_spectra_rejected(self, hop):
        # |w|**2 past the float range used to reach LAPACK as inf and NaN, with
        # three numpy warnings on the way and "SVD did not converge" at the end
        fam = 1e160 * chain_family(8, hop, 3, np.random.default_rng(1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigurationError,
                               match="^window power spectra overflow the float range$"):
                certify_rank(geom_at(fam, hop))

    @pytest.mark.parametrize("hop,rank_tol", [(3, None), (1, -1.0)])
    def test_family_errors_come_first(self, monkeypatch, hop, rank_tol):
        # the geometry validates the family once, after ProblemConfig has
        # checked the hop: a bad family is named after a bad hop and before a
        # bad rank_tol
        calls = []

        def counting(*args):
            calls.append(args)
            return model.as_window_family(*args)

        monkeypatch.setattr(supportgraph, "as_window_family", counting)
        error, match = ((ConfigurationError, "hop 3 does not divide signal length 8") if hop == 3
                        else (InvalidWindowError, "window 1 is identically zero"))
        with pytest.raises(error, match=match):
            certify_rank(geom_at([np.ones(8), np.zeros(8)], hop), rank_tol)
        assert certify_rank(geom_at([np.ones(8)], 1)).num_windows == 1
        assert len(calls) == (1 if hop == 3 else 2)

    @pytest.mark.parametrize("hop", [0, 3, 16])
    def test_hop_must_divide(self, hop):
        # the same rule and class as ProblemConfig, stft and measure
        with pytest.raises(ConfigurationError, match=f"hop {hop} does not divide signal length 8"):
            certify_rank(geom_at([np.ones(8)], hop))

    def test_full_hop_specialization(self):
        # rank gate == power matrix of the masks has full rank
        rng = np.random.default_rng(53)
        fam = np.stack([random_interval_window(4, 2, rng, anchor=r) for r in range(4)])
        mats = certify_rank(geom_at(fam, 4))
        power = np.abs(np.asarray(fam)) ** 2
        assert mats.certified == (np.linalg.matrix_rank(power) == 4)


class TestRecoverMagnitudes:
    def _instance(self, n, hop, num_windows, seed):
        rng = np.random.default_rng(seed)
        x, fam = certified_instance(n, hop, num_windows, rng)
        grid = measure(x, fam, hop)
        agg = aggregate(grid, geom_at(fam, grid.hop))
        mats = certify_rank(geom_at(fam, hop))
        return x, fam, agg, mats

    def test_zero_signal(self):
        rng = np.random.default_rng(59)
        _, fam = certified_instance(8, 2, 2, rng)
        agg = aggregate(measure(np.zeros(8), fam, 2), geom_at(fam, 2))
        mag = recover_magnitudes(agg, certify_rank(geom_at(fam, 2)))
        assert np.allclose(mag.magnitudes_sq, 0, atol=1e-14)

    def test_impulse_signal_impulse_window(self):
        w = np.zeros(6, complex)
        w[0] = 1.0
        x = np.zeros(6, complex)
        x[0] = 1.0
        agg = aggregate(measure(x, [w], 1), geom_at([w], 1))
        mag = recover_magnitudes(agg, certify_rank(geom_at([w], 1)))
        expected = np.zeros(6)
        expected[0] = 1.0
        assert np.allclose(mag.magnitudes_sq, expected, atol=1e-12)

    def test_random_instance_exact(self):
        x, _, agg, mats = self._instance(8, 2, 2, seed=61)
        mag = recover_magnitudes(agg, mats)
        assert np.max(np.abs(mag.magnitudes_sq - np.abs(x) ** 2)) <= 1e-10

    def test_solver_paths_agree(self):
        # the SVD path against the oracle's explicit Gram-inverse formula
        x, fam, agg, mats = self._instance(12, 3, 4, seed=67)
        a = recover_magnitudes(agg, mats)
        b = magnitudes_direct(agg.energy, geom_at(fam, 3))
        scale = np.abs(x).max() ** 2
        assert np.max(np.abs(a.magnitudes_sq - b)) <= 1e-9 * scale

    @pytest.mark.parametrize("geometry", [(16, 1, 1), (16, 4, 5), (12, 12, 13)])
    def test_stacked_solve_matches_per_residue_solves(self, geometry):
        x, _, agg, mats = self._instance(*geometry, seed=73)
        num_hops = mats.num_hops
        rhs = np.fft.fft(agg.energy, axis=1) / num_hops
        power = np.empty(mats.n, dtype=complex)
        for m in range(num_hops):
            power[m + num_hops * np.arange(mats.hop)] = mats.pseudo_inverses[m] @ rhs[:, m]
        want = np.fft.ifft(power).real * mats.n
        got = recover_magnitudes(agg, mats).magnitudes_sq
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    def test_power_spectrum_conjugate_symmetry(self):
        _, _, agg, mats = self._instance(16, 4, 5, seed=71)
        # a conjugate-symmetric power spectrum has a real inverse DFT
        assert recover_magnitudes(agg, mats).imag_residue <= 1e-10

    @pytest.mark.parametrize("scalar", [2.0, 1.0 + 1.0j])
    def test_scaling(self, scalar):
        rng = np.random.default_rng(73)
        x, fam = certified_instance(8, 2, 3, rng)
        mats = certify_rank(geom_at(fam, 2))
        base = recover_magnitudes(aggregate(measure(x, fam, 2), geom_at(fam, 2)), mats)
        scaled = recover_magnitudes(
            aggregate(measure(scalar * x, fam, 2), geom_at(fam, 2)), mats
        )
        assert np.allclose(
            scaled.magnitudes_sq, abs(scalar) ** 2 * base.magnitudes_sq, atol=1e-10
        )

    def test_uncertified_refused(self):
        x = np.ones(4, complex)
        fam = [np.ones(4, complex)]
        agg = aggregate(measure(x, fam, 1), geom_at(fam, 1))
        mats = certify_rank(geom_at(fam, 1))
        with pytest.raises(CertificationError) as err:
            recover_magnitudes(agg, mats)
        assert err.value.failing == (1, 2, 3)
        assert str(err.value) == "modulation matrices are rank-deficient at residues [1, 2, 3]"

    def test_severe_clamping_flag(self):
        rng = np.random.default_rng(79)
        _, fam = certified_instance(8, 2, 2, rng)
        mats = certify_rank(geom_at(fam, 2))
        junk = AggregateMeasurements(
            energy=-np.ones((2, 4)), correlation=np.zeros((2, 4)), noise_level=1.0
        )
        mag = recover_magnitudes(junk, mats)
        assert mag.severe_clamping
        assert np.all(mag.magnitudes_sq >= 0)

    @pytest.mark.parametrize("shape", [(3, 4), (2, 2)])
    def test_aggregate_shape_must_match_matrices(self, shape):
        # the gate's geometry holds 2 windows x 4 hops; n and hop come from it alone
        _, _, _, mats = self._instance(8, 2, 2, seed=83)
        agg = AggregateMeasurements(energy=np.ones(shape), correlation=np.zeros(shape))
        with pytest.raises(DimensionMismatchError):
            recover_magnitudes(agg, mats)
