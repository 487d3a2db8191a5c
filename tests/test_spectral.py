import numpy as np
import pytest

from stftpr import (
    ProblemConfig,
    aggregate,
    certify_rank,
    magnitudes_direct,
    measure,
    recover_magnitudes,
    window_power_spectra,
)
from stftpr.errors import CertificationError, ConfigurationError
from stftpr.generators import certified_instance, chain_family, random_interval_window
from stftpr.stft import AggregateMeasurements


class TestWindowPowerSpectra:
    def test_constant_window(self):
        spectra = window_power_spectra([np.ones(4)])
        assert np.allclose(spectra[0], [1, 0, 0, 0], atol=1e-14)

    def test_impulse_window(self):
        w = np.zeros(4, complex)
        w[0] = 1.0
        spectra = window_power_spectra([w])
        assert np.allclose(spectra[0], 0.25)

    def test_two_tap_window(self):
        spectra = window_power_spectra([[1, 1, 0, 0]])
        k = np.arange(4)
        assert np.allclose(spectra[0], 0.25 * (1 + np.exp(-1j * np.pi * k / 2)))

    def test_symmetry_and_positivity(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            n = int(rng.integers(2, 17))
            w = rng.normal(size=n) + 1j * rng.normal(size=n)
            row = window_power_spectra([w])[0]
            assert row[0].real > 0 and abs(row[0].imag) < 1e-14
            assert np.allclose(row[(-np.arange(n)) % n], np.conj(row), atol=1e-12)


class TestCertifyRank:
    def test_constant_window_fails_off_zero(self):
        mats = certify_rank([np.ones(4)], hop=1)
        assert not mats.certified
        assert mats.failing == (1, 2, 3)
        assert mats.ranks == (1, 0, 0, 0)

    def test_impulse_window_certifies(self):
        w = np.zeros(5, complex)
        w[0] = 1.0
        mats = certify_rank([w], hop=1)
        assert mats.certified
        assert all(np.allclose(a, 0.2) for a in mats.matrices)

    def test_impulse_masks_full_hop(self):
        # one impulse per position: the power matrix is a scaled permutation
        n = 4
        fam = np.eye(n, dtype=complex)
        mats = certify_rank(fam, hop=n)
        assert mats.certified
        assert mats.ranks == (n,)

    def test_duplicated_windows_rejected(self):
        rng = np.random.default_rng(43)
        w = random_interval_window(8, 3, rng)
        mats = certify_rank([w, w], hop=2)
        assert not mats.certified
        assert mats.failing == tuple(range(4))

    def test_report_fields(self):
        mats = certify_rank([np.ones(4)], hop=1)
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
            mats = certify_rank(fam, hop=1)
            spectra = window_power_spectra(fam)
            threshold = mats.rank_tol * max(np.abs(spectra).max(), 0.0)
            nonzero = [bool(np.linalg.norm(spectra[:, m]) > threshold) for m in range(8)]
            assert [r == 1 for r in mats.ranks] == nonzero

    @pytest.mark.parametrize("family", ["certified-chain", "duplicated-windows"])
    def test_batched_gate_matches_per_residue_factorizations(self, family):
        rng = np.random.default_rng(59)
        if family == "certified-chain":
            fam, hop = chain_family(16, 4, 6, rng), 4
        else:
            w = random_interval_window(8, 3, rng)
            fam, hop = np.stack([w, w]), 2
        mats = certify_rank(fam, hop)
        spectra = window_power_spectra(fam)
        num_hops = spectra.shape[1] // hop
        scale = 0.0
        for m in range(num_hops):
            a = spectra[:, m + num_hops * np.arange(hop)]
            assert np.array_equal(mats.matrices[m], a)
            s = np.linalg.svd(a, compute_uv=False)
            assert np.array_equal(mats.singular_values[m], s)
            scale = max(scale, float(s[0]))
        for m in range(num_hops):
            rank = int(np.sum(mats.singular_values[m] > mats.rank_tol * scale))
            assert mats.ranks[m] == rank
            if rank == hop:
                assert np.array_equal(mats.pseudo_inverses[m], np.linalg.pinv(mats.matrices[m]))
            else:
                assert mats.pseudo_inverses[m] is None
        assert mats.certified == (family == "certified-chain")

    @pytest.mark.parametrize("rank_tol", [-1.0, float("nan"), float("inf")])
    def test_bad_rank_tol_rejected(self, rank_tol):
        # a negative tolerance counts every singular value, certifying anything
        with pytest.raises(ConfigurationError, match="rank_tol"):
            certify_rank([np.array([1, 1, 0, 0, 0, 0, 0, 0])], hop=1, rank_tol=rank_tol)

    def test_full_hop_specialization(self):
        # rank gate == power matrix of the masks has full rank
        rng = np.random.default_rng(53)
        fam = np.stack([random_interval_window(4, 2, rng, anchor=r) for r in range(4)])
        mats = certify_rank(fam, hop=4)
        power = np.abs(np.asarray(fam)) ** 2
        assert mats.certified == (np.linalg.matrix_rank(power) == 4)


class TestRecoverMagnitudes:
    def _instance(self, n, hop, num_windows, seed):
        rng = np.random.default_rng(seed)
        x, fam = certified_instance(n, hop, num_windows, rng)
        grid = measure(x, fam, hop)
        agg = aggregate(grid, fam)
        mats = certify_rank(fam, hop)
        return x, fam, agg, mats

    def test_zero_signal(self):
        rng = np.random.default_rng(59)
        _, fam = certified_instance(8, 2, 2, rng)
        agg = aggregate(measure(np.zeros(8), fam, 2), fam)
        mag = recover_magnitudes(agg, certify_rank(fam, 2))
        assert np.allclose(mag.magnitudes_sq, 0, atol=1e-14)

    def test_impulse_signal_impulse_window(self):
        w = np.zeros(6, complex)
        w[0] = 1.0
        x = np.zeros(6, complex)
        x[0] = 1.0
        agg = aggregate(measure(x, [w], 1), [w])
        mag = recover_magnitudes(agg, certify_rank([w], 1))
        expected = np.zeros(6)
        expected[0] = 1.0
        assert np.allclose(mag.magnitudes_sq, expected, atol=1e-12)

    def test_random_instance_exact(self):
        x, _, agg, mats = self._instance(8, 2, 2, seed=61)
        mag = recover_magnitudes(agg, mats)
        assert np.max(np.abs(mag.magnitudes_sq - np.abs(x) ** 2)) <= 1e-10

    def test_solver_paths_agree(self):
        # the SVD path against the oracle's explicit Gram-inverse formula
        x, _, agg, mats = self._instance(12, 3, 4, seed=67)
        a = recover_magnitudes(agg, mats)
        b = magnitudes_direct(agg.energy, mats)
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
        got = recover_magnitudes(agg, mats).power_spectrum
        assert np.max(np.abs(got - power)) <= 1e-14 * np.max(np.abs(power))

    def test_power_spectrum_conjugate_symmetry(self):
        _, _, agg, mats = self._instance(16, 4, 5, seed=71)
        mag = recover_magnitudes(agg, mats)
        p = mag.power_spectrum
        n = p.shape[0]
        assert np.max(np.abs(p[(-np.arange(n)) % n] - np.conj(p))) <= 1e-10

    @pytest.mark.parametrize("scalar", [2.0, 1.0 + 1.0j])
    def test_scaling(self, scalar):
        rng = np.random.default_rng(73)
        x, fam = certified_instance(8, 2, 3, rng)
        mats = certify_rank(fam, 2)
        base = recover_magnitudes(aggregate(measure(x, fam, 2), fam), mats)
        scaled = recover_magnitudes(
            aggregate(measure(scalar * x, fam, 2), fam), mats
        )
        assert np.allclose(
            scaled.magnitudes_sq, abs(scalar) ** 2 * base.magnitudes_sq, atol=1e-10
        )

    def test_uncertified_refused(self):
        x = np.ones(4, complex)
        fam = [np.ones(4, complex)]
        agg = aggregate(measure(x, fam, 1), fam)
        mats = certify_rank(fam, 1)
        with pytest.raises(CertificationError) as err:
            recover_magnitudes(agg, mats)
        assert err.value.failing == (1, 2, 3)

    def test_severe_clamping_flag(self):
        rng = np.random.default_rng(79)
        _, fam = certified_instance(8, 2, 2, rng)
        mats = certify_rank(fam, 2)
        junk = AggregateMeasurements(
            energy=-np.ones((2, 4)), correlation=np.zeros((2, 4)), noise_level=1.0
        )
        mag = recover_magnitudes(junk, mats)
        assert mag.severe_clamping
        assert np.all(mag.magnitudes_sq >= 0)

    def test_config_validation(self):
        x, fam, agg, mats = self._instance(8, 2, 2, seed=83)
        cfg = ProblemConfig(8, 2, 2)
        recover_magnitudes(agg, mats, cfg)  # consistent: fine
        from stftpr.errors import DimensionMismatchError

        with pytest.raises(DimensionMismatchError):
            recover_magnitudes(agg, mats, ProblemConfig(8, 4, 2))
