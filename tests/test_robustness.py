import inspect

import numpy as np
import pytest

from stftpr import (
    DEFAULT_ZERO_TOL,
    Geometry,
    aggregate,
    certify_rank,
    corrupt,
    error_budget,
    measure,
    min_support_magnitude,
    recover_magnitudes,
    stability_constants,
    threshold_support,
)
from stftpr.errors import (
    CertificationError,
    ConfigurationError,
    DimensionMismatchError,
    InvalidPriorError,
    UndefinedBudgetError,
)
from stftpr.generators import certified_instance, chain_family, random_interval_window
from stftpr.supportgraph import window_support

from conftest import geom_at


def _impulse_constants(n):
    w = np.zeros(n, complex)
    w[0] = 1.0
    mats = certify_rank(geom_at([w], 1))
    return stability_constants(mats)


class TestStabilityConstants:
    def test_min_endpoint_product_is_the_exact_per_window_minimum(self):
        # == and not approx: W_star's bytes go into bounds.json and recover.json,
        # and a vectorised np.abs can move the last bit
        rng = np.random.default_rng(229)
        checked = 0
        for trial in range(60):
            n = int(rng.choice([8, 12, 16, 24]))
            if trial % 2:
                hop = int(rng.choice([d for d in (1, 2, 4) if n % d == 0]))
                fam = chain_family(n, hop, hop + int(rng.integers(0, 4)), rng)
            else:
                hop = 1
                fam = np.stack([
                    random_interval_window(n, int(rng.integers(1, n // 2 + 1)), rng)
                    for _ in range(int(rng.integers(1, 5)))
                ])
            mats = certify_rank(geom_at(fam, hop))
            if not mats.certified:
                continue
            want = []
            for w in fam:
                ws = window_support(w)
                want.append(abs(complex(w[ws.anchor]) * complex(w[ws.far(n)])))
            assert stability_constants(mats).min_endpoint_product == min(want)
            checked += 1
        assert checked >= 40

    def test_impulse_window(self):
        n = 8
        consts = _impulse_constants(n)
        assert consts.window_l2 == pytest.approx(1.0)
        assert consts.min_endpoint_product == pytest.approx(1.0)
        # each residue contributes n**2, summed over n residues
        assert consts.gram_inverse_l1 == pytest.approx(n ** 3, rel=1e-12)

    def test_homogeneity(self):
        rng = np.random.default_rng(211)
        _, fam = certified_instance(8, 2, 3, rng)
        mats = certify_rank(geom_at(fam, 2))
        base = stability_constants(mats)
        doubled = stability_constants(certify_rank(geom_at(2 * fam, 2)))
        assert doubled.window_l2 == pytest.approx(2 * base.window_l2, rel=1e-12)
        assert doubled.min_endpoint_product == pytest.approx(
            4 * base.min_endpoint_product, rel=1e-12
        )

    def test_uncertified_family_rejected(self):
        fam = [np.ones(4, complex)]
        mats = certify_rank(geom_at(fam, 1))
        with pytest.raises(CertificationError):
            stability_constants(mats)

    def test_family_of_another_certificate_rejected(self):
        # the n = 16 family's l2 mass and endpoint products beside the n = 8
        # family's Gram mass would pass for the constants of neither family;
        # the constants read the certified family itself, and a geometry holds
        # no family of another shape
        rng = np.random.default_rng(233)
        fam = chain_family(8, 2, 3, rng)
        mats = certify_rank(geom_at(fam, 2))
        assert stability_constants(mats).window_l2 == float(np.sqrt(np.sum(np.abs(fam) ** 2)))
        for other in (chain_family(16, 2, 5, rng), chain_family(8, 2, 4, rng)):
            with pytest.raises(DimensionMismatchError):
                Geometry(mats.geometry.cfg, other)

    def test_json_keys(self):
        consts = _impulse_constants(4)
        assert set(consts.to_dict()) == {"W_norm2", "W_star", "A_norm1", "n"}


class TestErrorBudget:
    def test_zero_noise(self):
        consts = _impulse_constants(8)
        budget = error_budget(consts, 0.0, 1.0)
        assert budget.admissible
        assert budget.magnitude_bound == 0.0
        assert budget.phase_bound == 0.0

    def test_boundary_is_admissible(self):
        consts = _impulse_constants(8)
        min_mag = 0.7
        boundary = min_mag ** 2 / (4 * consts.gram_inverse_l1 * consts.window_l2 ** 2)
        assert error_budget(consts, boundary, min_mag).admissible
        assert not error_budget(consts, boundary * (1 + 1e-9), min_mag).admissible

    def test_formulas_recomputed_independently(self):
        rng = np.random.default_rng(223)
        x, fam = certified_instance(8, 2, 3, rng)
        mats = certify_rank(geom_at(fam, 2))
        consts = stability_constants(mats)
        level = 1e-5
        budget = error_budget(consts, level, min_support_magnitude(x, DEFAULT_ZERO_TOL))
        min_sq = min(abs(v) ** 2 for v in x if v != 0)
        w2_sq = sum(abs(v) ** 2 for w in fam for v in w)
        a1 = sum(
            abs(val)
            for a in mats.matrices
            for val in np.linalg.inv(a.conj().T @ a).ravel()
        )
        assert budget.min_support_magnitude_sq == pytest.approx(min_sq, rel=1e-12)
        assert budget.magnitude_bound == pytest.approx(a1 * w2_sq * level, rel=1e-10)
        assert budget.phase_bound == pytest.approx(
            2 * 8 ** 3 * level / (consts.min_endpoint_product * min_sq), rel=1e-12
        )
        assert budget.admissible == (level <= min_sq / (4 * a1 * w2_sq))

    def test_signal_reference_uses_support_minimum(self):
        consts = _impulse_constants(4)
        prior = min_support_magnitude(np.array([2.0, 0, 0.5j, 0]), DEFAULT_ZERO_TOL)
        assert prior == 0.5
        budget = error_budget(consts, 0.0, prior)
        assert budget.min_support_magnitude_sq == pytest.approx(0.25)

    def test_empty_support(self):
        with pytest.raises(UndefinedBudgetError, match="reference signal has empty support"):
            min_support_magnitude(np.zeros(4), DEFAULT_ZERO_TOL)

    def test_takes_only_a_prior(self):
        # a signal's smallest magnitude is min_support_magnitude's to work out
        assert list(inspect.signature(error_budget).parameters) == [
            "consts", "noise_level", "prior"]

    def test_nonpositive_prior(self):
        consts = _impulse_constants(4)
        with pytest.raises(InvalidPriorError):
            error_budget(consts, 0.0, 0.0)

    @pytest.mark.parametrize("reference", [1e-300, np.array([1e-200, 0, 2e-200j, 0])])
    def test_underflowing_square_is_undefined(self, reference):
        # the squared minimum underflows to zero; the phase bound used to divide by it
        consts = _impulse_constants(4)
        prior = min_support_magnitude(np.atleast_1d(reference), DEFAULT_ZERO_TOL)
        for noise in (0.0, 1e-3):
            with pytest.raises(UndefinedBudgetError, match="underflows"):
                error_budget(consts, noise, prior)
        # a square that is subnormal but nonzero still gives a bound
        assert error_budget(consts, 1e-3, 1e-160).phase_bound == float("inf")


class TestThresholdSupport:
    def test_exact_estimate_unchanged_on_support(self):
        x = np.array([1.0, 0.0, 0.8j, 0.0])
        out = threshold_support(x, 0.8)
        assert np.array_equal(out, x)

    def test_spurious_entry_zeroed(self):
        x = np.array([1.0, 0.32, 0.8j, 0.0])  # 0.32 == 0.4 * minimum 0.8
        out = threshold_support(x, 0.8)
        assert out[1] == 0
        assert out[0] == 1.0

    def test_boundary_inclusive(self):
        out = threshold_support(np.array([1.0, 0.4]), 0.8)
        assert out[1] == 0  # entries at the threshold are zeroed

    def test_invalid_prior(self):
        with pytest.raises(InvalidPriorError):
            threshold_support(np.ones(3), 0.0)

    def test_recovers_support_under_admissible_noise(self):
        hits = 0
        trials = 25
        for t in range(trials):
            rng = np.random.default_rng(3000 + t)
            n, hop = 8, 2
            supp = range(2 + t % 6)
            x, fam = certified_instance(n, hop, 3, rng, support=supp)
            mats = certify_rank(geom_at(fam, hop))
            consts = stability_constants(mats)
            min_mag = min(abs(v) for v in x if v != 0)
            level = 0.9 * min_mag ** 2 / (4 * consts.gram_inverse_l1 * consts.window_l2 ** 2)
            grid = corrupt(measure(x, fam, hop), rng.uniform(-level, level, (3, 4, 8)))
            mag = recover_magnitudes(aggregate(grid, geom_at(fam, grid.hop)), mats)
            est = np.sqrt(mag.magnitudes_sq)
            detected = np.flatnonzero(threshold_support(est, min_mag))
            if set(detected) == set(supp):
                hits += 1
        assert hits == trials


class TestNonFiniteInputs:
    @pytest.mark.parametrize("prior", [float("nan"), float("inf")])
    def test_error_budget_rejects_prior(self, prior):
        # NaN used to give NaN bounds, inf a zero phase bound
        with pytest.raises(InvalidPriorError):
            error_budget(_impulse_constants(4), 0.0, prior)

    @pytest.mark.parametrize("prior", [float("nan"), float("inf")])
    def test_threshold_support_rejects_prior(self, prior):
        with pytest.raises(InvalidPriorError):
            threshold_support(np.ones(3), prior)

    @pytest.mark.parametrize("prior, name", [
        (np.array([2.0, 0, 0.5j, 0]), r"ndarray of shape \(4,\)"),  # a signal, not its prior
        (np.array(0.5), r"ndarray of shape \(\)"),
        ([0.5], "list"),
        (0.5j, "complex"),
        ("0.5", "str"),
        (True, "bool"),  # a numbers.Real, so it used to pass as a prior of 1.0
        (False, "bool"),
    ])
    def test_non_scalar_prior_is_named(self, prior, name):
        # numpy's bare "truth value of an array is ambiguous" used to escape
        with pytest.raises(InvalidPriorError, match="must be a real scalar, got " + name):
            error_budget(_impulse_constants(4), 0.0, prior)
        with pytest.raises(InvalidPriorError, match="must be a real scalar"):
            threshold_support(np.ones(3), prior)

    @pytest.mark.parametrize("noise", [float("nan"), float("inf"), -1.0])
    def test_error_budget_rejects_noise_level(self, noise):
        with pytest.raises(ConfigurationError, match="noise_level must be finite and nonnegative"):
            error_budget(_impulse_constants(4), noise, 1.0)
