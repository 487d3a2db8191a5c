import inspect
import math
import warnings

import numpy as np
import pytest

from stftpr import (
    DEFAULT_ZERO_TOL,
    Geometry,
    StabilityConstants,
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
from stftpr.generators import (
    certified_instance,
    chain_family,
    mask_family,
    random_interval_window,
)
from stftpr.model import _root_sum_square
from stftpr.supportgraph import window_support

from conftest import geom_at, near_singular_pair, residue_matrices


def _impulse_constants(n):
    w = np.zeros(n, complex)
    w[0] = 1.0
    mats = certify_rank(geom_at([w], 1))
    return stability_constants(mats)


def _svd_gram_inverse_l1(fam, hop):
    """Summed entrywise l1 mass of V S^-2 V^H, one SVD per modulation matrix."""
    total = 0.0
    for a in residue_matrices(fam, hop):
        _, s, vh = np.linalg.svd(a, full_matrices=False)
        v = vh.conj().T
        total += float(np.abs((v / s ** 2) @ v.conj().T).sum())
    return total


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

    def test_near_singular_pair(self):
        # the Gram matrix squares the pair's condition number: inverting it
        # raised "Singular matrix" on a family the gate certifies
        fam = near_singular_pair()
        mats = certify_rank(geom_at(fam, 2))
        assert mats.certified
        assert mats.singular_values[:, -1].min() / mats.singular_values.max() < 1e-8
        a1 = stability_constants(mats).gram_inverse_l1
        assert np.isfinite(a1)
        assert a1 == pytest.approx(_svd_gram_inverse_l1(fam, 2), rel=1e-6)

    def test_gram_inverse_l1_matches_svd_reference(self):
        # mask families at hop n: the explicit Gram inverse was up to 2.3e-11 off
        families = [(mask_family(n, n, np.random.default_rng(s)), n)
                    for n in (12, 16) for s in range(40)]
        rng = np.random.default_rng(239)
        for n, hop in [(8, 2), (16, 4), (24, 1), (32, 4), (32, 8)] * 4:
            families.append((chain_family(n, hop, hop + int(rng.integers(0, 4)), rng), hop))
        checked = 0
        for fam, hop in families:
            mats = certify_rank(geom_at(fam, hop))
            if not mats.certified:
                continue
            got = stability_constants(mats).gram_inverse_l1
            assert got == pytest.approx(_svd_gram_inverse_l1(fam, hop), rel=1e-12)
            checked += 1
        assert checked >= 90

    def test_scale_covariance(self):
        # W_norm2, W_star and A_norm1 scale as |c|, |c|**2 and |c|**-4; past
        # the float range (c = 1e-80) A_norm1 reads inf, with no NaN and no
        # overflow warning
        fam = chain_family(8, 2, 3, np.random.default_rng(1))
        base = stability_constants(certify_rank(geom_at(fam, 2)))
        for k in range(-60, 61):
            c = 2.0 ** k
            consts = stability_constants(certify_rank(geom_at(c * fam, 2)))
            # math.isclose, as pytest.approx keeps an absolute 1e-12, below which
            # W_norm2 falls at k <= -42, W_star at k <= -20 and A_norm1 at k >= 12
            assert math.isclose(consts.window_l2, c * base.window_l2, rel_tol=1e-12)
            assert math.isclose(
                consts.min_endpoint_product, c ** 2 * base.min_endpoint_product, rel_tol=1e-12
            )
            assert math.isclose(consts.gram_inverse_l1, base.gram_inverse_l1 / c ** 4, rel_tol=1e-12)
        mats = certify_rank(geom_at(1e-80 * fam, 2))
        assert mats.certified
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            consts = stability_constants(mats)
        assert consts.gram_inverse_l1 == np.inf
        assert np.isfinite(consts.window_l2) and consts.min_endpoint_product > 0

    def test_scale_covariance_over_the_float_range(self):
        # every power of two c at which the family certifies with finite power
        # spectra: W_norm2 and W_star scale as c and c**2 exactly, and the gain
        # as c**-2 wherever that is in range, also where A_norm1 (c**-4) is
        # subnormal or zero; the budget never calls such a gain an underflow
        fam = chain_family(8, 2, 3, np.random.default_rng(1))
        base = stability_constants(certify_rank(geom_at(fam, 2)))
        scales = []
        for k in range(-540, 541):
            c = 2.0 ** k
            try:
                mats = certify_rank(geom_at(c * fam, 2))
            except ConfigurationError:  # power spectra past the float range
                continue
            if not mats.certified:
                continue
            scales.append(k)
            consts = stability_constants(mats)
            assert consts.window_l2 == c * base.window_l2
            assert consts.min_endpoint_product == c * c * base.min_endpoint_product
            gain = base.gain / c / c
            if gain < math.inf:
                assert math.isclose(consts.gain, gain, rel_tol=1e-12), k
            error_budget(consts, 1e-12, 0.5)
        assert scales == list(range(scales[0], scales[-1] + 1))
        assert scales[0] <= -500 and scales[-1] >= 500

    def test_window_mass_past_the_float_range(self):
        # the largest window's squared mass is 9e307, so the family's total is
        # past the float range: W_norm2 is a scaled root-sum-square, finite and
        # within an ulp or two of hypot over the moduli, and the gain comes from
        # the scaled form, as A_norm1 (scaling as c**-4) underflows to zero
        fam = chain_family(8, 2, 3, np.random.default_rng(1))
        base = stability_constants(certify_rank(geom_at(fam, 2)))
        c = 5.364e153
        mats = certify_rank(geom_at(c * fam, 2))
        assert mats.certified
        consts = stability_constants(mats)
        assert consts.window_l2 == pytest.approx(math.hypot(*np.abs(c * fam).ravel()), rel=1e-15)
        assert consts.window_l2 == pytest.approx(c * base.window_l2, rel=1e-12)
        assert consts.gram_inverse_l1 == 0.0
        assert math.isclose(consts.gain, base.gain / c ** 2, rel_tol=1e-12)  # about 7e-305
        budget = error_budget(consts, 1e-300, 0.5)
        assert budget.admissible and budget.magnitude_bound == 0.0

    def test_window_mass_in_range_is_the_plain_sum(self):
        # the peak scaling is by a power of two, so in range no byte moves,
        # for W_norm2 and for the root-sum-square along any axis
        for seed in range(20):
            fam = chain_family(16, 4, 6, np.random.default_rng(seed)) * 10.0 ** (seed - 10)
            consts = stability_constants(certify_rank(geom_at(fam, 4)))
            assert consts.window_l2 == float(np.sqrt(np.sum(np.abs(fam) ** 2)))
            moduli = np.abs(fam).reshape(2, 3, 16)
            for axis in (None, 0, 1, 2, -1):
                plain = np.sqrt(np.sum(moduli ** 2, axis=axis, keepdims=True))
                assert np.array_equal(_root_sum_square(moduli, axis), plain)

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

    def test_zero_noise_with_infinite_gram_mass(self):
        # inf * 0 used to make the magnitude bound NaN and the verdict false
        fam = 1e-80 * chain_family(8, 2, 3, np.random.default_rng(1))
        consts = stability_constants(certify_rank(geom_at(fam, 2)))
        assert consts.gram_inverse_l1 == np.inf
        budget = error_budget(consts, 0.0, 0.5)
        assert budget.admissible
        assert budget.magnitude_bound == 0.0
        assert budget.phase_bound == 0.0

    def test_gain_stays_finite_where_gram_mass_overflows(self):
        # A_norm1 scales as c**-4 and W_norm2**2 as c**2: at c = 1e-80 the
        # first is past the float range, but the gain and the bound are not
        fam = chain_family(8, 2, 3, np.random.default_rng(1))
        base = stability_constants(certify_rank(geom_at(fam, 2)))
        assert base.gain == base.gram_inverse_l1 * base.window_l2 ** 2
        consts = stability_constants(certify_rank(geom_at(1e-80 * fam, 2)))
        assert consts.gram_inverse_l1 == np.inf
        assert consts.gain == pytest.approx(base.gain * 1e160, rel=1e-12)
        budget = error_budget(consts, 1e-12, 0.5)
        assert budget.magnitude_bound == pytest.approx(base.gain * 1e148, rel=1e-12)
        assert not budget.admissible

    def test_underflowing_gain_is_undefined(self):
        # at c = 1e100 A_norm1 (scaling as c**-4) is below the float range, but
        # the gain is the scaled form, finite as c**-2, so the budget is
        # defined; only a gain that is itself zero leaves it undefined
        fam = chain_family(8, 2, 3, np.random.default_rng(1))
        base = stability_constants(certify_rank(geom_at(fam, 2)))
        consts = stability_constants(certify_rank(geom_at(1e100 * fam, 2)))
        assert consts.gram_inverse_l1 == 0.0
        assert math.isclose(consts.gain, base.gain / 1e200, rel_tol=1e-12)
        budget = error_budget(consts, 1e-12, 0.5)
        assert budget.admissible
        assert math.isclose(budget.magnitude_bound, base.gain * 1e-212, rel_tol=1e-12)
        zero = StabilityConstants(window_l2=1.0, min_endpoint_product=1.0,
                                  gram_inverse_l1=0.0, n=8, gain=0.0)
        with pytest.raises(UndefinedBudgetError, match="gain A_norm1"):
            error_budget(zero, 1e-12, 0.5)

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
            for a in residue_matrices(fam, 2)
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
