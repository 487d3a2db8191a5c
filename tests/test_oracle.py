import numpy as np
import pytest

from stftpr import (
    ProblemConfig,
    aggregate,
    certify_rank,
    compare,
    exhaustive_ambiguity_search,
    magnitudes_direct,
    measure,
    measure_direct,
    phase_distance,
    recover_magnitudes,
    stft,
    stft_direct,
)
from stftpr.errors import ConfigurationError, SearchSpaceError
from stftpr.generators import antipodal_pair_signal, certified_instance

from conftest import geom_at


# (n, hop, indices carrying the window's nonzero entries); measure takes its
# autocorrelation route when 2L - 1 <= log2 n: L <= 3 at n = 64, L <= 5 at 1024
MEASURE_GEOMETRIES = {
    "full-support": (8, 2, range(8)),
    "short-wrapping": (12, 3, (10, 11, 0, 1)),
    "gapped": (8, 2, (0, 2, 4, 6)),
    "length-one": (8, 4, (5,)),
    "hop-one": (8, 1, (6, 7, 0)),
    "hop-n": (8, 8, (3, 4, 5)),
    "n64-length-one": (64, 4, (17,)),
    "n64-length-two": (64, 4, (30, 31)),
    "n64-length-three-wrapping": (64, 8, (63, 0, 1)),
    "n64-interior-zero": (64, 2, (5, 7)),
    "n64-length-four-fft-route": (64, 4, (40, 42, 43)),
    # the oracle is O(n**2) per section: one section each at n = 1024
    "n1024-length-one": (1024, 1024, (700,)),
    "n1024-length-two-wrapping": (1024, 1024, (1023, 0)),
    "n1024-length-three-interior-zero": (1024, 1024, (10, 12)),
}


class TestStftDirect:
    def test_delta_case(self):
        x = np.zeros(4, complex)
        x[0] = 1.0
        assert np.allclose(stft_direct(x, np.ones(4), 4), 0.25)

    def test_zero_signal(self):
        assert np.all(stft_direct(np.zeros(6), np.ones(6), 3) == 0)

    def test_hop_must_divide(self):
        with pytest.raises(ConfigurationError, match="^hop 4 does not divide signal length 6$"):
            stft_direct(np.ones(6), np.ones(6), 4)

    def test_agrees_with_fast_path(self):
        rng = np.random.default_rng(301)
        for _ in range(20):
            n = int(rng.integers(2, 17))
            hop = int(rng.choice([d for d in range(1, n + 1) if n % d == 0]))
            x = rng.normal(size=n) + 1j * rng.normal(size=n)
            w = rng.normal(size=n) + 1j * rng.normal(size=n)
            fast = stft(x, w, hop)
            ref = stft_direct(x, w, hop)
            assert np.max(np.abs(fast - ref)) <= 1e-10 * np.max(np.abs(ref))

    @pytest.mark.parametrize(
        "n, hop, taps",
        list(MEASURE_GEOMETRIES.values()),
        ids=list(MEASURE_GEOMETRIES),
    )
    def test_measure_direct(self, n, hop, taps):
        # measure gathers only the window's support; the oracle sums every t
        rng = np.random.default_rng(307)
        x = rng.normal(size=n) + 1j * rng.normal(size=n)
        w = np.zeros(n, complex)
        w[list(taps)] = rng.normal(size=len(taps)) + 1j * rng.normal(size=len(taps))
        assert np.allclose(
            measure_direct(x, [w], hop).values, measure(x, [w], hop).values, atol=1e-12
        )


def test_magnitudes_direct_matches_solver():
    rng = np.random.default_rng(311)
    x, fam = certified_instance(8, 2, 3, rng)
    mats = certify_rank(geom_at(fam, 2))
    agg = aggregate(measure(x, fam, 2), geom_at(fam, 2))
    direct = magnitudes_direct(agg.energy, geom_at(fam, 2))
    solved = recover_magnitudes(agg, mats).magnitudes_sq
    assert np.max(np.abs(direct - solved)) <= 1e-9
    assert np.max(np.abs(direct - np.abs(x) ** 2)) <= 1e-9


class TestCompare:
    def test_pass_and_fail(self):
        assert compare("a", 1.0, 1.0 + 1e-12, 1e-10).passed
        assert not compare("b", 1.0, 1.1, 1e-10).passed

    def test_zero_reference_uses_absolute(self):
        rep = compare("c", 1e-12, np.zeros(3), 1e-10)
        assert rep.passed and rep.abs_error == pytest.approx(1e-12)

    def test_dict_round_trip(self):
        d = compare("d", 1j, 1j, 1e-10).to_dict()
        assert d["pass"] is True
        assert d["case_id"] == "d"
        assert d["fast_value"] == [0.0, 1.0]


class TestExhaustiveAmbiguitySearch:
    def test_retrievable_pair(self):
        # all matches of a length-2 instance are global rotations of each other
        x = np.array([1.0, 1.0], dtype=complex)
        fam = [np.ones(2, complex)]
        cfg = ProblemConfig(2, 1, 1)
        grid = measure(x, fam, 1)
        matches = exhaustive_ambiguity_search(grid, fam, cfg, 8, {0.0, 1.0})
        assert len(matches) == 8
        for cand in matches:
            assert phase_distance(cand, x).distance <= 1e-9

    def test_disconnected_instance_has_inequivalent_matches(self):
        x0 = antipodal_pair_signal(4)
        fam = [np.array([1, 1, 0, 0], dtype=complex)]
        cfg = ProblemConfig(4, 1, 1)
        grid = measure(x0, fam, 1)
        matches = exhaustive_ambiguity_search(grid, fam, cfg, 8, {0.0, 1.0})
        assert any(
            phase_distance(a, b).distance > 1e-6
            for i, a in enumerate(matches)
            for b in matches[i + 1:]
        )

    def test_empty_magnitude_set(self):
        fam = [np.ones(2, complex)]
        cfg = ProblemConfig(2, 1, 1)
        grid = measure(np.ones(2), fam, 1)
        assert exhaustive_ambiguity_search(grid, fam, cfg, 8, set()) == []

    def test_candidate_cap(self):
        fam = [np.ones(4, complex)]
        cfg = ProblemConfig(4, 1, 1)
        grid = measure(np.ones(4), fam, 1)
        with pytest.raises(SearchSpaceError):
            exhaustive_ambiguity_search(grid, fam, cfg, 16, {0.5, 1.0, 1.5, 2.0})

    def test_parameter_validation(self):
        fam = [np.ones(4, complex)]
        cfg = ProblemConfig(4, 1, 1)
        grid = measure(np.ones(4), fam, 1)
        with pytest.raises(ConfigurationError):
            exhaustive_ambiguity_search(grid, fam, cfg, 17, {1.0})
        big = ProblemConfig(5, 1, 1)
        big_grid = measure(np.ones(5), [np.ones(5, complex)], 1)
        with pytest.raises(ConfigurationError):
            exhaustive_ambiguity_search(big_grid, [np.ones(5, complex)], big, 8, {1.0})
        with pytest.raises(ConfigurationError, match="^magnitudes must be nonnegative$"):
            exhaustive_ambiguity_search(grid, fam, cfg, 4, {-1.0, 1.0})
