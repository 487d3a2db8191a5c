import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from stftpr import GlobalPhaseDistance, ProblemConfig, phase_distance, support
from stftpr.errors import ConfigurationError, DimensionMismatchError
from stftpr.model import as_signal

TWO_PI = 2 * np.pi


class TestProblemConfig:
    def test_valid(self):
        cfg = ProblemConfig(n=12, hop=3, num_windows=2)
        assert cfg.num_hops == 4
        assert cfg.zero_tol == 1e-12

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n=10, hop=3, num_windows=1),  # hop does not divide n
            dict(n=0, hop=1, num_windows=1),
            dict(n=8, hop=0, num_windows=1),
            dict(n=8, hop=2, num_windows=0),
            dict(n=8, hop=2, num_windows=1, zero_tol=-1e-3),
            # NaN passes a plain `zero_tol < 0` check and would empty every support
            dict(n=8, hop=2, num_windows=1, zero_tol=float("nan")),
            dict(n=8, hop=2, num_windows=1, zero_tol=float("inf")),
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ConfigurationError):
            ProblemConfig(**kwargs)


class TestSupport:
    def test_single_nonzero(self):
        assert support([1, 0, 0, 0]) == (0,)

    def test_zero_signal(self):
        assert support([0, 0, 0, 0]) == ()

    def test_relative_tolerance(self):
        assert support([1, 1e-15, 2j, 0], zero_tol=1e-12) == (0, 2)

    def test_not_one_dimensional(self):
        with pytest.raises(DimensionMismatchError):
            support(np.zeros((2, 2)))

    def test_length_check(self):
        with pytest.raises(DimensionMismatchError):
            as_signal([1, 2, 3], n=4)


class TestPhaseDistance:
    def test_exact_rotation(self):
        # x equals exp(3j*pi/2) * y entrywise
        res = phase_distance([1, 1j], [1j, -1])
        assert res.distance == pytest.approx(0.0, abs=1e-12)
        assert res.aligning_phase == pytest.approx(1.5 * np.pi, abs=1e-12)
        y = np.array([1j, -1])
        assert np.allclose(np.exp(1j * res.aligning_phase) * y, [1, 1j])

    def test_identity(self):
        res = phase_distance([1, 2, 3], [1, 2, 3])
        assert res.distance == pytest.approx(0.0, abs=1e-12)
        assert res.aligning_phase == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal(self):
        res = phase_distance([1, 0], [0, 1])
        assert res.distance == pytest.approx(np.sqrt(2), abs=1e-12)
        assert res.aligning_phase == 0.0

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            phase_distance([1, 2], [1, 2, 3])

    def test_rotation_grid(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=10) + 1j * rng.normal(size=10)
        for theta in np.linspace(0, TWO_PI, 16, endpoint=False):
            res = phase_distance(x, np.exp(1j * theta) * x)
            assert res.distance <= 1e-12

    def test_symmetry(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            x = rng.normal(size=6) + 1j * rng.normal(size=6)
            y = rng.normal(size=6) + 1j * rng.normal(size=6)
            fwd = phase_distance(x, y)
            bwd = phase_distance(y, x)
            assert fwd.distance == pytest.approx(bwd.distance, rel=1e-12)
            wrap = (fwd.aligning_phase + bwd.aligning_phase) % TWO_PI
            assert min(wrap, TWO_PI - wrap) < 1e-9


_entries = st.one_of(
    st.just(0j),
    st.complex_numbers(min_magnitude=1e-6, max_magnitude=1e3,
                       allow_nan=False, allow_infinity=False),
)
_signals = hnp.arrays(np.complex128, st.integers(1, 24), elements=_entries)


@settings(deadline=None)
@given(_signals, st.floats(0.0, TWO_PI, allow_nan=False))
def test_rotation_has_zero_distance(x, theta):
    res = phase_distance(x, np.exp(1j * theta) * x)
    assert res.distance <= 1e-12 * max(1.0, float(np.linalg.norm(x)))


@settings(deadline=None)
@given(_signals, st.complex_numbers(min_magnitude=1e-3, max_magnitude=1e3,
                                    allow_nan=False, allow_infinity=False))
def test_support_scaling_invariance(x, c):
    assert support(c * x) == support(x)


def test_distance_dataclass_fields():
    res = phase_distance([1, 0], [1, 0])
    assert isinstance(res, GlobalPhaseDistance)
    assert 0.0 <= res.aligning_phase < TWO_PI
