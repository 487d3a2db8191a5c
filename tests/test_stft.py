import csv
import itertools
import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from stftpr import (
    MeasurementGrid,
    aggregate,
    corrupt,
    measure,
    read_grid_csv,
    stft,
    write_grid_csv,
)
from stftpr.errors import (
    ConfigurationError,
    DimensionMismatchError,
    InvalidWindowError,
)
from stftpr.generators import random_interval_window
from stftpr.oracle import measure_direct, stft_direct
from stftpr.stft import AggregateMeasurements
from stftpr.supportgraph import window_support

# frozen via the direct-sum oracle: x=(1,2,3,4), w=(1,1,0,0), n=4, hop=2
EXPECTED_STFT = np.array(
    [
        [1.25, 0.25 + 1.0j, -0.75, 0.25 - 1.0j],
        [1.25, -0.75 - 0.5j, 0.25, -0.75 + 0.5j],
    ]
)
EXPECTED_GRID = np.array(
    [[[1.5625, 1.0625, 0.5625, 1.0625], [1.5625, 0.8125, 0.0625, 0.8125]]]
)


class TestStft:
    def test_delta_signal_allones_window(self):
        x = np.zeros(4, complex)
        x[0] = 1.0
        coef = stft(x, np.ones(4), hop=4)
        assert coef.shape == (1, 4)
        assert np.allclose(coef, 0.25)

    def test_zero_signal(self):
        coef = stft(np.zeros(6), np.ones(6), hop=2)
        assert np.all(coef == 0)

    def test_derived_example(self):
        coef = stft([1, 2, 3, 4], [1, 1, 0, 0], hop=2)
        assert np.allclose(coef, EXPECTED_STFT, atol=1e-12)

    def test_hop_must_divide(self):
        with pytest.raises(ConfigurationError):
            stft(np.ones(6), np.ones(6), hop=4)

    def test_zero_window_rejected(self):
        with pytest.raises(InvalidWindowError):
            stft(np.ones(4), np.zeros(4), hop=1)

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            stft(np.ones(4), np.ones(6), hop=1)

    @pytest.mark.parametrize("n", [4, 8, 12, 16])
    def test_fft_matches_direct(self, n):
        rng = np.random.default_rng(n)
        for hop in (1, 2, n):
            if n % hop:
                continue
            x = rng.normal(size=n) + 1j * rng.normal(size=n)
            w = rng.normal(size=n) + 1j * rng.normal(size=n)
            fast = stft(x, w, hop)
            ref = stft_direct(x, w, hop)
            assert np.max(np.abs(fast - ref)) <= 1e-10 * np.max(np.abs(ref))

    def test_parseval_per_section(self):
        rng = np.random.default_rng(3)
        n, hop = 12, 3
        x = rng.normal(size=n) + 1j * rng.normal(size=n)
        w = rng.normal(size=n) + 1j * rng.normal(size=n)
        coef = stft(x, w, hop)
        flipped = np.roll(w[::-1], 1)
        for m in range(n // hop):
            section = x * np.roll(flipped, hop * m)
            assert np.sum(np.abs(coef[m]) ** 2) == pytest.approx(
                np.sum(np.abs(section) ** 2) / n, rel=1e-10
            )


class TestMeasure:
    def test_zero_signal(self):
        grid = measure(np.zeros(4), [np.ones(4)], hop=2)
        assert np.all(grid.values == 0)
        assert grid.noise_level == 0.0

    def test_global_phase_invariance(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=8) + 1j * rng.normal(size=8)
        fam = [rng.normal(size=8) + 1j * rng.normal(size=8) for _ in range(2)]
        base = measure(x, fam, hop=2).values
        for theta in np.linspace(0, 2 * np.pi, 16, endpoint=False):
            rotated = measure(np.exp(1j * theta) * x, fam, hop=2).values
            assert np.max(np.abs(rotated - base)) <= 1e-12 * max(1.0, base.max())

    def test_derived_grid(self):
        grid = measure([1, 2, 3, 4], [[1, 1, 0, 0]], hop=2)
        assert np.allclose(grid.values, EXPECTED_GRID, atol=1e-12)

    def test_time_shift_permutes_hops(self):
        rng = np.random.default_rng(9)
        n = 8
        x = rng.normal(size=n) + 1j * rng.normal(size=n)
        w = rng.normal(size=n) + 1j * rng.normal(size=n)
        base = measure(x, [w], hop=1).values
        for shift in (1, 3, 5):
            shifted = measure(np.roll(x, shift), [w], hop=1).values
            assert np.allclose(shifted[0], base[0][(np.arange(n) - shift) % n], atol=1e-12)


def _window(n, anchor, taps):
    w = np.zeros(n, complex)
    w[(anchor + np.arange(len(taps))) % n] = taps
    return w


def _sections(x, w, hop):
    """The (M, L) products of each section over the window's exact support."""
    n = len(x)
    ws = window_support(w, 0.0)
    i = np.arange(ws.length)
    t = (hop * np.arange(n // hop)[:, None] - ws.anchor - (ws.length - 1) + i) % n
    return x[t] * w[(ws.anchor + ws.length - 1 - i) % n]


@st.composite
def _measure_geometries(draw):
    n = draw(st.integers(1, 32))
    hop = draw(st.sampled_from([d for d in range(1, n + 1) if n % d == 0]))
    length = draw(st.integers(1, min(n, 6)))
    anchor = draw(st.integers(0, n - 1))
    taps = draw(hnp.arrays(complex, length, elements=st.complex_numbers(max_magnitude=2)))
    # nonzero end taps keep the supporting length L; interior taps may be zero
    taps[[0, -1]] = [draw(st.floats(0.5, 2)) * np.exp(1j * draw(st.floats(0, 7)))
                     for _ in range(2)]
    x = draw(hnp.arrays(complex, n, elements=st.complex_numbers(max_magnitude=4)))
    return hop, x, _window(n, anchor, taps)


class TestMeasureRoutes:
    @settings(max_examples=60, deadline=None)
    @given(_measure_geometries())
    def test_matches_oracle(self, geometry):
        hop, x, w = geometry
        assert np.allclose(
            measure_direct(x, [w], hop).values, measure(x, [w], hop).values, atol=1e-12
        )

    def test_fft_route_rows_are_unchanged(self):
        # windows past the 2L - 1 <= log2 n line keep the n-point FFT bit for bit
        rng = np.random.default_rng(21)
        for n, hop, length in ((64, 4, 4), (96, 4, 5), (1024, 8, 6), (1024, 8, 440)):
            x = rng.normal(size=n) + 1j * rng.normal(size=n)
            w = _window(n, int(rng.integers(n)), rng.normal(size=length) + 1j)
            s = _sections(x, w, hop)
            want = np.abs(np.fft.fft(s, n=n, axis=1) / n) ** 2
            assert np.array_equal(measure(x, [w], hop).values[0], want)

    def test_short_route_is_nonnegative_and_exact_on_zero_sections(self):
        rng = np.random.default_rng(22)
        n, hop = 1024, 8
        x = rng.normal(size=n) + 1j * rng.normal(size=n)
        x[: n // 2] = 0  # sections that fall wholly in here read exactly zero
        fam = [_window(n, int(rng.integers(n)), np.exp(2j * np.pi * rng.random(length)))
               for length in (1, 2, 3, 4, 5) for _ in range(4)]
        vals = measure(x, fam, hop).values
        assert (vals >= 0).all()
        for r, w in enumerate(fam):
            zero = ~_sections(x, w, hop).any(axis=1)
            assert zero.any() and (vals[r][zero] == 0).all()
            assert np.allclose(vals[r], np.abs(stft(x, w, hop)) ** 2, rtol=0, atol=1e-15)
        # on x = 1 the taps (-exp(2j pi k0 / n), 1) cancel exactly at k = k0, where
        # the rounded trig sum lands on either side of zero
        fam = [_window(n, 0, [-np.exp(2j * np.pi * k0 / n), 1]) for k0 in range(1, 40, 3)]
        vals = measure(np.ones(n), fam, hop).values
        assert (vals >= 0).all() and vals.max() > 1e-6


class TestCorrupt:
    def test_zero_noise(self):
        grid = measure([1, 2], [[1, 1]], hop=1)
        out = corrupt(grid, np.zeros_like(grid.values))
        assert np.array_equal(out.values, grid.values)
        assert out.noise_level == 0.0

    def test_constant_shift(self):
        grid = measure([1, 2], [[1, 1]], hop=1)
        out = corrupt(grid, np.full_like(grid.values, 0.01))
        assert np.allclose(out.values, grid.values + 0.01)
        assert out.noise_level == pytest.approx(0.01)

    def test_uniform_noise_level_bound(self):
        rng = np.random.default_rng(2)
        grid = measure(np.ones(6), [np.ones(6)], hop=2)
        eps = rng.uniform(-0.05, 0.05, grid.values.shape)
        assert corrupt(grid, eps).noise_level <= 0.05

    def test_shape_mismatch(self):
        grid = measure([1, 2], [[1, 1]], hop=1)
        with pytest.raises(DimensionMismatchError):
            corrupt(grid, np.zeros((1, 1, 3)))


class TestNonFinite:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_grid_rejects(self, bad):
        values = np.ones((1, 2, 4))
        values[0, 1, 2] = bad
        with pytest.raises(ConfigurationError):
            MeasurementGrid(values)

    def test_grid_rejects_non_finite_noise_level(self):
        with pytest.raises(ConfigurationError):
            MeasurementGrid(np.ones((1, 2, 4)), noise_level=np.nan)

    def test_aggregate_rejects(self):
        energy = np.ones((1, 2))
        with pytest.raises(ConfigurationError):
            AggregateMeasurements(energy, np.array([[1.0, complex(0, np.nan)]]))
        with pytest.raises(ConfigurationError):
            AggregateMeasurements(np.array([[1.0, np.inf]]), np.ones((1, 2)))


class TestAggregate:
    def test_zero_grid(self):
        grid = measure(np.zeros(4), [[1, 1, 0, 0]], hop=2)
        agg = aggregate(grid, [[1, 1, 0, 0]])
        assert np.all(agg.energy == 0) and np.all(agg.correlation == 0)

    def test_unit_length_window_collapses(self):
        # supporting length 1 makes the modulation trivial: correlation == energy
        rng = np.random.default_rng(4)
        x = rng.normal(size=6) + 1j * rng.normal(size=6)
        w = np.zeros(6, complex)
        w[2] = 1.5
        agg = aggregate(measure(x, [w], hop=2), [w])
        assert np.allclose(agg.correlation, agg.energy)

    def test_derived_values(self):
        w = [1, 1, 0, 0]
        agg = aggregate(measure([1, 2, 3, 4], [w], hop=2), [w])
        assert np.allclose(agg.energy, [[4.25, 3.25]], atol=1e-12)
        assert np.allclose(agg.correlation, [[1.0, 1.5]], atol=1e-12)

    def test_measurement_count(self):
        w = [1, 1, 0, 0]
        agg = aggregate(measure([1, 2, 3, 4], [w], hop=2), [w])
        assert agg.measurement_count == 4  # 2 * 1 window * 2 hops

    def test_matches_complex_modulation(self):
        # the definition: each grid block times the complex modulation vector
        rng = np.random.default_rng(5)
        n, hop = 64, 4
        x = rng.normal(size=n) + 1j * rng.normal(size=n)
        fam = np.stack([random_interval_window(n, length, rng) for length in (1, 5, 32)])
        grid = measure(x, fam, hop)
        agg = aggregate(grid, fam)
        k = np.arange(n)
        for r, length in enumerate((1, 5, 32)):
            want = grid.values[r] @ np.exp(2j * np.pi * k * (length - 1) / n)
            assert np.max(np.abs(agg.correlation[r] - want)) <= 1e-14 * np.max(np.abs(want))

    def test_no_complex_copy_of_the_grid(self):
        # two real mat-vecs: peak allocation stays well below one complex grid block
        rng = np.random.default_rng(6)
        n = 256
        fam = [random_interval_window(n, 9, rng)]
        grid = measure(rng.normal(size=n) + 0j, fam, 1)
        tracemalloc.start()
        try:
            aggregate(grid, fam)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < grid.values[0].nbytes  # a complex copy would be twice that


class TestGridCsv:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(6)
        x = rng.normal(size=8) + 1j * rng.normal(size=8)
        fam = [rng.normal(size=8) + 1j * rng.normal(size=8) for _ in range(2)]
        grid = corrupt(measure(x, fam, hop=2), rng.uniform(-1e-3, 1e-3, (2, 4, 8)))
        path = tmp_path / "grid.csv"
        write_grid_csv(grid, path)
        loaded = read_grid_csv(path)
        assert loaded.hop == 2
        assert np.array_equal(loaded.values, grid.values)
        assert loaded.noise_level == grid.noise_level

    @staticmethod
    def _reference_csv(grid, path):
        # the per-row csv.writer loop the grid format was first written with
        with path.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["r", "m", "k", "value"])
            for r in range(grid.num_windows):
                for m in range(grid.num_hops):
                    for k in range(grid.n):
                        writer.writerow([r, m, k, repr(float(grid.values[r, m, k]))])

    def test_rewrite_is_byte_identical(self, tmp_path):
        grid = measure([1, 2, 3, 4], [[1, 1, 0, 0]], hop=2)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_grid_csv(grid, a)
        write_grid_csv(grid, b)
        assert a.read_bytes() == b.read_bytes()
        ref = tmp_path / "ref.csv"
        self._reference_csv(grid, ref)
        assert a.read_bytes() == ref.read_bytes()

    def test_matches_reference_csv_writer(self, tmp_path):
        # noisy grid with negative entries and extreme finite values
        rng = np.random.default_rng(9)
        x = rng.normal(size=12) + 1j * rng.normal(size=12)
        fam = [rng.normal(size=12) + 1j * rng.normal(size=12) for _ in range(3)]
        noisy = corrupt(measure(x, fam, hop=3), rng.uniform(-0.5, 0.5, (3, 4, 12)))
        values = noisy.values.copy()
        values[0, 0, :4] = [-0.0, 5e-324, 1e300, -0.25]
        grid = MeasurementGrid(values=values, noise_level=noisy.noise_level)
        assert (grid.values < 0).sum() > 1
        path, ref = tmp_path / "grid.csv", tmp_path / "ref.csv"
        write_grid_csv(grid, path)
        self._reference_csv(grid, ref)
        assert path.read_bytes() == ref.read_bytes()
        assert path.read_bytes().count(b"\r\n") == 1 + grid.values.size
        assert np.array_equal(read_grid_csv(path).values, grid.values)

    @staticmethod
    def _written_grid(tmp_path):
        # n=32, one window, hop 1: 32 * 32 rows, more than one parse chunk
        rng = np.random.default_rng(8)
        x = rng.normal(size=32) + 1j * rng.normal(size=32)
        grid = measure(x, [np.ones(32)], hop=1)
        path = tmp_path / "grid.csv"
        write_grid_csv(grid, path)
        return path, path.read_text().splitlines()

    @pytest.mark.parametrize(
        "row, match",
        [("0,31,99,1.0", "outside shape"), ("0,31,-1,1.0", "outside shape"),
         ("0,0,0,1.0", "repeats cell"), ("0,31,30,1.0", "repeats cell"),
         ("0,31,31", "malformed"), ("0,31,31,nan", "NaN")],
        ids=["out-of-range", "negative", "duplicate-across-chunks",
             "duplicate-in-chunk", "short-row", "nan"],
    )
    def test_bad_rows_rejected(self, tmp_path, row, match):
        path, lines = self._written_grid(tmp_path)
        lines[-1] = row  # replaces the row for cell (0, 31, 31)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ConfigurationError, match=match):
            read_grid_csv(path)

    def test_bad_meta_rejected(self, tmp_path):
        path, _ = self._written_grid(tmp_path)
        path.with_suffix(".meta.json").write_text('{"n": 32, "num_hops": 32}')
        with pytest.raises(ConfigurationError, match="metadata"):
            read_grid_csv(path)

    @pytest.mark.parametrize(
        "key, value",
        [("n", 16.7), ("n", "32"), ("num_hops", 0), ("num_windows", -1),
         ("hop", True), ("hop", 1.0)],
        ids=["fractional", "string", "zero", "negative", "bool", "float"],
    )
    def test_non_integral_meta_rejected(self, tmp_path, key, value):
        path, _ = self._written_grid(tmp_path)
        meta_file = path.with_suffix(".meta.json")
        meta = json.loads(meta_file.read_text())
        meta[key] = value
        meta_file.write_text(json.dumps(meta))
        with pytest.raises(ConfigurationError, match="positive integer"):
            read_grid_csv(path)

    @pytest.mark.parametrize("hop", [2, 16, 64])
    def test_inconsistent_hop_rejected(self, tmp_path, hop):
        # the grid has n = 32 and 32 hops, so the metadata hop must be 1
        path, _ = self._written_grid(tmp_path)
        meta_file = path.with_suffix(".meta.json")
        meta = json.loads(meta_file.read_text())
        assert meta["hop"] == 1
        meta["hop"] = hop
        meta_file.write_text(json.dumps(meta))
        with pytest.raises(ConfigurationError, match=re.escape(str(meta_file)) + f".* hop {hop}"):
            read_grid_csv(path)

    def test_oversized_meta_rejected_before_allocating(self, tmp_path):
        path, _ = self._written_grid(tmp_path)
        meta_file = path.with_suffix(".meta.json")
        meta = json.loads(meta_file.read_text())
        meta["num_windows"] = 1000  # 8 MB of cells declared, a 29 kB file
        meta_file.write_text(json.dumps(meta))
        tracemalloc.start()
        with pytest.raises(ConfigurationError, match="more than"):
            read_grid_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak < 1 << 20

    def test_smallest_rows_fit_the_size_bound(self, tmp_path):
        # 1000 cells of single-digit indices and value 0, LF line ends: the
        # smallest file a valid grid can be still passes the size check
        path = tmp_path / "tiny.csv"
        cells = itertools.product(range(10), repeat=3)
        path.write_text("r,m,k,value\n" + "".join(f"{r},{m},{k},0\n" for r, m, k in cells))
        path.with_suffix(".meta.json").write_text(json.dumps(
            {"n": 10, "hop": 1, "num_windows": 10, "num_hops": 10, "noise_level": 0.0}
        ))
        grid = read_grid_csv(path)
        assert grid.values.shape == (10, 10, 10) and not grid.values.any() and grid.hop == 1

    def test_missing_meta(self, tmp_path):
        path = tmp_path / "orphan.csv"
        path.write_text("r,m,k,value\n")
        with pytest.raises(ConfigurationError):
            read_grid_csv(path)
