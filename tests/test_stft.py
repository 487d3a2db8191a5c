import csv
import importlib
import itertools
import json
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path

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
from stftpr.generators import certified_instance, random_interval_window, rectangular_window
from stftpr.oracle import measure_direct, stft_direct
from stftpr.stft import AggregateMeasurements, _autocorrelation_coefficients, _trig_table
from stftpr.supportgraph import window_support

from conftest import geom_at

stft_module = importlib.import_module("stftpr.stft")  # ``stftpr.stft`` is also a function

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


def _on_blas_threads(script):
    """Standard output of ``script``, run in a fresh process on 1, 2 and 3 BLAS threads."""
    src = str(Path(stft_module.__file__).parents[1])
    return [
        subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads},
        ).stdout
        for threads in ("1", "2", "3")
    ]


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

    @pytest.mark.parametrize("block_rows", [1, 5, 24])  # one-row, ragged tail, one block
    def test_fft_route_row_blocks_are_unchanged(self, monkeypatch, block_rows):
        # the route transforms its sections in row blocks; no block size moves a byte
        n, hop = 96, 4  # 24 sections
        monkeypatch.setattr(stft_module, "_ROW_BLOCK_BYTES", block_rows * 8 * n)
        rng = np.random.default_rng(block_rows)
        for length in (7, 40, 96):
            x = rng.normal(size=n) + 1j * rng.normal(size=n)
            w = _window(n, int(rng.integers(n)), rng.normal(size=length) + 1j)
            want = np.abs(np.fft.fft(_sections(x, w, hop), n=n, axis=1) / n) ** 2
            assert np.array_equal(measure(x, [w], hop).values[0], want)

    def test_peak_is_the_grid(self):
        # one row block of spectra at a time: nothing grid-sized beside the grid,
        # with both routes, and with ten windows of one long length sharing gathers
        rng = np.random.default_rng(8)
        n, hop = 1024, 4
        x = rng.normal(size=n) + 1j * rng.normal(size=n)
        for lengths in ((2, 500), (400,) * 10):
            fam = [_window(n, 3, rng.normal(size=length) + 1j) for length in lengths]
            tracemalloc.start()
            try:
                grid = measure(x, fam, hop)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < grid.values.nbytes + (1 << 20), lengths

    @pytest.mark.parametrize("n", [40, 96, 1000, 1024])
    def test_fft_route_scaling_matches_complex_division(self, n):
        # the route scales the spectrum with norm="forward"; that must round as
        # the complex f /= n it replaced, at powers of two and at other n alike
        rng = np.random.default_rng(n)
        for length in (7, n // 3):
            x = rng.normal(size=n) + 1j * rng.normal(size=n)
            w = _window(n, int(rng.integers(n)), rng.normal(size=length) + 1j)
            f = np.fft.fft(_sections(x, w, 4), n=n, axis=1)
            f /= n
            assert np.array_equal(measure(x, [w], 4).values[0], np.abs(f) ** 2)

    @pytest.mark.parametrize("n, hop, lengths, anchor", [
        (64, 1, (3, 9), 62),  # hop 1, supports wrapping past n - 1
        (64, 64, (2, 20), 63),  # hop n: one section
        (64, 4, (1,), 17),
        (64, 4, (64,), 0),  # L = n: no zero entry, so anchor 0
        (96, 4, (2, 5, 40), 93),
        (1024, 8, (2, 300), 900),
        # L <= hop: sections that do not overlap; consecutive anchors start
        # the first section at every offset within a hop, and every start
        # but 0 wraps the last sections past n - 1
        (32, 4, (2, 2, 2, 2, 3, 3, 3, 3), 29),
    ])
    def test_strided_gather_matches_fancy_index_gather(self, n, hop, lengths, anchor):
        # sections are strided slices of a cyclic extension of x; they must
        # equal the (M, L) fancy-index gather bit for bit on both routes
        rng = np.random.default_rng(23)
        x = rng.normal(size=n) + 1j * rng.normal(size=n)
        fam = [_window(n, anchor + r, rng.normal(size=length) + 1j)
               for r, length in enumerate(lengths)]
        vals = measure(x, fam, hop).values
        for r, w in enumerate(fam):
            sections = _sections(x, w, hop)
            length = sections.shape[1]
            if 2 * length - 1 <= n.bit_length() - 1:
                want = np.maximum(
                    _autocorrelation_coefficients(sections) @ _trig_table(length, n), 0.0)
            else:
                want = np.abs(np.fft.fft(sections, n=n, axis=1) / n) ** 2
            assert np.array_equal(vals[r], want)

    @pytest.mark.parametrize("n, hop, block_rows", [
        (96, 4, 1),  # one-row blocks; length-3 gathers of 16 rows, then 8
        (96, 4, 5),  # ragged tail: 4 blocks of 5 rows and one of 4 per window
        (96, 4, 24),  # one block per window
        (96, 4, 72),  # three windows per block of spectra
        (100, 2, 2),  # short gathers of 16 whole blocks, where 33 rows would fit
        (1024, 8, None),  # the module's own block size
    ])
    def test_lengths_share_a_pass_bit_for_bit(self, monkeypatch, n, hop, block_rows):
        # windows of one length share gathers, and equal lengths sit in rows
        # that are not adjacent; each window's rows must equal, bit for bit,
        # the per-window formula measure had before, taken in the same row blocks
        if block_rows is not None:
            monkeypatch.setattr(stft_module, "_ROW_BLOCK_BYTES", block_rows * 8 * n)
        step = max(1, stft_module._ROW_BLOCK_BYTES // (8 * n))
        rng = np.random.default_rng(n + hop)
        x = rng.normal(size=n) + 1j * rng.normal(size=n)
        short = n.bit_length() // 2  # the longest L with 2L - 1 <= log2 n
        lengths = (2, 40, short, 2, 7, 40, short, 2, n)
        fam = [_window(n, int(rng.integers(n)), rng.normal(size=length) + 1j)
               for length in lengths]
        vals = measure(x, fam, hop).values
        for r, w in enumerate(fam):
            sections = _sections(x, w, hop)
            length = sections.shape[1]
            if 2 * length - 1 <= n.bit_length() - 1:
                coefficients = _autocorrelation_coefficients(sections)
                table = _trig_table(length, n)
                want = np.maximum(np.concatenate(
                    [coefficients[lo:lo + step] @ table
                     for lo in range(0, len(coefficients), step)]), 0.0)
            else:
                want = np.abs(np.fft.fft(sections, n=n, axis=1) / n) ** 2
            assert np.array_equal(vals[r], want), (r, length)

    def test_bytes_do_not_depend_on_blas_threads(self):
        # one product per window, without the row blocks, gives different bytes
        # on one and on two BLAS threads at the two chain geometries and at
        # (1542, 2) with windows of length 5
        script = """
import hashlib
import numpy as np
from stftpr import measure
from stftpr.generators import certified_instance, random_interval_window
digest = hashlib.sha256()
for n, hop, num_windows in ((1542, 2, 2), (1030, 2, 2)):
    x, fam = certified_instance(n, hop, num_windows, np.random.default_rng(7))
    digest.update(measure(x, fam, hop).values.tobytes())
for n, hop in ((2048, 2), (1542, 2), (4096, 4), (3000, 3)):
    rng = np.random.default_rng(7)
    x = rng.normal(size=n) + 1j * rng.normal(size=n)
    fam = np.stack([random_interval_window(n, 5, rng) for _ in range(3)])
    digest.update(measure(x, fam, hop).values.tobytes())
print(digest.hexdigest())
"""
        digests = _on_blas_threads(script)
        assert len(digests[0]) == 65 and digests[0] == digests[1] == digests[2]

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

    @pytest.mark.parametrize("signal", ["ones", "delta"])
    @pytest.mark.parametrize("n, hop", [(96, 4), (64, 2)])
    def test_spectra_reaching_zero_stay_clamped(self, signal, n, hop):
        # a block is clamped unless its smallest value is positive: ones under
        # rectangular windows has spectral zeros, delta has all-zero sections,
        # and length-1 windows have one tap; short and FFT routes alike
        x = np.ones(n, complex) if signal == "ones" else _window(n, 0, [1.0])
        fam = [rectangular_window(n, length) for length in (1, 2, 3, 4, 5, 8, 40)]
        fam += [_window(n, 7, [2j]), _window(n, n - 1, [-1.0])]
        vals = measure(x, fam, hop).values
        assert (vals >= 0).all() and (vals == 0).any()
        assert np.allclose(measure_direct(x, fam, hop).values, vals, atol=1e-12)


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

    @pytest.mark.parametrize("shift", [0.0, -3.0, 3.0])  # -3: the largest magnitude is negative
    def test_level_is_max_abs_bit_for_bit(self, shift):
        rng = np.random.default_rng([9, int(shift) + 3])
        grid = measure(rng.normal(size=12) + 0j, [np.ones(12)], hop=3)
        for _ in range(5):
            eps = rng.normal(size=grid.values.shape) + shift
            assert corrupt(grid, eps).noise_level == float(np.max(np.abs(eps)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_noise_rejected(self, bad):
        grid = measure(np.ones(6), [np.ones(6)], hop=2)
        eps = np.zeros_like(grid.values)
        eps[0, 1, 2] = bad
        with pytest.raises(ConfigurationError):
            corrupt(grid, eps)


class TestShapes:
    def test_grid_must_be_three_dimensional(self):
        with pytest.raises(DimensionMismatchError, match=r"grid, got shape \(2, 4\)$"):
            MeasurementGrid(np.ones((2, 4)))

    def test_aggregate_shapes_must_agree(self):
        match = r"^aggregate shapes disagree: \(1, 2\) vs \(1, 3\)$"
        with pytest.raises(DimensionMismatchError, match=match):
            AggregateMeasurements(np.ones((1, 2)), np.ones((1, 3)))


class TestNonFinite:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_grid_rejects(self, bad):
        values = np.ones((1, 2, 4))
        values[0, 1, 2] = bad
        with pytest.raises(ConfigurationError):
            MeasurementGrid(values)

    @pytest.mark.parametrize("cell", [(0, 0, 0), (0, 6, 3), (2, 0, 4), (2, 6, 4)])
    def test_grid_rejects_in_every_row_block(self, monkeypatch, cell):
        # checked three rows at a time: a NaN in a later block or window still shows
        monkeypatch.setattr(stft_module, "_ROW_BLOCK_BYTES", 3 * 8 * 5)
        values = np.ones((3, 7, 5))
        MeasurementGrid(values)
        values[cell] = np.nan
        with pytest.raises(ConfigurationError):
            MeasurementGrid(values)

    @pytest.mark.parametrize("length", [3, 40])  # the short and the FFT route at n = 96
    @pytest.mark.parametrize("edit", ["nan", "inf", "signal 1e160", "window 1e160"])
    def test_measure_rejects_without_a_warning(self, length, edit):
        # past the bound on the inputs, the grid check names what went wrong;
        # the overflow on the way must not warn first
        rng = np.random.default_rng(9)
        n = 96
        x = rng.normal(size=n) + 1j * rng.normal(size=n)
        w = _window(n, 5, rng.normal(size=length) + 1j)
        if edit == "signal 1e160":
            x *= 1e160
        elif edit == "window 1e160":
            w *= 1e160
        else:
            x[11] = float(edit)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigurationError,
                               match=r"^measurement grid contains NaN or infinite values$"):
                measure(x, [w], 4)

    def test_measure_skips_the_check_under_the_bound(self, monkeypatch):
        # inputs whose bound 4 (n max|x| max|w|)**2 is in range give a finite
        # grid, so measure does not read it again; the constructor still checks
        calls = []
        check = stft_module._check_finite
        monkeypatch.setattr(stft_module, "_check_finite",
                            lambda *args: calls.append(args) or check(*args))
        x, fam = certified_instance(1024, 8, 10, np.random.default_rng(3))
        grid = measure(x, fam, 8)
        assert calls == []
        assert np.isfinite(grid.values).all() and grid.noise_level == 0.0
        MeasurementGrid(grid.values)
        assert len(calls) == 1

    def test_grid_check_forms_no_grid_sized_mask(self):
        values = np.ones((2, 512, 1024))  # 8 MB
        tracemalloc.start()
        try:
            MeasurementGrid(values)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 256 * 1024  # a whole-grid isfinite mask is 1 MB

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
        agg = aggregate(grid, geom_at([[1, 1, 0, 0]], 2))
        assert np.all(agg.energy == 0) and np.all(agg.correlation == 0)

    def test_unit_length_window_collapses(self):
        # supporting length 1 makes the modulation trivial: correlation == energy
        rng = np.random.default_rng(4)
        x = rng.normal(size=6) + 1j * rng.normal(size=6)
        w = np.zeros(6, complex)
        w[2] = 1.5
        agg = aggregate(measure(x, [w], hop=2), geom_at([w], 2))
        assert np.allclose(agg.correlation, agg.energy)

    def test_derived_values(self):
        w = [1, 1, 0, 0]
        agg = aggregate(measure([1, 2, 3, 4], [w], hop=2), geom_at([w], 2))
        assert np.allclose(agg.energy, [[4.25, 3.25]], atol=1e-12)
        assert np.allclose(agg.correlation, [[1.0, 1.5]], atol=1e-12)

    def test_measurement_count(self):
        w = [1, 1, 0, 0]
        agg = aggregate(measure([1, 2, 3, 4], [w], hop=2), geom_at([w], 2))
        assert agg.measurement_count == 4  # 2 * 1 window * 2 hops

    def test_matches_complex_modulation(self):
        # the definition: each grid block times the complex modulation vector
        rng = np.random.default_rng(5)
        n, hop = 64, 4
        x = rng.normal(size=n) + 1j * rng.normal(size=n)
        fam = np.stack([random_interval_window(n, length, rng) for length in (1, 5, 32)])
        grid = measure(x, fam, hop)
        agg = aggregate(grid, geom_at(fam, grid.hop))
        k = np.arange(n)
        for r, length in enumerate((1, 5, 32)):
            want = grid.values[r] @ np.exp(2j * np.pi * k * (length - 1) / n)
            assert np.max(np.abs(agg.correlation[r] - want)) <= 1e-14 * np.max(np.abs(want))

    def test_no_complex_copy_of_the_grid(self):
        # real products only: peak allocation stays well below one complex grid block
        rng = np.random.default_rng(6)
        n = 256
        fam = [random_interval_window(n, 9, rng)]
        grid = measure(rng.normal(size=n) + 0j, fam, 1)
        geom = geom_at(fam, 1)
        tracemalloc.start()
        try:
            aggregate(grid, geom)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < grid.values[0].nbytes  # a complex copy would be twice that

    @pytest.mark.parametrize("n, hop, block_rows, blocks", [
        (96, 8, 16, [(0, 12)]),  # below one block
        (128, 8, 16, [(0, 16)]),  # exactly one block
        (120, 1, 16, [*((lo, lo + 16) for lo in range(0, 112, 16)), (112, 120)]),  # 8-row tail
        (100, 4, 16, [(0, 16), (16, 25)]),  # a 9-row tail
        (136, 8, 16, [(0, 17)]),  # the one-row tail joins the block before it
        (64, 64, None, [(0, 1)]),  # one hop: a single row, which BLAS takes as a mat-vec
        (1024, 8, None, [(0, 64), (64, 128)]),  # wide-exact's geometry at the module's size
        (1024, 1, None, [(lo, lo + 64) for lo in range(0, 1024, 64)]),  # deep-noisy's
    ], ids=["96-8-16", "128-8-16", "120-1-16", "100-4-16", "136-8-16", "64-64-None",
            "1024-8-None", "1024-1-None"])
    def test_row_blocks_are_one_product_each(self, monkeypatch, n, hop, block_rows, blocks):
        # each row block is one product of the (3, n) table [1; cos; sin] with
        # the block, so energy and correlation are bit for bit those products;
        # a product's bits depend on its row count, so the blocks are pinned too
        if block_rows is not None:
            monkeypatch.setattr(stft_module, "_AGGREGATE_BLOCK_BYTES", block_rows * 8 * n)
        rng = np.random.default_rng([n, hop])
        # windows 1 and 3 share a supporting length, and so a table
        fam = np.stack([random_interval_window(n, length, rng) for length in (1, 5, n // 3, 5)])
        grid = measure(rng.normal(size=n) + 1j * rng.normal(size=n), fam, hop)
        grid = corrupt(grid, rng.uniform(-1e-9, 1e-9, grid.values.shape))
        agg = aggregate(grid, geom_at(fam, grid.hop))
        k = np.arange(n)
        for r, length in enumerate(window_support(fam).length.tolist()):
            angle = 2 * np.pi * k * (length - 1) / n
            table = np.stack((np.ones(n), np.cos(angle), np.sin(angle)))
            want = np.concatenate([table @ grid.values[r, lo:hi].T for lo, hi in blocks], axis=1)
            assert np.array_equal(agg.energy[r], want[0])
            assert np.array_equal(agg.correlation[r].real, want[1])
            assert np.array_equal(agg.correlation[r].imag, want[2])

    def test_window_count_must_match_grid(self):
        w = [1, 1, 0, 0]
        grid = measure([1, 2, 3, 4], [w, w], hop=2)
        with pytest.raises(DimensionMismatchError, match="grid has 2 windows, family has 1"):
            aggregate(grid, geom_at([w], grid.hop))

    def test_bytes_do_not_depend_on_blas_threads(self):
        # a whole-block mat-vec per window, without the row blocks, gives
        # different bytes on one and on two BLAS threads at the chain
        # geometries; at the last two a row block is only 8 rows of long rows
        script = """
import hashlib
import numpy as np
from stftpr import Geometry, MeasurementGrid, ProblemConfig, aggregate
from stftpr.generators import chain_family, random_interval_window
digest = hashlib.sha256()
for n, hop, num_windows in ((1542, 2, 2), (1155, 1, 1), (1030, 2, 2)):
    rng = np.random.default_rng(7)
    fam = chain_family(n, hop, num_windows, rng)
    grid = MeasurementGrid(rng.uniform(0, 1, (num_windows, n // hop, n)))
    agg = aggregate(grid, Geometry(ProblemConfig(n, hop, num_windows), fam))
    digest.update(agg.energy.tobytes() + agg.correlation.tobytes())
for n, hop in ((16384, 1024), (65536, 4096)):
    rng = np.random.default_rng(7)
    fam = np.stack([random_interval_window(n, length, rng) for length in (5, n // 3)])
    agg = aggregate(MeasurementGrid(rng.uniform(0, 1, (2, n // hop, n))),
                    Geometry(ProblemConfig(n, hop, 2), fam))
    digest.update(agg.energy.tobytes() + agg.correlation.tobytes())
print(digest.hexdigest())
"""
        digests = _on_blas_threads(script)
        assert len(digests[0]) == 65 and digests[0] == digests[1] == digests[2]


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

    # values whose shortest repr takes each of its forms: signed zero, a
    # subnormal, exponent notation at both ends, and plain decimals
    _EDGE_VALUES = [-0.0, 0.0, 5e-324, -5e-324, 1e16, 1e-5, 1e300, -1e300, 0.1, 2.0, -0.25]

    @settings(max_examples=60, deadline=None)
    @given(
        shape=st.tuples(st.integers(1, 3), st.integers(1, 4), st.integers(1, 4)),
        data=st.data(),
    )
    def test_writer_matches_reference_over_shapes(self, shape, data):
        num_windows, num_hops, hop = shape
        values = data.draw(hnp.arrays(
            float, (num_windows, num_hops, num_hops * hop),
            elements=st.sampled_from(self._EDGE_VALUES)
            | st.floats(allow_nan=False, allow_infinity=False),
        ))
        grid = MeasurementGrid(values=values)
        with tempfile.TemporaryDirectory() as tmp:
            path, ref = Path(tmp) / "grid.csv", Path(tmp) / "ref.csv"
            write_grid_csv(grid, path)
            self._reference_csv(grid, ref)
            assert path.read_bytes() == ref.read_bytes()
            loaded = read_grid_csv(path)
        assert np.array_equal(loaded.values, values)
        # array_equal takes -0.0 for 0.0; the sign must survive too
        assert np.array_equal(np.signbit(loaded.values), np.signbit(values))

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
        [("0,31,99,1.0", r"data row 1024 has cell \(0, 31, 99\) out of place"),
         ("0,31,-1,1.0", r"data row 1024 has cell \(0, 31, -1\) out of place"),
         ("0,0,0,1.0", r"data row 1024 has cell \(0, 0, 0\) out of place"),
         ("0,31,30,1.0", r"data row 1024 has cell \(0, 31, 30\) out of place"),
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

    # the reader takes the one form the writer writes: data row i holds cell i
    # in (r, m, k) order, and any other row is named
    @pytest.mark.parametrize(
        "edit, message",
        [
            # two rows of a complete grid swapped, in the second parse chunk
            (lambda lines: lines[:600] + [lines[601], lines[600]] + lines[602:],
             r"data row 600 has cell \(0, 18, 24\) out of place"),
            # a valid-looking row after the last cell
            (lambda lines: lines + ["0,31,31,1.0"],
             r"data row 1025 has cell \(0, 31, 31\) out of place"),
            # r = 2**54 wraps (r*32 + 31)*32 + 31 to the row's own position
            (lambda lines: lines[:-1] + [f"{2**54},31,31,1.0"],
             rf"data row 1024 has cell \({2**54}, 31, 31\) out of place"),
        ],
        ids=["swapped", "past-the-end", "wrapping-index"],
    )
    def test_row_out_of_place_is_named(self, tmp_path, edit, message):
        path, lines = self._written_grid(tmp_path)
        path.write_text("\n".join(edit(lines)) + "\n")
        with pytest.raises(ConfigurationError, match=message):
            read_grid_csv(path)

    # line forms the reader takes beside the writer's own, each without a
    # warning; a line of only spaces is not one (test_malformed_line_is_named)
    @pytest.mark.parametrize(
        "rewrite",
        [
            lambda lines: "\n".join(lines) + "\n",
            lambda lines: "\r".join(lines) + "\r",
            lambda lines: "\r\n".join(lines) + "\r\n",
            lambda lines: "\n".join(lines),
            # 600 blank lines fill a whole parse chunk with no data row
            lambda lines: "\n".join(lines[:300] + [""] * 600 + lines[300:]) + "\n",
            lambda lines: "\n".join(lines) + "\n" * 5,
            lambda lines: "\n".join(lines[:1] + [line + "  " for line in lines[1:]]) + "\n",
            lambda lines: "\n".join(
                lines[:1] + ["0" + line.replace(",", ",00", 2) for line in lines[1:]]
            ) + "\n",
        ],
        ids=["lf", "lone-cr", "crlf", "no-final-newline", "blank-chunk", "blank-at-end",
             "trailing-spaces", "leading-zeros"],
    )
    def test_accepted_forms_read_back(self, tmp_path, rewrite):
        path, lines = self._written_grid(tmp_path)
        expected = read_grid_csv(path).values
        path.write_bytes(rewrite(lines).encode())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.array_equal(read_grid_csv(path).values, expected)

    # the header is line 1, so data row i is line i + 1 when no blank line
    # comes first; each parse chunk holds 512 lines; the cause is loadtxt's
    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda lines: lines[:11] + ["   "] + lines[12:],
             "line 12: .*4 columns but 1 were found$"),
            (lambda lines: lines[:599] + ["0,18,x,1.0"] + lines[600:],
             "line 600: .*'x'"),
            # 700 blank lines span a chunk, and the bad line is counted past them
            (lambda lines: lines[:6] + [""] * 700 + lines[6:20] + ["0,0,19,1.0,2"] + lines[21:],
             "line 721: .*4 columns but 5 were found$"),
        ],
        ids=["first-chunk", "later-chunk", "after-blank-lines"],
    )
    def test_malformed_line_is_named(self, tmp_path, edit, message):
        path, lines = self._written_grid(tmp_path)
        path.write_text("\n".join(edit(lines)) + "\n")
        with pytest.raises(ConfigurationError, match=f"malformed grid CSV .* {message}"):
            read_grid_csv(path)

    @pytest.mark.parametrize(
        "value, match",
        [("1e-3", "noise_level must be a number"), (True, "noise_level must be a number"),
         (10**400, "too large to convert to float")],
        ids=["string", "bool", "huge-int"],
    )
    def test_non_numeric_noise_level_rejected(self, tmp_path, value, match):
        # the string used to be read as 0.001, and true as 1.0
        path, _ = self._written_grid(tmp_path)
        meta_file = path.with_suffix(".meta.json")
        meta = json.loads(meta_file.read_text())
        meta["noise_level"] = value
        meta_file.write_text(json.dumps(meta))
        with pytest.raises(ConfigurationError, match="bad grid metadata.*" + match):
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
