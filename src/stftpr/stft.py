"""Forward measurement synthesis: hop-sampled windowed DFTs and their magnitudes.

The canonical measurement object is the *squared* magnitude grid indexed by
(window, hop, frequency).  Squares, not magnitudes, are what every downstream
formula consumes, and storing them avoids a lossy sqrt/square round trip when
noise is added.  Noise tensors are always caller-supplied; the library draws
no randomness of its own.

:func:`measure` never forms the complex transform.  A section of L nonzero
samples has a squared spectrum that is a trigonometric polynomial of degree
L - 1 whose coefficients are the section's autocorrelations (lag 0 is its
energy, lag L - 1 the endpoint correlation that :func:`aggregate` extracts).
Windows with ``2L - 1 <= log2 n`` are evaluated from those coefficients with
one real matmul; longer ones take a zero-padded n-point FFT.  :func:`stft` and
:func:`stftpr.oracle.measure_direct` stay the references for both routes.
"""

from __future__ import annotations

import csv
import itertools
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, DimensionMismatchError, InvalidWindowError
from .model import DEFAULT_ZERO_TOL, as_signal, as_window_family, check_tolerance
from .supportgraph import window_support


def stft(x, w, hop: int) -> np.ndarray:
    """Hop-sampled windowed DFT of ``x`` against the cyclically shifted window.

    Returns a ``(n // hop, n)`` complex array whose ``[m, k]`` entry is
    ``(1/n) * sum_t x(t) w(hop*m - t) exp(-2j*pi*k*t/n)``, with the window
    argument reduced mod ``n``.  The ``1/n`` factor sits on this forward
    transform; there is no zero padding.
    """
    xa = as_signal(x)
    n = xa.shape[0]
    wa = as_signal(w, n)
    if hop <= 0 or n % hop != 0:
        raise ConfigurationError(f"hop {hop} does not divide signal length {n}")
    if not np.any(wa):
        raise InvalidWindowError("window is identically zero")
    num_hops = n // hop
    flipped = np.roll(wa[::-1], 1)  # flipped[t] = w(-t mod n)
    shifts = (np.arange(n)[None, :] - hop * np.arange(num_hops)[:, None]) % n
    sections = xa[None, :] * flipped[shifts]  # sections[m, t] = x(t) w(hop*m - t)
    return np.fft.fft(sections, axis=1) / n


def _check_finite(what: str, noise_level: float, *arrays: np.ndarray) -> None:
    # one NaN would otherwise flow through the pipeline into a silent all-zero estimate
    if not all(np.isfinite(a).all() for a in arrays):
        raise ConfigurationError(f"{what} contains NaN or infinite values")
    check_tolerance("noise_level", noise_level)


@dataclass(frozen=True)
class MeasurementGrid:
    """Squared STFT magnitudes indexed by (window, hop, frequency).

    ``noise_level`` is the worst-case entrywise perturbation bound: 0 for
    exact data.  Noisy grids may contain small negative entries, bounded
    below by ``-noise_level``.  NaN or infinite values, and a negative or
    non-finite ``noise_level``, raise ``ConfigurationError``.
    """

    values: np.ndarray
    noise_level: float = 0.0

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 3:
            raise DimensionMismatchError(
                f"expected (windows, hops, frequencies) grid, got shape {vals.shape}"
            )
        _check_finite("measurement grid", self.noise_level, vals)
        object.__setattr__(self, "values", vals)

    @property
    def num_windows(self) -> int:
        return self.values.shape[0]

    @property
    def num_hops(self) -> int:
        return self.values.shape[1]

    @property
    def n(self) -> int:
        return self.values.shape[2]

    @property
    def hop(self) -> int:
        return self.n // self.num_hops


def _trig_table(length: int, n: int) -> np.ndarray:
    """The ``(2L - 1, n)`` table mapping section autocorrelations to ``|X_k|**2``.

    Row 0 is ``1``, row ``d`` is ``2 cos(2 pi k d / n)`` and row ``L - 1 + d``
    is ``2 sin(2 pi k d / n)`` for lags ``d = 1 .. L - 1``, all over ``n**2``.
    """
    lags = np.arange(1, length)
    # reduce k*d mod n in integers so the angle stays in [0, 2 pi)
    angle = (2 * np.pi / n) * ((lags[:, None] * np.arange(n)[None, :]) % n)
    return np.concatenate((np.ones((1, n)), 2 * np.cos(angle), 2 * np.sin(angle))) / n**2


def _autocorrelation_coefficients(sections: np.ndarray) -> np.ndarray:
    """Per-section ``[c_0, Re c_1 .. Re c_{L-1}, Im c_1 .. Im c_{L-1}]``, shape (M, 2L - 1).

    ``c_d = sum_i s[i + d] * conj(s[i])`` is the lag-d autocorrelation of a
    section ``s`` of L samples; ``c_0`` is its energy, and its imaginary part
    (exactly zero) is dropped.
    """
    length = sections.shape[1]
    c = np.stack([np.einsum("mi,mi->m", sections[:, d:], sections[:, : length - d].conj())
                  for d in range(length)], axis=1)
    return np.concatenate((c.real, c.imag[:, 1:]), axis=1)


def _window_power(xa, w, starts, tables: dict, out: np.ndarray) -> None:
    """One window's ``(M, n)`` block of squared magnitudes, written into ``out``.

    Sections, spectra and coefficients are locals, so none outlives the call.
    """
    n = xa.shape[0]
    ws = window_support(w, 0.0)
    offsets = np.arange(ws.length)
    taps = w[(ws.anchor + ws.length - 1 - offsets) % n]
    t = (starts[:, None] - ws.anchor - (ws.length - 1) + offsets[None, :]) % n
    sections = xa[t] * taps
    # 2L - 1 <= log2 n: the table has 2L - 1 rows, an n-point FFT costs O(log n)
    # per output.  Well on the cheap side of the crossover: at n = 1024, M = 128
    # the routes break even between L = 32 and 64, and this stops at L = 5.
    if 2 * ws.length - 1 <= n.bit_length() - 1:
        if ws.length not in tables:
            tables[ws.length] = _trig_table(ws.length, n)
        np.matmul(_autocorrelation_coefficients(sections), tables[ws.length], out=out)
        np.maximum(out, 0.0, out=out)
    else:
        f = np.fft.fft(sections, n=n, axis=1)
        f /= n
        np.abs(f, out=out)
        np.square(out, out=out)


def measure(x, windows, hop: int) -> MeasurementGrid:
    """Exact squared-magnitude measurements of the multiple-window STFT.

    Only the entries of each section inside the window's exact cyclic support
    are gathered.  With anchor ``a`` and supporting length ``L``, section m is
    nonzero only at ``t = t0 + i`` for ``i < L`` and ``t0 = hop*m - a - (L-1)``,
    where it equals ``s[i] = x(t0 + i) * w(a + L - 1 - i)``.  Its DFT is
    ``exp(-2j*pi*k*t0/n)`` times the n-point DFT ``X_k`` of those L products,
    and the unit-modulus factor drops out of the magnitude.

    ``|X_k|**2`` is a trigonometric polynomial of degree L - 1 whose
    coefficients are the section's autocorrelations
    ``c_d = sum_i s[i + d] * conj(s[i])``::

        |X_k|**2 = c_0 + 2 * sum_{d=1}^{L-1} (Re c_d cos(2 pi k d / n)
                                             + Im c_d sin(2 pi k d / n))

    so each window takes one of two routes, chosen from L and n alone:

    * ``2L - 1 <= log2 n`` (short windows): the (M, 2L - 1) autocorrelation
      coefficients times one shared (2L - 1, n) trig table, a single real
      matmul, clamped at 0 so exact grids stay nonnegative;
    * otherwise: a zero-padded n-point FFT of the L products.

    Both equal ``|stft(x, w, hop)|**2``; :func:`stft` and
    :func:`stftpr.oracle.measure_direct` stay the references.  Values are
    deterministic, but short-window rows differ from an n-point FFT's in the
    last digits.
    """
    xa = as_signal(x)
    n = xa.shape[0]
    fam = as_window_family(windows, n)
    if hop <= 0 or n % hop != 0:
        raise ConfigurationError(f"hop {hop} does not divide signal length {n}")
    starts = hop * np.arange(n // hop)
    vals = np.empty((fam.shape[0], n // hop, n))
    tables = {}  # windows sharing a supporting length share one trig table
    for r, w in enumerate(fam):
        _window_power(xa, w, starts, tables, vals[r])
    return MeasurementGrid(values=vals, noise_level=0.0)


def corrupt(grid: MeasurementGrid, eps) -> MeasurementGrid:
    """Add an entrywise noise tensor and account for its worst-case level.

    The new level is the old one plus ``max |eps|``, so corrupting an exact
    grid records exactly the perturbation bound of ``eps``.
    """
    e = np.asarray(eps, dtype=float)
    if e.shape != grid.values.shape:
        raise DimensionMismatchError(
            f"noise shape {e.shape} does not match grid shape {grid.values.shape}"
        )
    level = float(np.max(np.abs(e))) if e.size else 0.0
    return MeasurementGrid(values=grid.values + e, noise_level=grid.noise_level + level)


@dataclass(frozen=True)
class AggregateMeasurements:
    """The two per-(window, hop) statistics the reconstruction consumes.

    ``energy[r, m]`` sums the grid over frequency (total energy of the m-th
    windowed section).  ``correlation[r, m]`` applies the modulation
    ``exp(2j*pi*k*span/n)`` with span = supporting length of window r minus
    one, which is the circular autocorrelation of the windowed section at
    that lag; its phase carries the relative phase of the two support-interval
    endpoints.  One real energy plus one complex correlation per (window, hop)
    is what the compressed reconstruction path consumes.
    """

    energy: np.ndarray
    correlation: np.ndarray
    noise_level: float = 0.0

    def __post_init__(self):
        en = np.asarray(self.energy, dtype=float)
        co = np.asarray(self.correlation, dtype=complex)
        if en.ndim != 2 or co.shape != en.shape:
            raise DimensionMismatchError(
                f"aggregate shapes disagree: {en.shape} vs {co.shape}"
            )
        _check_finite("aggregate measurements", self.noise_level, en, co)
        object.__setattr__(self, "energy", en)
        object.__setattr__(self, "correlation", co)

    @property
    def num_windows(self) -> int:
        return self.energy.shape[0]

    @property
    def num_hops(self) -> int:
        return self.energy.shape[1]

    @property
    def measurement_count(self) -> int:
        """Number of aggregate measurements: two per (window, hop)."""
        return 2 * self.energy.shape[0] * self.energy.shape[1]


def aggregate(
    grid: MeasurementGrid, windows, zero_tol: float = DEFAULT_ZERO_TOL
) -> AggregateMeasurements:
    """Collapse a measurement grid to per-(window, hop) energy and correlation."""
    fam = as_window_family(windows, grid.n)
    if fam.shape[0] != grid.num_windows:
        raise DimensionMismatchError(
            f"grid has {grid.num_windows} windows, family has {fam.shape[0]}"
        )
    n = grid.n
    energy = grid.values.sum(axis=2)
    correlation = np.empty(energy.shape, dtype=complex)
    k = np.arange(n)
    for r in range(fam.shape[0]):
        span = window_support(fam[r], zero_tol).length - 1
        angle = 2 * np.pi * k * span / n
        # two real mat-vecs: a complex one would first copy the block to complex
        correlation[r].real = grid.values[r] @ np.cos(angle)
        correlation[r].imag = grid.values[r] @ np.sin(angle)
    return AggregateMeasurements(
        energy=energy, correlation=correlation, noise_level=grid.noise_level
    )


# one parsed grid CSV row: integer (r, m, k) and the float value
_GRID_ROW = np.dtype([("r", np.int64), ("m", np.int64), ("k", np.int64), ("value", float)])
# rows parsed per numpy call: bounds the parse buffers to a few tens of kB
_CSV_CHUNK_ROWS = 512


# the shortest data row, "0,0,0,0" plus a one-byte line end; the header
# row pays for a last row without one
_MIN_ROW_BYTES = 8


def _meta_path(path: Path) -> Path:
    return path.with_suffix(".meta.json")


def _meta_dimension(meta: dict, key: str) -> int:
    """A grid metadata dimension, which must be a positive JSON integer."""
    value = meta[key]
    if isinstance(value, bool) or not isinstance(value, int) or value <= 0:
        raise ValueError(f"{key} must be a positive integer, got {value!r}")
    return value


def write_grid_csv(grid: MeasurementGrid, path) -> None:
    """Write a grid as ``r,m,k,value`` CSV plus a sibling ``.meta.json``.

    The file is a header row ``r,m,k,value`` and then one row per cell,
    sorted lexicographically by (r, m, k); every row ends in ``\\r\\n``.
    Values use the shortest round-trip float repr, so identical grids give
    byte-identical files.  The metadata is JSON with two-space indent and
    sorted keys; its ``hop`` is ``grid.hop``.
    """
    path = Path(path)
    suffixes = [f"{k}," for k in range(grid.n)]
    with path.open("w", newline="") as fh:
        fh.write("r,m,k,value\r\n")
        # one write per (r, m) block keeps the string buffers O(n)
        for r in range(grid.num_windows):
            for m in range(grid.num_hops):
                prefix = f"{r},{m},"
                values = map(float.__repr__, grid.values[r, m].tolist())
                rows = map(str.__add__, suffixes, values)
                fh.write(prefix + ("\r\n" + prefix).join(rows) + "\r\n")
    meta = {
        "n": grid.n,
        "hop": grid.hop,
        "num_windows": grid.num_windows,
        "num_hops": grid.num_hops,
        "noise_level": float(grid.noise_level),
    }
    with _meta_path(path).open("w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _cell_indices(table: np.ndarray, shape, path, first_row: int) -> np.ndarray:
    """Flat cell index of each parsed row; negative or out-of-range indices raise."""
    index = np.stack([table["r"], table["m"], table["k"]])
    bad = np.flatnonzero(((index < 0) | (index >= np.array(shape)[:, None])).any(axis=0))
    if bad.size:
        raise ConfigurationError(
            f"grid CSV {path} data row {first_row + int(bad[0]) + 1} has index "
            f"{tuple(int(i) for i in index[:, bad[0]])} outside shape {shape}"
        )
    return np.ravel_multi_index(index, shape)


def read_grid_csv(path) -> MeasurementGrid:
    """Read a grid CSV and its sibling metadata.

    Every ``(r, m, k)`` cell must appear exactly once, with each index in
    ``[0, num_windows)``, ``[0, num_hops)`` and ``[0, n)`` respectively;
    a negative, out-of-range or repeated index, a malformed row or a wrong
    row count raises ``ConfigurationError``.  So do metadata dimensions
    (``num_windows``, ``num_hops``, ``n``, ``hop``) that are not positive
    JSON integers, a declared cell count the file is too small to hold, and
    a ``hop`` other than ``n / num_hops``; all are caught before the grid is
    allocated.
    """
    path = Path(path)
    meta_file = _meta_path(path)
    if not meta_file.exists():
        raise ConfigurationError(f"missing grid metadata file {meta_file}")
    with meta_file.open() as fh:
        meta = json.load(fh)
    try:
        shape = tuple(_meta_dimension(meta, key) for key in ("num_windows", "num_hops", "n"))
        hop, noise_level = _meta_dimension(meta, "hop"), float(meta["noise_level"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigurationError(f"bad grid metadata in {meta_file}: {exc!r}") from None
    size = shape[0] * shape[1] * shape[2]
    # checked before allocating: metadata alone must not size a huge buffer
    if _MIN_ROW_BYTES * size > path.stat().st_size:
        raise ConfigurationError(
            f"grid metadata {meta_file} declares {size} cells, more than {path} can hold"
        )
    if hop * shape[1] != shape[2]:
        raise ConfigurationError(
            f"grid metadata {meta_file} has hop {hop}, but n / num_hops is "
            f"{shape[2]} / {shape[1]}"
        )
    values = np.empty(size, dtype=float)
    seen = np.zeros(size, dtype=bool)
    rows = 0
    with path.open(newline="") as fh:
        header = next(csv.reader(fh), None)
        if header != ["r", "m", "k", "value"]:
            raise ConfigurationError(f"unexpected grid CSV header {header!r} in {path}")
        while chunk := list(itertools.islice(fh, _CSV_CHUNK_ROWS)):
            try:
                table = np.loadtxt(
                    chunk, delimiter=",", dtype=_GRID_ROW, comments=None, ndmin=1
                )
            except ValueError as exc:
                raise ConfigurationError(
                    f"malformed grid CSV {path} after data row {rows}: {exc}"
                ) from None
            flat = _cell_indices(table, shape, path, rows)
            # a repeat is a cell seen in an earlier chunk or earlier in this one
            repeat = np.ones(flat.size, dtype=bool)
            repeat[np.unique(flat, return_index=True)[1]] = False
            repeat |= seen[flat]
            if repeat.any():
                cell = np.unravel_index(flat[np.argmax(repeat)], shape)
                raise ConfigurationError(
                    f"grid CSV {path} repeats cell {tuple(int(i) for i in cell)}"
                )
            seen[flat] = True
            values[flat] = table["value"]
            rows += flat.size
    if rows != size:
        raise ConfigurationError(f"grid CSV {path} has {rows} rows, expected {size}")
    return MeasurementGrid(values=values.reshape(shape), noise_level=noise_level)
