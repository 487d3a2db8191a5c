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
a real matmul; longer ones take a zero-padded n-point FFT.  :func:`stft` and
:func:`stftpr.oracle.measure_direct` stay the references for both routes.

The grid is the only grid-sized array :func:`measure` makes.  It makes one
pass per supporting length: the sections of every window of that length are
gathered together and pushed through their route in row blocks, each
finished while it is in cache.  The FFT route transforms each row on its own
with ``norm="forward"``, which scales each row by ``1/n`` as dividing the
whole spectrum does, so blocking moves no byte.  The short route's row
blocks follow from n alone, and its products are one row block each, too
small for BLAS to split between threads at the sizes tested, so their bytes
do not depend on the thread count.  :class:`MeasurementGrid` checks
finiteness in row blocks too, and :func:`aggregate` reads the grid once, one
real product per row block.
"""

from __future__ import annotations

import contextlib
import csv
import itertools
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, DimensionMismatchError, InvalidWindowError
from .model import as_signal, as_window_family, check_hop, check_tolerance
from .supportgraph import Geometry, endpoint_witness, window_support


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
    check_hop(n, hop)
    if not np.any(wa):
        raise InvalidWindowError("window is identically zero")
    num_hops = n // hop
    flipped = np.roll(wa[::-1], 1)  # flipped[t] = w(-t mod n)
    shifts = (np.arange(n)[None, :] - hop * np.arange(num_hops)[:, None]) % n
    sections = xa[None, :] * flipped[shifts]  # sections[m, t] = x(t) w(hop*m - t)
    return np.fft.fft(sections, axis=1) / n


# the FFT route and the finiteness check go through rows in blocks of about
# this many bytes of array rows, so neither forms a temporary the size of a grid
_ROW_BLOCK_BYTES = 256 * 1024
# aggregate reads a window's grid block in row blocks of about this many bytes
_AGGREGATE_BLOCK_BYTES = 512 * 1024


def _check_finite(what: str, noise_level: float, *arrays: np.ndarray) -> None:
    # one NaN would otherwise flow through the pipeline into a silent all-zero estimate
    for a in arrays:
        step = max(1, _ROW_BLOCK_BYTES // (a.itemsize * max(1, a.shape[-1])))
        for lead in np.ndindex(a.shape[:-2]):
            for lo in range(0, a.shape[-2], step):
                if not np.isfinite(a[lead][lo:lo + step]).all():
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
      coefficients times one shared (2L - 1, n) trig table, a real matmul,
      clamped at 0 so exact grids stay nonnegative;
    * otherwise: a zero-padded n-point FFT of the L products with
      ``norm="forward"``.  Each row is transformed on its own and the
      forward norm scales each entry by ``1/n`` as dividing the spectrum
      does, so the rows are bit for bit ``np.abs(np.fft.fft(s, n=n, axis=1) / n) ** 2``
      of all M sections at once.

    Windows of one supporting length share one pass: their sections are
    gathered together, whole windows or whole row blocks of one window at a
    time, and each window's rows go through the route in row blocks of about
    ``_ROW_BLOCK_BYTES``, each finished (clamped, or squared) while it is in
    cache.  Nothing grid-sized is allocated beside the grid, and every
    gather is about one row block.  Both routes equal ``|stft(x, w, hop)|**2``;
    :func:`stft` and :func:`stftpr.oracle.measure_direct` stay the references.
    Values are deterministic, but short-window rows differ from an n-point
    FFT's in the last digits.  A short-window row's bytes depend on its row
    block, which n and the row's index in its window fix, and not on the
    other windows; each product is one row block, and the bytes are the same
    on 1, 2 and 3 BLAS threads at every size tested.
    """
    xa = as_signal(x)
    n = xa.shape[0]
    fam = as_window_family(windows, n)
    check_hop(n, hop)
    supports = window_support(fam, 0.0)
    num_hops = n // hop
    vals = np.empty((fam.shape[0], num_hops, n))
    step = max(1, _ROW_BLOCK_BYTES // (8 * n))  # grid rows per row block
    for length in sorted(set(supports.length.tolist())):
        rs = np.flatnonzero(supports.length == length)
        ws, lags = supports[rs], np.arange(length)
        # row t is the run x[t], ..., x[t + L - 1] of indices mod n:
        # sliding_window_view(ext, L) of x extended cyclically, built directly,
        # since that function's checks cost as much as a gather at small n
        ext = np.concatenate((xa, xa[:length - 1]))
        runs = np.ndarray((n, length), ext.dtype, ext, strides=(ext.itemsize,) * 2)
        # section 0 starts at the index its window's far end sees, section m hop*m past it
        _, first = endpoint_witness(ws, hop, 0, n)
        # 2L - 1 <= log2 n: the table has 2L - 1 rows, an n-point FFT costs O(log n)
        # per output.  Well on the cheap side of the crossover: at n = 1024, M = 128
        # the routes break even between L = 32 and 64, and this stops at L = 5.
        short = 2 * length - 1 <= n.bit_length() - 1
        table = _trig_table(length, n) if short else None
        # a gather is `wins` whole windows or `span` rows (whole row blocks) of
        # one: one row block of spectra, or about _ROW_BLOCK_BYTES of short sections
        budget = max(step, _ROW_BLOCK_BYTES // (16 * length)) if short else step
        span, wins = min(num_hops, budget // step * step), max(1, budget // num_hops)
        for j0, m0 in itertools.product(range(0, rs.size, wins), range(0, num_hops, span)):
            j = np.arange(j0, min(j0 + wins, rs.size))
            m = np.arange(m0, min(m0 + span, num_hops))
            sections = runs[(first[j, None] + hop * m) % n]
            sections *= fam[rs[j, None], (ws.far(n)[j, None] - lags) % n][:, None]  # the taps
            if short:
                block = _autocorrelation_coefficients(sections.reshape(-1, length))
                block = block.reshape(j.size, m.size, -1)
            else:
                # padded, then transformed in place (out=, numpy >= 2.0): no second
                # block, and faster than fft(sections, n=n), which pads row by row
                block = np.zeros((j.size, m.size, n), complex)
                block[..., :length] = sections
                np.fft.fft(block, axis=-1, norm="forward", out=block)
            # one row block of one window at a time, finished while it is in cache
            for i, a in itertools.product(range(j.size), range(0, m.size, step)):
                out = vals[rs[j0 + i], m0 + a:m0 + a + step]
                if short:
                    np.matmul(block[i, a:a + step], table, out=out)
                    np.maximum(out, 0.0, out=out)
                else:
                    np.abs(block[i, a:a + step], out=out)
                    np.square(out, out=out)
            del sections, block  # so that no two gathers are alive at once
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
    # max |eps| without an |eps| array: negation is exact, and NaN propagates
    level = float(np.maximum(e.max(), -e.min())) if e.size else 0.0
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


def aggregate(grid: MeasurementGrid, geom: Geometry) -> AggregateMeasurements:
    """Collapse a measurement grid to per-(window, hop) energy and correlation.

    The grid must have the geometry's shape, else ``DimensionMismatchError``.
    One read of the grid: each window's ``(M, n)`` block is taken in row
    blocks of about ``_AGGREGATE_BLOCK_BYTES``, and one real matrix product
    of the ``(3, n)`` table ``[1; cos; sin]`` of the modulation with a row
    block writes its energies and both correlation parts.  Windows of one
    supporting length share a table.  The bytes depend on the row blocks,
    which come from the grid's shape alone, and not on the BLAS thread count.
    """
    cfg = geom.cfg
    if grid.values.shape != (cfg.num_windows, cfg.num_hops, cfg.n):
        raise DimensionMismatchError(f"grid has {grid.num_windows} windows, family has "
                                     f"{cfg.num_windows} (grid shape {grid.values.shape})")
    n, num_hops = grid.n, grid.num_hops
    # energy, then the real and imaginary parts of the correlation
    parts = np.empty((3, grid.num_windows, num_hops))
    # rows of 8 * n bytes, in blocks of a multiple of 8 rows; a one-row tail,
    # which BLAS would take as a mat-vec, joins the block before it
    step = max(8, _AGGREGATE_BLOCK_BYTES // (8 * n) // 8 * 8)
    stops = [*range(step, num_hops - 1, step), num_hops]
    k = np.arange(n)
    tables = {}
    for r, length in enumerate(geom.supports.length.tolist()):
        if length not in tables:
            angle = 2 * np.pi * k * (length - 1) / n
            tables[length] = np.stack((np.ones(n), np.cos(angle), np.sin(angle)))
        for lo, hi in zip([0, *stops], stops):
            # real, so no complex copy of the block; each block is read once
            np.matmul(tables[length], grid.values[r, lo:hi].T, out=parts[:, r, lo:hi])
    correlation = np.empty(parts.shape[1:], dtype=complex)
    correlation.real, correlation.imag = parts[1], parts[2]
    # a copy, so that the result does not hold the three parts alive
    return AggregateMeasurements(
        energy=parts[0].copy(), correlation=correlation, noise_level=grid.noise_level
    )


# one parsed grid CSV row: integer (r, m, k) and the float value
_GRID_ROW = np.dtype([("r", np.int64), ("m", np.int64), ("k", np.int64), ("value", float)])
_ROW_FORMAT = {"delimiter": ",", "dtype": _GRID_ROW, "comments": None}
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
    # "%r" formats a float as float.__repr__ does; "\0" marks where "r,m," goes
    template = "".join(f"\0{k},%r\r\n" for k in range(grid.n))
    with path.open("w", newline="") as fh:
        fh.write("r,m,k,value\r\n")
        # one write per (r, m) block keeps the string buffers O(n)
        for r in range(grid.num_windows):
            for m in range(grid.num_hops):
                rows = template.replace("\0", f"{r},{m},")
                fh.write(rows % tuple(grid.values[r, m].tolist()))
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


def _malformed_line(chunk: list[str], path, before: int) -> ConfigurationError:
    """Name the first line of ``chunk`` (after file line ``before``) that loadtxt rejects."""
    for i, line in enumerate(chunk, before + 1):
        try:
            if line.rstrip("\r\n"):  # blank lines are skipped, as in the chunk
                np.loadtxt([line], **_ROW_FORMAT)
        except ValueError as exc:  # its "at row" counts from its own input
            cause = str(exc).rpartition(" at row ")[0] or exc
            return ConfigurationError(f"malformed grid CSV {path} line {i}: {cause}")
    return ConfigurationError(f"malformed grid CSV {path} after line {before}")


def _check_cell_order(table: np.ndarray, shape, path, first_row: int) -> None:
    """Raise unless parsed row i holds flat cell ``first_row + i`` of ``shape``."""
    with contextlib.suppress(ValueError):  # raised for an index out of range
        cell = np.ravel_multi_index((table["r"], table["m"], table["k"]), shape)
        if np.array_equal(cell, np.arange(first_row, first_row + table.size)):
            return
    index = np.stack([table["r"], table["m"], table["k"]])
    inside = ((index >= 0) & (index < np.array(shape)[:, None])).all(axis=0)
    # rows out of range are zeroed first, so the flat index neither wraps nor raises
    cell = np.ravel_multi_index(np.where(inside, index, 0), shape)
    bad = np.flatnonzero(~inside | (cell != np.arange(first_row, first_row + cell.size)))
    if bad.size:
        raise ConfigurationError(
            f"grid CSV {path} data row {first_row + int(bad[0]) + 1} has cell "
            f"{tuple(index[:, bad[0]].tolist())} out of place: the rows must list the "
            f"cells of shape {shape} once each, in (r, m, k) order"
        )


def read_grid_csv(path) -> MeasurementGrid:
    """Read a grid CSV, in the form :func:`write_grid_csv` writes, and its sibling metadata.

    Data row i must hold the i-th cell in (r, m, k) order, each index in
    ``[0, num_windows)``, ``[0, num_hops)`` and ``[0, n)`` respectively; a
    row out of place (an index out of range, a cell repeated, swapped or
    past the last), a malformed row (named by its file line, the header
    being line 1) or a wrong row count raises ``ConfigurationError``.  So
    do metadata dimensions (``num_windows``, ``num_hops``, ``n``, ``hop``)
    that are not positive JSON integers, a ``noise_level`` that is not a
    JSON number, a declared cell count the file is too small to hold, and a
    ``hop`` other than ``n / num_hops``; all are caught before the grid is
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
        hop, noise_level = _meta_dimension(meta, "hop"), meta["noise_level"]
        if isinstance(noise_level, bool) or not isinstance(noise_level, (int, float)):
            raise ValueError(f"noise_level must be a number, got {noise_level!r}")
        noise_level = float(noise_level)  # an integer beyond the float range overflows
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
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
    rows, lines = 0, 1  # lines read so far, the header included
    with path.open(newline="") as fh:
        header = next(csv.reader(fh), None)
        if header != ["r", "m", "k", "value"]:
            raise ConfigurationError(f"unexpected grid CSV header {header!r} in {path}")
        while chunk := list(itertools.islice(fh, _CSV_CHUNK_ROWS)):
            lines += len(chunk)
            if not any(line.rstrip("\r\n") for line in chunk):
                continue  # only blank lines, which loadtxt skips, but warns of alone
            try:
                table = np.loadtxt(chunk, ndmin=1, **_ROW_FORMAT)
            except ValueError:
                raise _malformed_line(chunk, path, lines - len(chunk)) from None
            _check_cell_order(table, shape, path, rows)
            values[rows:rows + table.size] = table["value"]
            rows += table.size
    if rows != size:
        raise ConfigurationError(f"grid CSV {path} has {rows} rows, expected {size}")
    return MeasurementGrid(values=values.reshape(shape), noise_level=noise_level)
