"""Brute-force reference implementations that validate every fast path.

These run in the shipped library (not only in the test suite) so the CLI can
emit oracle comparisons for user instances.  They trade speed for being
direct transcriptions: no FFTs, no vectorized shortcuts, no shared code with
the implementations they check.
"""

from __future__ import annotations

import cmath
import itertools
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, SearchSpaceError
from .model import ProblemConfig, as_signal, as_window_family
from .stft import MeasurementGrid, measure
from .supportgraph import Geometry, SupportGraph

SEARCH_CANDIDATE_CAP = 10 ** 6
# largest entrywise grid deviation at which a lattice candidate still matches
MATCH_TOL = 1e-9
# terms of the triple-loop DFT (windows * hops * n**2) that ``verify`` may
# run; at about a microsecond per term, a few seconds of oracle time
DIRECT_TERM_CAP = 4 * 10 ** 6


@dataclass(frozen=True)
class OracleReport:
    """One fast-vs-oracle comparison.

    For array comparisons the stored values are the entries at the location
    of the largest absolute deviation.  ``passed`` uses the relative error
    against the oracle's scale, falling back to the absolute error when the
    reference is identically zero.
    """

    case_id: str
    fast_value: complex
    oracle_value: complex
    abs_error: float
    rel_error: float
    passed: bool
    tolerance: float

    def to_dict(self) -> dict:
        def enc(v):
            v = complex(v)
            return [v.real, v.imag]

        return {
            "case_id": self.case_id,
            "fast_value": enc(self.fast_value),
            "oracle_value": enc(self.oracle_value),
            "abs_error": self.abs_error,
            "rel_error": self.rel_error,
            "pass": self.passed,
            "tolerance": self.tolerance,
        }


def compare(case_id: str, fast, oracle, tolerance: float) -> OracleReport:
    """Build an :class:`OracleReport` from a fast value and its reference."""
    fast_arr = np.atleast_1d(np.asarray(fast, dtype=complex)).ravel()
    oracle_arr = np.atleast_1d(np.asarray(oracle, dtype=complex)).ravel()
    diff = np.abs(fast_arr - oracle_arr)
    where = int(np.argmax(diff)) if diff.size else 0
    abs_error = float(diff[where]) if diff.size else 0.0
    scale = float(np.max(np.abs(oracle_arr))) if oracle_arr.size else 0.0
    if scale > 0.0:
        rel_error = abs_error / scale
        passed = rel_error <= tolerance
    else:
        rel_error = abs_error
        passed = abs_error <= tolerance
    return OracleReport(
        case_id=case_id,
        fast_value=complex(fast_arr[where]) if fast_arr.size else 0j,
        oracle_value=complex(oracle_arr[where]) if oracle_arr.size else 0j,
        abs_error=abs_error,
        rel_error=rel_error,
        passed=bool(passed),
        tolerance=tolerance,
    )


def stft_direct(x, w, hop: int) -> np.ndarray:
    """Literal triple-loop windowed DFT; the reference for the FFT path."""
    xa = as_signal(x)
    n = xa.shape[0]
    wa = as_signal(w, n)
    if hop <= 0 or n % hop != 0:
        raise ConfigurationError(f"hop {hop} does not divide signal length {n}")
    num_hops = n // hop
    out = np.zeros((num_hops, n), dtype=complex)
    for m in range(num_hops):
        for k in range(n):
            acc = 0j
            for t in range(n):
                acc += xa[t] * wa[(hop * m - t) % n] * cmath.exp(-2j * cmath.pi * k * t / n)
            out[m, k] = acc / n
    return out


def measure_direct(x, windows, hop: int) -> MeasurementGrid:
    """Squared magnitudes of :func:`stft_direct` for every window."""
    xa = as_signal(x)
    fam = as_window_family(windows, xa.shape[0])
    vals = np.stack([np.abs(stft_direct(xa, w, hop)) ** 2 for w in fam])
    return MeasurementGrid(values=vals, noise_level=0.0)


def magnitudes_direct(energy, geom: Geometry) -> np.ndarray:
    """Quadruple-sum closed form for ``|x(t)|**2`` from per-hop energies.

    Builds each residue's modulation matrix from the windows of ``geom`` by
    explicit DFT sums of their squared magnitudes, then evaluates the
    explicit Gram-inverse formula term by term (no FFT factorization, and
    nothing shared with the rank gate); the reference for the solver-based
    recovery path.
    """
    energy = np.asarray(energy, dtype=float)
    n, hop, num_hops = geom.cfg.n, geom.cfg.hop, geom.cfg.num_hops
    power = (np.abs(geom.windows) ** 2).tolist()
    # matrices[m][r, j]: window r's power spectrum at frequency m + num_hops * j
    matrices = [np.array([[sum(p * cmath.exp(-2j * cmath.pi * (m + num_hops * j) * t / n)
                               for t, p in enumerate(row)) / n for j in range(hop)]
                          for row in power]) for m in range(num_hops)]
    grams = [np.linalg.inv(a.conj().T @ a) for a in matrices]
    out = np.zeros(n, dtype=complex)
    for t in range(n):
        acc = 0j
        for m in range(num_hops):
            for mp in range(num_hops):
                for j in range(hop):
                    for jp in range(hop):
                        weight = cmath.exp(
                            -2j * cmath.pi * (m * (mp * hop - t) / n - j * t / hop)
                        )
                        inner = 0j
                        for r in range(len(power)):
                            inner += np.conj(matrices[m][r, jp]) * energy[r, mp]
                        acc += (hop / n) * weight * grams[m][j, jp] * inner
        out[t] = acc
    return out.real


def exhaustive_ambiguity_search(
    grid: MeasurementGrid,
    windows,
    cfg: ProblemConfig,
    phase_steps: int,
    magnitude_set,
) -> list[np.ndarray]:
    """All lattice signals whose measurement grid matches the given one.

    Candidates take each entry from ``magnitude_set`` times a ``phase_steps``-th
    root of unity (zero magnitude contributes the single value 0).  For a
    recoverable instance every match is a global rotation of one signal; for
    a disconnected one, genuinely inequivalent matches appear.  A candidate
    matches when no grid entry deviates by more than ``MATCH_TOL``.  Tiny
    instances only: length at most 4, at most 16 phase steps, and a hard cap
    of 10**6 candidates.
    """
    n = cfg.n
    if n > 4:
        raise ConfigurationError(f"exhaustive search supports length <= 4, got {n}")
    if not 1 <= phase_steps <= 16:
        raise ConfigurationError(f"phase_steps must be in [1, 16], got {phase_steps}")
    fam = as_window_family(windows, n)
    mags = sorted({float(v) for v in magnitude_set})
    if any(v < 0 for v in mags):
        raise ConfigurationError("magnitudes must be nonnegative")
    values: list[complex] = []
    if 0.0 in mags:
        values.append(0j)
    for v in mags:
        if v > 0.0:
            values.extend(
                v * cmath.exp(2j * cmath.pi * j / phase_steps) for j in range(phase_steps)
            )
    if len(values) ** n > SEARCH_CANDIDATE_CAP:
        raise SearchSpaceError(
            f"{len(values) ** n} candidates exceed the cap of {SEARCH_CANDIDATE_CAP}"
        )
    target = grid.values
    matches = []
    for combo in itertools.product(values, repeat=n):
        cand = np.array(combo, dtype=complex)
        got = measure(cand, fam, cfg.hop).values
        if np.max(np.abs(got - target)) <= MATCH_TOL:
            matches.append(cand)
    return matches


def bfs_forest(graph: SupportGraph) -> list[tuple[list[int], list[int], list[int], int]]:
    """One BFS per component over a dict of sorted neighbour lists; the reference for ``graph._forest``.

    Each search starts from the smallest vertex not yet reached and visits
    neighbours in increasing order.  Per component: its vertices in discovery
    order, the parent and edge row of each vertex after the first, and its
    depth.
    """
    adj = {v: [] for v in graph.vertices.tolist()}
    for row, (a, b) in enumerate(graph.edges.tolist()):
        adj[a].append((b, row))
        adj[b].append((a, row))
    depth, forest = {}, []
    for root in (v for v in adj if v not in depth):  # a vertex no search has reached yet
        depth[root] = 0
        queue, parent, rows = [root], [], []
        for v in queue:  # the queue grows while it is walked
            for u, row in sorted(adj[v]):
                if u not in depth:
                    depth[u] = depth[v] + 1
                    parent.append(v)
                    rows.append(row)
                    queue.append(u)
        forest.append((queue, parent, rows, depth[queue[-1]]))
    return forest
