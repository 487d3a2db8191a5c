"""Seeded window-family and signal generators used by the CLI and the tests.

Everything here is deterministic given a ``numpy.random.Generator``; the
library itself never creates one.  ``chain_family`` is the workhorse for
recoverable instances: its first ``hop`` windows have supporting length 2 at
anchors 0..hop-1, which makes the endpoint graph contain every wrap-around
consecutive pair (t, t-1) - a cycle on the full index set - so the graph
restricted to any contiguous (or full) support is connected.  The family
generators draw once and leave the rank gate to the caller's run.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError
from .model import ProblemConfig, check_hop, support as signal_support
from .spectral import certify_rank
from .supportgraph import Geometry, endpoint_graph_from_support, is_connected


def rectangular_window(n: int, length: int) -> np.ndarray:
    """Ones on [0, length), zeros elsewhere."""
    if not 1 <= length <= n:
        raise ConfigurationError(f"window length must be in [1, {n}], got {length}")
    w = np.zeros(n, dtype=complex)
    w[:length] = 1.0
    return w


def _random_values(rng: np.random.Generator, size: int) -> np.ndarray:
    # magnitudes bounded away from zero keep endpoint products and evidence healthy
    mags = rng.uniform(0.5, 1.5, size)
    phases = rng.uniform(0.0, 2.0 * np.pi, size)
    return mags * np.exp(1j * phases)


def random_interval_window(
    n: int, length: int, rng: np.random.Generator, anchor: int | None = None
) -> np.ndarray:
    """Random complex values on a cyclic interval of the given length."""
    if not 1 <= length <= n:
        raise ConfigurationError(f"window length must be in [1, {n}], got {length}")
    if anchor is None:
        anchor = int(rng.integers(0, n))
    w = np.zeros(n, dtype=complex)
    idx = (anchor + np.arange(length)) % n
    w[idx] = _random_values(rng, length)
    return w


def mask_family(
    n: int, num_windows: int, rng: np.random.Generator
) -> np.ndarray:
    """Half-length masks at cyclically staggered anchors, meant for hop = n.

    Each mask occupies a cyclic interval of length ``n // 2`` (so the short-
    window requirement holds) anchored at its index mod n, drawn once; the
    caller's rank gate checks the single full-hop modulation matrix.
    """
    if n < 4:
        raise ConfigurationError(f"mask families need length >= 4, got {n}")
    if num_windows < n:
        raise ConfigurationError(
            f"rank {n} needs at least {n} masks, got {num_windows}"
        )
    rows = [random_interval_window(n, n // 2, rng, anchor=r % n) for r in range(num_windows)]
    return np.stack(rows)


def chain_family(
    n: int, hop: int, num_windows: int, rng: np.random.Generator
) -> np.ndarray:
    """Family whose endpoint graph covers every consecutive pair.

    The first ``hop`` windows are length-2 intervals at anchors 0..hop-1;
    extra windows get random intervals of length 2..n//2.  Drawn once: a
    failed rank gate is a measure-zero accident for the caller's gate.
    """
    check_hop(n, hop)
    if num_windows < hop:
        raise ConfigurationError(
            f"full rank needs at least {hop} windows, got {num_windows}"
        )
    if n < 4:
        raise ConfigurationError(f"chain families need length >= 4, got {n}")
    max_len = max(2, n // 2)
    rows = [random_interval_window(n, 2, rng, anchor=a) for a in range(hop)]
    for _ in range(num_windows - hop):
        length = int(rng.integers(2, max_len + 1))
        rows.append(random_interval_window(n, length, rng))
    return np.stack(rows)


def random_signal(n: int, rng: np.random.Generator, support=None) -> np.ndarray:
    """Random signal with magnitudes in [0.5, 1.5]; zero off ``support``."""
    x = np.zeros(n, dtype=complex)
    idx = np.arange(n) if support is None else np.asarray(sorted(support), dtype=int)
    x[idx] = _random_values(rng, idx.size)
    return x


def antipodal_pair_signal(n: int) -> np.ndarray:
    """Ones at indices 0 and n//2: the canonical unrecoverable support pattern."""
    x = np.zeros(n, dtype=complex)
    x[0] = 1.0
    x[n // 2] = 1.0
    return x


def certified_instance(
    n: int,
    hop: int,
    num_windows: int,
    rng: np.random.Generator,
    support=None,
):
    """(signal, windows) with a passing rank gate and connected endpoint graph.

    ``support``, when given, should be cyclically contiguous (or the full
    index set) so the chain construction guarantees connectivity.  The rank
    gate runs once, at ``hop``; either failure raises ``ConfigurationError``.
    """
    fam = chain_family(n, hop, num_windows, rng)
    geom = Geometry(ProblemConfig(n, hop, num_windows), fam)
    if not certify_rank(geom).certified:
        raise ConfigurationError(f"generated window family fails the rank gate at hop {hop}")
    x = random_signal(n, rng, support=support)
    verts = signal_support(x)
    if not is_connected(endpoint_graph_from_support(verts, geom)):
        raise ConfigurationError(
            f"generated instance has a disconnected endpoint graph (support {list(verts)})"
        )
    return x, fam
