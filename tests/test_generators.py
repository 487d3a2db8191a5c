import numpy as np
import pytest

from stftpr import certify_rank, is_connected, window_support
from stftpr.errors import ConfigurationError
from stftpr.generators import (
    antipodal_pair_signal,
    certified_instance,
    chain_family,
    mask_family,
    random_interval_window,
    random_signal,
    rectangular_window,
)
from stftpr.supportgraph import endpoint_graph_from_support


def test_rectangular_window():
    w = rectangular_window(6, 3)
    ws = window_support(w)
    assert (ws.length, ws.anchor) == (3, 0)
    with pytest.raises(ConfigurationError):
        rectangular_window(6, 0)


def test_random_interval_window_geometry():
    rng = np.random.default_rng(1)
    for _ in range(20):
        n = int(rng.integers(2, 17))
        length = int(rng.integers(1, n + 1))
        anchor = int(rng.integers(0, n))
        w = random_interval_window(n, length, rng, anchor=anchor)
        ws = window_support(w)
        assert ws.length == length
        if length < n:
            assert ws.anchor == anchor
        assert np.count_nonzero(w) == length


def test_mask_family_certifies_full_hop():
    rng = np.random.default_rng(2)
    n = 8
    fam = mask_family(n, n, rng)
    assert fam.shape == (n, n)
    assert all(window_support(w).length == n // 2 for w in fam)
    assert certify_rank(fam, n).certified
    with pytest.raises(ConfigurationError):
        mask_family(8, 4, rng)  # fewer masks than the rank requires


def test_chain_family_connects_consecutive_indices():
    rng = np.random.default_rng(3)
    for n, hop, num in [(8, 1, 1), (8, 2, 3), (12, 4, 5), (16, 16, 16)]:
        fam = chain_family(n, hop, num, rng)
        assert certify_rank(fam, hop).certified
        graph = endpoint_graph_from_support(range(n), fam, hop)
        pairs = {e.endpoints for e in graph.edges}
        for t in range(n):
            a, b = t, (t + 1) % n
            assert (min(a, b), max(a, b)) in pairs
        assert is_connected(graph)


@pytest.mark.parametrize("hop", [0, -2])
def test_hop_below_one_rejected(hop):
    # hop 0 used to raise ZeroDivisionError from n % hop
    rng = np.random.default_rng(5)
    with pytest.raises(ConfigurationError, match=f"hop {hop} does not divide 8"):
        chain_family(8, hop, 3, rng)
    with pytest.raises(ConfigurationError, match=f"hop {hop} does not divide 8"):
        certified_instance(8, hop, 3, rng)


def test_random_signal_support_and_magnitudes():
    rng = np.random.default_rng(4)
    x = random_signal(10, rng, support=[1, 4, 7])
    assert set(np.flatnonzero(x)) == {1, 4, 7}
    mags = np.abs(x[[1, 4, 7]])
    assert np.all((mags >= 0.5) & (mags <= 1.5))


def test_antipodal_pair_signal():
    x = antipodal_pair_signal(9)
    assert x[0] == 1 and x[4] == 1 and np.count_nonzero(x) == 2


def test_certified_instance_deterministic():
    a = certified_instance(12, 3, 4, np.random.default_rng(99))
    b = certified_instance(12, 3, 4, np.random.default_rng(99))
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
