from types import SimpleNamespace

import numpy as np
import pytest

from stftpr import certify_rank, generators, is_connected, window_support
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

from conftest import geom_at


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
    assert certify_rank(geom_at(fam, n)).certified
    with pytest.raises(ConfigurationError):
        mask_family(8, 4, rng)  # fewer masks than the rank requires


def test_chain_family_connects_consecutive_indices():
    rng = np.random.default_rng(3)
    for n, hop, num in [(8, 1, 1), (8, 2, 3), (12, 4, 5), (16, 16, 16)]:
        fam = chain_family(n, hop, num, rng)
        assert certify_rank(geom_at(fam, hop)).certified
        graph = endpoint_graph_from_support(range(n), geom_at(fam, hop))
        pairs = set(map(tuple, graph.edges.tolist()))
        for t in range(n):
            a, b = t, (t + 1) % n
            assert (min(a, b), max(a, b)) in pairs
        assert is_connected(graph)


@pytest.mark.parametrize("hop", [0, -2])
def test_hop_below_one_rejected(hop):
    # hop 0 used to raise ZeroDivisionError from n % hop
    rng = np.random.default_rng(5)
    with pytest.raises(ConfigurationError, match=f"hop {hop} does not divide signal length 8"):
        chain_family(8, hop, 3, rng)
    with pytest.raises(ConfigurationError, match=f"hop {hop} does not divide signal length 8"):
        certified_instance(8, hop, 3, rng)


@pytest.mark.parametrize(
    "make, match",
    [
        (lambda rng: random_interval_window(4, 0, rng),
         r"^window length must be in \[1, 4\], got 0$"),
        (lambda rng: mask_family(2, 2, rng), "^mask families need length >= 4, got 2$"),
        (lambda rng: chain_family(8, 4, 3, rng), "^full rank needs at least 4 windows, got 3$"),
        (lambda rng: chain_family(2, 1, 1, rng), "^chain families need length >= 4, got 2$"),
        # chain windows are at most n/2 = 8 long, so no endpoint edge spans 0 to 8
        (lambda rng: certified_instance(16, 4, 4, rng, support=[0, 8]),
         r"^generated instance is provably-non-retrievable at hop 4 \(support \[0, 8\]\)$"),
    ],
    ids=["interval-length-0", "masks-n2", "chain-few-windows", "chain-n2", "split-support"],
)
def test_generator_rejects(make, match):
    with pytest.raises(ConfigurationError, match=match):
        make(np.random.default_rng(1))


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


@pytest.mark.parametrize("n", [4, 6, 8, 12, 16])
def test_first_draws_pass_the_rank_gate(n):
    # the generators draw once and leave the gate to the run; every first draw
    # of this grid certifies at its own hop (hop n for masks) on the default
    # tolerance, as a redraw-until-certified loop never had to redraw
    for hop in [d for d in range(1, n + 1) if n % d == 0]:
        for num_windows in (hop, hop + 1, hop + 3, 2 * hop):
            for seed in range(3):
                fam = chain_family(n, hop, num_windows, np.random.default_rng(seed))
                assert certify_rank(geom_at(fam, hop)).certified, (hop, num_windows, seed)
    for num_windows in (n, n + 2, 2 * n):
        for seed in range(3):
            fam = mask_family(n, num_windows, np.random.default_rng(seed))
            assert certify_rank(geom_at(fam, n)).certified, (num_windows, seed)


def test_only_certified_instance_runs_the_rank_gate(monkeypatch):
    calls = []

    def gate(geom, rank_tol=None):
        calls.append(geom.cfg.hop)
        return certify_rank(geom, rank_tol)

    monkeypatch.setattr(generators, "certify_rank", gate)
    rng = np.random.default_rng(6)
    chain_family(8, 2, 3, rng)
    mask_family(8, 8, rng)
    assert calls == []
    certified_instance(8, 2, 3, rng)
    assert calls == [2]


def test_certified_instance_rejects_a_failed_rank_gate(monkeypatch):
    # a connected endpoint graph with a failed gate is what analyze calls indeterminate
    monkeypatch.setattr(
        generators, "certify_rank",
        lambda geom, rank_tol=None: SimpleNamespace(certified=False, geometry=geom),
    )
    with pytest.raises(
        ConfigurationError,
        match=r"^generated instance is indeterminate at hop 2 \(support \[0, 1, 2, 3, 4, 5, 6, 7\]\)$",
    ):
        certified_instance(8, 2, 3, np.random.default_rng(1))
