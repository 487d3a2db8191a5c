"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; every tolerance is pinned here, nothing is calibrated elsewhere.
"""

import math
import time

import numpy as np
import pytest

from stftpr import (
    DEFAULT_ZERO_TOL,
    Geometry,
    ProblemConfig,
    aggregate,
    certify_rank,
    corrupt,
    covisibility_graph_from_support,
    endpoint_graph_from_support,
    error_budget,
    exhaustive_ambiguity_search,
    is_connected,
    magnitudes_direct,
    measure,
    min_support_magnitude,
    phase_distance,
    reconstruct,
    reconstruct_compressed,
    recover_magnitudes,
    rotate_component_phase,
    stability_constants,
    stft,
    stft_direct,
    support,
    threshold_support,
)
from stftpr.errors import CertificationError
from stftpr.generators import (
    antipodal_pair_signal,
    certified_instance,
    chain_family,
    random_interval_window,
)

from conftest import divisors, geom_at


def _report(num, name, detail):
    print(f"ACCEPTANCE {num} ({name}): PASS  [{detail}]")


def test_criterion_1_exact_recovery(certified_sweep):
    started = time.perf_counter()
    worst = 0.0
    for n, hop, num_windows, x, fam in certified_sweep:
        cfg = ProblemConfig(n, hop, num_windows)
        res = reconstruct(measure(x, fam, hop), fam, cfg)
        dist = phase_distance(res.estimate, x).distance
        norm = float(np.linalg.norm(x))
        assert dist <= 1e-8 * norm, (n, hop, num_windows, dist / norm)
        worst = max(worst, dist / norm)
    elapsed = time.perf_counter() - started
    assert len(certified_sweep) >= 200
    assert elapsed < 10.0, f"sweep took {elapsed:.1f}s"
    _report(1, "exact recovery",
            f"{len(certified_sweep)} instances, worst rel distance {worst:.2e}, "
            f"{elapsed:.2f}s")


def test_criterion_2_magnitude_formula(certified_sweep):
    worst_truth = 0.0
    worst_paths = 0.0
    for n, hop, num_windows, x, fam in certified_sweep:
        agg = aggregate(measure(x, fam, hop), geom_at(fam, hop))
        mats = certify_rank(geom_at(fam, hop))
        assert mats.certified
        solved = recover_magnitudes(agg, mats).magnitudes_sq
        # the oracle evaluates the explicit Gram-inverse formula term by term
        direct = magnitudes_direct(agg.energy, mats)
        truth = np.abs(x) ** 2
        scale = float(truth.max())
        err_truth = float(np.max(np.abs(solved - truth))) / scale
        err_paths = float(np.max(np.abs(solved - direct))) / scale
        assert err_truth <= 1e-9, (n, hop, num_windows, err_truth)
        assert err_paths <= 1e-9, (n, hop, num_windows, err_paths)
        worst_truth = max(worst_truth, err_truth)
        worst_paths = max(worst_paths, err_paths)
    _report(2, "magnitude formula",
            f"worst vs truth {worst_truth:.2e}, worst SVD-vs-explicit-Gram {worst_paths:.2e}")


def test_criterion_3_necessary_condition():
    # short-window family plus the two-spike signal: provably ambiguous
    n = 8
    rng = np.random.default_rng(333)
    fam = [random_interval_window(n, L, rng) for L in (2, 4, 3)]
    x0 = antipodal_pair_signal(n)
    graph = covisibility_graph_from_support(support(x0), geom_at(fam, 1))
    assert not is_connected(graph)
    base = measure(x0, fam, hop=1).values
    thetas = [0.05, 0.1, 0.2, 0.25, 0.4, 0.55, 0.7, 0.9]
    worst = 0.0
    for theta in thetas:
        twin = rotate_component_phase(x0, {0}, theta, graph)
        diff = float(np.max(np.abs(measure(twin, fam, hop=1).values - base)))
        assert diff <= 1e-12, (theta, diff)
        worst = max(worst, diff)

    # exhaustive search on n=4 confirms genuinely inequivalent candidates
    cfg = ProblemConfig(4, 1, 1)
    small_fam = [np.array([1, 1, 0, 0], dtype=complex)]
    small_grid = measure(antipodal_pair_signal(4), small_fam, 1)
    matches = exhaustive_ambiguity_search(small_grid, small_fam, cfg, 8, {0.0, 1.0})
    assert len(matches) >= 2
    inequivalent = any(
        phase_distance(a, b).distance > 1e-6
        for i, a in enumerate(matches)
        for b in matches[i + 1:]
    )
    assert inequivalent
    _report(3, "necessary condition",
            f"{len(thetas)} rotations <= {worst:.2e}; "
            f"{len(matches)} lattice matches incl. inequivalent pairs")


def test_criterion_4_coprimality():
    checked = 0
    for n in (6, 8, 9, 12):
        x = np.ones(n, complex)
        for length in range(2, n // 2 + 1):
            w = np.zeros(n, complex)
            w[:length] = 1.0
            graph = endpoint_graph_from_support(support(x), geom_at([w], 1))
            connected = is_connected(graph)
            assert connected == (math.gcd(length - 1, n) == 1), (n, length)
            checked += 1
    _report(4, "coprimality criterion", f"{checked} (n, length) cases, exact match")


def test_criterion_5_stability_bounds():
    trials = 0
    worst_mag = 0.0
    worst_phase = 0.0
    for n in (4, 8, 12, 16):
        for hop in divisors(n):
            for extra in (0, 1, 2):
                num_windows = hop + extra
                for s in range(2):
                    seed = 5_000_000 + 10_000 * n + 1_000 * hop + 100 * num_windows + s
                    rng = np.random.default_rng(seed)
                    x, fam = certified_instance(n, hop, num_windows, rng)
                    cfg = ProblemConfig(n, hop, num_windows)
                    mats = certify_rank(geom_at(fam, hop))
                    consts = stability_constants(mats)
                    min_mag = float(np.min(np.abs(x)))
                    admissible_level = min_mag ** 2 / (
                        4 * consts.gram_inverse_l1 * consts.window_l2 ** 2
                    )
                    level = 0.5 * admissible_level
                    exact = measure(x, fam, hop)
                    noisy = corrupt(exact, rng.uniform(-level, level, exact.values.shape))
                    prior = min_support_magnitude(x, DEFAULT_ZERO_TOL)
                    budget = error_budget(consts, noisy.noise_level, prior)
                    assert budget.admissible
                    res = reconstruct(noisy, fam, cfg, min_support_magnitude=min_mag)

                    mag_err = float(np.max(np.abs(np.abs(res.estimate) ** 2 - np.abs(x) ** 2)))
                    assert mag_err <= budget.magnitude_bound * (1 + 1e-9) + 1e-15
                    worst_mag = max(worst_mag, mag_err / budget.magnitude_bound)

                    unit_est = res.estimate / np.abs(res.estimate)
                    unit_true = x / np.abs(x)
                    align = unit_est[res.root_vertex] / unit_true[res.root_vertex]
                    phase_err = float(np.max(np.abs(unit_est - align * unit_true)))
                    assert phase_err <= budget.phase_bound * (1 + 1e-9) + 1e-15
                    worst_phase = max(worst_phase, phase_err / budget.phase_bound)

                    # the two inequalities behind the phase bound, on every used edge
                    agg_exact = aggregate(exact, geom_at(fam, hop))
                    agg_noisy = aggregate(noisy, geom_at(fam, hop))
                    floor = consts.min_endpoint_product * min_mag ** 2 / n
                    used = res.diagnostics["used_witnesses"]
                    for r, m in zip(used.window.tolist(), used.hop_index.tolist()):
                        c_exact = agg_exact.correlation[r, m]
                        c_noisy = agg_noisy.correlation[r, m]
                        assert abs(c_noisy - c_exact) <= n * noisy.noise_level * (1 + 1e-9) + 1e-12
                        assert abs(c_exact) >= floor * (1 - 1e-9) - 1e-12
                    trials += 1
    assert trials >= 100
    _report(5, "stability bounds",
            f"{trials} noisy trials at half the admissible level; "
            f"worst error/bound: magnitude {worst_mag:.3f}, phase {worst_phase:.3f}")


def test_criterion_6_support_thresholding():
    hits = 0
    trials = 100
    for t in range(trials):
        rng = np.random.default_rng(6_000_000 + t)
        n = int(rng.choice([8, 12, 16]))
        hop = int(rng.choice([d for d in divisors(n) if d <= n // 2]))
        num_windows = hop + int(rng.integers(0, 3))
        size = int(rng.integers(2, n))
        supp = range(size)
        x, fam = certified_instance(n, hop, num_windows, rng, support=supp)
        mats = certify_rank(geom_at(fam, hop))
        consts = stability_constants(mats)
        min_mag = float(np.min(np.abs(x[np.abs(x) > 0])))
        level = 0.9 * min_mag ** 2 / (4 * consts.gram_inverse_l1 * consts.window_l2 ** 2)
        grid = corrupt(measure(x, fam, hop), rng.uniform(-level, level, (num_windows, n // hop, n)))
        mag = recover_magnitudes(aggregate(grid, geom_at(fam, hop)), mats)
        estimate = np.sqrt(mag.magnitudes_sq)
        kept = np.flatnonzero(threshold_support(estimate, min_mag))
        if set(kept) == set(supp):
            hits += 1
        # reconstruct detects its support by the rule checked here
        res = reconstruct(grid, fam, ProblemConfig(n, hop, num_windows), min_support_magnitude=min_mag)
        assert np.array_equal(res.diagnostics["support"], kept), t
    assert hits == trials, f"{hits}/{trials}"
    _report(6, "support thresholding", f"{hits}/{trials} exact support recoveries")


def test_criterion_7_compressed_measurements(certified_sweep):
    worst = 0.0
    for n, hop, num_windows, x, fam in certified_sweep:
        cfg = ProblemConfig(n, hop, num_windows)
        grid = measure(x, fam, hop)
        agg = aggregate(grid, geom_at(fam, hop))
        assert agg.measurement_count == 2 * n * num_windows // hop
        full = reconstruct(grid, fam, cfg)
        comp = reconstruct_compressed(agg, Geometry(cfg, fam))
        diff = float(np.max(np.abs(full.estimate - comp.estimate)))
        assert diff <= 1e-10, (n, hop, num_windows, diff)
        worst = max(worst, diff)
    # the headline count: n=8, hop=2, three windows -> 24 numbers
    rng = np.random.default_rng(777)
    x, fam = certified_instance(8, 2, 3, rng)
    agg = aggregate(measure(x, fam, 2), geom_at(fam, 2))
    assert agg.measurement_count == 24
    _report(7, "compressed measurements",
            f"count 2nR/hop verified on {len(certified_sweep)} instances, "
            f"worst full-vs-compressed gap {worst:.2e}")


def test_criterion_8_oracle_equivalence():
    rng = np.random.default_rng(888)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 17))
        hop = int(rng.choice([d for d in range(1, n + 1) if n % d == 0]))
        x = rng.normal(size=n) + 1j * rng.normal(size=n)
        w = rng.normal(size=n) + 1j * rng.normal(size=n)
        fast = stft(x, w, hop)
        ref = stft_direct(x, w, hop)
        rel = float(np.max(np.abs(fast - ref)) / np.max(np.abs(ref)))
        assert rel <= 1e-10, (n, hop, rel)
        worst = max(worst, rel)
    _report(8, "oracle equivalence", f"100 instances, worst rel error {worst:.2e}")


def test_criterion_9_rank_gate():
    rng = np.random.default_rng(999)
    w = random_interval_window(8, 3, rng)
    planted = certify_rank(geom_at([w, w], 2))
    assert not planted.certified
    assert planted.failing == (0, 1, 2, 3)
    assert planted.report()["failing_m"] == [0, 1, 2, 3]
    x = rng.normal(size=8) + 1j * rng.normal(size=8)
    with pytest.raises(CertificationError) as err:
        reconstruct(measure(x, [w, w], 2), [w, w], ProblemConfig(8, 2, 2))
    assert err.value.failing == (0, 1, 2, 3)

    healthy = chain_family(8, 2, 3, rng)
    assert certify_rank(geom_at(healthy, 2)).certified
    _report(9, "rank gate",
            "planted deficiency rejected with failing residues listed; "
            "full-rank family certified")
