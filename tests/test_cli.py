import json
import math
import sys
import tempfile
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stftpr import cli, generators, model, phase, spectral, supportgraph
from stftpr.cli import _dump_json, main
from stftpr.errors import CertificationError, DisconnectedGraphError, PhaseRetrievalError
from stftpr.generators import (
    antipodal_pair_signal, chain_family, random_interval_window, random_signal,
)
from stftpr.model import ProblemConfig, phase_distance, support
from stftpr.oracle import DIRECT_TERM_CAP
from stftpr.spectral import certify_rank
from stftpr.stft import aggregate, measure, read_grid_csv, write_grid_csv
from stftpr.supportgraph import (
    Geometry,
    covisibility_graph_from_support,
    endpoint_graph_from_support,
    is_connected,
    long_windows,
    spanning_tree,
    window_support,
)

from conftest import check_certificate, geom_at, near_singular_pair, weak_nontree_instance


def run(*argv):
    return main([str(a) for a in argv])


def _simulate(tmp_path, name, *extra):
    out = tmp_path / name
    code = run(
        "simulate", "--n", 8, "--hop", 2, "--num-windows", 3,
        "--windows", "chain:2", "--signal", "random", "--seed", 42,
        "--out", out, *extra,
    )
    assert code == 0
    return out


def _read_estimate(report_path):
    rep = json.loads(report_path.read_text())
    pairs = np.asarray(rep["estimate"], dtype=float)
    return rep, pairs[:, 0] + 1j * pairs[:, 1]


class TestSimulate:
    def test_writes_expected_files(self, tmp_path):
        out = _simulate(tmp_path, "run")
        for name in ("signal.json", "windows.json", "grid.csv", "grid.meta.json", "report.json"):
            assert (out / name).exists()
        report = json.loads((out / "report.json").read_text())
        assert report["certification"]["certified"] is True
        assert report["config"]["seed"] == 42

    def test_byte_identical_reruns(self, tmp_path):
        a = _simulate(tmp_path, "a")
        b = _simulate(tmp_path, "b")
        for name in ("signal.json", "windows.json", "grid.csv", "grid.meta.json", "report.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_noise_writes_second_grid(self, tmp_path):
        out = _simulate(tmp_path, "noisy", "--noise", "0.001")
        meta = json.loads((out / "grid_noisy.meta.json").read_text())
        assert 0 < meta["noise_level"] <= 0.001
        exact_meta = json.loads((out / "grid.meta.json").read_text())
        assert exact_meta["noise_level"] == 0.0

    @pytest.mark.parametrize("noise", ["-1", "nan", "inf", "1e308"])
    def test_bad_noise_exits_one_and_writes_nothing(self, tmp_path, capsys, noise):
        # -1 and nan used to exit 0 without a noisy grid; inf and 1e308 raised
        # OverflowError after the signal, window and grid files were written
        out = tmp_path / "bad-noise"
        code = run(
            "simulate", "--n", 8, "--hop", 2, "--num-windows", 3, "--windows", "chain:2",
            "--seed", 42, f"--noise={noise}", "--out", out,
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("stftpr: error: --noise")
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--zero-tol=1", "--rank-tol=-1"])
    def test_bad_family_tolerance_exits_one_and_writes_nothing(self, tmp_path, capsys, flag):
        # a tolerance that leaves a window without support, or a negative rank
        # tolerance, used to exit 1 after the signal, window and grid files were written
        out = tmp_path / "bad-tol"
        code = run(
            "simulate", "--n", 8, "--hop", 2, "--num-windows", 3, "--windows", "chain:2",
            "--seed", 1, flag, "--out", out,
        )
        assert code == 1
        assert capsys.readouterr().err.startswith("stftpr: error:")
        assert not out.exists()

    def test_random_without_seed_fails(self, tmp_path, capsys):
        code = run(
            "simulate", "--n", 8, "--hop", 1, "--num-windows", 1,
            "--windows", "random-support:3", "--signal", "random",
            "--out", tmp_path / "x",
        )
        assert code == 1
        assert "--seed" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "analyze", "bounds", "verify"])
    def test_negative_seed_names_the_flag(self, tmp_path, capsys, command):
        # numpy's default_rng used to reject it with "expected non-negative integer"
        out = tmp_path / "negative-seed"
        prior = ["--min-magnitude", 0.5] if command == "bounds" else []
        code = run(
            command, "--n", 8, "--hop", 2, "--num-windows", 3, "--windows", "chain:2",
            "--seed", -1, *prior, "--out", out,
        )
        assert code == 1
        assert capsys.readouterr().err == "stftpr: error: --seed must be nonnegative, got -1\n"
        assert not out.exists()

    def test_masks_generator_certifies_full_hop(self, tmp_path):
        out = tmp_path / "masks"
        code = run(
            "simulate", "--n", 8, "--hop", 8, "--num-windows", 8,
            "--windows", "masks", "--signal", "random", "--seed", 5,
            "--out", out,
        )
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["certification"]["certified"] is True
        assert report["certification"]["per_m_rank"] == [8]


class TestRecover:
    def test_round_trip(self, tmp_path):
        out = _simulate(tmp_path, "rt")
        report_path = tmp_path / "recover.json"
        code = run(
            "recover", "--grid", out / "grid.csv", "--windows", out / "windows.json",
            "--signal", out / "signal.json", "--out", report_path,
        )
        assert code == 0
        rep, estimate = _read_estimate(report_path)
        ref = rep["reference_distance"]
        assert ref["distance"] <= 1e-8 * ref["reference_norm"]
        assert rep["connected"] is True
        assert rep["stability"]["W_norm2"] > 0

    def test_compressed_flag_is_gone(self, tmp_path, capsys):
        # every recovery runs from the aggregates; their count is
        # AggregateMeasurements.measurement_count, so the flag is not accepted
        out = _simulate(tmp_path, "comp")
        report = tmp_path / "comp.json"
        with pytest.raises(SystemExit) as err:
            run("recover", "--grid", out / "grid.csv", "--windows", out / "windows.json",
                "--compressed", "--out", report)
        assert err.value.code == 1
        assert "unrecognized arguments: --compressed" in capsys.readouterr().err
        assert not report.exists()

    def test_noisy_round_trip_with_reference_prior(self, tmp_path):
        out = _simulate(tmp_path, "noisy", "--noise", "1e-7")
        report_path = tmp_path / "noisy.json"
        code = run(
            "recover", "--grid", out / "grid_noisy.csv",
            "--windows", out / "windows.json", "--signal", out / "signal.json",
            "--out", report_path,
        )
        assert code == 0
        rep, _ = _read_estimate(report_path)
        assert rep["diagnostics"]["support_rule"] == "half-minimum"
        assert rep["stability"]["noise_level"] > 0
        assert rep["stability"]["admissible"] is True
        assert rep["reference_distance"]["distance"] <= 0.01

    @pytest.mark.parametrize("grid", ["grid.csv", "grid_noisy.csv"])
    def test_all_zero_reference_reports_empty_support(self, tmp_path, capsys, grid):
        # the prior is worked out from the reference before reconstruction, so a
        # noisy grid no longer reports a missing prior first
        out = _simulate(tmp_path, "zero", "--noise", "1e-7")
        (tmp_path / "zero.json").write_text(json.dumps([[0.0, 0.0]] * 8))
        report = tmp_path / "zero-report.json"
        code = run(
            "recover", "--grid", out / grid, "--windows", out / "windows.json",
            "--signal", tmp_path / "zero.json", "--out", report,
        )
        assert code == 1
        assert capsys.readouterr().err == "stftpr: error: reference signal has empty support\n"
        assert not report.exists()

    @pytest.mark.parametrize("prior", ["nan", "inf"])
    def test_non_finite_prior_exits_one(self, tmp_path, capsys, prior):
        # a NaN prior used to exit 0 with an empty support and an all-zero estimate
        out = _simulate(tmp_path, "prior", "--noise", "1e-7")
        report = tmp_path / "prior.json"
        code = run(
            "recover", "--grid", out / "grid_noisy.csv", "--windows", out / "windows.json",
            "--min-magnitude", prior, "--out", report,
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "stftpr: error:" in err and "prior" in err
        assert not report.exists()

    @pytest.mark.parametrize("grid", ["grid.csv", "grid_noisy.csv"])
    def test_underflowing_prior_exits_one(self, tmp_path, capsys, grid):
        # the prior's square underflows to zero; the error budget divided by it
        out = _simulate(tmp_path, "tiny", "--noise", "1e-7")
        report = tmp_path / "tiny.json"
        code = run(
            "recover", "--grid", out / grid, "--windows", out / "windows.json",
            "--min-magnitude", "1e-300", "--out", report,
        )
        assert code == 1
        assert "stftpr: error:" in capsys.readouterr().err
        assert not report.exists()

    def test_rank_gate_runs_once(self, tmp_path, monkeypatch):
        # the stability section reuses the matrices the reconstruction certified
        out = _simulate(tmp_path, "once")
        original = spectral.certify_rank
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name.startswith("stftpr") and vars(module).get("certify_rank") is original:
                monkeypatch.setattr(module, "certify_rank", counting)
        code = run(
            "recover", "--grid", out / "grid.csv", "--windows", out / "windows.json",
            "--signal", out / "signal.json", "--out", tmp_path / "once.json",
        )
        assert code == 0
        assert len(calls) == 1
        assert json.loads((tmp_path / "once.json").read_text())["stability"]["admissible"]

    def test_pipeline_and_stability_read_one_gate(self, tmp_path, monkeypatch):
        # recover builds its one gate, runs the pipeline on it and forms the
        # stability section from that same gate afterwards
        out = _simulate(tmp_path, "onegate")
        gate, pipeline, section = cli.certify_rank, cli.reconstruct_compressed, cli._stability_section
        built, read = [], []

        def certify(*args):
            built.append(gate(*args))
            return built[-1]

        def reconstruct_compressed(agg, mats, *args):
            read.append(("pipeline", mats))
            return pipeline(agg, mats, *args)

        def stability(mats, *args):
            read.append(("stability", mats))
            return section(mats, *args)

        monkeypatch.setattr(cli, "certify_rank", certify)
        monkeypatch.setattr(cli, "reconstruct_compressed", reconstruct_compressed)
        monkeypatch.setattr(cli, "_stability_section", stability)
        assert run(
            "recover", "--grid", out / "grid.csv", "--windows", out / "windows.json",
            "--signal", out / "signal.json", "--out", tmp_path / "onegate.json",
        ) == 0
        assert len(built) == 1
        assert [(step, mats is built[0]) for step, mats in read] == [
            ("pipeline", True), ("stability", True)
        ]

    def test_missing_window_file(self, tmp_path, capsys):
        out = _simulate(tmp_path, "miss")
        code = run("recover", "--grid", out / "grid.csv", "--windows", tmp_path / "nope.json")
        assert code == 1
        assert capsys.readouterr().err

    def test_non_retrievable_exit_code(self, tmp_path, capsys):
        out = tmp_path / "anti"
        assert run(
            "simulate", "--n", 8, "--hop", 1, "--num-windows", 2,
            "--windows", "chain:1", "--signal", "antipodal-pair", "--seed", 9,
            "--out", out,
        ) == 0
        code = run("recover", "--grid", out / "grid.csv", "--windows", out / "windows.json")
        assert code == 2
        assert capsys.readouterr().err == (
            "stftpr: non-retrievable: covisibility graph on the detected support has 2 "
            "components: [[0], [4]]\n"
        )

    def test_split_endpoint_graph_is_no_proof(self, tmp_path, capsys):
        # a length-5 window at hop 1 on n = 12 joins only indices 4 apart, so
        # the endpoint graph has 4 components; each section sees 5 consecutive
        # indices, so the covisibility graph is connected and nothing is proved
        out = tmp_path / "r5"
        assert run(
            "simulate", "--n", 12, "--hop", 1, "--num-windows", 1,
            "--windows", "rectangular:5", "--seed", 1, "--out", out,
        ) == 0
        code = run("recover", "--grid", out / "grid.csv", "--windows", out / "windows.json")
        assert code == 3
        assert capsys.readouterr().err == (
            "stftpr: certification failure: endpoint graph on the detected support has 4 "
            "components: [[0, 4, 8], [1, 5, 9], [2, 6, 10], [3, 7, 11]]; the covisibility "
            "graph is connected, so recovery is undecided\n"
        )

    def test_certification_failure_exit_code(self, tmp_path, capsys):
        out = tmp_path / "dup"
        assert run(
            "simulate", "--n", 8, "--hop", 2, "--num-windows", 2,
            "--windows", "rectangular:3", "--signal", "ones", "--out", out,
        ) == 0  # two identical windows: planted rank deficiency
        code = run("recover", "--grid", out / "grid.csv", "--windows", out / "windows.json")
        assert code == 3
        assert capsys.readouterr().err == (
            "stftpr: certification failure: "
            "modulation matrices are rank-deficient at residues [0, 1, 2, 3]\n"
        )

    def test_overflowing_pseudo_inverse_exits_three(self, tmp_path, capsys):
        # windows at 1e-160: the gate's pseudo-inverses overflow, so it must not
        # certify; recover used to estimate all zeros and fail later with a
        # bare "Singular matrix" from the stability section
        out = tmp_path / "tiny"
        assert run(
            "simulate", "--n", 64, "--hop", 4, "--num-windows", 6,
            "--windows", "chain:4", "--signal", "random", "--seed", 3, "--out", out,
        ) == 0
        windows = json.loads((out / "windows.json").read_text())
        tiny = [[[re * 1e-160, im * 1e-160] for re, im in row] for row in windows]
        (out / "windows.json").write_text(json.dumps(tiny))
        report = tmp_path / "tiny.json"
        code = run("recover", "--grid", out / "grid.csv", "--windows", out / "windows.json",
                   "--out", report)
        assert code == 3
        # every residue has full rank, so the message must not say rank-deficient
        assert capsys.readouterr().err == (
            "stftpr: certification failure: pseudo-inverses overflow at residues "
            f"{list(range(16))}\n"
        )
        assert not report.exists()

    def test_degenerate_edge_exit_code(self, tmp_path, capsys):
        # hand-crafted frequency-constant grid: every correlation is exactly zero
        n = 4
        windows = [
            [[1.0, 0.0], [1.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
            [[1.0, 0.0], [2.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
        ]
        (tmp_path / "windows.json").write_text(json.dumps(windows))
        grid_path = tmp_path / "grid.csv"
        rows = ["r,m,k,value"]
        for r in range(2):
            for m in range(n):
                for k in range(n):
                    rows.append(f"{r},{m},{k},1.0")
        grid_path.write_text("\n".join(rows) + "\n")
        (tmp_path / "grid.meta.json").write_text(json.dumps(
            {"n": n, "hop": 1, "num_windows": 2, "num_hops": n, "noise_level": 0.05}
        ))
        code = run(
            "recover", "--grid", grid_path, "--windows", tmp_path / "windows.json",
            "--min-magnitude", 1.0,
        )
        assert code == 4
        assert "degenerate" in capsys.readouterr().err

    def test_non_finite_window_exits_one(self, tmp_path, capsys):
        out = _simulate(tmp_path, "nanwin")
        windows = json.loads((out / "windows.json").read_text())
        windows[1][0][0] = float("nan")
        (out / "windows.json").write_text(json.dumps(windows))
        assert "NaN" in (out / "windows.json").read_text()
        code = run("recover", "--grid", out / "grid.csv", "--windows", out / "windows.json")
        assert code == 1
        err = capsys.readouterr().err
        assert "stftpr: error:" in err and "window 1" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "flag,value",
        [
            ("--zero-tol", "nan"),  # NaN compares false: would detect an empty support
            ("--zero-tol", "-1e-3"),
            ("--rank-tol", "-1"),  # below zero every singular value counts
            ("--rank-tol", "inf"),
            ("--degenerate-tol", "nan"),  # would let zero evidence through
            ("--degenerate-tol", "-1"),
        ],
    )
    def test_bad_tolerance_exits_one(self, tmp_path, capsys, flag, value):
        out = _simulate(tmp_path, "tol")
        report = tmp_path / "tol.json"
        code = run(
            "recover", "--grid", out / "grid.csv", "--windows", out / "windows.json",
            f"{flag}={value}", "--out", report,
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "stftpr: error:" in err and "must be finite and nonnegative" in err
        assert not report.exists()

    def test_bad_degenerate_tol_is_reported_before_the_gate(self, tmp_path, capsys, monkeypatch):
        # with --rank-tol bad as well, the degenerate tolerance is named, and
        # no gate is built
        out = _simulate(tmp_path, "order")
        built = []
        monkeypatch.setattr(cli, "certify_rank", lambda *args: built.append(args))
        code = run(
            "recover", "--grid", out / "grid.csv", "--windows", out / "windows.json",
            "--degenerate-tol=-1", "--rank-tol=-1",
        )
        assert code == 1
        assert capsys.readouterr().err == (
            "stftpr: error: degenerate_tol must be finite and nonnegative, got -1.0\n"
        )
        assert built == []

    @pytest.mark.parametrize(
        "row", ["2,3,7,nan", "0,3,99,1.0", "0,3,-1,1.0", "0,0,0,1.0"],
        ids=["nan", "out-of-range", "negative", "duplicate"],
    )
    def test_bad_grid_row_exits_one(self, tmp_path, capsys, row):
        out = _simulate(tmp_path, "bad")
        lines = (out / "grid.csv").read_text().splitlines()
        lines[-1] = row  # replaces the row for cell (2, 3, 7)
        (out / "grid.csv").write_text("\n".join(lines) + "\n")
        code = run("recover", "--grid", out / "grid.csv", "--windows", out / "windows.json")
        assert code == 1
        assert "stftpr: error:" in capsys.readouterr().err

    @pytest.mark.parametrize("line", [-1, 2], ids=["after-a-full-chunk", "inside-a-chunk"])
    def test_blank_grid_line_is_skipped_anywhere(self, tmp_path, capsys, line):
        # 512 data rows fill one read chunk exactly: a blank line at the end is a
        # chunk of its own, which loadtxt used to warn of on stderr
        out = tmp_path / "blank"
        assert run("simulate", "--n", 16, "--hop", 2, "--num-windows", 4, "--windows", "chain:2",
                   "--seed", 1, "--out", out) == 0
        assert run("recover", "--grid", out / "grid.csv", "--windows", out / "windows.json",
                   "--out", tmp_path / "plain.json") == 0
        lines = (out / "grid.csv").read_bytes().split(b"\r\n")
        assert len(lines) == 1 + 512 + 1  # header, rows, and the empty tail
        lines.insert(line, b"")
        (out / "grid.csv").write_bytes(b"\r\n".join(lines))
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run("recover", "--grid", out / "grid.csv", "--windows", out / "windows.json",
                       "--out", tmp_path / "blank.json")
        assert code == 0
        assert capsys.readouterr().err == ""
        assert (tmp_path / "blank.json").read_bytes() == (tmp_path / "plain.json").read_bytes()

    @pytest.mark.parametrize(
        "key, value, match",
        [("num_windows", 10**6, "more than"),  # with num_hops: a 116 TiB buffer
         ("n", 16.7, "positive integer"), ("num_hops", -4, "positive integer"),
         ("hop", 4, "grid.meta.json has hop 4")],  # n = 8 and 4 hops need hop 2
        ids=["huge", "fractional", "negative", "inconsistent-hop"],
    )
    def test_bad_grid_meta_exits_one(self, tmp_path, capsys, key, value, match):
        out = _simulate(tmp_path, "meta")
        meta_file = out / "grid.meta.json"
        meta = json.loads(meta_file.read_text())
        meta[key] = value
        if key == "num_windows":
            meta["num_hops"] = value
        meta_file.write_text(json.dumps(meta))
        code = run("recover", "--grid", out / "grid.csv", "--windows", out / "windows.json")
        assert code == 1
        err = capsys.readouterr().err
        assert "stftpr: error:" in err and match in err
        assert "Traceback" not in err


    @pytest.mark.parametrize(
        "edit, match",
        [(lambda lines: ["r,m,k,val", *lines[1:]], "unexpected grid CSV header"),
         (lambda lines: lines[:-1], "has 95 rows, expected 96")],
        ids=["header", "short"],
    )
    def test_bad_grid_layout_exits_one(self, tmp_path, capsys, edit, match):
        out = _simulate(tmp_path, "layout")
        lines = (out / "grid.csv").read_text().splitlines()
        (out / "grid.csv").write_text("\n".join(edit(lines)) + "\n")
        code = run("recover", "--grid", out / "grid.csv", "--windows", out / "windows.json")
        assert code == 1
        err = capsys.readouterr().err
        assert "stftpr: error:" in err and match in err

    @pytest.mark.parametrize(
        "payload, match",
        [({"window": 1}, "expected a list of windows"),
         ([], "expected a list of windows"),
         ([[["a", 0.0]] * 8], "expected [re, im] pairs"),
         ([[[1.0, 0.0], [1.0]]], "expected [re, im] pairs"),  # ragged
         ([[1.0] * 8], "expected an array of [re, im] pairs")],
        ids=["object", "empty", "not-numbers", "ragged", "not-pairs"],
    )
    def test_bad_window_json_exits_one(self, tmp_path, capsys, payload, match):
        out = _simulate(tmp_path, "winjson")
        (out / "windows.json").write_text(json.dumps(payload))
        code = run("recover", "--grid", out / "grid.csv", "--windows", out / "windows.json")
        assert code == 1
        err = capsys.readouterr().err
        assert "stftpr: error:" in err and match in err
        assert "Traceback" not in err

    def test_window_count_differs_from_grid(self, tmp_path, capsys):
        out = _simulate(tmp_path, "count")
        windows = json.loads((out / "windows.json").read_text())
        (out / "two.json").write_text(json.dumps(windows[:2]))
        code = run("recover", "--grid", out / "grid.csv", "--windows", out / "two.json")
        assert code == 1
        assert "stftpr: error: grid has 3 windows, family has 2" in capsys.readouterr().err

    def test_delta_signal_one_vertex_support(self, tmp_path):
        out = tmp_path / "delta"
        assert run(
            "simulate", "--n", 8, "--hop", 2, "--num-windows", 3, "--windows", "chain:2",
            "--signal", "delta", "--seed", 42, "--out", out,
        ) == 0
        report_path = tmp_path / "recover.json"
        code = run(
            "recover", "--grid", out / "grid.csv", "--windows", out / "windows.json",
            "--signal", out / "signal.json", "--out", report_path,
        )
        assert code == 0
        rep, estimate = _read_estimate(report_path)
        # the support is {0}: a one-vertex tree with no edges to walk
        assert np.flatnonzero(estimate).tolist() == [0]
        assert estimate[0] == pytest.approx(1.0)
        assert rep["root_vertex"] == 0
        assert rep["diagnostics"]["used_witnesses"] == []
        assert rep["diagnostics"]["nontree_residuals"] == []


def _legacy_witness_dicts(graph, record, rows, estimate=None):
    """The per-edge dicts ``recover`` wrote before witnesses became records.

    A copy of that builder: the chosen witness of each of ``rows`` of
    ``edge_phase``'s record of ``graph``, a row without a phase giving only
    the edge's endpoints, and with ``estimate`` each entry's phase residual
    (None if it has no phase).
    """
    cols = (record.n1, record.n2, record.window, record.hop_index)
    out = []
    for i, a, b, w, h in zip(rows.tolist(), *(c[rows].tolist() for c in cols)):
        if w < 0:
            a, b = graph.edges[i].tolist()
            out.append({"n1": a, "n2": b})
        else:
            out.append({"n1": a, "n2": b, "window": w, "hop_index": h})
    if estimate is not None:
        unit = np.zeros(estimate.shape, dtype=complex)
        on = estimate != 0
        unit[on] = estimate[on] / np.abs(estimate[on])
        diff = record.phase[rows] - unit[record.n1[rows]] * np.conj(unit[record.n2[rows]])
        for entry, res in zip(out, np.hypot(diff.real, diff.imag).tolist()):
            entry["residual"] = res if "window" in entry else None
    return out


class TestWitnessRecords:
    """``recover`` writes the witness records as the per-edge dicts it used to build."""

    @staticmethod
    def _instance(tmp_path, case):
        """Grid and window files, the recover flags and the library keywords of ``case``."""
        if case == "weak":
            _, fam, grid, _, tol = weak_nontree_instance()
            out = tmp_path / "weak"
            out.mkdir()
            write_grid_csv(grid, out / "grid.csv")
            cli.write_windows_json(out / "windows.json", fam)
            return out / "grid.csv", ["--degenerate-tol", tol], {"degenerate_tol": tol}
        signal = "delta" if case == "delta" else "random"
        out = tmp_path / case
        assert run(
            "simulate", "--n", 16, "--hop", 2, "--num-windows", 4, "--windows", "chain:2",
            "--signal", signal, "--seed", 43, "--noise", 1e-9, "--out", out,
        ) == 0
        if case == "noisy":
            return out / "grid_noisy.csv", ["--min-magnitude", 0.5], {"min_support_magnitude": 0.5}
        return out / "grid.csv", [], {}

    @pytest.mark.parametrize("case", ["exact", "noisy", "weak", "delta"])
    def test_matches_the_legacy_dicts(self, tmp_path, case):
        grid_path, flags, kwargs = self._instance(tmp_path, case)
        windows = grid_path.parent / "windows.json"
        report = tmp_path / "recover.json"
        assert run("recover", "--grid", grid_path, "--windows", windows, *flags,
                   "--out", report) == 0
        # the run again in the library, and the edge record its records come from
        grid = read_grid_csv(grid_path)
        fam = cli.read_windows_json(windows, grid.n)
        cfg = ProblemConfig(grid.n, grid.hop, fam.shape[0])
        res = phase.reconstruct(grid, fam, cfg, **kwargs)
        geom = Geometry(cfg, fam)
        graph = endpoint_graph_from_support(res.diagnostics["support"], geom)
        tree = spanning_tree(graph)
        tol = kwargs.get("degenerate_tol", phase.default_degenerate_tol(grid.n, grid.noise_level))
        record = phase.edge_phase(graph, aggregate(grid, geom), geom, tol)
        nontree = np.setdiff1d(np.arange(len(graph.edges)), tree.edges)
        used = _legacy_witness_dicts(graph, record, tree.edges)
        residuals = _legacy_witness_dicts(graph, record, nontree, res.estimate)
        if case == "delta":
            assert used == residuals == []
        else:
            assert used and residuals
        if case == "weak":
            assert any(entry["residual"] is None for entry in residuals)
        text = report.read_text()
        want = json.loads(text)
        want["diagnostics"]["used_witnesses"] = used
        want["diagnostics"]["nontree_residuals"] = residuals
        assert json.dumps(want, indent=2, sort_keys=True) + "\n" == text


@pytest.mark.parametrize(
    "name, payload, what, length",
    [("windows.json", [[[1.0, 0.0]] * 16] * 3, "window file", 16),
     ("signal.json", [[1.0, 0.0]] * 4, "signal file", 4)],
)
def test_input_file_of_wrong_length_exits_one(tmp_path, capsys, name, payload, what, length):
    # analyze checks against --n, and recover against the grid's n before it reconstructs
    out = _simulate(tmp_path, "len")
    (out / name).write_text(json.dumps(payload))
    files = ["--windows", out / "windows.json", "--signal", out / "signal.json"]
    reconstructions = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "reconstruct_compressed", lambda *a, **k: reconstructions.append(a))
        for command in (["analyze", "--n", 8, "--hop", 2], ["recover", "--grid", out / "grid.csv"]):
            assert run(*command, *files) == 1
            err = capsys.readouterr().err
            assert err == f"stftpr: error: {what} {out / name} has length {length}, expected 8\n"
    assert reconstructions == []


@pytest.mark.parametrize("command", ["simulate", "analyze"])
def test_zero_windows_exits_one(tmp_path, capsys, command):
    code = run(
        command, "--n", 8, "--hop", 2, "--num-windows", 0, "--windows", "chain:2",
        "--seed", 1, "--out", tmp_path / "zero",
    )
    assert code == 1
    assert "--num-windows must be at least 1, got 0" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["simulate", "analyze", "verify", "bounds"])
@pytest.mark.parametrize("n", [0, -4])
def test_nonpositive_length_named_before_windows_are_drawn(tmp_path, capsys, command, n):
    # used to fail inside the window generator: "window length must be in [1, 0], got 1"
    extra = ["--min-magnitude", 1] if command == "bounds" else ["--out", tmp_path / "out"]
    code = run(
        command, "--n", n, "--hop", 1, "--num-windows", 1, "--windows", "rectangular:1",
        "--signal", "ones", *extra,
    )
    assert code == 1
    err = capsys.readouterr().err
    assert f"stftpr: error: signal length must be positive, got {n}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["simulate", "analyze", "verify"])
@pytest.mark.parametrize("spec", ["chain:0", "chain:-2"])
def test_chain_hop_below_one_exits_one(tmp_path, capsys, command, spec):
    # chain:0 used to raise ZeroDivisionError out of main
    code = run(
        command, "--n", 8, "--hop", 2, "--num-windows", 3, "--windows", spec,
        "--seed", 1, "--out", tmp_path / "chain",
    )
    assert code == 1
    err = capsys.readouterr().err
    assert f"stftpr: error: hop {spec[6:]} does not divide signal length 8" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "flag, spec, message",
    [
        ("--signal", "", "unknown signal spec ''"),
        ("--signal", "bogus", "unknown signal spec 'bogus'"),
        ("--signal", "{dir}", "unknown signal spec {dir!r}"),
        ("--windows", "", "unknown window spec ''"),
        ("--windows", "{dir}", "unknown window spec {dir!r}"),
        ("--windows", "chain:x", "window spec 'chain:x': 'x' is not an integer"),
        ("--windows", "rectangular:3.5", "window spec 'rectangular:3.5': '3.5' is not an integer"),
        ("--windows", "random-support:y", "window spec 'random-support:y': 'y' is not an integer"),
        ("--windows", "masks:abc", "window spec 'masks:abc': masks takes no argument"),
        ("--windows", "masks:8", "window spec 'masks:8': masks takes no argument"),
    ],
    ids=["signal-empty", "signal-unknown", "signal-directory", "windows-empty",
         "windows-directory", "chain-x", "rectangular-x", "random-support-x", "masks-abc",
         "masks-8"],
)
def test_bad_spec_is_named(tmp_path, capsys, flag, spec, message):
    # an empty spec or a directory used to be read as a path ("Is a directory"),
    # a bad generator argument to fail in int() without naming the spec, and
    # an argument to masks to be ignored
    given = {"--windows": "chain:2", "--signal": "random", flag: spec.format(dir=str(tmp_path))}
    code = run(
        "analyze", "--n", 8, "--hop", 2, "--num-windows", 3, "--seed", 1,
        "--windows", given["--windows"], "--signal", given["--signal"],
    )
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("stftpr: error: " + message.format(dir=str(tmp_path)))


@pytest.mark.parametrize("suffix", [".json", ".txt"])
def test_analyze_reads_window_and_signal_files(tmp_path, capsys, suffix):
    # a spec is a file when it ends in .json or names a regular file; the files
    # simulate wrote give the certificate the generators give
    out = _simulate(tmp_path, "files")
    specs = []
    for name in ("windows", "signal"):
        specs.append(tmp_path / f"{name}{suffix}")
        specs[-1].write_bytes((out / f"{name}.json").read_bytes())
    assert run("analyze", "--n", 8, "--hop", 2, "--windows", specs[0], "--signal", specs[1]) == 0
    from_files = capsys.readouterr().out
    code = run(
        "analyze", "--n", 8, "--hop", 2, "--num-windows", 3, "--windows", "chain:2",
        "--signal", "random", "--seed", 42,
    )
    assert code == 0
    assert from_files == capsys.readouterr().out


class TestAnalyze:
    # argv after "analyze", then the verdict and the certificate's covisibility
    # and endpoint connectivity, rank gate and short-window flag that decide it
    VERDICTS = {
        "chain": ("--n 8 --hop 2 --num-windows 3 --windows chain:2 --seed 1 --signal ones",
                  "provably-retrievable", True, True, True, True),
        "antipodal-pair": (
            "--n 8 --hop 2 --num-windows 3 --windows chain:2 --seed 1 --signal antipodal-pair",
            "provably-non-retrievable", False, False, True, True),
        "failed-rank-gate": ("--n 8 --hop 2 --num-windows 2 --windows rectangular:3 --signal delta",
                             "indeterminate", True, True, False, True),
        "endpoint-split": ("--n 12 --hop 1 --num-windows 1 --windows rectangular:5 --signal ones",
                           "indeterminate", True, False, True, True),
        "long-window": ("--n 7 --hop 1 --num-windows 1 --windows rectangular:5 --signal ones",
                        "indeterminate", True, True, True, False),
        "non-retrievable": ("--n 8 --hop 1 --num-windows 1 --windows random-support:4 "
                            "--signal antipodal-pair --seed 3",
                            "provably-non-retrievable", False, False, True, True),
        "retrievable": ("--n 8 --hop 1 --num-windows 1 --windows random-support:4 "
                        "--signal ones --seed 3",
                        "provably-retrievable", True, True, True, True),
        # covisibility connected, endpoint graph split (offset 2 on n=6)
        "indeterminate-gap": ("--n 6 --hop 1 --num-windows 1 --windows random-support:3 "
                              "--signal ones --seed 11",
                              "indeterminate", True, False, True, True),
    }

    @pytest.mark.parametrize("case", VERDICTS)
    def test_verdict_is_phase_verdict(self, case, capsys):
        argv, want, cov, end, certified, short = self.VERDICTS[case]
        assert run("analyze", *argv.split()) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == want
        assert payload["covisibility"]["connected"] is cov
        assert payload["endpoint"]["connected"] is end
        assert payload["certification"]["certified"] is certified
        assert payload["short_windows"] is short
        _, geom, x = cli._instance(cli.build_parser().parse_args(["analyze", *argv.split()]))
        graph = endpoint_graph_from_support(support(x, geom.cfg.zero_tol), geom)
        assert phase.verdict(graph, certify_rank(geom)) == want

    def test_covisibility_graph_is_built_once(self, monkeypatch, capsys):
        # a disconnected endpoint graph sends certify_graph to the covisibility
        # graph, which analyze has already built for its payload
        original = supportgraph.covisibility_graph_from_support
        calls = []

        def counting(*args):
            calls.append(args)
            return original(*args)

        for module in (cli, phase):
            assert module.covisibility_graph_from_support is original
            monkeypatch.setattr(module, "covisibility_graph_from_support", counting)
        code = run(
            "analyze", "--n", 12, "--hop", 1, "--num-windows", 1,
            "--windows", "rectangular:5", "--signal", "ones",
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["endpoint"]["connected"] is False and payload["verdict"] == "indeterminate"
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "n, hop, num_windows, spec", [(40, 4, 16, "chain:4"), (8, 8, 8, "masks")],
        ids=["chain", "masks"],
    )
    def test_rank_gate_runs_once(self, n, hop, num_windows, spec, monkeypatch, capsys):
        # the generators draw without a gate, so the run's own gate, at its
        # --hop, is the one call through either binding
        original = spectral.certify_rank
        calls = []

        def counting(geom, rank_tol=None):
            calls.append(geom.cfg.hop)
            return original(geom, rank_tol)

        for module in (cli, generators):
            assert module.certify_rank is original
            monkeypatch.setattr(module, "certify_rank", counting)
        assert run("analyze", "--n", n, "--hop", hop, "--num-windows", num_windows,
                   "--windows", spec, "--seed", 1) == 0
        assert json.loads(capsys.readouterr().out)["certification"]["certified"] is True
        assert calls == [hop]

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.sampled_from([6, 8, 12, 16]),
        density=st.sampled_from([0.2, 0.5, 0.9]),
        data=st.data(),
    )
    def test_disconnection_error_is_the_non_retrievable_verdict(self, seed, n, density, data):
        # on an exact grid, reconstruct raises DisconnectedGraphError exactly
        # when the rank gate passes and analyze proves the support
        # non-retrievable, and it carries the covisibility components of support(x)
        rng = np.random.default_rng(seed)
        hop = data.draw(st.sampled_from([d for d in (1, 2, 3, 4) if n % d == 0]))
        num_windows = data.draw(st.integers(hop, hop + 2))
        fam = np.stack([
            random_interval_window(n, int(rng.integers(1, n)), rng) for _ in range(num_windows)
        ])
        on = rng.random(n) < density
        on[rng.integers(n)] = True
        x = random_signal(n, rng, support=np.flatnonzero(on))
        try:
            phase.reconstruct(measure(x, fam, hop), fam, ProblemConfig(n, hop, num_windows))
            raised = None
        except DisconnectedGraphError as exc:
            raised = exc
        except CertificationError:
            raised = None
        with tempfile.TemporaryDirectory() as tmp:
            windows, signal, out = (Path(tmp) / name for name in ("w.json", "x.json", "c.json"))
            cli.write_windows_json(windows, fam)
            cli.write_signal_json(signal, x)
            assert run("analyze", "--n", n, "--hop", hop, "--windows", windows,
                       "--signal", signal, "--out", out) == 0
            cert = json.loads(out.read_text())
        proof = cert["verdict"] == "provably-non-retrievable"
        cov = covisibility_graph_from_support(support(x), geom_at(fam, hop))
        assert proof is not is_connected(cov)
        assert (raised is not None) == (proof and cert["certification"]["certified"])
        if raised is not None:
            assert raised.components == tuple(map(tuple, cov.components()))

    @staticmethod
    def _check_verdict_predicts_reconstruct(x, fam, hop):
        """``analyze``'s verdict on ``x`` against ``reconstruct`` on its exact grid."""
        n, num_windows = fam.shape[1], fam.shape[0]
        with tempfile.TemporaryDirectory() as tmp:
            windows, signal, out = (Path(tmp) / name for name in ("w.json", "x.json", "c.json"))
            cli.write_windows_json(windows, fam)
            cli.write_signal_json(signal, x)
            assert run("analyze", "--n", n, "--hop", hop, "--windows", windows,
                       "--signal", signal, "--out", out) == 0
            cert = json.loads(out.read_text())
        try:
            res = phase.reconstruct(measure(x, fam, hop), fam, ProblemConfig(n, hop, num_windows))
            raised = None
        except PhaseRetrievalError as exc:
            raised = exc
        verdict = cert["verdict"]
        if verdict == "provably-retrievable":
            assert raised is None
            assert phase_distance(res.estimate, x).distance <= 1e-8 * np.linalg.norm(x)
        elif verdict == "indeterminate":
            assert type(raised) is CertificationError
        else:
            assert verdict == "provably-non-retrievable"
            certified = cert["certification"]["certified"]
            assert type(raised) is (DisconnectedGraphError if certified else CertificationError)
        return verdict

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.sampled_from([6, 8, 12, 16]),
        density=st.sampled_from([0.1, 0.2, 0.5, 0.9]),
        data=st.data(),
    )
    def test_verdict_predicts_reconstruct(self, seed, n, density, data):
        # retrievable: an estimate within 1e-8 |x|; indeterminate: a
        # certification failure; non-retrievable: the proof when the rank
        # gate passes, the gate's own failure when it does not
        rng = np.random.default_rng(seed)
        hop = data.draw(st.sampled_from([d for d in (1, 2, 3, 4) if n % d == 0]))
        num_windows = data.draw(st.integers(hop, hop + 2))
        fam = np.stack([
            random_interval_window(n, int(rng.integers(1, n)), rng) for _ in range(num_windows)
        ])
        on = rng.random(n) < density
        on[rng.integers(n)] = True
        x = random_signal(n, rng, support=np.flatnonzero(on))
        self._check_verdict_predicts_reconstruct(x, fam, hop)

    def test_one_index_support_needs_no_short_window(self, capsys):
        # two windows of length 6 on n = 8, and a delta: reconstruct returns x
        # exactly, with no edge phase, so the verdict must not ask for short windows
        argv = ["analyze", "--n", 8, "--hop", 1, "--num-windows", 2,
                "--windows", "random-support:6", "--signal", "delta", "--seed", 1]
        assert run(*argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["short_windows"] is False
        assert payload["verdict"] == "provably-retrievable"
        rng = np.random.default_rng(1)  # the draw random-support:6 makes
        fam = np.stack([random_interval_window(8, 6, rng) for _ in range(2)])
        x = np.zeros(8, dtype=complex)
        x[0] = 1.0
        check_certificate(payload, x, fam, 1)
        verdict = self._check_verdict_predicts_reconstruct(x, fam, 1)
        assert verdict == "provably-retrievable"

    @pytest.mark.parametrize("seed", [0, 1, 17, 4242])
    def test_certificate_matches_stdlib_dump_of_to_dict(self, tmp_path, seed):
        # the certify geometry; the reference payload is built from the graphs'
        # to_dict() forests and dumped by the stdlib
        out = tmp_path / "certificate.json"
        assert run(*_certify_geometry(seed), "--out", out) == 0
        assert out.read_text() == _certify_certificate(seed)

    @pytest.mark.parametrize(
        "signal, seed",
        [("random", 0), ("random", 5), ("random", 4242), ("antipodal-pair", 1)],
    )
    def test_certificate_checks_against_the_family(self, signal, seed, capsys):
        # every forest row from the family, in O(1) each, and the verdict
        # against loop references; antipodal-pair leaves two lone vertices
        argv = _certify_geometry(seed)
        argv[argv.index("--signal") + 1] = signal
        assert run(*argv) == 0
        payload = json.loads(capsys.readouterr().out)
        rng = np.random.default_rng(seed)
        fam = chain_family(40, 4, 16, rng)
        x = random_signal(40, rng) if signal == "random" else antipodal_pair_signal(40)
        check_certificate(payload, x, fam, 4)
        if signal == "antipodal-pair":
            assert payload["covisibility"]["components"] == [[0], [20]]
            assert payload["covisibility"]["forest"] == []
            assert payload["verdict"] == "provably-non-retrievable"

    def test_large_certificate_is_small_and_cheap(self, tmp_path):
        # n = 1024, full support: each graph's certificate is a spanning tree
        # of 1,023 rows, and the chained build stays far below the bound
        out = tmp_path / "certificate.json"
        tracemalloc.start()
        try:
            code = run("analyze", "--n", 1024, "--hop", 4, "--num-windows", 6,
                       "--windows", "chain:4", "--seed", 1, "--out", out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 40e6
        assert out.stat().st_size < 250e3
        cert = json.loads(out.read_text())
        assert [len(cert[g]["forest"]) for g in ("covisibility", "endpoint")] == [1023, 1023]


def _certify_geometry(seed):
    return ["analyze", "--n", 40, "--hop", 4, "--num-windows", 16,
            "--windows", "chain:4", "--signal", "random", "--seed", seed]


def _certify_certificate(seed):
    """The stdlib dump, from ``to_dict()``, of the certificate ``_certify_geometry(seed)`` names."""
    rng = np.random.default_rng(seed)
    fam = chain_family(40, 4, 16, rng)
    x = random_signal(40, rng)
    cov = covisibility_graph_from_support(support(x), geom_at(fam, 4))
    end = endpoint_graph_from_support(support(x), geom_at(fam, 4))
    mats = certify_rank(geom_at(fam, 4))
    short = not long_windows(window_support(fam), 40)
    assert is_connected(cov) and is_connected(end) and short and mats.certified
    payload = {
        "covisibility": cov.to_dict(),
        "endpoint": end.to_dict(),
        "short_windows": short,
        "certification": mats.report(),
        "verdict": "provably-retrievable",
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


class TestBounds:
    @pytest.mark.parametrize("value", ["-1", "nan"])
    @pytest.mark.parametrize("reference", [["--signal", "random"], ["--min-magnitude", "0.5"]])
    def test_bad_zero_tol_exits_one(self, capsys, value, reference):
        # unchecked, -1 would fail in the error budget ("too small") and NaN on
        # the window supports, with messages that do not name the tolerance rule
        code = run(
            "bounds", "--n", 8, "--hop", 2, "--num-windows", 3, "--windows", "chain:2",
            "--seed", 1, *reference, f"--zero-tol={value}",
        )
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        want = f"stftpr: error: zero_tol must be finite and nonnegative, got {float(value)}"
        assert want in captured.err

    def test_zero_noise(self, capsys):
        code = run(
            "bounds", "--n", 8, "--hop", 1, "--num-windows", 1,
            "--windows", "random-support:3", "--seed", 2, "--min-magnitude", 0.5,
        )
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["admissible"] is True
        assert out["magnitude_bound"] == 0.0 and out["phase_bound"] == 0.0

    def test_impulse_window_constant(self, tmp_path, capsys):
        # delta window: summed Gram-inverse mass is n**3
        n = 8
        w = [[0.0, 0.0]] * n
        w[0] = [1.0, 0.0]
        (tmp_path / "w.json").write_text(json.dumps([w]))
        code = run(
            "bounds", "--n", n, "--hop", 1, "--windows", tmp_path / "w.json",
            "--min-magnitude", 1.0, "--noise", 1.0,
        )
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["A_norm1"] == pytest.approx(n ** 3, rel=1e-9)
        assert out["admissible"] is False

    def test_near_singular_pair(self, tmp_path, capsys):
        # a pair the gate certifies, whose Gram matrix numpy called singular
        cli.write_windows_json(tmp_path / "near.json", near_singular_pair())
        code = run(
            "bounds", "--n", 8, "--hop", 2, "--windows", tmp_path / "near.json",
            "--min-magnitude", 0.5, "--noise", 1e-12,
        )
        out, err = capsys.readouterr()
        assert code == 0 and err == ""
        assert np.isfinite(json.loads(out)["A_norm1"])

    def test_zero_noise_with_gram_mass_past_the_float_range(self, tmp_path, capsys):
        # at zero noise the verdict is admissible whatever A_norm1 is; it used
        # to read NaN and make the verdict false
        fam = 1e-80 * chain_family(8, 2, 3, np.random.default_rng(1))
        cli.write_windows_json(tmp_path / "tiny.json", fam)
        code = run(
            "bounds", "--n", 8, "--hop", 2, "--windows", tmp_path / "tiny.json",
            "--min-magnitude", 0.5, "--noise", 0,
        )
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["A_norm1"] == np.inf
        assert out["admissible"] is True and out["magnitude_bound"] == 0.0

    def test_magnitude_bound_stays_finite_where_gram_mass_overflows(self, tmp_path, capsys):
        # A_norm1 reads Infinity, but A_norm1 * W_norm2**2 is in range; the
        # magnitude bound used to read Infinity too
        fam = 1e-80 * chain_family(8, 2, 3, np.random.default_rng(1))
        cli.write_windows_json(tmp_path / "tiny.json", fam)
        code = run(
            "bounds", "--n", 8, "--hop", 2, "--windows", tmp_path / "tiny.json",
            "--min-magnitude", 0.5, "--noise", 1e-12,
        )
        out, err = capsys.readouterr()
        assert code == 0 and err == ""
        out = json.loads(out)
        assert out["A_norm1"] == np.inf
        assert 1e140 < out["magnitude_bound"] < 1e160 and out["admissible"] is False

    def test_window_mass_past_the_float_range(self, tmp_path, capsys):
        # each window's power spectrum is finite, the family's squared mass is
        # not: W_norm2 is finite and no numpy overflow warning escapes
        fam = 5.364e153 * chain_family(8, 2, 3, np.random.default_rng(1))
        cli.write_windows_json(tmp_path / "huge.json", fam)
        code = run(
            "bounds", "--n", 8, "--hop", 2, "--windows", tmp_path / "huge.json",
            "--min-magnitude", 0.5, "--noise", 1e-300,
        )
        out, err = capsys.readouterr()
        assert code == 0 and err == ""
        out = json.loads(out)
        assert 1e154 < out["W_norm2"] < 2e154 and out["A_norm1"] == 0.0
        assert out["admissible"] is True

    def test_underflowing_gram_mass_exits_zero(self, tmp_path, capsys):
        # A_norm1 below the float range made the budget NaN, then a false
        # "gain underflows" exit 1; the gain is the scaled form, finite as c**-2
        fam = 1e100 * chain_family(8, 2, 3, np.random.default_rng(1))
        cli.write_windows_json(tmp_path / "big.json", fam)
        code = run(
            "bounds", "--n", 8, "--hop", 2, "--windows", tmp_path / "big.json",
            "--min-magnitude", 0.5, "--noise", 1e-12,
        )
        out, err = capsys.readouterr()
        assert code == 0 and err == ""
        out = json.loads(out)
        assert out["A_norm1"] == 0.0 and out["admissible"] is True
        assert math.isclose(out["magnitude_bound"], 2.077232832162608e-209, rel_tol=1e-12)

    def test_certification_failure(self, tmp_path, capsys):
        code = run(
            "bounds", "--n", 8, "--hop", 1, "--num-windows", 1,
            "--windows", "rectangular:4", "--min-magnitude", 1.0,
        )
        assert code == 3

    def test_all_zero_reference_exits_one_before_certification(self, tmp_path, capsys):
        # the prior comes first: an uncertified family (exit 3) is not reached
        (tmp_path / "zero.json").write_text(json.dumps([[0.0, 0.0]] * 8))
        code = run(
            "bounds", "--n", 8, "--hop", 2, "--num-windows", 2,
            "--windows", "rectangular:3", "--signal", tmp_path / "zero.json",
        )
        assert code == 1
        out, err = capsys.readouterr()
        assert out == "" and err == "stftpr: error: reference signal has empty support\n"

    def test_needs_reference(self, capsys):
        code = run(
            "bounds", "--n", 8, "--hop", 1, "--num-windows", 1,
            "--windows", "rectangular:1",
        )
        assert code == 1

    @pytest.mark.parametrize(
        "flag,value",
        [("--min-magnitude", "nan"), ("--min-magnitude", "inf"), ("--noise", "nan")],
    )
    def test_non_finite_input_exits_one(self, capsys, flag, value):
        # each used to exit 0 and write NaN or meaningless bounds
        extra = ["--min-magnitude", 0.5] if flag == "--noise" else []
        code = run(
            "bounds", "--n", 8, "--hop", 1, "--num-windows", 1,
            "--windows", "random-support:3", "--seed", 2, *extra, flag, value,
        )
        assert code == 1
        out, err = capsys.readouterr()
        assert out == "" and "stftpr: error:" in err


    def test_underflowing_prior_exits_one(self, capsys):
        code = run(
            "bounds", "--n", 8, "--hop", 2, "--num-windows", 3, "--windows", "chain:2",
            "--seed", 1, "--min-magnitude", "1e-300",
        )
        assert code == 1
        out, err = capsys.readouterr()
        assert out == "" and "underflows" in err


class TestOverflow:
    # inputs past the float range end in a typed error and exit 1; the suite
    # makes a numpy RuntimeWarning an error, so a warning on the way fails here
    @pytest.mark.parametrize("command", [
        ["simulate", "--out", "big"], ["analyze"], ["bounds", "--min-magnitude", 0.5],
    ])
    def test_windows_past_the_float_range(self, tmp_path, capsys, monkeypatch, command):
        monkeypatch.chdir(tmp_path)
        cli.write_windows_json("big.json", 1e160 * chain_family(8, 2, 3, np.random.default_rng(1)))
        code = run(command[0], "--n", 8, "--hop", 2, "--windows", "big.json", "--seed", 1,
                   *command[1:])
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert err == "stftpr: error: window power spectra overflow the float range\n"
        assert not (tmp_path / "big").exists()

    @pytest.mark.parametrize("command", [["simulate", "--out", "run"], ["verify"]])
    def test_grid_past_the_float_range(self, tmp_path, capsys, monkeypatch, command):
        monkeypatch.chdir(tmp_path)
        cli.write_signal_json("big.json", np.full(8, 1e160, complex))
        code = run(command[0], "--n", 8, "--hop", 2, "--num-windows", 3, "--windows", "chain:2",
                   "--seed", 1, "--signal", "big.json", *command[1:])
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert err == "stftpr: error: measurement grid contains NaN or infinite values\n"
        assert not (tmp_path / "run").exists()  # simulate measures before it writes


class TestVerify:
    def test_reports_all_pass(self, capsys):
        code = run(
            "verify", "--n", 8, "--hop", 2, "--num-windows", 3,
            "--windows", "chain:2", "--signal", "random", "--seed", 13,
        )
        assert code == 0
        lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert len(lines) >= 5
        assert all(line["pass"] for line in lines)
        cases = {line["case_id"] for line in lines}
        assert "measure" in cases and "magnitudes" in cases

    @pytest.mark.parametrize("seed", [1, 5])
    def test_one_line_per_endpoint_witness(self, capsys, seed):
        # chain:4 windows on n=16, hop 4: the endpoint graph's witnesses, every one checked
        code = run(
            "verify", "--n", 16, "--hop", 4, "--num-windows", 6,
            "--windows", "chain:4", "--signal", "random", "--seed", seed,
        )
        assert code == 0
        lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        rng = np.random.default_rng(seed)
        fam = chain_family(16, 4, 6, rng)
        supp = support(random_signal(16, rng))
        graph = endpoint_graph_from_support(supp, geom_at(fam, 4))
        edges = [line for line in lines if line["case_id"].startswith("edge:")]
        assert graph.offsets[-1] > 0 and len(edges) == graph.offsets[-1]
        assert len(lines) == len(edges) + 6 + 2  # stft per window, measure, magnitudes
        assert all(line["pass"] for line in lines)

    def test_size_cap_exits_one(self, capsys):
        # 6 windows * 64 hops * 256**2 direct terms, about six times the cap
        start = time.perf_counter()
        code = run(
            "verify", "--n", 256, "--hop", 4, "--num-windows", 6,
            "--windows", "chain:4", "--signal", "random", "--seed", 1,
        )
        assert time.perf_counter() - start < 1.0
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"the cap of {DIRECT_TERM_CAP}" in captured.err
        assert "Traceback" not in captured.err


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize("command", ["simulate", "analyze", "recover", "bounds", "verify"])
def test_non_finite_signal_file_exits_one(tmp_path, capsys, command, token):
    # analyze used to certify an empty support, recover and bounds to report
    # the support as empty, and simulate to write two files before failing
    run_dir = _simulate(tmp_path, "run")
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps([[1.0, 0.0], [token, 0.0], *[[1.0, 0.0]] * 6]).replace('"', ""))
    out = tmp_path / "out"
    if command == "recover":
        where = ["--grid", run_dir / "grid.csv", "--windows", run_dir / "windows.json"]
    else:
        where = ["--n", 8, "--hop", 2, "--num-windows", 3, "--windows", "chain:2", "--seed", 42]
    code = run(command, *where, "--signal", bad, "--out", out)
    assert code == 1
    err = capsys.readouterr().err
    assert f"stftpr: error: signal file {bad} has a NaN or infinite entry" in err
    assert not out.exists()


# every float flag of every subcommand, fuzzed on the n=8 chain:2 geometry
_FLOAT_FLAGS = [
    ("simulate", "--noise"), ("simulate", "--zero-tol"), ("simulate", "--rank-tol"),
    ("analyze", "--zero-tol"), ("analyze", "--rank-tol"),
    ("recover", "--zero-tol"), ("recover", "--rank-tol"), ("recover", "--degenerate-tol"),
    ("recover", "--min-magnitude"),
    ("bounds", "--noise"), ("bounds", "--zero-tol"), ("bounds", "--rank-tol"),
    ("bounds", "--min-magnitude"),
    ("verify", "--zero-tol"), ("verify", "--rank-tol"),
]
_SPECIAL = [
    float("nan"), float("inf"), -float("inf"), -1.0, 0.0, 5e-324, 1e-300, 1e308,
    sys.float_info.max,
]


@pytest.fixture(scope="module")
def fuzz_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("fuzz") / "run"
    assert run(
        "simulate", "--n", 8, "--hop", 2, "--num-windows", 3, "--windows", "chain:2",
        "--seed", 42, "--noise", "1e-7", "--out", out,
    ) == 0
    return out


@settings(max_examples=200, deadline=None)
@given(
    case=st.sampled_from(_FLOAT_FLAGS),
    value=st.one_of(st.sampled_from(_SPECIAL), st.floats()),
    noisy=st.booleans(),
)
@example(case=("simulate", "--noise"), value=1e308, noisy=False)
@example(case=("bounds", "--min-magnitude"), value=1e-300, noisy=False)
@example(case=("recover", "--min-magnitude"), value=1e-300, noisy=True)
@example(case=("analyze", "--zero-tol"), value=sys.float_info.max, noisy=False)
def test_float_flags_never_escape_main(fuzz_run, case, value, noisy):
    """Any float on any float flag ends in an exit code 0-4, never an exception."""
    command, flag = case
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        if command == "recover":
            grid = fuzz_run / ("grid_noisy.csv" if noisy else "grid.csv")
            where = ["--grid", grid, "--windows", fuzz_run / "windows.json",
                     "--signal", fuzz_run / "signal.json"]
        else:
            where = ["--n", 8, "--hop", 2, "--num-windows", 3, "--windows", "chain:2",
                     "--signal", "random", "--seed", 42]
            if command == "bounds" and noisy:
                where += ["--noise", "1e-7"]
        # --flag=value, so that -inf is not read as an option; the flag comes
        # last and overrides any default set in ``where``
        code = run(command, *where, "--out", out, f"{flag}={value!r}")
    assert code in range(5)


_GENERATED = ("--n", 8, "--hop", 2, "--num-windows", 3, "--windows", "chain:2", "--seed", 42)


@pytest.mark.parametrize("command, args, want", [
    ("simulate", _GENERATED, 2),
    ("recover", ("--grid", "GRID", "--windows", "WINDOWS", "--signal", "SIGNAL"), 1),
    ("analyze", _GENERATED, 1),
    ("analyze", ("--n", 8, "--hop", 2, "--windows", "WINDOWS", "--signal", "SIGNAL"), 1),
    ("bounds", (*_GENERATED, "--min-magnitude", 0.5), 1),
    ("verify", _GENERATED, 2),
], ids=["simulate", "recover", "analyze", "analyze-file", "bounds", "verify"])
def test_each_command_validates_its_family_once(tmp_path, monkeypatch, command, args, want):
    # the run's geometry validates the family and works out its supports once;
    # simulate and verify add the forward model's own check in measure
    out = _simulate(tmp_path, "run")
    files = {key: out / name for key, name in
             (("GRID", "grid.csv"), ("WINDOWS", "windows.json"), ("SIGNAL", "signal.json"))}
    counts = {}
    for module, name in ((model, "as_window_family"), (supportgraph, "window_support")):
        original = getattr(module, name)

        def counting(*a, _name=name, _fn=original, **kw):
            counts[_name] = counts.get(_name, 0) + 1
            return _fn(*a, **kw)

        for key, mod in list(sys.modules.items()):
            if key.startswith("stftpr") and vars(mod).get(name) is original:
                monkeypatch.setattr(mod, name, counting)
    argv = [files.get(a, a) for a in args]
    assert run(command, *argv, "--out", tmp_path / f"{command}.out") == 0
    assert counts == {"as_window_family": want, "window_support": want}


def test_usage_error_exits_one(capsys):
    with pytest.raises(SystemExit) as err:
        main(["recover"])  # missing required arguments
    assert err.value.code == 1


def test_main_reaches_a_rebound_command(monkeypatch, capsys):
    # the parser is built once per process; a cmd_* rebound after that, as a
    # tracer or a test double does, must still be what main dispatches to
    geometry = ["--n", "8", "--hop", "2", "--num-windows", "3", "--windows", "chain:2",
                "--signal", "random", "--seed", "7"]
    assert main(["analyze", *geometry]) == 0
    capsys.readouterr()
    seen = []
    monkeypatch.setattr(cli, "cmd_analyze", lambda args: seen.append(args.n) or 0)
    assert main(["analyze", *geometry]) == 0
    assert seen == [8]
    assert capsys.readouterr().out == ""


class TestJsonOutput:
    PAYLOADS = [
        {
            "ints": [-7, 2**40, 3],
            "floats": [0.1, 1e300, 5e-324, -0.0, 1.5],
            "10": "ten",
            "2": "two",
            "non_finite": [float("nan"), float("inf"), -float("inf")],
            "strings": ["é ü 日本", 'quote " here', "back\\slash", "ctl \x00\x1f\n\t", ""],
            "empty": [[], {}, [[]], [{}]],
            "nested": [[1, [2, [3, []]]], [[0.5], [True, False, None]]],
            "scalars": [None, True, False],
        },
        [],
        {},
        [[1, 2], [3, 4]],
        1.5,
        "top-level string",
        None,
    ]

    @pytest.mark.parametrize("payload", PAYLOADS, ids=range(len(PAYLOADS)))
    def test_matches_stdlib_encoder(self, payload, capsys):
        _dump_json(payload, None)
        expected = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        assert capsys.readouterr().out == expected

    def test_unknown_type_raises_type_error(self, capsys):
        # reports hold JSON values only: numpy values, complex numbers and
        # tuples are converted where a report is built, so the formatter refuses them
        values = [object(), np.bool_(True), np.int32(-7), np.int64(2**40), np.float64(0.1),
                  np.float32(0.1), np.arange(6).reshape(2, 3), np.array([1 + 2j, -0.5j]),
                  3 - 4j, np.complex128(0.25 + 1e-20j), (1, (2, 3), ())]
        for value in values:
            with pytest.raises(TypeError, match="not JSON serializable"):
                _dump_json({"a": [value]}, None)
            with pytest.raises(TypeError, match="not JSON serializable"):
                _dump_json(value, None)
        for key in (10, 2, (1, 2)):
            with pytest.raises(TypeError):
                _dump_json({key: "value"}, None)
            with pytest.raises(TypeError):
                _dump_json({"a": 1, key: "value"}, None)

    def test_written_files_follow_the_format(self, tmp_path):
        # reports and grid metadata: two-space indent, sorted keys;
        # signal and window files: compact; verify: compact sorted JSON lines
        sim = _simulate(tmp_path, "sim", "--noise", "0.001")
        geometry = ["--n", 8, "--hop", 2, "--num-windows", 3, "--windows", "chain:2",
                    "--signal", "random", "--seed", 7]
        assert run("analyze", *geometry, "--out", tmp_path / "analyze.json") == 0
        assert run("bounds", *geometry, "--noise", 1e-4, "--out", tmp_path / "bounds.json") == 0
        for grid, name in (("grid.csv", "recover.json"), ("grid_noisy.csv", "noisy.json")):
            assert run(
                "recover", "--grid", sim / grid, "--windows", sim / "windows.json",
                "--signal", sim / "signal.json", "--out", tmp_path / name,
            ) == 0
        assert run("verify", *geometry, "--out", tmp_path / "verify.jsonl") == 0
        indented = [sim / "report.json", sim / "grid.meta.json", sim / "grid_noisy.meta.json",
                    *(tmp_path / f for f in ("analyze.json", "bounds.json", "recover.json",
                                             "noisy.json"))]
        for path in indented:
            text = path.read_text()
            assert json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n" == text, path
        for path in (sim / "signal.json", sim / "windows.json"):
            text = path.read_text()
            assert json.dumps(json.loads(text)) + "\n" == text, path
        lines = (tmp_path / "verify.jsonl").read_text().splitlines(keepends=True)
        assert len(lines) >= 5
        for line in lines:
            assert json.dumps(json.loads(line), sort_keys=True) + "\n" == line
        for path in (sim / "grid.csv", sim / "grid_noisy.csv"):
            raw = path.read_bytes()
            assert raw.startswith(b"r,m,k,value\r\n") and raw.endswith(b"\r\n")
            assert b"\n" not in raw.replace(b"\r\n", b"")


class TestStreamedCertificate:
    """``analyze`` certificates built in chunks of ``supportgraph._WITNESS_CHUNK`` candidates.

    ``slice=k`` sets the chunk to ``32*k``: at seed 5 of the certify geometry
    the endpoint build's 32 taps then take k hops per chunk, the last chunk
    short at k = 3, and the covisibility build's 122 taps one hop per chunk.
    The default builds each graph in one chunk.
    """

    SLICES = [1, 2, 3, None]  # None keeps the default
    DEFAULT_CHUNK = supportgraph._WITNESS_CHUNK

    @pytest.fixture(params=SLICES, ids=lambda k: f"slice={k or 'default'}")
    def witness_slice(self, request, monkeypatch):
        if request.param is not None:
            monkeypatch.setattr(supportgraph, "_WITNESS_CHUNK", 32 * request.param)
        return request.param

    @pytest.mark.parametrize("out", ["file", "-"])
    def test_analyze_matches_stdlib_dump(self, witness_slice, out, tmp_path, capsys):
        # both graph variants of the certify geometry, to a file and to stdout;
        # the reference is built in one chunk whatever the slice
        path = tmp_path / "certificate.json" if out == "file" else "-"
        assert run(*_certify_geometry(5), "--out", path) == 0
        written = path.read_text() if out == "file" else capsys.readouterr().out
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(supportgraph, "_WITNESS_CHUNK", self.DEFAULT_CHUNK)
            assert written == _certify_certificate(5)

    def test_unserialisable_value_leaves_no_file(self, tmp_path):
        # the whole payload is formatted before the file is opened
        out = tmp_path / "report.json"
        with pytest.raises(TypeError, match="not JSON serializable"):
            _dump_json({"a": list(range(10)), "z": object()}, str(out))
        assert not out.exists()
