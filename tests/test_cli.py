import json
import sys

import numpy as np
import pytest

from stftpr import cli, spectral
from stftpr.cli import _dump_json, main
from stftpr.generators import chain_family, random_signal
from stftpr.spectral import certify_rank
from stftpr.supportgraph import (
    build_covisibility_graph,
    build_endpoint_graph,
    is_connected,
    long_windows,
    window_support,
)


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

    def test_random_without_seed_fails(self, tmp_path, capsys):
        code = run(
            "simulate", "--n", 8, "--hop", 1, "--num-windows", 1,
            "--windows", "random-support:3", "--signal", "random",
            "--out", tmp_path / "x",
        )
        assert code == 1
        assert "--seed" in capsys.readouterr().err

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

    def test_compressed_matches(self, tmp_path):
        out = _simulate(tmp_path, "comp")
        full_path = tmp_path / "full.json"
        comp_path = tmp_path / "comp.json"
        base = ["--grid", out / "grid.csv", "--windows", out / "windows.json"]
        assert run("recover", *base, "--out", full_path) == 0
        assert run("recover", *base, "--compressed", "--out", comp_path) == 0
        _, full = _read_estimate(full_path)
        comp_rep, comp = _read_estimate(comp_path)
        assert np.max(np.abs(full - comp)) <= 1e-10
        assert comp_rep["diagnostics"]["compressed_count"] == 2 * 8 * 3 // 2

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
        assert "non-retrievable" in capsys.readouterr().err

    def test_certification_failure_exit_code(self, tmp_path, capsys):
        out = tmp_path / "dup"
        assert run(
            "simulate", "--n", 8, "--hop", 2, "--num-windows", 2,
            "--windows", "rectangular:3", "--signal", "ones", "--out", out,
        ) == 0  # two identical windows: planted rank deficiency
        code = run("recover", "--grid", out / "grid.csv", "--windows", out / "windows.json")
        assert code == 3
        assert "certification" in capsys.readouterr().err

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


@pytest.mark.parametrize("command", ["simulate", "analyze"])
def test_zero_windows_exits_one(tmp_path, capsys, command):
    code = run(
        command, "--n", 8, "--hop", 2, "--num-windows", 0, "--windows", "chain:2",
        "--seed", 1, "--out", tmp_path / "zero",
    )
    assert code == 1
    assert "--num-windows must be at least 1, got 0" in capsys.readouterr().err


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
    assert f"stftpr: error: hop {spec[6:]} does not divide 8" in err
    assert "Traceback" not in err


class TestAnalyze:
    def test_non_retrievable_verdict(self, tmp_path, capsys):
        code = run(
            "analyze", "--n", 8, "--hop", 1, "--num-windows", 1,
            "--windows", "random-support:4", "--signal", "antipodal-pair", "--seed", 3,
        )
        assert code == 0
        verdict = json.loads(capsys.readouterr().out)
        assert verdict["verdict"] == "provably-non-retrievable"
        assert verdict["covisibility"]["connected"] is False

    def test_retrievable_verdict(self, tmp_path, capsys):
        code = run(
            "analyze", "--n", 8, "--hop", 1, "--num-windows", 1,
            "--windows", "random-support:4", "--signal", "ones", "--seed", 3,
        )
        assert code == 0
        verdict = json.loads(capsys.readouterr().out)
        assert verdict["verdict"] == "provably-retrievable"
        assert verdict["short_windows"] is True
        assert verdict["certification"]["certified"] is True

    def test_indeterminate_gap(self, tmp_path, capsys):
        # covisibility connected, endpoint graph split (offset 2 on n=6)
        code = run(
            "analyze", "--n", 6, "--hop", 1, "--num-windows", 1,
            "--windows", "random-support:3", "--signal", "ones", "--seed", 11,
        )
        assert code == 0
        verdict = json.loads(capsys.readouterr().out)
        assert verdict["covisibility"]["connected"] is True
        assert verdict["endpoint"]["connected"] is False
        assert verdict["verdict"] == "indeterminate"

    @pytest.mark.parametrize("seed", [0, 1, 17, 4242])
    def test_certificate_matches_stdlib_dump_of_to_dict(self, tmp_path, seed):
        # the certify geometry; the graphs are written from their arrays, the
        # reference payload is built from to_dict() and dumped by the stdlib
        out = tmp_path / "certificate.json"
        assert run("analyze", "--n", 40, "--hop", 4, "--num-windows", 16,
                   "--windows", "chain:4", "--signal", "random", "--seed", seed,
                   "--out", out) == 0
        rng = np.random.default_rng(seed)
        fam = chain_family(40, 4, 16, rng)
        x = random_signal(40, rng)
        cov, end = build_covisibility_graph(x, fam, 4), build_endpoint_graph(x, fam, 4)
        mats = certify_rank(fam, 4)
        short = not long_windows([window_support(w) for w in fam], 40)
        assert is_connected(cov) and is_connected(end) and short and mats.certified
        payload = {
            "covisibility": cov.to_dict(),
            "endpoint": end.to_dict(),
            "short_windows": short,
            "certification": mats.report(),
            "verdict": "provably-retrievable",
        }
        assert out.read_text() == json.dumps(payload, indent=2, sort_keys=True) + "\n"


class TestBounds:
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

    def test_certification_failure(self, tmp_path, capsys):
        code = run(
            "bounds", "--n", 8, "--hop", 1, "--num-windows", 1,
            "--windows", "rectangular:4", "--min-magnitude", 1.0,
        )
        assert code == 3

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


def _stdlib_jsonify(obj):
    # converts numpy values, complex numbers and tuples for json.dumps
    if isinstance(obj, dict):
        return {str(k): _stdlib_jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_stdlib_jsonify(v) for v in obj]
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, (complex, np.complexfloating)):
        return [float(obj.real), float(obj.imag)]
    if isinstance(obj, np.ndarray):
        return _stdlib_jsonify(obj.tolist())
    return obj


class TestJsonOutput:
    PAYLOADS = [
        {
            "ints": [np.int32(-7), np.int64(2**40), 3],
            "floats": [np.float64(0.1), 1e300, 5e-324, -0.0, np.float32(0.1)],
            "array": np.arange(6).reshape(2, 3),
            "complex_array": np.array([1 + 2j, -0.5j]),
            "complex": [3 - 4j, np.complex128(0.25 + 1e-20j)],
            "tuple": (1, (2, 3), ()),
            10: "ten",
            2: "two",
            (1, 2): "tuple key",
            "non_finite": [float("nan"), float("inf"), -float("inf"), np.float64("nan")],
            "strings": ["é ü 日本", 'quote " here', "back\\slash", "ctl \x00\x1f\n\t", ""],
            "empty": [[], {}, [[]], [{}]],
            "nested": [[1, [2, [3, []]]], [[0.5], [True, False, None]]],
            "scalars": [None, True, False],
        },
        [],
        {},
        [[1, 2], [3, 4]],
        np.float64(1.5),
        "top-level string",
        None,
    ]

    @pytest.mark.parametrize("payload", PAYLOADS, ids=range(len(PAYLOADS)))
    def test_matches_stdlib_encoder(self, payload, capsys):
        _dump_json(payload, None)
        expected = json.dumps(_stdlib_jsonify(payload), indent=2, sort_keys=True) + "\n"
        assert capsys.readouterr().out == expected

    def test_unknown_type_raises_type_error(self, capsys):
        with pytest.raises(TypeError, match="not JSON serializable"):
            _dump_json({"a": [object()]}, None)
        with pytest.raises(TypeError, match="not JSON serializable"):
            _dump_json({"flag": np.bool_(True)}, None)

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
        assert run("recover", "--grid", sim / "grid.csv", "--windows", sim / "windows.json",
                   "--compressed", "--out", tmp_path / "compressed.json") == 0
        assert run("verify", *geometry, "--out", tmp_path / "verify.jsonl") == 0
        indented = [sim / "report.json", sim / "grid.meta.json", sim / "grid_noisy.meta.json",
                    *(tmp_path / f for f in ("analyze.json", "bounds.json", "recover.json",
                                             "noisy.json", "compressed.json"))]
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
