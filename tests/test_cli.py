"""End-to-end tests for the command-line interface."""

import numpy as np
import pytest

from repro.cli import main


class TestGenerate:
    def test_roads_npy(self, tmp_path, capsys):
        out = tmp_path / "roads.npy"
        assert main(["generate", "roads", "--n", "500", "--out", str(out)]) == 0
        data = np.load(out)
        assert data.shape == (500, 2)
        assert "wrote 500" in capsys.readouterr().out

    def test_landsat_csv(self, tmp_path):
        out = tmp_path / "landsat.csv"
        main(["generate", "landsat", "--n", "100", "--out", str(out)])
        data = np.loadtxt(out, delimiter=",")
        assert data.shape == (100, 60)

    def test_dna_txt(self, tmp_path):
        out = tmp_path / "dna.txt"
        main(["generate", "dna", "--n", "5000", "--out", str(out)])
        text = out.read_text()
        assert len(text) == 5000
        assert set(text) <= set("ACGT")

    def test_walks(self, tmp_path):
        out = tmp_path / "w.txt"
        main(["generate", "walks", "--n", "640", "--out", str(out)])
        assert np.loadtxt(out).shape == (640,)


class TestJoin:
    def test_point_join_with_pairs_csv(self, tmp_path, capsys):
        left = tmp_path / "l.npy"
        right = tmp_path / "r.npy"
        rng = np.random.default_rng(0)
        np.save(left, rng.random((300, 2)))
        np.save(right, rng.random((200, 2)))
        pairs_out = tmp_path / "pairs.csv"
        code = main([
            "join", "points", str(left), str(right),
            "--epsilon", "0.05", "--buffer", "10",
            "--page-capacity", "16", "--pairs-out", str(pairs_out),
        ])
        assert code == 0
        output = capsys.readouterr().out
        assert "pairs within epsilon" in output
        lines = pairs_out.read_text().splitlines()
        assert lines[0] == "left_id,right_id"
        assert len(lines) > 1

    def test_point_self_join(self, tmp_path, capsys):
        left = tmp_path / "l.npy"
        np.save(left, np.random.default_rng(1).random((200, 2)))
        assert main([
            "join", "points", str(left),
            "--epsilon", "0.05", "--buffer", "8", "--page-capacity", "16",
        ]) == 0

    def test_dna_join(self, tmp_path, capsys):
        from repro.datasets import markov_dna

        a = tmp_path / "a.txt"
        a.write_text(markov_dna(1200, seed=1))
        assert main([
            "join", "sequence", str(a),
            "--epsilon", "1", "--window", "10",
            "--windows-per-page", "32", "--buffer", "10",
        ]) == 0
        assert "pairs within" in capsys.readouterr().out

    def test_numeric_sequence_join(self, tmp_path):
        seq = tmp_path / "s.txt"
        np.savetxt(seq, np.random.default_rng(2).normal(size=300).cumsum())
        assert main([
            "join", "sequence", str(seq),
            "--epsilon", "0.3", "--window", "8",
            "--windows-per-page", "16", "--buffer", "8",
        ]) == 0

    def test_csv_points_input(self, tmp_path):
        left = tmp_path / "l.csv"
        np.savetxt(left, np.random.default_rng(3).random((100, 2)), delimiter=",")
        assert main([
            "join", "points", str(left),
            "--epsilon", "0.1", "--buffer", "8", "--page-capacity", "16",
        ]) == 0

    def test_method_selection(self, tmp_path, capsys):
        left = tmp_path / "l.npy"
        np.save(left, np.random.default_rng(4).random((100, 2)))
        main([
            "join", "points", str(left),
            "--epsilon", "0.05", "--method", "nlj", "--buffer", "8",
            "--page-capacity", "16",
        ])
        assert "nlj" in capsys.readouterr().out


class TestTraceOut:
    def test_jsonl_trace(self, tmp_path, capsys):
        from repro.obs import read_trace_jsonl

        left = tmp_path / "l.npy"
        np.save(left, np.random.default_rng(5).random((200, 2)))
        trace_out = tmp_path / "trace.jsonl"
        assert main([
            "join", "points", str(left),
            "--epsilon", "0.05", "--buffer", "8", "--page-capacity", "16",
            "--trace-out", str(trace_out),
        ]) == 0
        output = capsys.readouterr().out
        assert "trace summary" in output
        assert f"trace (jsonl) written to {trace_out}" in output
        data = read_trace_jsonl(trace_out)
        names = {s["name"] for s in data["spans"]}
        assert {"join.matrix", "join.execution"} <= names
        assert data["metrics"]["counters"]["disk.reads"] > 0

    def test_chrome_trace(self, tmp_path, capsys):
        import json

        left = tmp_path / "l.npy"
        np.save(left, np.random.default_rng(6).random((200, 2)))
        trace_out = tmp_path / "trace.json"
        assert main([
            "join", "points", str(left),
            "--epsilon", "0.05", "--buffer", "8", "--page-capacity", "16",
            "--trace-out", str(trace_out), "--trace-format", "chrome",
        ]) == 0
        trace = json.loads(trace_out.read_text())
        assert trace["traceEvents"]
        assert all(ev["ph"] in ("X", "i") for ev in trace["traceEvents"])


class TestRejectedInputs:
    """Inputs the library rejects print ``error: ...`` and exit 2."""

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--epsilon", "-1"], "epsilon"),
            (["--epsilon", "nan"], "epsilon"),
            (["--epsilon", "0.05", "--buffer", "1"], "buffer"),
            (
                ["--epsilon", "0.05", "--prefilter", "approximate",
                 "--recall-target", "1.5"],
                "recall_target",
            ),
        ],
    )
    def test_error_without_traceback(self, tmp_path, capsys, flags, message):
        left = tmp_path / "l.npy"
        np.save(left, np.random.default_rng(9).random((200, 2)))
        code = main(["join", "points", str(left), "--page-capacity", "16", *flags])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert message in err


class TestVersion:
    def test_version_flag_matches_package(self, capsys):
        import repro

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert capsys.readouterr().out.strip() == f"repro {repro.__version__}"

    def test_version_resolves_from_pyproject(self):
        import re
        from pathlib import Path

        import repro

        pyproject = Path(repro.__file__).resolve().parent.parent.parent / "pyproject.toml"
        declared = re.search(
            r'^version\s*=\s*"([^"]+)"', pyproject.read_text(), re.MULTILINE
        ).group(1)
        assert repro.__version__ == declared
