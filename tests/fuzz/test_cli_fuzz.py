"""`trued fuzz` end to end: exit codes, deterministic verdicts across
jobs, replay/shrink of filed repros, and the corpus table."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

PY = [sys.executable, "-m", "repro"]
REPO_ROOT = Path(__file__).resolve().parents[2]


def run_cli(*args, cwd=None):
    return subprocess.run(
        PY + list(args),
        capture_output=True,
        text=True,
        env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
        cwd=cwd or REPO_ROOT,
    )


class TestFuzzRun:
    def test_clean_sweep_exits_zero(self, tmp_path):
        result = run_cli(
            "fuzz", "run", "--seed", "42", "--count", "3",
            "-o", str(tmp_path),
        )
        assert result.returncode == 0, result.stderr
        assert "PASS" in result.stdout
        assert "FAIL" not in result.stdout
        verdicts = (tmp_path / "verdicts.txt").read_text()
        assert verdicts.count("\n") == 3 * 4  # scenarios x oracles

    def test_verdicts_identical_across_jobs(self, tmp_path):
        a = run_cli(
            "fuzz", "run", "--seed", "11", "--count", "4",
            "--jobs", "1", "-o", str(tmp_path / "serial"),
        )
        b = run_cli(
            "fuzz", "run", "--seed", "11", "--count", "4",
            "--jobs", "4", "-o", str(tmp_path / "sharded"),
        )
        assert a.returncode == 0 and b.returncode == 0
        assert (tmp_path / "serial" / "verdicts.txt").read_bytes() == (
            tmp_path / "sharded" / "verdicts.txt"
        ).read_bytes()

    def test_planted_divergence_exits_one_and_files_repro(self, tmp_path):
        result = run_cli(
            "fuzz", "run", "--seed", "42", "--count", "6",
            "--oracles", "incremental", "--plant", "xor",
            "-o", str(tmp_path), "--shrink-budget", "120",
        )
        assert result.returncode == 1
        repros = list(tmp_path.glob("*.repro.json"))
        assert repros
        envelope = json.loads(repros[0].read_text())
        assert envelope["format"] == "trued-fuzz-repro"

    def test_oracle_selection_validated(self, tmp_path):
        result = run_cli(
            "fuzz", "run", "--seed", "1", "--count", "1",
            "--oracles", "tarot", "-o", str(tmp_path),
        )
        assert result.returncode == 2


class TestFuzzReplayAndShrink:
    @pytest.fixture()
    def repro_path(self, tmp_path):
        run_cli(
            "fuzz", "run", "--seed", "42", "--count", "6",
            "--oracles", "incremental", "--plant", "xor",
            "-o", str(tmp_path), "--no-shrink",
        )
        paths = sorted(tmp_path.glob("*.repro.json"))
        assert paths
        return paths[0]

    def test_replay_reproduces(self, repro_path):
        result = run_cli("fuzz", "replay", str(repro_path))
        assert result.returncode == 0, result.stdout + result.stderr
        assert "FAIL" in result.stdout

    def test_shrink_reduces_envelope(self, repro_path, tmp_path):
        out = tmp_path / "min.repro.json"
        result = run_cli(
            "fuzz", "shrink", str(repro_path), "-o", str(out),
            "--budget", "120",
        )
        assert result.returncode == 0, result.stdout + result.stderr
        envelope = json.loads(out.read_text())
        assert envelope["shrink"]["evaluations"] > 0
        replay = run_cli("fuzz", "replay", str(out))
        assert replay.returncode == 0

    def test_replay_of_missing_file_is_an_error(self):
        result = run_cli("fuzz", "replay", "/nonexistent.repro.json")
        assert result.returncode == 2


class TestFuzzCorpus:
    def test_generated_corpus_table(self):
        result = run_cli(
            "fuzz", "corpus", "--seed", "7", "--count", "3"
        )
        assert result.returncode == 0
        assert "fzs7x0" in result.stdout
        assert "gates" in result.stdout

    def test_registry_table_lists_known_circuits(self):
        result = run_cli("fuzz", "corpus", "--registry")
        assert result.returncode == 0
        assert "c17" in result.stdout
        assert "fig1" in result.stdout

    @staticmethod
    def netlist_rows(result):
        return [
            line.split() for line in result.stdout.splitlines()
            if " netlist " in line
        ]

    def test_netlists_list_each_file_by_stem(self, tmp_path):
        from repro.circuits import build_circuit
        from repro.network import dump_bench, dump_blif

        dump_bench(build_circuit("c17"), str(tmp_path / "a.bench"))
        dump_blif(build_circuit("fig1"), str(tmp_path / "b.blif"))
        result = run_cli(
            "fuzz", "corpus", "--count", "0", "--netlists", str(tmp_path)
        )
        assert result.returncode == 0
        assert self.netlist_rows(result) == [
            ["a", "netlist", "5", "2", "6", "12", "3"],
            ["b", "netlist", "4", "1", "11", "17", "3"],
        ]

    def test_netlists_with_one_stem_keep_their_own_stats(self, tmp_path):
        from repro.circuits import build_circuit
        from repro.network import dump_bench, dump_blif

        dump_bench(build_circuit("c17"), str(tmp_path / "x.bench"))
        dump_blif(build_circuit("fig1"), str(tmp_path / "x.blif"))
        result = run_cli(
            "fuzz", "corpus", "--count", "0", "--netlists", str(tmp_path)
        )
        assert result.returncode == 0
        assert self.netlist_rows(result) == [
            ["x", "netlist", "5", "2", "6", "12", "3"],
            ["x", "netlist", "4", "1", "11", "17", "3"],
        ]
