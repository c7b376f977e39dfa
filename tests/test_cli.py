import pytest

from repro.cli import load_circuit, main
from repro.network import dumps_verilog

from tests.helpers import C17_BENCH, c17


@pytest.fixture
def bench_file(tmp_path):
    path = tmp_path / "c17.bench"
    path.write_text(C17_BENCH)
    return str(path)


@pytest.fixture
def verilog_file(tmp_path):
    path = tmp_path / "c17.v"
    path.write_text(dumps_verilog(c17()))
    return str(path)


class TestLoader:
    def test_by_extension(self, bench_file, verilog_file):
        assert load_circuit(bench_file).num_gates == 6
        assert load_circuit(verilog_file).num_gates == 6

    def test_unknown_extension(self, tmp_path):
        path = tmp_path / "c17.xyz"
        path.write_text("x")
        with pytest.raises(ValueError):
            load_circuit(str(path))


class TestCommands:
    def test_stats(self, bench_file, capsys):
        assert main(["stats", bench_file]) == 0
        out = capsys.readouterr().out
        assert "inputs" in out and "5" in out

    def test_report(self, bench_file, capsys):
        assert main(["report", bench_file, "--paths", "2"]) == 0
        out = capsys.readouterr().out
        assert "path #1" in out and "path #2" in out

    def test_delays(self, bench_file, capsys):
        assert main(["delays", bench_file, "--bounded"]) == 0
        out = capsys.readouterr().out
        assert "topological delay (l.d.): 3" in out
        assert "floating delay = 3" in out
        assert "transition delay = 3" in out
        assert "bounded-transition delay = 3" in out
        assert "Theorem 3.1" in out

    def test_vectors_to_file(self, bench_file, tmp_path, capsys):
        out_file = tmp_path / "vectors.txt"
        assert main(["vectors", bench_file, "-o", str(out_file)]) == 0
        text = out_file.read_text()
        assert "G22" in text and "G23" in text

    @pytest.mark.parametrize("flag", ["--jobs", "--timeout", "--retries"])
    def test_vectors_does_not_shard(self, bench_file, flag, capsys):
        with pytest.raises(SystemExit):
            main(["vectors", bench_file, flag, "2"])
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_certify(self, bench_file, verilog_file, capsys):
        code = main(["certify", bench_file, "--accurate", verilog_file])
        out = capsys.readouterr().out
        assert code == 0
        assert "CERTIFIED" in out

    def test_faults(self, bench_file, capsys):
        assert main(["faults", bench_file, "-k", "3"]) == 0
        out = capsys.readouterr().out
        assert "two-pattern test" in out

    def test_simulate_with_vcd(self, bench_file, tmp_path, capsys):
        vcd_file = tmp_path / "run.vcd"
        code = main(
            [
                "simulate",
                bench_file,
                "--prev", "00000",
                "--next", "11111",
                "--vcd", str(vcd_file),
            ]
        )
        assert code == 0
        assert "$enddefinitions" in vcd_file.read_text()

    def test_simulate_bad_vector_width(self, bench_file, capsys):
        code = main(
            ["simulate", bench_file, "--prev", "00", "--next", "11"]
        )
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_simulate_rejects_a_bit_other_than_0_or_1(
        self, bench_file, capsys
    ):
        code = main(
            ["simulate", bench_file, "--prev", "0000z", "--next", "11111"]
        )
        assert code == 2
        assert capsys.readouterr().err == (
            "error: vector '0000z' has bit 'z'; bits are 0 or 1\n"
        )

    def test_show_unknown_cone_is_an_error(self, bench_file, capsys):
        assert main(["show", bench_file, "--cone", "NOPE"]) == 2
        assert capsys.readouterr().err == (
            f"error: no signal 'NOPE' in {bench_file}\n"
        )

    def test_convert_roundtrip(self, bench_file, tmp_path, capsys):
        out_file = tmp_path / "c17.blif"
        assert main(["convert", bench_file, "-o", str(out_file)]) == 0
        from repro.network import load_blif

        circuit = load_blif(str(out_file))
        vec = {n: True for n in circuit.inputs}
        assert circuit.evaluate_outputs(vec) == c17().evaluate_outputs(vec)

    def test_convert_refused_netlist_writes_no_file(self, tmp_path, capsys):
        path = tmp_path / "k.bench"
        path.write_text("INPUT(a)\nOUTPUT(f)\nk = CONST1()\nf = AND(a, k)\n")
        out_file = tmp_path / "k.v"
        assert main(["convert", str(path), "-o", str(out_file)]) == 2
        assert "without a Verilog primitive" in capsys.readouterr().err
        assert not out_file.exists()

    def test_convert_unrepresentable_model_name_writes_no_file(
        self, tmp_path, capsys
    ):
        # A BENCH circuit is named by its path; a blank in it would read
        # back from BLIF as a shorter model name.
        directory = tmp_path / "my dir"
        directory.mkdir()
        path = directory / "c17.bench"
        path.write_text(C17_BENCH)
        out_file = tmp_path / "c17.blif"
        assert main(["convert", str(path), "-o", str(out_file)]) == 2
        assert capsys.readouterr().err == (
            f"error: cannot emit BLIF: model name {str(path)!r} is not "
            "representable\n"
        )
        assert not out_file.exists()

    def test_convert_bench_to_verilog_reads_back(
        self, bench_file, tmp_path, capsys
    ):
        out_file = str(tmp_path / "c17.v")
        assert main(["stats", bench_file]) == 0
        bench_row = capsys.readouterr().out.splitlines()[-1]
        assert main(["convert", bench_file, "-o", out_file]) == 0
        capsys.readouterr()
        assert main(["stats", out_file]) == 0
        # The module keeps the BENCH circuit's name, its path.
        assert capsys.readouterr().out.splitlines()[-1] == bench_row

    def test_missing_file(self, capsys):
        assert main(["stats", "/nonexistent/file.bench"]) == 2

    def test_engine_flag(self, bench_file, capsys):
        assert main(["delays", bench_file, "--engine", "sat"]) == 0

    def test_lint_clean(self, bench_file, capsys):
        assert main(["lint", bench_file]) == 0
        assert "clean" in capsys.readouterr().out

    def test_lint_warnings_exit_one(self, tmp_path, capsys):
        path = tmp_path / "w.bench"
        path.write_text(
            "INPUT(a)\nINPUT(unused)\nOUTPUT(f)\nf = NOT(a)\n"
        )
        assert main(["lint", str(path)]) == 1
        assert "unused-input" in capsys.readouterr().out

    def test_estimate(self, bench_file, capsys):
        assert main(["estimate", bench_file, "--pairs", "16",
                     "--climbs", "2"]) == 0
        out = capsys.readouterr().out
        assert "lower bound" in out and "upper bound" in out


class TestTracingAndFaultTolerance:
    def test_trace_flag_exports_a_span_tree(
        self, bench_file, tmp_path, capsys
    ):
        import json

        trace_file = tmp_path / "trace.json"
        assert main(
            ["delays", bench_file, "--trace", str(trace_file)]
        ) == 0
        data = json.loads(trace_file.read_text())
        assert data["name"] == "session"
        assert data["children"], "root span has no phases"
        assert data["elapsed_ms"] >= max(
            child["elapsed_ms"] for child in data["children"]
        )

    def test_metrics_flag_renders_the_trace_tree(self, bench_file, capsys):
        assert main(["delays", bench_file, "--metrics"]) == 0
        err = capsys.readouterr().err
        assert "execution trace" in err

    def test_each_invocation_starts_fresh_totals_and_tree(
        self, bench_file, capsys
    ):
        """Two in-process invocations: the second one's totals and tree
        both count only its own work."""
        import re

        argv = ["delays", bench_file, "--metrics", "--no-cache"]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv) == 0
        err = capsys.readouterr().err
        totals = re.findall(r"^\s+floating\.checks\s+(\d+)$", err, re.M)
        tree = re.findall(r"\. floating\.checks = (\d+)$", err, re.M)
        assert totals == ["1"]
        assert tree == ["1"]

    def test_faults_jobs4_with_injected_crash_match_jobs1(
        self, bench_file, capsys, monkeypatch
    ):
        """Acceptance: a killed worker degrades throughput, not results —
        the jobs=4 output is byte-identical to the jobs=1 one."""
        assert main(["faults", bench_file, "-k", "3", "--jobs", "1"]) == 0
        serial = capsys.readouterr().out
        monkeypatch.setenv("REPRO_FAULT_INJECT", "crash:1")
        assert main(
            ["faults", bench_file, "-k", "3", "--jobs", "4"]
        ) == 0
        assert capsys.readouterr().out == serial

    def test_faults_jobs4_with_hung_worker_match_jobs1(
        self, bench_file, capsys, monkeypatch
    ):
        assert main(["faults", bench_file, "-k", "3", "--jobs", "1"]) == 0
        serial = capsys.readouterr().out
        monkeypatch.setenv("REPRO_FAULT_INJECT", "hang:0")
        monkeypatch.setenv("REPRO_FAULT_HANG_SECONDS", "10")
        assert main(
            ["faults", bench_file, "-k", "3", "--jobs", "4", "--timeout", "5"]
        ) == 0
        assert capsys.readouterr().out == serial

