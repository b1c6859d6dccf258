"""Command-line interface: generation, running, oracle, bench, accept."""

import io
import json
from contextlib import redirect_stdout

import pytest

from streamkmatch import read_stream
from streamkmatch.cli import build_parser, main


def run_cli(*argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


class TestGen:
    def test_random_to_file(self, tmp_path):
        path = str(tmp_path / "s.txt")
        code, out = run_cli(
            "gen", "--family", "random", "--n", "20", "--k", "2",
            "--edges", "30", "--seed", "5", "-o", path,
        )
        assert code == 0 and out == ""
        stream = read_stream(path)
        assert stream.n == 20 and stream.k == 2 and len(stream.elements) == 30

    def test_random_to_stdout(self):
        code, out = run_cli("gen", "--n", "10", "--edges", "5", "--seed", "1")
        assert code == 0
        assert out.splitlines()[0] == "10 2 ins"
        assert len(out.splitlines()) == 6

    def test_deterministic(self):
        _, a = run_cli("gen", "--n", "10", "--edges", "5", "--seed", "1")
        _, b = run_cli("gen", "--n", "10", "--edges", "5", "--seed", "1")
        assert a == b

    def test_index_hard(self, tmp_path):
        path = str(tmp_path / "ih.txt")
        code, _ = run_cli(
            "gen", "--family", "index-hard", "--m", "4", "--x", "1010",
            "--z", "2", "-o", path,
        )
        assert code == 0
        stream = read_stream(path)
        assert stream.k == 4  # 2 * ceil(sqrt(4))

    def test_partial_max(self, tmp_path):
        path = str(tmp_path / "pm.txt")
        code, _ = run_cli(
            "gen", "--family", "partial-max", "--values", "3,9,7",
            "--deleted", "2", "-o", path,
        )
        assert code == 0
        stream = read_stream(path)
        assert stream.mode == "dyn" and stream.k == 1

    def test_invalid_parameters_exit_2(self):
        code, _ = run_cli("gen", "--n", "5", "--edges", "100", "--seed", "1")
        assert code == 2


class TestRun:
    @pytest.fixture()
    def ins_stream(self, tmp_path):
        path = str(tmp_path / "ins.txt")
        run_cli("gen", "--n", "30", "--k", "2", "--edges", "60",
                "--seed", "9", "-o", path)
        return path

    @pytest.fixture()
    def dyn_stream(self, tmp_path):
        path = str(tmp_path / "dyn.txt")
        run_cli("gen", "--n", "30", "--k", "2", "--edges", "60",
                "--deletes", "20", "--mode", "dyn", "--seed", "9", "-o", path)
        return path

    def test_run_ins_text(self, ins_stream):
        code, out = run_cli("run-ins", ins_stream, "--seed", "3")
        assert code == 0
        lines = out.splitlines()
        weight_line = [ln for ln in lines if ln.startswith("weight ")]
        assert len(weight_line) == 1
        assert any(ln.startswith("# micro_step_budget") for ln in lines)

    def test_run_ins_json_matches_oracle(self, ins_stream):
        code, out = run_cli("run-ins", ins_stream, "--seed", "3",
                            "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["found"] is True
        assert payload["stats"]["micro_step_max"] <= payload["stats"]["micro_step_budget"]
        code, oout = run_cli("oracle", ins_stream, "--format", "json")
        assert code == 0
        oracle = json.loads(oout)
        assert payload["weight"] <= oracle["weight"]

    def test_run_ins_rejects_dyn_stream(self, dyn_stream):
        code, _ = run_cli("run-ins", dyn_stream)
        assert code == 2

    def test_run_dyn(self, dyn_stream):
        code, out = run_cli("run-dyn", dyn_stream, "--seed", "4",
                            "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["stats"]["updates"] == 80

    def test_run_dyn_approx(self, dyn_stream):
        code, out = run_cli("run-dyn", dyn_stream, "--seed", "4",
                            "--epsilon", "0.25", "--format", "json")
        assert code == 0
        assert json.loads(out)["stats"]["distinct_weight_keys"] <= 43

    def test_run_dyn_rejects_out_of_range_vertex(self, tmp_path):
        # (0, 9) under n=6 would alias a different, never-inserted pair
        path = tmp_path / "bad.txt"
        path.write_text("6 1 dyn\n+ 0 9 5\n")
        code, out = run_cli("run-dyn", str(path))
        assert code == 2 and out == ""

    def test_run_dyn_rejects_ins_stream(self, ins_stream):
        code, _ = run_cli("run-dyn", ins_stream)
        assert code == 2

    def test_oracle_text(self, dyn_stream):
        code, out = run_cli("oracle", dyn_stream)
        assert code == 0
        assert any(ln.startswith("weight ") for ln in out.splitlines())

    def test_missing_file_exit_2(self):
        code, _ = run_cli("run-ins", "/nonexistent/stream.txt")
        assert code == 2


class TestBench:
    def test_insert_bench_small(self):
        code, out = run_cli(
            "bench", "--mode", "ins", "--n", "20", "--k", "2", "--edges", "40",
            "--trials", "2", "--seed", "1", "--format", "json",
        )
        assert code == 0
        report = json.loads(out)
        assert report["within_budget"] is True
        assert report["within_space_bound"] is True
        assert report["oracle_trials"] == 2

    def test_dynamic_bench_small(self):
        code, out = run_cli(
            "bench", "--mode", "dyn", "--n", "20", "--k", "2", "--edges", "40",
            "--deletes", "10", "--trials", "2", "--seed", "1",
            "--format", "json",
        )
        assert code == 0
        report = json.loads(out)
        assert report["updates_per_trial"] == 50
        assert "update_wall_us_p99" in report


class TestAccept:
    def test_single_passing_criterion(self):
        code, out = run_cli("accept", "--only", "5")
        assert code == 0
        assert out.startswith("PASS  5 ")

    def test_failing_criterion_is_reported_not_hidden(self):
        # boundary set-equality is structurally unattainable; the suite
        # must say so and exit nonzero rather than weaken the check
        code, out = run_cli("accept", "--only", "1")
        assert code == 1
        assert out.startswith("FAIL  1 ")
        assert "unattainable" in out


class TestParser:
    def test_subcommand_required(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args([])
