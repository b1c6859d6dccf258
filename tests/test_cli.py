"""Command-line interface: generation, running, oracle, accept."""

import io
import json
import random
from contextlib import redirect_stdout
from fractions import Fraction

import pytest

from streamkmatch import InsertMatcher, cli, read_stream
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

    @pytest.mark.parametrize("edges", ["0", "3"])
    def test_negative_n_exit_2(self, capsys, edges):
        # n * (n - 1) // 2 is positive for n = -5
        code, out = run_cli("gen", "--n", "-5", "--edges", edges)
        assert code == 2 and out == ""
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "n=-5" in err

    def test_negative_k_exit_2(self, capsys):
        # the header "5 -3 ins" was written, then refused by every reader
        code, out = run_cli("gen", "--n", "5", "--k", "-3", "--edges", "2")
        assert code == 2 and out == ""
        assert "k=-3" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["--family", "random"],
        ["--family", "partial-max", "--values", "3,x"],
        ["--family", "index-hard", "--x", "10a0"],
    ], ids=["random-without-n", "partial-max-values", "index-hard-bits"])
    def test_unparsable_option_exit_2(self, capsys, argv):
        code, out = run_cli("gen", *argv)
        assert code == 2 and out == ""
        assert capsys.readouterr().err.startswith("error: ")


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

    def test_run_ins_json_stats_are_matcher_stats(self, ins_stream):
        _, out = run_cli("run-ins", ins_stream, "--seed", "3", "--format", "json")
        stream = read_stream(ins_stream)
        m = InsertMatcher(stream.n, stream.k, 1 / 16, random.Random(3))
        for el in stream.elements:
            m.process_insert(el.edge)
        assert json.loads(out)["stats"] == m.stats()
        assert m.stats()["updates"] == 60

    def test_run_ins_rejects_dyn_stream(self, dyn_stream, capsys):
        code, _ = run_cli("run-ins", dyn_stream)
        assert code == 2
        assert capsys.readouterr().err == "error: run-ins expects an insert-only stream\n"

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

    def test_run_dyn_approx_zero_weight(self, tmp_path):
        path = tmp_path / "zero.txt"
        path.write_text("6 2 dyn\n+ 0 1 0\n+ 2 3 5\n")
        code, out = run_cli("run-dyn", str(path), "--epsilon", "0.25",
                            "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["matching"] == [[0, 1, 0], [2, 3, 5]]
        assert payload["weight"] == 5

    def test_run_dyn_reports_negative_samplers(self, tmp_path, dyn_stream):
        # a delete of an edge never inserted leaves negative counts
        path = tmp_path / "phantom.txt"
        path.write_text("6 1 dyn\n- 0 1 5\n")
        code, out = run_cli("run-dyn", str(path), "--format", "json")
        assert code == 0
        assert json.loads(out)["stats"]["negative_samplers"] > 0
        code, out = run_cli("run-dyn", dyn_stream, "--format", "json")
        assert code == 0
        assert json.loads(out)["stats"]["negative_samplers"] == 0

    def test_run_dyn_decodes_the_last_pair_of_a_huge_n(self, tmp_path):
        # this pair's id is beyond float precision: no float square root
        path = tmp_path / "huge.txt"
        path.write_text("9007199254740997 1 dyn\n+ 9007199254740994 9007199254740995 5\n")
        code, out = run_cli("run-dyn", str(path))
        assert code == 0
        assert out.splitlines()[:2] == ["9007199254740994 9007199254740995 5", "weight 5"]

    def test_run_ins_subnormal_epsilon(self, tmp_path):
        # 1 / 1e-320 overflows a float: the counts are exact integers
        path = tmp_path / "ins.txt"
        path.write_text("10 2 ins\n+ 0 1 5\n+ 2 3 4\n+ 4 5 9\n")
        code, out = run_cli("run-ins", str(path), "--epsilon", "1e-320")
        assert code == 0
        assert "weight 14" in out.splitlines()

    def test_run_dyn_rejects_ins_stream(self, ins_stream, capsys):
        code, _ = run_cli("run-dyn", ins_stream)
        assert code == 2
        assert capsys.readouterr().err == "error: run-dyn expects a dynamic stream\n"

    def test_run_ins_text_without_a_k_matching(self, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text("6 2 ins\n+ 0 1 5\n+ 1 2 4\n")
        code, out = run_cli("run-ins", str(path))
        assert code == 0 and out.splitlines()[0] == "no k-matching"

    def test_stream_from_stdin(self, ins_stream, monkeypatch):
        with open(ins_stream) as fh:
            monkeypatch.setattr("sys.stdin", io.StringIO(fh.read()))
        assert run_cli("oracle", "-") == run_cli("oracle", ins_stream)

    def test_oracle_text(self, dyn_stream):
        code, out = run_cli("oracle", dyn_stream)
        assert code == 0
        assert any(ln.startswith("weight ") for ln in out.splitlines())

    def test_missing_file_exit_2(self):
        code, _ = run_cli("run-ins", "/nonexistent/stream.txt")
        assert code == 2

    def test_oracle_json_weight_past_the_float_range_is_exact(self, tmp_path):
        # two finite float weights whose float sum overflows: the weight
        # is written exactly, never as the non-JSON constant Infinity
        path = tmp_path / "big.txt"
        path.write_text("6 2 ins\n+ 0 1 1e308\n+ 2 3 1e308\n")
        code, out = run_cli("oracle", str(path), "--format", "json")
        assert code == 0

        def refuse(name):
            raise ValueError(f"{name} is not JSON")

        payload = json.loads(out, parse_constant=refuse)
        assert Fraction(payload["weight"]) == 2 * Fraction(1e308)

    def test_oracle_replays_the_stream_once(self, dyn_stream, monkeypatch):
        calls = []
        replay = cli.materialize
        monkeypatch.setattr(cli, "materialize",
                            lambda *a: calls.append(1) or replay(*a))
        code, _ = run_cli("oracle", dyn_stream)
        assert code == 0 and len(calls) == 1


class TestBadInput:
    """Every malformed input is a typed error (exit 2), never an
    answer or a traceback."""

    @pytest.mark.parametrize("weight", ["-3", "nan", "inf"])
    @pytest.mark.parametrize("command", ["run-ins", "oracle"])
    def test_bad_insert_weight(self, tmp_path, command, weight):
        path = tmp_path / "bad.txt"
        path.write_text(f"6 1 ins\n+ 0 1 {weight}\n+ 2 3 5\n")
        code, out = run_cli(command, str(path))
        assert code == 2 and out == ""

    def test_run_dyn_rejects_negative_weight(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("6 1 dyn\n+ 0 1 -4\n")
        code, out = run_cli("run-dyn", str(path))
        assert code == 2 and out == ""

    @pytest.mark.parametrize("mode", ["ins", "dyn"])
    @pytest.mark.parametrize("command", ["run-ins", "run-dyn", "oracle"])
    def test_negative_n_header_exit_2(self, tmp_path, capsys, command, mode):
        path = tmp_path / "bad.txt"
        path.write_text(f"-5 2 {mode}\n")
        code, out = run_cli(command, str(path))
        assert code == 2 and out == ""
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "n=-5" in err

    @pytest.mark.parametrize("command", ["run-ins", "oracle"])
    def test_negative_k_header_exit_2(self, tmp_path, capsys, command):
        path = tmp_path / "bad.txt"
        path.write_text("5 -3 ins\n+ 0 1 2\n")
        code, out = run_cli(command, str(path))
        assert code == 2 and out == ""
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "k=-3" in err

    @pytest.mark.parametrize("text", [
        "6 1 ins\n+ 0 1 x\n",
        "6 1 ins\n+ 0 a 1\n",
        "6 x ins\n+ 0 1 1\n",
        "6 1 dyn\n+ 0 1 x\n",
    ], ids=["weight", "vertex", "header", "dyn-weight"])
    @pytest.mark.parametrize("command", ["run-ins", "run-dyn", "oracle"])
    def test_bad_token_exit_2(self, tmp_path, command, text):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        code, out = run_cli(command, str(path))
        assert code == 2 and out == ""

    @pytest.mark.parametrize("data, where", [
        (b"6 1 ins\n+ 0 1 \xff\n", "element 0: bad number"),
        (b"\xff\xfe6 1 ins\n+ 0 1 3\n", "element -1: bad header"),
    ], ids=["weight-byte", "header-bytes"])
    @pytest.mark.parametrize("command", ["run-ins", "run-dyn", "oracle"])
    def test_undecodable_file_exit_2(self, tmp_path, capsys, command, data, where):
        # a byte that is not UTF-8 once ended in a UnicodeDecodeError traceback
        path = tmp_path / "bad.txt"
        path.write_bytes(data)
        code, out = run_cli(command, str(path))
        assert code == 2 and out == ""
        err = capsys.readouterr().err
        assert err.startswith("error: ") and where in err


class TestK:
    @pytest.fixture()
    def stream(self, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text("6 1 dyn\n+ 0 1 5\n+ 2 3 4\n")
        return str(path)

    def test_oracle_k_zero_is_the_empty_matching(self, stream):
        code, out = run_cli("oracle", stream, "--k", "0")
        assert code == 0 and out.splitlines()[0] == "weight 0"

    def test_matchers_refuse_k_zero(self, stream, tmp_path):
        ins = tmp_path / "ins.txt"
        ins.write_text("6 1 ins\n+ 0 1 5\n")
        assert run_cli("run-ins", str(ins), "--k", "0")[0] == 2
        assert run_cli("run-dyn", stream, "--k", "0")[0] == 2

    def test_oracle_negative_k_exit_2(self, stream):
        code, out = run_cli("oracle", stream, "--k", "-1")
        assert code == 2 and out == ""


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


    @pytest.mark.parametrize("only", ["99", "x"], ids=["unknown", "not-a-number"])
    def test_bad_criterion_exit_2(self, capsys, only):
        code, out = run_cli("accept", "--only", only)
        assert code == 2 and out == ""
        assert capsys.readouterr().err.startswith("error: ")


class TestParser:
    def test_subcommand_required(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args([])

    @pytest.mark.parametrize("command, own", [
        ("run-ins", {"seed": 0, "epsilon": 1 / 16}),
        ("run-dyn", {"seed": 0, "epsilon": None, "delta_override": None}),
        ("oracle", {}),
    ])
    def test_stream_command_defaults(self, command, own):
        args = vars(build_parser().parse_args([command, "s"]))
        del args["fn"]
        shared = {"command": command, "stream": "s", "k": None, "format": "text"}
        assert args == {**shared, **own}

    def test_bench_is_not_a_subcommand(self):
        # latency is measured by perfbench/run.py
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["bench"])
        assert exc.value.code == 2
