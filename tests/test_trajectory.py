"""bench/trajectory.py's parsing, summary and run order, without running
perfbench."""

import importlib.util
import json
import os

import pytest

_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "bench", "trajectory.py")
_spec = importlib.util.spec_from_file_location("trajectory", _PATH)
trajectory = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(trajectory)


def _output(workload, query_ms, speed=0.541, misses=0, extra=None):
    """perfbench/run.py's standard output, as it prints it."""
    metrics = {"query_ms_p50": {"value": query_ms, "unit": "ms"},
               "peak_rss_mb": {"value": 18.2, "unit": "MB"}, **(extra or {})}
    return (f"{workload} seed=1: 4 rounds, 100 answers checked, 0 failed, misses per "
            f"round {misses} (limit 20, paper bound 0.0625 per query); machine speed: "
            f"reference loop at {speed}x its nominal time\n"
            + json.dumps({"correct": True, "attempted": 20100, "failed": 0,
                          "metrics": metrics}) + "\n")


def test_parse_run_reads_the_summary_and_the_json_line():
    run = trajectory.parse_run(_output("ins-weighted", 0.148, speed=0.555, misses=2))
    assert run["correct"] is True and run["attempted"] == 20100 and run["failed"] == 0
    assert (run["rounds"], run["checked"]) == (4, 100)
    assert (run["misses_per_round"], run["miss_limit"]) == (2, 20)
    assert run["speed_factor"] == 0.555
    assert run["metrics"]["query_ms_p50"] == (0.148, "ms")


def test_parse_run_refuses_output_it_cannot_read():
    with pytest.raises(ValueError):
        trajectory.parse_run('{"correct": true}\n')
    with pytest.raises(ValueError, match="summary"):
        trajectory.parse_run("no summary here\n" + _output("x", 1.0).splitlines()[1])


def test_summary_keeps_every_value_and_labels_suspect_metrics():
    plain = [trajectory.parse_run(_output("dyn-approx-shards", q)) for q in (3.3, 3.1, 3.6)]
    traced = trajectory.parse_run(_output(
        "dyn-approx-shards", 4.0, extra={"decode.samplers": {"value": 4608.0, "unit": "count"}}))
    entry = trajectory.summarize("dyn-approx-shards", plain, traced)
    q = entry["end_to_end"]["query_ms_p50"]
    assert q["values"] == [3.3, 3.1, 3.6] and q["median"] == 3.3
    assert (q["min"], q["max"]) == (3.1, 3.6) and "shard" in q["suspect"]
    assert "suspect" not in entry["end_to_end"]["peak_rss_mb"]
    assert "suspect" in entry["per_layer"]["decode.samplers"]
    assert [r["trace"] for r in entry["runs"]] == [0, 0, 0, 1]
    assert all("metrics" not in r for r in entry["runs"])
    # the shard note belongs to the one workload that builds shards
    other = trajectory.summarize("dyn-churn", plain, traced)
    assert "suspect" not in other["end_to_end"]["query_ms_p50"]


@pytest.mark.parametrize("argv", [[], ["--tag", "../t"], ["--tag", ""]])
def test_bad_arguments_exit_2(argv):
    with pytest.raises(SystemExit) as exc:
        trajectory.main(argv)
    assert exc.value.code == 2


def test_measure_alternates_the_checkouts_workload_by_workload():
    calls = []
    plain, traced = trajectory.measure(
        ["old", "new"], ["a", "b"], lambda c, w, t: calls.append((c, w, t)) or len(calls))
    assert calls[:8] == [("old", "a", 0), ("new", "a", 0), ("old", "b", 0), ("new", "b", 0),
                         ("new", "a", 0), ("old", "a", 0), ("new", "b", 0), ("old", "b", 0)]
    assert len(calls) == 2 * 2 * (trajectory.RUNS + 1)
    assert [t for _, _, t in calls[-4:]] == [1] * 4
    assert plain["old"]["a"] == [1, 6, 9]
    assert traced["new"]["b"] == len(calls)


def test_parent_and_checkout_write_one_file_each(tmp_path, monkeypatch):
    checkouts = []
    for name in ("parent", "change"):
        d = tmp_path / name
        d.mkdir()
        (d / "BENCHMARK.json").write_text(json.dumps({"workloads": [{"name": "dyn-churn"}]}))
        checkouts.append(str(d))
    runs = []

    def fake_run(checkout, workload, trace):
        runs.append(checkout)
        return trajectory.parse_run(_output(workload, 1.0 if checkout == checkouts[0] else 2.0))

    monkeypatch.setattr(trajectory, "ROOT", str(tmp_path))
    monkeypatch.setattr(trajectory, "run_perfbench", fake_run)
    monkeypatch.setattr(trajectory, "git_state", lambda c: {"commit": c, "clean": True,
                                                            "changed": []})
    assert trajectory.main(["--tag", "t", "--parent", checkouts[0],
                            "--checkout", checkouts[1]]) == 0
    assert runs.count(checkouts[0]) == runs.count(checkouts[1]) == trajectory.RUNS + 1
    for tag, checkout, q in (("t-parent", checkouts[0], 1.0), ("t", checkouts[1], 2.0)):
        out = json.loads((tmp_path / f"BENCH_{tag}.json").read_text())
        assert out["tag"] == tag and out["commit"] == checkout
        assert out["workloads"]["dyn-churn"]["end_to_end"]["query_ms_p50"]["values"] == \
            [q] * trajectory.RUNS


def test_parent_must_be_another_checkout(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({"workloads": []}))
    with pytest.raises(SystemExit) as exc:
        trajectory.main(["--tag", "t", "--parent", str(tmp_path), "--checkout", str(tmp_path)])
    assert exc.value.code == 2
