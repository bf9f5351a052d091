"""Tests for the record writer and delta printer of ``tools/bench.py``."""

import json
import os

import pytest

TOOLS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools")


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(TOOLS)
    import bench as module
    return module


def _result(wall, rss):
    """A canned result line of ``perfbench/run.py``."""
    return {"correct": True, "attempted": 9, "failed": 0,
            "metrics": {"wall_s": {"value": wall, "unit": "s"},
                        "peak_rss_mb": {"value": rss, "unit": "MB"}}}


def _record(bench, parent_walls, change_walls):
    runs = {"parent": [_result(w, 37.0) for w in parent_walls],
            "change": [_result(w, 37.5) for w in change_walls]}
    return {"against": "0" * 40, "workloads": {"irrigate-star": bench.summarize(runs)}}


def test_bench_record_holds_quartiles_and_pair_counts(bench, tmp_path):
    record = _record(bench, [0.20, 0.22, 0.21, 0.24, 0.23], [0.18, 0.19, 0.22, 0.20, 0.19])
    summary = record["workloads"]["irrigate-star"]
    wall = summary["metrics"]["wall_s"]
    assert wall["parent"] == {"median": 0.22, "q1": 0.21, "q3": 0.23}
    assert wall["change"] == {"median": 0.19, "q1": 0.19, "q3": 0.20}
    # Lower in every pair but the third (0.21 against 0.22).
    assert wall["change_lower_in"] == 4 and summary["pairs"] == 5
    assert wall["samples"]["change"] == [0.18, 0.19, 0.22, 0.20, 0.19]
    assert summary["metrics"]["peak_rss_mb"]["change_lower_in"] == 0
    assert summary["correct"] == {"parent": 5, "change": 5}
    path = tmp_path / "BENCH_23.json"
    bench.write_record(str(path), record)
    assert json.loads(path.read_text()) == record
    assert bench.summary_lines(record)[0] == \
        "irrigate-star wall_s: 0.22 (0.21-0.23) -> 0.19 (0.19-0.2) s, lower in 4 of 5"


def test_bench_delta_is_against_the_newest_other_record(bench, tmp_path):
    current = tmp_path / "BENCH_23.json"
    assert bench.newest_bench(str(tmp_path), str(current)) is None
    bench.write_record(str(current), _record(bench, [0.22, 0.24], [0.19, 0.19]))
    assert bench.newest_bench(str(tmp_path), str(current)) is None
    # BENCH_22 is newer than BENCH_9, though "9" sorts after "22" as text.
    for number, wall in ((9, 0.30), (22, 0.25)):
        bench.write_record(str(tmp_path / f"BENCH_{number}.json"),
                           _record(bench, [wall] * 3, [wall] * 3))
    (tmp_path / "BENCH_notes.json").write_text("{}")
    previous = bench.newest_bench(str(tmp_path), str(current))
    assert previous == str(tmp_path / "BENCH_22.json")
    with open(previous, encoding="utf-8") as handle:
        lines = bench.delta_lines(json.load(handle), json.loads(current.read_text()))
    # A written record lists its metrics by name. The host drift sets this
    # record's parent medians (37.0 MB, 0.23 s) against BENCH_22's change.
    assert lines == [
        "irrigate-star peak_rss_mb: 37.5 -> 37.5 MB (+0.0%), host drift 37.5 -> 37 MB (-1.3%)",
        "irrigate-star wall_s: 0.25 -> 0.19 s (-24.0%), host drift 0.25 -> 0.23 s (-8.0%)"]
    # A workload or metric the earlier record lacks is left out.
    assert bench.delta_lines({"workloads": {}}, _record(bench, [0.2] * 2, [0.2] * 2)) == []


def test_bench_host_drift_reads_the_same_src_across_two_records(bench):
    # The earlier record's change and this record's parent ran the same src/.
    # Here the host ran it 20% slower, so a change that reads 4% below the
    # earlier change is 20% below its own parent.
    previous = _record(bench, [0.35, 0.35, 0.35], [0.25, 0.25, 0.25])
    record = _record(bench, [0.30, 0.31, 0.29], [0.24, 0.25, 0.23])
    wall = bench.delta_lines(previous, record)[0]
    assert wall == "irrigate-star wall_s: 0.25 -> 0.24 s (-4.0%), host drift 0.25 -> 0.3 s (+20.0%)"
    # A zero earlier median prints the difference in place of a ratio.
    previous["workloads"]["irrigate-star"]["metrics"]["wall_s"]["change"]["median"] = 0.0
    assert bench.delta_lines(previous, record)[0] == \
        "irrigate-star wall_s: 0 -> 0.24 s (+0.24), host drift 0 -> 0.3 s (+0.3)"


def test_bench_runs_ten_pairs_on_every_workload(bench):
    assert bench.PAIRS == 10
