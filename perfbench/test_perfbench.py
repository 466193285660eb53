"""Tests of the benchmark itself.

    python3 -m pytest perfbench

They run the ``quad`` workload for one cycle (a few seconds each) and a
small ``desf``; nothing here runs the sampling workloads at full size.
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import record
import run
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _flip_data_byte(path: str) -> None:
    """Flip the lowest bit of the first digit in the data section."""
    raw = bytearray(Path(path).read_bytes())
    if raw.startswith(b"{"):
        start = raw.index(b'"data"')
    else:
        start = raw.index(b"\n", raw.index(b"# manifest: "))
    i = next(k for k in range(start, len(raw)) if chr(raw[k]).isdigit())
    raw[i] ^= 1
    Path(path).write_bytes(bytes(raw))


def test_metric_and_workload_names_match_benchmark_json():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)


def test_printed_metrics_match_benchmark_json(capsys):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        assert run.main(["--workload", "quad", "--seed", "3", "--seconds", "0",
                         "--trace", str(trace)]) == 0
        result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert {k: v["unit"] for k, v in result["metrics"].items()} == {
            m["name"]: m["unit"] for m in bench[key]}


def test_tampered_artifact_is_counted_as_failed(tmp_path, monkeypatch):
    real_spawn = run.spawn

    def spawn_then_tamper(argv, log_prefix, deadline):
        result = real_spawn(argv, log_prefix, deadline)
        if "--out" in argv:
            _flip_data_byte(argv[argv.index("--out") + 1])
        return result

    monkeypatch.setattr(run, "spawn", spawn_then_tamper)
    runs, setup, cal = run.run_workload("quad", 1, 0, False, 2, tmp_path)
    assert not any(r.failure for r in setup)
    assert len(setup) == run.SETUP_REPEATS
    assert len(cal) == run.CAL_PASSES * (len(runs) + len(setup) + 1)
    assert all(len(rs) == 1 for rs in runs.values())
    assert all("output_sha256" in rs[0].failure for rs in runs.values()), [
        rs[0].failure for rs in runs.values()]


def test_desf_gate_catches_one_flipped_byte(tmp_path):
    n, bins, seed = 60_000, 401, 5
    out = tmp_path / "H.csv"
    argv = ["cli", "desf", "--engine", "lds", "--n", str(n), "--bins", str(bins),
            "--seed", str(seed), "--out", str(out)]
    _, code, _, _, err = run.spawn(argv, tmp_path / "desf", time.monotonic() + 60)
    assert code == 0, err
    gate = workloads.desf_gate(n, bins, seed)
    assert gate(str(out)).n_effective > 0
    _flip_data_byte(str(out))
    with pytest.raises(workloads.GateError, match="output_sha256"):
        gate(str(out))


def test_digest_change_between_repeats_counts_as_failed():
    first = run.OpRun("a", 1.0, 1.0, digest="x")
    same, other = run.OpRun("a", 1.0, 1.0, digest="x"), run.OpRun("a", 1.0, 1.0, digest="z")
    run.check_digest(same, first)
    run.check_digest(other, first)
    assert not same.failure
    assert "first run" in other.failure


def test_end_to_end_times_are_scaled_by_calibration():
    raw = {"wall_s": 10.0, "setup_s": 1.0, "cal_s": 2.0 * run.CAL_REF_S}
    assert run.end_to_end_metrics(raw) == {"wall_ref_s": 5.0, "setup_s": 0.5}


def test_digest_change_between_runs_of_one_seed_counts_as_failed():
    ref = {"a": "x", "b": "y"}
    assert record.mismatched({"a": "x", "b": "y"}, ref) == 0
    assert record.mismatched({"a": "x", "b": "z"}, ref) == 1
    assert record.mismatched({"a": "", "b": "y"}, ref) == 0  # failed its gate already


def test_traced_run_fails_loudly_when_a_layer_records_no_spans(monkeypatch):
    quad = workloads.WORKLOADS["quad"]
    monkeypatch.setitem(workloads.WORKLOADS, "quad", workloads.Workload(
        "quad", quad.layers + ("sampling",), quad.ops))
    with pytest.raises(run.LayerError, match="sampling"):
        run.main(["--workload", "quad", "--seed", "1", "--seconds", "0",
                  "--trace", "1"])


def test_self_time_subtracts_merged_child_intervals():
    recorded = [
        {"id": 1, "parent": 0, "t0": 0.0, "t1": 10.0},
        {"id": 2, "parent": 1, "t0": 1.0, "t1": 5.0},  # two worker threads
        {"id": 3, "parent": 1, "t0": 2.0, "t1": 6.0},  # overlap in time
        {"id": 4, "parent": 2, "t0": 1.0, "t1": 2.0},
        {"id": 5, "parent": 1, "t0": 9.0, "t1": 12.0},  # clipped at 10
    ]
    selfs = spans.self_times(recorded)
    assert selfs == {1: 10.0 - 5.0 - 1.0, 2: 3.0, 3: 4.0, 4: 1.0, 5: 3.0}


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "quad", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
