"""Tiny runs of every workload: every metric is emitted, with its unit."""

import json
import os
import shutil
import subprocess
import sys

import pytest

from stdchk_bench import runner, workloads
from stdchk_bench.metrics import END_TO_END, PER_LAYER

from conftest import BENCH, ROOT

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)

#: A per-layer metric the workload must exercise (non-zero in a tiny run).
EXERCISED = {
    "ckpt_restart": ["fs.write.self_us", "fs.read.self_us",
                     "client.reader.cache_hit_ratio",
                     "transport.wire.put_chunk.p50_us"],
    "incremental_blcr": ["core.content_chunk_id.calls", "client.dedup_chunk_ratio",
                         "transport.call.get_existing_chunks.calls",
                         "benefactor.store_put.busy_us", "persistence.sync.calls",
                         "persistence.journal_bytes_per_op",
                         "replication.replicate_records.calls",
                         "replication.offer.busy_us", "manager.list_dir.self_us"],
}


def _run(name, trace, tmp_path):
    return runner.run(name, seed=3, seconds=0.0, trace=trace, scale="tiny",
                      root=str(tmp_path))


def test_metric_lists_match_benchmark_json():
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == END_TO_END
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == PER_LAYER
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_plain_run_emits_every_end_to_end_metric(name, tmp_path):
    result, report = _run(name, False, tmp_path)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    emitted = {k: v["unit"] for k, v in result["metrics"].items()}
    assert emitted == dict(END_TO_END)
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], float) and metric["value"] > 0
    for tail in ("write_tail_ms", "read_tail_ms", "meta_tail_us"):
        assert {"percentile", "samples"} <= set(report["end_to_end"][tail])


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_run_emits_every_per_layer_metric(name, tmp_path):
    result, _ = _run(name, True, tmp_path)
    assert result["correct"] and result["failed"] == 0
    emitted = {k: v["unit"] for k, v in result["metrics"].items()}
    assert emitted == dict(PER_LAYER)
    for metric in EXERCISED[name]:
        assert result["metrics"][metric]["value"] > 0, metric
    assert 0.5 < result["metrics"]["trace.coverage"]["value"] <= 1.0


def test_a_read_mismatch_fails_the_run(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "_same_bytes", lambda parts, image: False)
    result, report = _run("ckpt_restart", False, tmp_path)
    assert not result["correct"]
    assert "bytes differ" in report["mismatches"][0]


def test_a_lost_acknowledged_commit_fails_the_run(tmp_path, monkeypatch):
    steps = workloads.IncrementalBlcr.steps

    def steps_then_claim_an_extra_ack(self, *args):
        steps(self, *args)
        self.acknowledged.append(("/blast/blast.N0.T999", 4096))

    monkeypatch.setattr(workloads.IncrementalBlcr, "steps", steps_then_claim_an_extra_ack)
    result, report = _run("incremental_blcr", False, tmp_path)
    assert not result["correct"]
    assert any("after restart" in m or "restart check" in m for m in report["mismatches"])


def test_command_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out", ".work"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    command = SPEC["command"] + ["--workload", "ckpt_restart", "--seed", "1",
                                 "--seconds", "1", "--trace", "0"]
    command[0] = sys.executable
    done = subprocess.run(command, cwd=tmp_path, capture_output=True, text=True,
                          timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
