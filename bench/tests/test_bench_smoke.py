"""Smoke test of the benchmark itself (not in the tier-1 ``testpaths``).

Run it with ``python -m pytest bench/tests -q`` on an otherwise idle
machine: it checks the contract ``BENCHMARK.json`` states, not speed.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
RUN = os.path.join(BENCH, "run.py")
RESULTS = os.path.join(BENCH, "out", "results.json")
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)


def _run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, RUN, *args], cwd=ROOT, stdout=subprocess.PIPE, text=True,
        timeout=170,
    )


def _names(section: str) -> list:
    return [metric["name"] for metric in SPEC[section]]


def test_quick_set_is_fast_correct_and_fingerprinted():
    started = time.monotonic()
    done = _run("--quick", "--seed", "0")
    elapsed = time.monotonic() - started
    assert done.returncode == 0, done.stdout
    assert elapsed < 30.0, f"--quick took {elapsed:.1f}s"

    with open(RESULTS, encoding="utf-8") as handle:
        results = json.load(handle)
    assert sorted(results["workloads"]) == sorted(_names("workloads"))
    for report in results["workloads"].values():
        assert list(report["end_to_end"]) == _names("end_to_end")
        assert report["ops_attempted"] > 0
        assert report["ops_failed"] == 0
        assert all(m["value"] != 0 for m in report["end_to_end"].values())
        # Times of this host are scaled by the measured host speed, the
        # median as measured is kept beside them; the rest is not scaled.
        assert report["host_speed"] > 0 and len(report["host_slices_us"]) == report["runs"] + 1
        for name in ("peak_rss_mb", "accuracy_top10"):
            assert report["end_to_end"][name]["value"] == report["end_to_end"][name]["raw"]
    workloads = results["workloads"]
    paced_rate = workloads["net-summary-paced"]["end_to_end"]["throughput_items_per_s"]
    assert paced_rate["value"] == paced_rate["raw"]
    simulated = workloads["sim-countsamps"]["end_to_end"]["latency_p50_ms"]
    assert simulated["value"] == simulated["raw"]
    cpu = workloads["sim-countsamps"]["end_to_end"]["cpu_us_per_item"]
    scaled_back = cpu["value"] * workloads["sim-countsamps"]["host_speed"]
    assert abs(scaled_back / cpu["raw"] - 1) < 1e-9
    fingerprint = results["fingerprint"]
    assert fingerprint["python"] and fingerprint["nproc"] >= 1
    assert len(fingerprint["loadavg"]) == 3


def test_contract_lines_emit_exactly_the_declared_names():
    for name in _names("workloads") + _names("end_to_end") + _names("per_layer"):
        assert NAME.match(name) and len(name) <= 64, name

    plain = _run("--workload", "threaded-countsamps", "--seed", "1",
                 "--seconds", "1", "--quick", "--trace", "0")
    assert plain.returncode == 0, plain.stdout
    line = json.loads(plain.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["attempted"] >= 1 and line["failed"] == 0
    assert list(line["metrics"]) == _names("end_to_end")

    traced = _run("--workload", "net-summary-paced", "--seed", "1",
                  "--seconds", "2", "--quick", "--trace", "1")
    assert traced.returncode == 0, traced.stdout
    line = json.loads(traced.stdout.strip().splitlines()[-1])
    assert list(line["metrics"]) == _names("per_layer")
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert all(v["unit"] == units[k] for k, v in line["metrics"].items())
    # Layers the workload bypasses are null in results.json (0 only in the
    # contract line, which must carry a number); the ones it runs are not.
    with open(RESULTS, encoding="utf-8") as handle:
        per_layer = json.load(handle)["workloads"]["net-summary-paced"]["per_layer"]
    assert per_layer["simnet.links.messages"]["value"] is None
    assert per_layer["net.protocol.frame_batch_encode_ns_per_item"]["value"] is None
    assert per_layer["driver.gen_late_p99_ms"]["value"] is not None
    assert per_layer["net.protocol.frame_single_encode_ns"]["value"] > 0
    with open(os.path.join(BENCH, "out", "trace-net-summary-paced.json"),
              encoding="utf-8") as handle:
        trace = json.load(handle)
    span_names = {span["name"] for span in trace["spans"]}
    assert {"driver.build", "driver.setup", "driver.feed", "driver.drain",
            "driver.collect", "stage.relay.on_item", "stage.sink.on_item",
            "stage.relay.emit"} <= span_names
    assert all(span["run_id"] == trace["spans"][0]["run_id"] for span in trace["spans"])


def test_without_the_program_it_fails_without_a_result(tmp_path):
    """In a directory holding only BENCHMARK.json and bench/, the command
    must exit non-zero and print no result line."""
    import shutil

    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sim-countsamps", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
