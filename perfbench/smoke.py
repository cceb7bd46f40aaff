#!/usr/bin/env python3
"""Smoke test of the benchmark: a short run of every workload, untraced and
traced, checked against ``BENCHMARK.json``.

Usage, from the root of the repository:

    python3 perfbench/smoke.py

For each workload and trace mode it asserts that the run exits 0, that the
last line is a result with exactly the contract's keys, that every metric
named in ``BENCHMARK.json`` for that mode is present with its unit (and no
other), that the correctness checks ran and passed, and that the
human-readable summary names all eight end-to-end figures. Traced runs must
also stamp every hop of nearly every transaction, with stage means that add
up to the mean latency within 5%.
"""

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Measurement window of each smoke run.
SECONDS = "2"
# Correctness checks every run makes.
CHECKS = 6
# Least share of transactions whose every stage is stamped.
MIN_TRACED_SHARE_PCT = 95.0
# Most the stage means may differ from the mean latency.
MAX_STAGE_GAP_PCT = 5.0
# The summary prints these even when the result line carries fewer.
SUMMARY = [
    ("goodput_tps", "tx/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("slo_miss_pct", "%"),
    ("tx_failed_pct", "%"),
    ("cpu_ms_per_ktx", "ms/ktx"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
]


def run(workload: str, trace: int) -> list:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", SECONDS, "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    assert out.returncode == 0, f"{workload} trace {trace}: exit {out.returncode}\n{out.stdout}\n{out.stderr}"
    return out.stdout.strip().splitlines()


def check(bench: dict, workload: str, trace: int, lines: list) -> None:
    where = f"{workload} trace {trace}"
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, where
    assert result["correct"] is True, where
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1, where
    assert isinstance(result["failed"], int), where
    wanted = bench["per_layer" if trace else "end_to_end"]
    got = result["metrics"]
    assert list(got) == [m["name"] for m in wanted], f"{where}: metric names differ"
    for m in wanted:
        value = got[m["name"]]
        assert set(value) == {"value", "unit"}, where
        assert value["unit"] == m["unit"], f"{where}: {m['name']} unit {value['unit']}"
        assert isinstance(value["value"], (int, float)), f"{where}: {m['name']}"
        if not trace:
            assert value["value"] > 0, f"{where}: {m['name']} is {value['value']}"
    if trace:
        share = got["stage.traced_share_pct"]["value"]
        gap = got["stage.sum_gap_pct"]["value"]
        assert share >= MIN_TRACED_SHARE_PCT, f"{where}: stages stamped for {share}%"
        assert gap < MAX_STAGE_GAP_PCT, f"{where}: stage means {gap}% off the mean latency"
    text = "\n".join(lines[:-1])
    runs = 2 if trace else 1
    assert len(re.findall(rf"checks run: {CHECKS} of {CHECKS} passed", text)) == runs, f"{where}: checks"
    for name, unit in SUMMARY:
        if name == "setup_s" and trace:
            continue
        assert re.search(rf"^\s+{name}\s+\S+ {re.escape(unit)}", text, re.M), f"{where}: {name}"


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for workload in [w["name"] for w in bench["workloads"]]:
        for trace in (0, 1):
            check(bench, workload, trace, run(workload, trace))
            print(f"ok {workload} trace {trace}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
