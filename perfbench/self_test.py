#!/usr/bin/env python3
"""Short-budget self-test of the repo benchmark.

Runs every workload at smoke size (--smoke: shrunken populations and
round budgets) in both modes and asserts that:

  * the result line has exactly the contract keys, correct == true and
    failed == 0;
  * every end-to-end (--trace 0) or per-layer (--trace 1) metric named in
    BENCHMARK.json is emitted, with the unit and direction BENCHMARK.json
    gives it, and the detail line states its sample count;
  * latency_outage also prints lookup_rtt_p50_ms / lookup_rtt_p99_ms with
    samples behind them, and the net-layer counters are non-zero there
    and zero on the immediate-delivery workloads;
  * the traced run wrote its spans: one per RunRounds(1) of the window,
    nested under the workload's root span.

Run from the root of the checkout:  python3 perfbench/self_test.py
Exits non-zero on the first failed assertion.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("table1_serial", "churn_1m", "latency_outage")
SEED = 3


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(SEED), "--seconds", "1", "--trace",
           str(trace), "--smoke"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=600)
    assert proc.returncode == 0, "%s exited %d:\n%s" % (
        " ".join(cmd), proc.returncode, proc.stdout)
    lines = proc.stdout.strip().split("\n")
    result = json.loads(lines[-1])
    detail = None
    for line in lines:
        if line.startswith('{"perfbench_detail"'):
            detail = json.loads(line)["perfbench_detail"]
    assert detail is not None, "no detail line for %s" % workload
    return result, detail


def check(workload, trace, spec):
    result, detail = run(workload, trace)
    where = "%s --trace %d" % (workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, where
    assert result["correct"] is True, (where, detail["checks_failed"])
    assert result["failed"] == 0 and result["attempted"] >= 1, where
    assert detail["optimised"] is True, where
    for key in ("nproc", "build_type", "compiler", "git_commit", "seed"):
        assert key in detail, (where, key)
    wanted = spec["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}, (
        where, sorted(set(result["metrics"]) ^ {m["name"] for m in wanted}))
    for m in wanted:
        got = detail["metrics"][m["name"]]
        assert got["unit"] == m["unit"], (where, m["name"], got["unit"])
        assert result["metrics"][m["name"]]["unit"] == m["unit"], where
        assert got["better"] == m["better"], (where, m["name"])
        assert isinstance(got["n"], int), (where, m["name"])
        if not trace:
            assert got["n"] >= 1, (where, m["name"])
    latency = workload == "latency_outage"
    if not trace:
        for name in ("lookup_rtt_p50_ms", "lookup_rtt_p99_ms"):
            assert (name in detail["metrics"]) == latency, (where, name)
            if latency:
                assert detail["metrics"][name]["n"] > 0, (where, name)
        return
    for name in ("net.deferred_per_round", "net.lookup_rtt_p50_ms",
                 "sim.event_queue.ns_per_event"):
        value = detail["metrics"][name]["value"]
        assert (value > 0) == latency, (where, name, value)
    trace_path = os.path.join(
        os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build"),
        "perfbench", "traces", "%s-seed%d.json" % (workload, SEED))
    with open(trace_path) as f:
        events = json.load(f)["traceEvents"]
    root = [e for e in events if e["name"] == workload]
    assert len(root) == 1 and root[0]["args"]["parent"] == -1, where
    rounds = [e for e in events if e["name"] == "PdhtSystem::RunRounds(1)"]
    assert len(rounds) == detail["metrics"]["trace_overhead_frac"]["n"], where
    window = [e for e in events if e["name"] == "window"]
    assert len(window) == 1, where
    assert all(e["args"]["parent"] == window[0]["args"]["id"]
               for e in rounds), where
    assert all(e["dur"] >= 0 for e in events), where


def main():
    os.chdir(ROOT)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert any(m["name"] == "setup_s" and m["unit"] == "s"
               and m["better"] == "lower" for m in spec["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    for workload in WORKLOADS:
        for trace in (0, 1):
            check(workload, trace, spec)
            print("ok  %s --trace %d" % (workload, trace), flush=True)
    print("perfbench self-test passed")


if __name__ == "__main__":
    main()
