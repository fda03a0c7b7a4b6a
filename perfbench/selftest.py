#!/usr/bin/env python3
"""Smoke-size self-test of the benchmark.

    python3 perfbench/selftest.py

Run it from the repository root.  Every workload runs tiny (--smoke), once
per mode, plus once more with another seed.  Each run must print a result
line with exactly the keys correct/attempted/failed/metrics, report no
failure, and emit exactly BENCHMARK.json's metric names and units
(end_to_end with --trace 0, per_layer with --trace 1).  The second seed
must change the inputs (the input digest) but not the metric set.
"""
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(workload, seed, trace):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    if done.returncode != 0:
        raise AssertionError(f"{workload} seed {seed} trace {trace}: exit {done.returncode}")
    lines = done.stdout.strip().splitlines()
    details = json.loads(lines[-2].split(" ", 1)[1])
    return json.loads(lines[-1]), details


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    expected = {
        trace: {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}
        for trace in (0, 1)
    }
    failures = 0
    for workload in (w["name"] for w in bench["workloads"]):
        try:
            first, first_details = run(workload, 1, 0)
            second, second_details = run(workload, 2, 0)
            traced, _ = run(workload, 1, 1)
            for trace, result in ((0, first), (0, second), (1, traced)):
                assert set(result) == RESULT_KEYS, f"result keys {sorted(result)}"
                assert result["correct"] and result["failed"] == 0, f"failures: {result}"
                assert result["attempted"] >= 1, "nothing attempted"
                units = {name: entry["unit"] for name, entry in result["metrics"].items()}
                assert units == expected[trace], f"trace {trace} metrics differ"
                for name, entry in result["metrics"].items():
                    value = entry["value"]
                    assert isinstance(value, (int, float)), f"{name} is not a number"
            digest = first_details["details"]["input_digest"]
            assert digest != second_details["details"]["input_digest"], "seed did not change inputs"
            assert set(first["metrics"]) == set(second["metrics"]), "seed changed the metric set"
            print(f"ok   {workload}")
        except AssertionError as error:
            failures += 1
            print(f"FAIL {workload}: {error}")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
