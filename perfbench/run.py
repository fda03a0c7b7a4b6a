#!/usr/bin/env python3
"""Runs one perfbench workload and prints its result as the last stdout line.

    python3 perfbench/run.py --workload paper_sweep --seed 1 --seconds 10 --trace 0

Run it from the repository root.  It builds the harness in Release mode
under .bench_build/perfbench (or $CARGO_TARGET_DIR/perfbench) from the
sources in this checkout, runs one workload, checks the metric names and
units against BENCHMARK.json and the costs against perfbench/pins.json, and
prints

    perfbench-details {...}        provenance, tails with sample counts, errors
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end metrics; with
--trace 1 they are its per_layer metrics, and the Chrome trace and layer
table land in .bench_out/.  A build failure, an invalid run or a debug
build exits non-zero without a result line.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
HARNESS_TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build():
    """Configures and builds the harness; returns its path."""
    out = build_dir()
    configure = ["cmake", "-S", BENCH_DIR, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        configure += ["-G", "Ninja"]
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for command in (configure, ["cmake", "--build", out, "-j", jobs]):
        done = subprocess.run(command, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            log("perfbench: build step failed:", " ".join(command))
            sys.exit(1)
    return os.path.join(out, "perfbench_harness")


def load_json(path):
    with open(path) as handle:
        return json.load(handle)


def expected_metrics(trace):
    spec = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    entries = spec["per_layer" if trace else "end_to_end"]
    return {entry["name"]: entry["unit"] for entry in entries}


def same_cost(a, b, rel=1e-9):
    # The library's contract: relative, with no absolute floor (costs are J/bit).
    return abs(a - b) <= rel * max(abs(a), abs(b))


def check_pins(workload, costs):
    """Returns (checked, mismatched, unpinned) over the result's cost lists."""
    pins = load_json(os.path.join(BENCH_DIR, "pins.json")).get(workload, {})
    checked = mismatched = unpinned = 0
    for key, values in costs.items():
        pinned = pins.get(key)
        if pinned is None:
            unpinned += 1
            log("perfbench: costs for", key, "have no pin")
            continue
        checked += 1
        if len(pinned) != len(values) or not all(
            same_cost(p, v) for p, v in zip(pinned, values)
        ):
            mismatched += 1
            log("perfbench: costs for", key, "differ from the pinned ones")
    return checked, mismatched, unpinned


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the self-test only")
    parser.add_argument("--pin", action="store_true",
                        help="run every pinned input once and print its costs")
    args = parser.parse_args()

    harness = build()
    command = [harness, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.smoke:
        command.append("--smoke")
    if args.pin:
        command.append("--pin")
    try:
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: the harness ran longer than", HARNESS_TIMEOUT_S, "s")
        sys.exit(1)
    if done.returncode != 0:
        log("perfbench: harness exited with", done.returncode)
        sys.exit(done.returncode)
    report = json.loads(done.stdout.strip().splitlines()[-1])
    if args.pin:
        print(json.dumps(report["costs"], sort_keys=True))
        return

    expected = expected_metrics(args.trace)
    got = {name: entry["unit"] for name, entry in report["metrics"].items()}
    if got != expected:
        log("perfbench: metric names or units differ from BENCHMARK.json")
        log("  missing:", sorted(set(expected) - set(got)))
        log("  extra:  ", sorted(set(got) - set(expected)))
        log("  units:  ", sorted(n for n in got if n in expected and got[n] != expected[n]))
        sys.exit(1)

    attempted = int(report["attempted"])
    failed = int(report["failed"])
    errors = dict(report["errors"])
    # Pins cover the real corpus; smoke inputs are other, tiny instances.
    costs = {} if args.smoke else report["costs"]
    checked, mismatched, unpinned = check_pins(args.workload, costs)
    if mismatched:
        failed += mismatched
        errors["pin_mismatch"] = mismatched
    # An input without a pin is a failure, not a skip: a change to how the
    # inputs are keyed must not switch the check off unnoticed.
    if unpinned:
        failed += unpinned
        errors["unpinned"] = unpinned
    pinned_workload = args.workload in load_json(os.path.join(BENCH_DIR, "pins.json"))
    if not args.smoke and pinned_workload and checked == 0:
        failed += 1
        errors["no_pins_checked"] = 1
    failed = min(failed, attempted)

    details = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "provenance": report["provenance"],
        "errors": errors,
        "failed_ratio": failed / attempted if attempted else None,
        "pins": {"checked": checked, "mismatched": mismatched, "unpinned": unpinned},
        "details": report["details"],
    }
    print("perfbench-details " + json.dumps(details, sort_keys=True))
    metrics = {name: {"value": entry["value"], "unit": entry["unit"]}
               for name, entry in report["metrics"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
