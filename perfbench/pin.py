#!/usr/bin/env python3
"""Regenerates perfbench/pins.json: the costs the benchmark checks its runs against.

    python3 perfbench/pin.py

Run it from the repository root, and only for a change that is meant to
alter the solvers' results.  Each pinned workload draws its inputs from a
fixed corpus; run.py --pin solves every corpus entry once, and the costs
are recorded with twelve significant digits, enough for run.py's 1e-9
relative comparison.
"""
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PINNED_WORKLOADS = ("paper_sweep", "large_field")


def main():
    pins = {}
    for workload in PINNED_WORKLOADS:
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
             "--seconds", "1", "--pin"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
        costs = json.loads(done.stdout.strip().splitlines()[-1])
        pins[workload] = {key: [float("%.12g" % v) for v in values]
                          for key, values in sorted(costs.items())}
        print(workload, len(costs), "corpus entries pinned", file=sys.stderr)

    lines = ["{"]
    for w, workload in enumerate(PINNED_WORKLOADS):
        lines.append('  "%s": {' % workload)
        items = list(pins[workload].items())
        for i, (key, values) in enumerate(items):
            comma = "," if i + 1 < len(items) else ""
            lines.append('    "%s": %s%s' % (key, json.dumps(values), comma))
        lines.append("  }%s" % ("," if w + 1 < len(PINNED_WORKLOADS) else ""))
    lines.append("}")
    with open(os.path.join(ROOT, "perfbench", "pins.json"), "w") as handle:
        handle.write("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
