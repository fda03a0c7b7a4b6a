#!/usr/bin/env python3
"""Line coverage of the wrsn library, per src/ module, with a floor.

    python3 scripts/coverage_report.py --build build-cov

Run it from the repository root after ctest has run in a build configured
with -DCMAKE_CXX_FLAGS=--coverage.  It runs gcov in JSON mode over the
library's .gcda files (the objects of the `wrsn` target), merges the
per-translation-unit reports -- a header line counts once, as executed when
any unit executed it -- and prints executed and total lines for each src/
module and for the whole library.  Exits 1 when the library-wide figure is
below FLOOR percent, 2 when there is no coverage data to read.
"""
import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
# Library-wide line coverage, percent, below which the report fails: the
# measured figure rounded down to a whole percent.  Raise it as tests grow.
FLOOR = 92


def library_gcda(build):
    """The .gcda files of the library target's objects."""
    objects = os.path.join(build, "src", "CMakeFiles", "wrsn.dir")
    found = []
    for dirpath, _, names in os.walk(objects):
        found.extend(os.path.join(dirpath, n) for n in names if n.endswith(".gcda"))
    return sorted(found)


def gcov_reports(gcda):
    """gcov's JSON document for one object file."""
    done = subprocess.run(["gcov", "--json-format", "--stdout", gcda],
                          cwd=os.path.dirname(gcda), stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, check=True)
    for line in done.stdout.splitlines():
        if line.strip():
            yield json.loads(line)


def merged_lines(gcda_files, build):
    """{src-relative path: {line: executed}} over every object file."""
    lines = {}
    for gcda in gcda_files:
        for report in gcov_reports(gcda):
            cwd = report.get("current_working_directory", build)
            for entry in report["files"]:
                path = os.path.normpath(os.path.join(cwd, entry["file"]))
                if not path.startswith(SRC + os.sep):
                    continue  # system and third-party headers
                per_file = lines.setdefault(os.path.relpath(path, SRC), {})
                for line in entry["lines"]:
                    number = line["line_number"]
                    per_file[number] = per_file.get(number, False) or line["count"] > 0
    return lines


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--build", required=True, help="the --coverage build directory")
    args = parser.parse_args()

    gcda_files = library_gcda(os.path.abspath(args.build))
    if not gcda_files:
        print("no .gcda files under %s: build with --coverage and run ctest first"
              % args.build, file=sys.stderr)
        return 2
    lines = merged_lines(gcda_files, os.path.abspath(args.build))

    modules = {}
    for path, per_file in lines.items():
        module = path.split(os.sep)[0]
        executed, total = modules.get(module, (0, 0))
        modules[module] = (executed + sum(per_file.values()), total + len(per_file))

    print("%-10s %9s %7s %7s" % ("module", "executed", "total", "lines"))
    for module in sorted(modules):
        executed, total = modules[module]
        print("%-10s %9d %7d %6.1f%%" % (module, executed, total, 100.0 * executed / total))
    executed = sum(e for e, _ in modules.values())
    total = sum(t for _, t in modules.values())
    percent = 100.0 * executed / total
    print("%-10s %9d %7d %6.1f%%" % ("library", executed, total, percent))
    if percent < FLOOR:
        print("library line coverage %.2f%% is below the floor of %d%%" % (percent, FLOOR),
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
