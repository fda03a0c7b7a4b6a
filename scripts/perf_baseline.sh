#!/usr/bin/env bash
# Rebuilds a benchmark family in Release mode and refreshes its committed
# BENCH_<family>.json baseline at the repo root.
#
# Usage:  scripts/perf_baseline.sh [--bench hotpaths|policy|exact]
#                                  [--runs N] [--scale paper|ci] [bench flags...]
#
#   --bench hotpaths   micro_hotpaths           -> BENCH_hotpaths.json (default)
#   --bench policy     ablation_charging_policy -> BENCH_policy.json
#   --bench exact      exact_frontier           -> BENCH_exact.json
#
# The planning daemon is measured by perfbench's `service` workload
# (python3 perfbench/run.py --workload service), not by a baseline here.
#
# Extra flags (e.g. --threads 4, --benchmark_filter=...) are passed through to
# the selected binary; --runs maps to --benchmark_repetitions.
#
# The published baseline has the volatile context fields ("date", "load_avg")
# stripped so trajectory diffs against a re-recorded baseline only show
# benchmark rows, never ambient machine noise.
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${repo_root}/build-bench"

bench="hotpaths"
if [[ "${1:-}" == "--bench" ]]; then
  bench="${2:?--bench needs a family: hotpaths|policy|exact}"
  shift 2
fi
case "${bench}" in
  hotpaths) target="micro_hotpaths" ;;
  policy)   target="ablation_charging_policy" ;;
  exact)    target="exact_frontier" ;;
  *)
    echo "error: unknown --bench family '${bench}' (hotpaths|policy|exact)" >&2
    exit 2
    ;;
esac
baseline="${repo_root}/BENCH_${bench}.json"

cmake -B "${build_dir}" -S "${repo_root}" \
  -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build "${build_dir}" --target "${target}" -j "$(nproc)"

# Record to a staging file and only publish it after checking the context
# block says the *binary* was optimized.  (The stock "library_build_type"
# field reflects how the Google Benchmark library itself was compiled --
# distro packages ship it as debug -- so our benches additionally emit
# "wrsn_build_type" for this binary's own NDEBUG/optimization state.)
staging="$(mktemp "${baseline}.XXXXXX")"
trap 'rm -f "${staging}"' EXIT

"${build_dir}/bench/${target}" \
  --benchmark_out="${staging}" \
  --benchmark_out_format=json \
  "$@"

if ! grep -q '"wrsn_build_type": "release"' "${staging}"; then
  echo "error: ${target} was not an optimized Release build;" \
       "refusing to record the perf baseline" >&2
  exit 1
fi

# Provenance: the binary stamps the revision it was configured against into
# the context ("wrsn_git_sha"); warn when the recorded baseline would claim a
# revision other than the current checkout (stale build tree or dirty HEAD).
baseline_sha="$(sed -n 's/.*"wrsn_git_sha": "\([^"]*\)".*/\1/p' "${staging}" | head -n1)"
head_sha="$(git -C "${repo_root}" rev-parse --short=12 HEAD 2>/dev/null || echo unknown)"
if [[ -z "${baseline_sha}" ]]; then
  echo "warning: ${target} emitted no wrsn_git_sha context" >&2
elif [[ "${baseline_sha}" != "${head_sha}" ]]; then
  echo "warning: baseline records git SHA ${baseline_sha} but HEAD is ${head_sha}" \
       "(stale build tree? configure again to restamp)" >&2
fi

# Drop per-run ambient noise from the context so committed baselines diff
# cleanly: "date" and "load_avg" change on every recording without saying
# anything about the code under test.
python3 - "${staging}" <<'PY'
import json, sys
path = sys.argv[1]
with open(path) as f:
    doc = json.load(f)
for key in ("date", "load_avg"):
    doc.get("context", {}).pop(key, None)
with open(path, "w") as f:
    json.dump(doc, f, indent=2)
    f.write("\n")
PY

mv "${staging}" "${baseline}"
trap - EXIT
echo "Wrote ${baseline} (git ${baseline_sha:-unknown})"
