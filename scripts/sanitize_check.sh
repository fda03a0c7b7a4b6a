#!/usr/bin/env bash
# Runs the full test suite under a sanitizer in a dedicated build tree.
# ThreadSanitizer is the default -- it exercises the parallel local-search
# and ThreadPool paths -- but any -fsanitize= value works:
#
#   scripts/sanitize_check.sh                  # thread
#   scripts/sanitize_check.sh address,undefined
#
# Every sanitizer build also defines _GLIBCXX_ASSERTIONS, so each
# std::vector index in the library is bounds-checked while the suite runs.
set -euo pipefail

sanitize="${1:-thread}"
repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${repo_root}/build-${sanitize//,/_}"

cmake -B "${build_dir}" -S "${repo_root}" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS=-D_GLIBCXX_ASSERTIONS \
  -DWRSN_SANITIZE="${sanitize}" >/dev/null
cmake --build "${build_dir}" -j "$(nproc)"
ctest --test-dir "${build_dir}" --output-on-failure -j "$(nproc)"
