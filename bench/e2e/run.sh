#!/usr/bin/env bash
# Builds bench_e2e in Release into build-e2e/ at the repository root and
# runs it from the repository root (relative paths below are relative to
# it). Build output goes to stderr, so the last stdout line is always the
# benchmark's own.
#
#   bench/e2e/run.sh [--seed N] [--json out.json]        # the whole suite
#   bench/e2e/run.sh --workload W --seed N --seconds S --trace 0|1
#   bench/e2e/run.sh --compare A.json B.json
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
build="$root/build-e2e"

jobs="$(nproc 2>/dev/null || echo 2)"
if (( jobs > 4 )); then jobs=4; fi
generator=()
if command -v ninja >/dev/null 2>&1; then generator=(-G Ninja); fi

if [[ ! -f "$build/CMakeCache.txt" ]]; then
  cmake -S "$here" -B "$build" "${generator[@]}" \
    -DCMAKE_BUILD_TYPE=Release >&2
fi
cmake --build "$build" -j "$jobs" >&2

cd "$root"
exec "$build/bench_e2e" "$@"
