#!/usr/bin/env bash
# The end-to-end benchmark: build sieve_e2e from this source tree,
# then run it.
#
#   bench/e2e/run.sh [--workload W] [--seed N] [--seconds S]
#                    [--trace 0|1] [--trace-out F] [--smoke]
#   bench/e2e/run.sh --self-test
#
# Without --workload every workload runs, each in its own process.
# Each run prints its metrics (name, value, unit, sample count), the
# recorded environment, `ops=N failed=M`, and ends with one JSON line.
# The exit status is non-zero if any op failed or any check did not
# hold. --self-test corrupts a copy of one pinned output and fails
# unless the run catches it. See bench/e2e/README.md.
set -euo pipefail
cd "$(dirname "$0")/../.."

if [[ ! -f CMakeLists.txt || ! -d src || ! -d bench/e2e/expected ]]; then
    echo "run.sh: $(pwd) is not a complete sieve source tree" >&2
    exit 2
fi

build=build-e2e
mkdir -p "$build"
configure=(true)
if [[ ! -f "$build/CMakeCache.txt" ]]; then
    configure=(cmake -S bench/e2e -B "$build" -DCMAKE_BUILD_TYPE=RelWithDebInfo)
fi
if ! { "${configure[@]}" && cmake --build "$build" -j 4; } \
    > "$build/build.log" 2>&1; then
    tail -n 30 "$build/build.log" >&2
    echo "run.sh: build failed (full log: $build/build.log)" >&2
    exit 2
fi

revision=unknown
if [[ -e .git ]] && rev=$(git rev-parse --short=12 HEAD 2>/dev/null); then
    revision=$rev
    git diff --quiet HEAD 2>/dev/null || revision="$rev+dirty"
fi
bench=("$build/sieve_e2e" --revision "$revision")

if [[ "${1:-}" == "--self-test" ]]; then
    copy="$build/self-test-expected"
    rm -rf "$copy"
    cp -r bench/e2e/expected "$copy"
    echo "corrupted" >> "$copy/offline-paper/gru.txt"
    log="$build/self-test.log"
    if "${bench[@]}" --workload offline-paper --smoke \
        --expected "$copy" > "$log" 2>&1; then
        echo "self-test FAILED: a corrupted expectation passed" >&2
        exit 1
    fi
    if ! tail -n 1 "$log" | grep -q '"correct": false'; then
        echo "self-test FAILED: the run did not report the mismatch" >&2
        exit 1
    fi
    rm -rf "$copy"
    echo "self-test passed: the corrupted expectation failed the run"
    exit 0
fi

for arg in "$@"; do
    if [[ "$arg" == "--workload" ]]; then
        exec "${bench[@]}" "$@"
    fi
done

status=0
for workload in offline-paper repsim serve-unique serve-repeat; do
    "${bench[@]}" --workload "$workload" "$@" || status=1
done
exit "$status"
