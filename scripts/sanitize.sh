#!/usr/bin/env bash
# Sanitizer lanes for CI and local gating.
#
# Builds the tree under ThreadSanitizer, AddressSanitizer and
# UndefinedBehaviorSanitizer, and runs the relevant ctest subset in
# each lane:
#
#   thread    : test_campaign_smoke (multi-threaded campaign over the
#               shared read-only DecodedModule — the data-race gate)
#               + test_store_concurrency (worker threads and the
#               background flusher hammering one TrialStoreWriter)
#               + test_campaign (resume/shard/merge with a durable
#               store under worker-thread parallelism, including the
#               fault-model x detector scenario matrix)
#               + test_planner (Planner.RunIsByteIdenticalAcrossJobs:
#               a planned campaign at --jobs 4) + test_fault_models
#               (the fault-model and detector tables read from every
#               worker)
#               + test_snapshot_differential
#               (parallel campaigns through the branch/memory filter
#               hooks) + test_injector (the pooled trial loop,
#               fault::runTrials, at 4 threads)
#               + test_thread_pool (ThreadPool::parallelFor itself:
#               the shared index counter, slots, exceptions)
#   address   : the full suite (heap/stack/use-after-free gate for the
#               pooled interpreter state: frames, undo logs, memory;
#               also the trial-store reader against crafted headers and
#               the SIGKILLed-shard resume + merge in test_campaign_cli)
#   undefined : the full suite (overflow/misalignment/OOB-shift gate
#               for the interned-ID set machinery and bit-twiddling
#               in the interpreter's dispatch loop, the rollback
#               oracle included; recovery is disabled so any report
#               fails the test)
#
# Usage: scripts/sanitize.sh [build-root [lane...]]
#   build-root defaults to build-sanitize/ next to the source tree;
#   each lane builds into <build-root>/<lane>. The lanes default to all
#   three; scripts/ci.sh runs the thread and undefined lanes.
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_root="${1:-${repo_root}/build-sanitize}"
lanes=("${@:2}")
[ "${#lanes[@]}" -gt 0 ] || lanes=(thread address undefined)

run_lane() {
    local lane="$1"
    shift
    local build_dir="${build_root}/${lane}"
    echo "==> [${lane}] configure + build"
    cmake -B "${build_dir}" -S "${repo_root}" \
        -DENCORE_SANITIZE="${lane}" > /dev/null
    cmake --build "${build_dir}" -j "$(nproc)" > /dev/null
    echo "==> [${lane}] ctest $*"
    (cd "${build_dir}" && ctest --output-on-failure "$@")
}

for lane in "${lanes[@]}"; do
    case "${lane}" in
      thread)
        run_lane thread -R 'test_campaign_smoke|test_store_concurrency|test_campaign$|test_planner|test_fault_models|test_snapshot_differential|test_injector|test_thread_pool'
        ;;
      address | undefined)
        run_lane "${lane}"
        ;;
      *)
        echo "sanitize: unknown lane '${lane}' (thread, address or undefined)" >&2
        exit 2
        ;;
    esac
done

echo "==> sanitizer lanes passed: ${lanes[*]}"
