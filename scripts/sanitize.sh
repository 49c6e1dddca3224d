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
#               (registry singletons read from every worker)
#               + test_snapshot_differential
#               (parallel campaigns through the unfused branch/memory
#               hook dispatch path) + test_injector (the pooled trial
#               loop, fault::runTrials, at 4 threads)
#   address   : the full suite (heap/stack/use-after-free gate for the
#               pooled interpreter state: frames, undo logs, memory;
#               also the trial-store reader against crafted headers and
#               the SIGKILLed-shard resume + merge in test_campaign_cli)
#   undefined : the full suite (overflow/misalignment/OOB-shift gate
#               for the interned-ID set machinery and bit-twiddling
#               in the decoded engine; recovery is disabled so any
#               report fails the test)
#
# Usage: scripts/sanitize.sh [build-root]
#   build-root defaults to build-sanitize/ next to the source tree.
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_root="${1:-${repo_root}/build-sanitize}"

run_lane() {
    local lane="$1"
    shift
    local build_dir="${build_root}/${lane}"
    echo "==> [${lane}] configure + build"
    cmake -B "${build_dir}" -S "${repo_root}" \
        -DENCORE_SANITIZE="${lane}" > /dev/null
    cmake --build "${build_dir}" -j > /dev/null
    echo "==> [${lane}] ctest $*"
    (cd "${build_dir}" && ctest --output-on-failure "$@")
}

run_lane thread -R 'test_campaign_smoke|test_store_concurrency|test_campaign$|test_planner|test_fault_models|test_snapshot_differential|test_injector'
run_lane address
run_lane undefined

echo "==> all sanitizer lanes passed"
