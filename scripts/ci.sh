#!/usr/bin/env bash
# One-command CI gate: the tier-1 verify (full build + full ctest
# suite, which includes the campaign determinism and CLI end-to-end
# tests, among them a shard SIGKILLed mid-campaign, resumed and
# merged), the engine tests on the portable switch dispatcher
# (-DENCORE_COMPUTED_GOTO=OFF), the ThreadSanitizer campaign lane (the
# parallel loop itself, the concurrent trial-store writer, the pooled
# trial loop and the multi-threaded campaign/resume/shard/merge and
# planner paths; the same test set as scripts/sanitize.sh's thread
# lane), then a campaign-planner smoke (sweep-reuse tally identity
# against brute force), a scenario-matrix smoke (every fault-model x
# detector pair byte-identical across --jobs, with the snapshot tier
# off, and at the former default stride 1024), the repo benchmark's
# seed-1 output digests (perfbench/), and a warn-only
# interpreter-throughput smoke (the fused superinstruction tier
# against the decoded and reference engines, measured in one run).
#
# Usage: scripts/ci.sh [build-root]
#   build-root defaults to build-ci/ next to the source tree. The
#   tier-1 lane builds into <build-root>/tier1, the switch lane into
#   <build-root>/switch, the TSan lane into <build-root>/tsan, so none
#   touches a developer's build/.
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_root="${1:-${repo_root}/build-ci}"

echo "==> [tier1] configure + build"
cmake -B "${build_root}/tier1" -S "${repo_root}" > /dev/null
cmake --build "${build_root}/tier1" -j "$(nproc)" > /dev/null
echo "==> [tier1] full ctest suite"
(cd "${build_root}/tier1" && ctest --output-on-failure -j)

echo "==> [switch] portable dispatcher: engine tests without computed goto"
# GCC and Clang default to the computed-goto dispatcher; the dense
# switch is the fallback for other compilers, so build it here and run
# the tests that pin the engines against each other and the reference.
engine_tests='test_interp_ops|test_decoded|test_random_programs|test_engine_identity|test_snapshot_differential'
cmake -B "${build_root}/switch" -S "${repo_root}" \
    -DENCORE_COMPUTED_GOTO=OFF > /dev/null
cmake --build "${build_root}/switch" -j "$(nproc)" \
    --target ${engine_tests//|/ } > /dev/null
(cd "${build_root}/switch" &&
    ctest --output-on-failure -R "${engine_tests}")

echo "==> [tsan] configure + build"
cmake -B "${build_root}/tsan" -S "${repo_root}" \
    -DENCORE_SANITIZE=thread > /dev/null
cmake --build "${build_root}/tsan" -j "$(nproc)" > /dev/null
echo "==> [tsan] campaign smoke: parallel loop + concurrent store writer + runner"
(cd "${build_root}/tsan" &&
    ctest --output-on-failure \
        -R 'test_campaign_smoke|test_store_concurrency|test_campaign$|test_planner|test_fault_models|test_snapshot_differential|test_injector|test_thread_pool')

echo "==> [planner] sweep-reuse tally identity"
# Hard gate on the planner's central contract: a sidecar-reuse run
# must produce the exact same outcome tally as brute force. Three
# runs of the same campaign — brute, planner cold (everything
# executed, sidecar written), planner warm (everything folded from
# the sidecar) — must agree line-for-line from the "trials N" block
# down, and the warm run must execute zero trials.
planner_dir="${build_root}/planner_smoke"
rm -rf "${planner_dir}" && mkdir -p "${planner_dir}"
campaign_bin="${build_root}/tier1/tools/encore_campaign"
"${campaign_bin}" run --workload rawcaudio --trials 400 --seed 7 \
    | sed -n '/^trials /,$p' > "${planner_dir}/brute.txt"
"${campaign_bin}" run --workload rawcaudio --trials 400 --seed 7 \
    --sidecar "${planner_dir}/rawcaudio.tally" \
    | sed -n '/^trials /,$p' > "${planner_dir}/cold.txt"
"${campaign_bin}" run --workload rawcaudio --trials 400 --seed 7 \
    --sidecar "${planner_dir}/rawcaudio.tally" \
    > "${planner_dir}/warm_full.txt"
sed -n '/^trials /,$p' "${planner_dir}/warm_full.txt" \
    > "${planner_dir}/warm.txt"
diff -u "${planner_dir}/brute.txt" "${planner_dir}/cold.txt"
diff -u "${planner_dir}/brute.txt" "${planner_dir}/warm.txt"
grep -q 'executed 0$' "${planner_dir}/warm_full.txt" || {
    echo "planner-smoke: warm sidecar run re-executed trials" >&2
    exit 1
}
echo "planner-smoke: tally identity held (brute == cold == warm)"

echo "==> [scenario] fault-model x detector matrix smoke (--jobs and snapshot identity)"
# Every registered fault-model/detector pair gets a small fig8 run at
# --jobs 1 and --jobs 4 with the default snapshot tier, at --jobs 1
# with the tier off (--snapshot-stride 0: no prefix seek, no
# region-entry anchors, no resync), and at --jobs 1 with the former
# default stride 1024 (its snapshots and anchors differ from the
# default's); all four reports must be byte-identical (the per-trial
# counter seeding contract, and the tier's never-changes-an-outcome
# contract at either stride, per scenario). mpeg2dec
# is in the set because its one long region instance is where most
# trials converge at a region entry. The Perf line (wall-clock) and
# the "N jobs" half of the header are the only legitimate differences,
# so they are filtered before the diff.
scenario_dir="${build_root}/scenario_smoke"
rm -rf "${scenario_dir}" && mkdir -p "${scenario_dir}"
fig8_bin="${build_root}/tier1/bench/fig8_fault_coverage"
for model in reg-bit multi-bit cf-branch mem-bus; do
    for detector in analytic replay; do
        tag="${model}_${detector}"
        for variant in j1 j4 nosnap stride1024; do
            jobs=1
            stride=()
            [ "${variant}" = j4 ] && jobs=4
            [ "${variant}" = nosnap ] && stride=(--snapshot-stride 0)
            [ "${variant}" = stride1024 ] && stride=(--snapshot-stride 1024)
            "${fig8_bin}" --workloads rawcaudio,pegwitdec,mpeg2dec \
                --trials 200 --fault-model "${model}" \
                --detector "${detector}" --jobs "${jobs}" --json "" \
                "${stride[@]}" \
                | grep -v -e '^Perf:' -e ' jobs)\.' \
                > "${scenario_dir}/${tag}_${variant}.txt"
        done
        diff -u "${scenario_dir}/${tag}_j1.txt" \
            "${scenario_dir}/${tag}_j4.txt" || {
            echo "scenario-smoke: ${model} + ${detector} diverges" \
                "between --jobs 1 and --jobs 4" >&2
            exit 1
        }
        diff -u "${scenario_dir}/${tag}_j1.txt" \
            "${scenario_dir}/${tag}_nosnap.txt" || {
            echo "scenario-smoke: ${model} + ${detector} diverges" \
                "between the snapshot tier on and off" >&2
            exit 1
        }
        diff -u "${scenario_dir}/${tag}_j1.txt" \
            "${scenario_dir}/${tag}_stride1024.txt" || {
            echo "scenario-smoke: ${model} + ${detector} diverges" \
                "between the default stride and stride 1024" >&2
            exit 1
        }
        echo "scenario-smoke: ${model} + ${detector}: jobs, snapshot and stride identity held"
    done
done

echo "==> [perfbench] seed-1 output digests (campaign, durable, sweep)"
# Hard gate on the repo benchmark's output checks: at seed 1 every
# cell's outcome tally must hash to the digest in perfbench/digests,
# which were recorded on the decoded engine with snapshots off. One
# unit per workload (--seconds 0) runs the default trial path (fused
# engine, snapshot seek, hooks armed at the fault anchor, golden
# resync) against them. run.py builds into .bench_build/ under the
# repo root and exits non-zero on any mismatch.
for workload in campaign durable sweep; do
    (cd "${repo_root}" && python3 perfbench/run.py --workload "${workload}" \
        --seed 1 --seconds 0 --trace 0) > /dev/null || {
        echo "perfbench: ${workload} failed its seed-1 output checks" >&2
        exit 1
    }
    echo "perfbench: ${workload} digests held"
done

echo "==> [perf] interpreter-throughput smoke (warn-only)"
# The fused superinstruction tier is the engine under every campaign
# above; a silent regression there shows up everywhere.
# interp_throughput measures reference/decoded/fused throughput per
# workload in one run, and the smoke compares the three suite means
# from that run.
# Warn-only: throughput on a shared machine is too noisy for a hard
# gate, and the ratios between engines of one run divide out most of
# the machine difference.
interp_json="${build_root}/interp_smoke.json"
rm -f "${interp_json}"
"${build_root}/tier1/bench/interp_throughput" \
    --json "${interp_json}" > /dev/null 2>&1 || true
python3 - "${interp_json}" <<'EOF'
import json, sys
try:
    with open(sys.argv[1]) as f:
        cur = json.load(f)
except (OSError, ValueError) as e:
    print(f"interp-smoke: no report ({e}); interp_throughput failed above "
          "(skipping comparison)")
    sys.exit(0)
means = {engine: cur[f"mean_{engine}_mips"]
         for engine in ("reference", "decoded", "fused")}
for engine, mips in means.items():
    print(f"interp-smoke: mean_{engine}_mips: {mips:.1f}")
for other in ("reference", "decoded"):
    ratio = means["fused"] / max(means[other], 1e-9)
    print(f"interp-smoke: fused/{other} ratio {ratio:.2f}x")
if max(means, key=means.get) != "fused":
    print("interp-smoke: WARNING: fused is not the fastest engine")
print("interp-smoke: warn-only")
EOF

echo "==> ci passed (tier1 + switch dispatcher + tsan campaign lane + planner smoke + scenario matrix + perfbench digests + interp smoke)"
