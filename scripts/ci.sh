#!/usr/bin/env bash
# One-command CI gate: the tier-1 verify (full build + full ctest
# suite, which includes the campaign determinism and CLI end-to-end
# tests, among them a shard SIGKILLed mid-campaign, resumed and
# merged), a warning-free Release build of the same tree (-Werror),
# the engine tests on the portable switch dispatcher
# (-DENCORE_COMPUTED_GOTO=OFF), scripts/sanitize.sh's thread and
# undefined lanes (ThreadSanitizer over the parallel loop itself, the
# concurrent trial-store writer, the pooled trial loop and the
# multi-threaded campaign/resume/shard/merge and planner paths;
# UndefinedBehaviorSanitizer, with recovery off, over the full suite,
# so the dispatch loop and every reader of untrusted bytes run under
# it), then a campaign-planner smoke (sweep-reuse tally identity
# against brute force), a scenario-matrix smoke (every fault-model x
# detector pair byte-identical across --jobs, fig8's snapshot counters
# included, with the snapshot tier off, and at the former default
# stride 1024), a provenance check (fig8's --json names the checked-out
# revision), a figure smoke (fig5,
# fig6, fig7a, fig7b, the ablation table and table1 byte-identical
# across --jobs), the repo benchmark's seed-1 output digests
# (perfbench/), and a warn-only
# interpreter-throughput smoke (the decoded engine against the
# reference engine, measured in one run).
#
# Usage: scripts/ci.sh [build-root]
#   build-root defaults to build-ci/ next to the source tree. The
#   tier-1 lane builds into <build-root>/tier1, the -Werror lane into
#   <build-root>/werror, the switch lane into <build-root>/switch, the
#   sanitizer lanes into <build-root>/thread and
#   <build-root>/undefined, so none touches a developer's build/.
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_root="${1:-${repo_root}/build-ci}"

echo "==> [tier1] configure + build"
cmake -B "${build_root}/tier1" -S "${repo_root}" > /dev/null
cmake --build "${build_root}/tier1" -j "$(nproc)" > /dev/null
echo "==> [tier1] full ctest suite"
(cd "${build_root}/tier1" && ctest --output-on-failure -j "$(nproc)")

echo "==> [werror] warning-free Release build"
# Every target of the tier-1 tree must build without a single warning
# in the Release configuration the benchmark uses (-O3 reaches code
# paths -O2 does not, e.g. GCC's -Wrestrict in inlined string code), so
# a change to the dispatch loop or anywhere else cannot add one
# unnoticed. The errors go to stderr; stdout is dropped.
cmake -B "${build_root}/werror" -S "${repo_root}" \
    -DCMAKE_BUILD_TYPE=Release -DCMAKE_CXX_FLAGS=-Werror > /dev/null
cmake --build "${build_root}/werror" -j "$(nproc)" > /dev/null
echo "werror: Release build is warning-free"

echo "==> [switch] portable dispatcher: engine tests without computed goto"
# GCC and Clang default to the computed-goto dispatcher; the dense
# switch is the fallback for other compilers, so build it here and run
# the tests that pin the decoded engine against the reference engine,
# the campaign and snapshot-tier identities, and the rollback oracle.
engine_tests='test_interp_ops|test_decoded|test_random_programs|test_engine_identity|test_snapshot_differential|test_rollback_oracle'
cmake -B "${build_root}/switch" -S "${repo_root}" \
    -DENCORE_COMPUTED_GOTO=OFF > /dev/null
cmake --build "${build_root}/switch" -j "$(nproc)" \
    --target ${engine_tests//|/ } > /dev/null
(cd "${build_root}/switch" &&
    ctest --output-on-failure -R "${engine_tests}")

echo "==> [sanitize] TSan campaign smoke + UBSan full suite"
"${repo_root}/scripts/sanitize.sh" "${build_root}" thread undefined

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
# so they are filtered before the diff. The --jobs 1 and --jobs 4 runs
# also write fig8's --json, whose snapshot_* fields (snapshots kept,
# bytes, hit rate, resyncs, anchors, entry resyncs) must agree too: a
# resync count that depended on the thread schedule would change no
# outcome, only those counters. The timing fields are left out of that
# diff.
scenario_dir="${build_root}/scenario_smoke"
rm -rf "${scenario_dir}" && mkdir -p "${scenario_dir}"
fig8_bin="${build_root}/tier1/bench/fig8_fault_coverage"
snapshot_fields() {
    grep -o -e '"name": "[^"]*"' -e '"snapshot_[a-z_]*": [0-9.]*' "$1"
}
for model in reg-bit multi-bit cf-branch mem-bus; do
    for detector in analytic replay; do
        tag="${model}_${detector}"
        for variant in j1 j4 nosnap stride1024; do
            jobs=1
            stride=()
            json=""
            [ "${variant}" = j4 ] && jobs=4
            [ "${variant}" = nosnap ] && stride=(--snapshot-stride 0)
            [ "${variant}" = stride1024 ] && stride=(--snapshot-stride 1024)
            case "${variant}" in
                j1 | j4) json="${scenario_dir}/${tag}_${variant}.json" ;;
            esac
            "${fig8_bin}" --workloads rawcaudio,pegwitdec,mpeg2dec \
                --trials 200 --fault-model "${model}" \
                --detector "${detector}" --jobs "${jobs}" --json "${json}" \
                "${stride[@]}" \
                | grep -v -e '^Perf:' -e ' jobs)\.' -e '^Wrote ' \
                > "${scenario_dir}/${tag}_${variant}.txt"
        done
        diff -u "${scenario_dir}/${tag}_j1.txt" \
            "${scenario_dir}/${tag}_j4.txt" || {
            echo "scenario-smoke: ${model} + ${detector} diverges" \
                "between --jobs 1 and --jobs 4" >&2
            exit 1
        }
        diff -u <(snapshot_fields "${scenario_dir}/${tag}_j1.json") \
            <(snapshot_fields "${scenario_dir}/${tag}_j4.json") || {
            echo "scenario-smoke: ${model} + ${detector} snapshot" \
                "counters diverge between --jobs 1 and --jobs 4" >&2
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
        echo "scenario-smoke: ${model} + ${detector}: jobs, snapshot counter, snapshot and stride identity held"
    done
done

echo "==> [provenance] fig8 --json names the checked-out revision"
# The build root is reused across runs, so a build that misses a new
# commit keeps reporting the old hash as build.git_hash in every
# --json report. The scenario smoke's reports come from this build.
if ! command -v git > /dev/null; then
    echo "provenance: skipped (git is not on PATH)"
elif [ ! -e "${repo_root}/.git" ]; then
    echo "provenance: skipped (${repo_root} is not a git checkout)"
else
    want="$(git -C "${repo_root}" rev-parse --short=12 HEAD)"
    got="$(grep -o '"git_hash": "[^"]*"' \
        "${scenario_dir}/reg-bit_analytic_j1.json" | cut -d'"' -f4)"
    if [ "${got}" != "${want}" ]; then
        echo "provenance: fig8 --json reports git_hash '${got}'," \
            "but HEAD is ${want}" >&2
        exit 1
    fi
    echo "provenance: git_hash ${got} is HEAD"
fi

echo "==> [figures] figure and table benches byte-identical across --jobs"
# The benches prepare workloads on --jobs threads and print rows in
# suite order, so the thread count must not change a byte of their
# output. fig8 is checked across --jobs in the scenario smoke above.
figures_dir="${build_root}/figure_smoke"
rm -rf "${figures_dir}" && mkdir -p "${figures_dir}"
for run in fig5_region_idempotence fig6_dynamic_breakdown \
    fig7a_runtime_overhead fig7b_storage_overhead ablation_heuristics \
    table1_comparison "table1_comparison --trials 100"; do
    read -r -a cmd <<< "${run}"
    tag="${run// /_}"
    for jobs in 1 4; do
        "${build_root}/tier1/bench/${cmd[0]}" "${cmd[@]:1}" \
            --jobs "${jobs}" > "${figures_dir}/${tag}_j${jobs}.txt"
    done
    diff -u "${figures_dir}/${tag}_j1.txt" "${figures_dir}/${tag}_j4.txt" || {
        echo "figure-smoke: ${run} diverges between --jobs 1 and" \
            "--jobs 4" >&2
        exit 1
    }
done
echo "figure-smoke: every figure and table identical at --jobs 1 and 4"

echo "==> [perfbench] seed-1 output digests (campaign, durable, sweep)"
# Hard gate on the repo benchmark's output checks: at seed 1 every
# cell's outcome tally must hash to the digest in perfbench/digests,
# which were recorded with snapshots off. One unit per workload
# (--seconds 0) runs the default trial path (snapshot seek, hooks armed
# at the fault anchor, golden resync) against them. run.py builds into
# .bench_build/ under the repo root and exits non-zero on any mismatch.
for workload in campaign durable sweep; do
    (cd "${repo_root}" && python3 perfbench/run.py --workload "${workload}" \
        --seed 1 --seconds 0 --trace 0) > /dev/null || {
        echo "perfbench: ${workload} failed its seed-1 output checks" >&2
        exit 1
    }
    echo "perfbench: ${workload} digests held"
done

echo "==> [perf] interpreter-throughput smoke (warn-only)"
# The decoded engine runs every campaign above; a silent regression
# there shows up everywhere. interp_throughput measures reference and
# decoded throughput per workload in one run, and the smoke compares
# the two suite means from that run.
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
         for engine in ("reference", "decoded")}
for engine, mips in means.items():
    print(f"interp-smoke: mean_{engine}_mips: {mips:.1f}")
ratio = means["decoded"] / max(means["reference"], 1e-9)
print(f"interp-smoke: decoded/reference ratio {ratio:.2f}x")
if ratio <= 1.0:
    print("interp-smoke: WARNING: decoded is not faster than reference")
print("interp-smoke: warn-only")
EOF

echo "==> ci passed (tier1 + werror + switch dispatcher + tsan campaign lane + ubsan suite + planner smoke + scenario matrix + provenance + figure smoke + perfbench digests + interp smoke)"
