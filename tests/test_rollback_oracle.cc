/**
 * @file
 * Exhaustive rollback oracle: the paper's central claim — rolling back
 * to a region's entry reproduces the fault-free output in every region
 * Encore marks idempotent or checkpointed — checked at every fault
 * site instead of a sample. For each workload on its train input, one
 * trial per value instruction of the golden run strikes that
 * instruction with an empty flip (xor mask 0) and detects it at once
 * (latency 0). The trial rolls back whatever region instance is active
 * there and must finish with the golden output, so any RecoveryFailed
 * is a bug in the Eq. 1–4 dataflow, the instrumenter or the recovery
 * runtime, never bad luck.
 *
 * Covered with pruning off (the paper's ∅ column) and at the default
 * Pmin 0.0, with the snapshot tier on; and with the tier off on three
 * short workloads, where every trial re-executes from program entry.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "common.h"
#include "fault/injector.h"
#include "workloads/workload.h"

namespace encore {
namespace {

/// Reported failing sites per workload and configuration.
constexpr std::size_t kMaxReportedSites = 10;

/// Strikes every value-instruction site of `injector`'s golden run
/// through runTrial under runTrials at 4 jobs, and fails the test on
/// each RecoveryFailed site, naming `label`.
fault::CampaignResult
strikeEverySite(const fault::FaultInjector &injector,
                const std::string &label)
{
    const std::uint64_t sites = injector.golden().value_instrs;
    // One flag per site; each body writes only its own.
    std::vector<std::uint8_t> failed(sites, 0);
    const fault::CampaignResult result = fault::runTrials(
        injector, 4, sites,
        [&](std::uint64_t site, interp::Interpreter &interp) {
            fault::TrialDraw draw;
            draw.plan.kind = fault::models::InjectionPlan::Kind::RegFlip;
            draw.plan.target_value_index = site;
            draw.plan.xor_mask = 0;
            draw.detection.kind =
                fault::models::DetectionPlan::Kind::Latency;
            draw.detection.latency = 0;
            const fault::TrialResult trial = injector.runTrial(draw, interp);
            failed[site] =
                trial.outcome == fault::FaultOutcome::RecoveryFailed;
            return trial;
        });

    EXPECT_EQ(result.trials, sites) << label;
    EXPECT_EQ(result.count(fault::FaultOutcome::Masked), 0u) << label;
    std::size_t reported = 0;
    for (std::uint64_t site = 0;
         site < sites && reported < kMaxReportedSites; ++site) {
        if (failed[site]) {
            ADD_FAILURE() << label << ": RecoveryFailed at site " << site;
            ++reported;
        }
    }
    EXPECT_EQ(result.count(fault::FaultOutcome::RecoveryFailed), 0u)
        << label;
    return result;
}

/// Strikes every site of the workloads in `names` (every workload when
/// empty) under `config`, then prints the configuration's totals and
/// the time its trials took.
void
runSweep(const std::string &config_name, const EncoreConfig &config,
         bool snapshots, const std::vector<std::string> &names)
{
    fault::CampaignResult total;
    double trial_seconds = 0.0;
    for (const workloads::Workload &w : workloads::allWorkloads()) {
        if (!names.empty() &&
            std::find(names.begin(), names.end(), w.name) == names.end())
            continue;
        const bench::PreparedWorkload prepared =
            bench::prepareWorkload(w, config);
        fault::FaultInjector injector(*prepared.module, prepared.report);
        interp::SnapshotConfig tier;
        tier.enabled = snapshots;
        injector.configureSnapshots(tier);
        ASSERT_TRUE(injector.prepare(w.entry, w.train_args)) << w.name;
        const auto start = std::chrono::steady_clock::now();
        total.merge(strikeEverySite(injector, w.name + ", " + config_name));
        trial_seconds += std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
    }
    const std::uint64_t recovered =
        total.count(fault::FaultOutcome::RecoveredIdempotent) +
        total.count(fault::FaultOutcome::RecoveredCheckpoint);
    std::printf(
        "[oracle] %s: %llu sites, %llu recovered, %llu not recoverable, "
        "%llu benign, %llu recovery failed, trials %.2f s\n",
        config_name.c_str(), static_cast<unsigned long long>(total.trials),
        static_cast<unsigned long long>(recovered),
        static_cast<unsigned long long>(
            total.count(fault::FaultOutcome::NotRecoverable)),
        static_cast<unsigned long long>(
            total.count(fault::FaultOutcome::Benign)),
        static_cast<unsigned long long>(
            total.count(fault::FaultOutcome::RecoveryFailed)),
        trial_seconds);
    // The oracle only bites if rollbacks actually ran.
    EXPECT_GT(recovered, 0u) << config_name;
}

EncoreConfig
pruningOff()
{
    EncoreConfig config;
    config.prune = false;
    return config;
}

TEST(RollbackOracle, EverySiteOfEveryWorkloadRecoversWithPruningOff)
{
    runSweep("pruning off", pruningOff(), true, {});
}

TEST(RollbackOracle, EverySiteOfEveryWorkloadRecoversAtPmin0)
{
    runSweep("Pmin 0.0", EncoreConfig{}, true, {});
}

TEST(RollbackOracle, EverySiteRecoversWithTheSnapshotTierOff)
{
    // Every trial re-executes from program entry, so the sweep is
    // quadratic in the program's length: three of the shortest
    // programs (5,578 to 9,134 sites) that also checkpoint memory.
    runSweep("Pmin 0.0, snapshot tier off", EncoreConfig{}, false,
             {"256.bzip2", "cjpeg", "179.art"});
}

} // namespace
} // namespace encore
