/**
 * @file
 * Table 1: comparison with conventional checkpointing schemes.
 *
 * The Enterprise and Architectural rows quote the paper's
 * characterization of prior work; the Encore row is *measured* from
 * this implementation: mean dynamic region length, mean checkpoint
 * storage, and mean checkpoint work per region instance across all
 * workloads.
 */
#include <filesystem>
#include <iostream>

#include <optional>
#include <vector>

#include "campaign/runner.h"
#include "common.h"
#include "fault/injector.h"
#include "support/stats.h"
#include "support/strings.h"

using namespace encore;

int
main(int argc, char **argv)
{
    CommandLine cli = bench::standardFlags("0");
    bench::addJsonFlag(cli, "");
    cli.addFlag("dmax", "100",
                "detection latency for the measured-coverage column "
                "(used when --trials > 0)");
    cli.addFlag("mask", "0.91", "hardware masking rate");
    cli.addFlag("store", "",
                "directory for durable trial stores when --trials > 0 "
                "(campaigns resume across reruns; empty = in-memory)");
    bench::addFaultModelFlag(cli);
    bench::addDetectorFlag(cli);
    cli.parse(argc, argv);
    const std::size_t jobs = bench::jobsFlag(cli);
    const std::string json_path = cli.getString("json");
    // getUint, not getInt-and-cast: `--trials -1` must be an error,
    // not a campaign of 2^64-1 trials.
    const std::uint64_t trials = cli.getUint("trials");
    const std::uint64_t seed = cli.getUint("seed");
    const std::uint64_t dmax = cli.getUint("dmax");
    const double mask_rate = cli.getDouble("mask");
    const std::string store_dir = cli.getString("store");
    // The scenario axis: --fault-model / --detector accept comma-
    // separated lists (empty = all registered), and the measured
    // column runs one campaign per pair. The first pair backs the
    // "Guaranteed Recovery" row, so the default single-pair run is
    // byte-identical to the pre-registry output.
    struct Scenario
    {
        const fault::models::FaultModel *model;
        const fault::models::Detector *detector;
    };
    std::vector<Scenario> scenarios;
    for (const fault::models::FaultModel *model :
         bench::faultModelListFlag(cli))
        for (const fault::models::Detector *detector :
             bench::detectorListFlag(cli))
            scenarios.push_back({model, detector});
    const bool default_only =
        scenarios.size() == 1 &&
        scenarios[0].model == fault::models::defaultFaultModel() &&
        scenarios[0].detector == fault::models::defaultDetector();
    if (!store_dir.empty())
        std::filesystem::create_directories(store_dir);

    bench::printHeader(
        "Table 1",
        "Comparison with conventional checkpointing schemes; the "
        "Encore row is measured\nfrom the instrumented workloads.");

    RunningStats region_len;
    RunningStats slot_storage;
    RunningStats log_storage;
    RunningStats ckpt_work;
    std::vector<double> lengths;

    struct SelectedRegion
    {
        double hot_path, slot_bytes, log_bytes, work;
    };
    struct ScenarioResult
    {
        double covered = 0.0;
        std::uint64_t replay_cost = 0;
    };
    struct WorkloadRow
    {
        std::vector<SelectedRegion> regions;
        /// One entry per scenario; empty when --trials is 0 or the
        /// injector could not prepare the workload.
        std::vector<ScenarioResult> measured;
    };
    RunningStats coverage;
    std::vector<RunningStats> scenario_cov(scenarios.size());
    std::vector<std::uint64_t> scenario_replay(scenarios.size(), 0);
    bench::mapWorkloads(
        jobs,
        [&](const workloads::Workload &w) {
            EncoreConfig config;
            auto prepared = bench::prepareWorkload(w, config);
            WorkloadRow row;
            for (const RegionReport &region : prepared.report.regions) {
                if (!region.selected || region.entries <= 0.0)
                    continue;
                row.regions.push_back(
                    {region.hot_path_length,
                     region.static_storage_mem_bytes +
                         region.static_storage_reg_bytes,
                     region.storage_bytes,
                     region.overhead_instrs / region.entries});
            }
            // Opt-in measured coverage: back the "Guaranteed Recovery"
            // row with an actual campaign. Workloads already run on
            // `jobs` threads, so each campaign stays single-threaded;
            // with --store the campaigns are durable and resumable.
            if (trials > 0) {
                fault::FaultInjector injector(*prepared.module,
                                              prepared.report);
                if (injector.prepare(w.entry, w.train_args)) {
                    for (const Scenario &sc : scenarios) {
                        fault::CampaignConfig campaign;
                        campaign.trials = trials;
                        campaign.seed = seed;
                        campaign.jobs = 1;
                        campaign.masking_rate = mask_rate;
                        campaign.trial.dmax = dmax;
                        campaign.trial.model = sc.model;
                        campaign.trial.detector = sc.detector;
                        campaign::RunnerOptions opts;
                        if (!store_dir.empty()) {
                            // The default pair keeps the historic
                            // store name so existing campaigns resume;
                            // other scenarios get their own stores
                            // (the header would refuse the mismatch
                            // anyway).
                            std::string store_name =
                                w.name + "_d" + std::to_string(dmax);
                            if (sc.model !=
                                    fault::models::defaultFaultModel() ||
                                sc.detector !=
                                    fault::models::defaultDetector())
                                store_name +=
                                    "_" + std::string(sc.model->name()) +
                                    "_" +
                                    std::string(sc.detector->name());
                            opts.store_path =
                                store_dir + "/" + store_name + ".trials";
                        }
                        campaign::CampaignRunner runner(injector,
                                                        campaign, opts);
                        const fault::CampaignResult result =
                            runner.run().result;
                        row.measured.push_back(
                            {result.coveredFraction(),
                             result.replay_cost});
                    }
                }
            }
            return row;
        },
        [&](const workloads::Workload &, const WorkloadRow &row) {
            for (const SelectedRegion &region : row.regions) {
                region_len.add(region.hot_path);
                lengths.push_back(region.hot_path);
                slot_storage.add(region.slot_bytes);
                log_storage.add(region.log_bytes);
                ckpt_work.add(region.work);
            }
            for (std::size_t i = 0; i < row.measured.size(); ++i) {
                scenario_cov[i].add(row.measured[i].covered);
                scenario_replay[i] += row.measured[i].replay_cost;
            }
            if (!row.measured.empty())
                coverage.add(row.measured[0].covered);
        });

    Table table({"Attributes", "Enterprise", "Architectural",
                 "Encore (measured)"});
    table.addRow({"Interval Length", "~hours", "100-500K instructions",
                  formatFixed(percentile(lengths, 50), 0) +
                      " dyn instrs median (mean " +
                      formatFixed(region_len.mean(), 0) + ", max " +
                      formatFixed(region_len.max(), 0) + ")"});
    table.addRow({"Storage Space", "0.5 - 1 GB", "0.5 - 1 MB",
                  formatFixed(slot_storage.mean(), 1) +
                      " B/region slots (undo log mean " +
                      formatFixed(log_storage.mean(), 0) + " B)"});
    table.addRow({"Checkpoint Time", "~minutes", "~ms",
                  formatFixed(ckpt_work.mean(), 1) +
                      " instrs/region entry"});
    table.addRow({"Scope", "Full System", "Processor", "Processor"});
    table.addRow({"Guaranteed Recovery", "Yes", "Yes",
                  coverage.count() > 0
                      ? "No (" + formatPercent(coverage.mean()) +
                            " measured at Dmax=" +
                            std::to_string(dmax) + ")"
                      : "No"});
    table.addRow({"Extra Hardware", "Sometimes", "Yes", "No"});
    table.print(std::cout);

    if (!default_only && coverage.count() > 0) {
        std::cout << "\nScenario matrix (measured coverage per "
                     "fault-model x detector pair):\n";
        Table scen({"Scenario", "Covered", "Replay cost"});
        for (std::size_t i = 0; i < scenarios.size(); ++i) {
            scen.addRow(
                {std::string(scenarios[i].model->name()) + " + " +
                     std::string(scenarios[i].detector->name()),
                 formatPercent(scenario_cov[i].mean()),
                 scenarios[i].detector->reportsReplayCost()
                     ? std::to_string(scenario_replay[i]) + " instrs"
                     : std::string("-")});
        }
        scen.print(std::cout);
    }

    std::cout << "\nPaper shape check: Encore intervals of ~100-1000 "
                 "instructions with ~10-100 B of\ncheckpoint state — "
                 "orders of magnitude finer/cheaper than the other "
                 "rows.\n";

    const bool json_ok = bench::writeJsonReport(
        json_path, [&](std::ostream &out) {
            out << "  \"bench\": \"table1_comparison\",\n"
                << "  \"selected_regions\": " << region_len.count()
                << ",\n  \"interval_length\": {\"median\": "
                << formatFixed(percentile(lengths, 50), 3)
                << ", \"mean\": " << formatFixed(region_len.mean(), 3)
                << ", \"max\": " << formatFixed(region_len.max(), 3)
                << "},\n  \"storage_bytes\": {\"slot_mean\": "
                << formatFixed(slot_storage.mean(), 3)
                << ", \"undo_log_mean\": "
                << formatFixed(log_storage.mean(), 3)
                << "},\n  \"checkpoint_work_instrs_per_entry\": "
                << formatFixed(ckpt_work.mean(), 3);
            if (coverage.count() > 0) {
                out << ",\n  \"measured_coverage\": {\"trials\": "
                    << trials << ", \"dmax\": " << dmax
                    << ", \"mean_covered\": "
                    << formatFixed(coverage.mean(), 6)
                    << ", \"scenarios\": [";
                for (std::size_t i = 0; i < scenarios.size(); ++i) {
                    if (i > 0)
                        out << ", ";
                    out << "{\"fault_model\": \""
                        << scenarios[i].model->name()
                        << "\", \"detector\": \""
                        << scenarios[i].detector->name()
                        << "\", \"mean_covered\": "
                        << formatFixed(scenario_cov[i].mean(), 6)
                        << ", \"replay_cost\": "
                        << scenario_replay[i] << "}";
                }
                out << "]}";
            }
            out << "\n}\n";
        });
    return json_ok ? 0 : 1;
}
