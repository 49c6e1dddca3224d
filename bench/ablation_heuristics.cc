/**
 * @file
 * Ablation study over Encore's heuristic knobs (not a paper figure;
 * exercises the design choices DESIGN.md calls out):
 *
 *  - Pmin sweep: statistical pruning vs overhead and protected share;
 *  - gamma sweep: region-selection threshold vs coverage/overhead;
 *  - eta / merging: interval merging on vs off;
 *  - storage budget: Table 1's working-set cap vs protected share;
 *  - call summaries: interprocedural mod/ref vs paper-style Unknown.
 *
 * Reported per configuration: projected overhead, dynamic fraction
 * protected, and region counts — averaged over all workloads.
 *
 * --planner-bench switches to the campaign-planner comparison: the
 * wall-clock of sweeping the same config grid with fault campaigns,
 * brute force vs sidecar reuse (tally identity asserted per point).
 */
#include <chrono>
#include <filesystem>
#include <iostream>

#include "campaign/planner.h"
#include "common.h"
#include "fault/injector.h"
#include "support/checksum.h"
#include "support/diagnostics.h"
#include "support/strings.h"

using namespace encore;

namespace {

struct AblationRow
{
    double overhead = 0;
    double protected_dyn = 0;
    double regions = 0;
    double selected = 0;
    int count = 0;
};

AblationRow
rowFromReport(const EncoreReport &report)
{
    AblationRow one;
    one.overhead = report.projectedOverheadFraction();
    one.protected_dyn = report.dynFractionIdempotent() +
                        report.dynFractionCheckpointed();
    one.regions = static_cast<double>(report.regions.size());
    for (const RegionReport &region : report.regions)
        one.selected += region.selected ? 1.0 : 0.0;
    return one;
}

/// Means over the whole suite for one config point. The grid shares
/// one analysis base (and memoized region dataflow) per workload.
AblationRow
evaluate(const EncoreConfig &config, const ThreadPool &pool,
         const std::vector<std::unique_ptr<bench::WorkloadSession>>
             &sessions)
{
    std::vector<AblationRow> ones(sessions.size());
    pool.parallelFor(sessions.size(), [&](std::uint64_t i, std::size_t) {
        ones[i] = rowFromReport(sessions[i]->analyze(config));
    });
    AblationRow row;
    for (const AblationRow &one : ones) {
        row.overhead += one.overhead;
        row.protected_dyn += one.protected_dyn;
        row.regions += one.regions;
        row.selected += one.selected;
        ++row.count;
    }
    return row;
}

void
addRow(Table &table, const std::string &label, const AblationRow &row)
{
    table.addRow({label, formatPercent(row.overhead / row.count),
                  formatPercent(row.protected_dyn / row.count),
                  formatFixed(row.regions / row.count, 1),
                  formatFixed(row.selected / row.count, 1)});
}

struct GridPoint
{
    std::string label;
    EncoreConfig config;
    /// True where a separator follows in the table rendering.
    bool separator_after = false;
};

/// The ablation grid — one list shared by the heuristic table and the
/// planner sweep benchmark, so the benchmark measures exactly the
/// sweep the table performs.
std::vector<GridPoint>
ablationGrid()
{
    std::vector<GridPoint> grid;
    grid.push_back({"baseline (Pmin=0, gamma=50, merge on)",
                    EncoreConfig{}, true});
    for (const double pmin : {-1.0, 0.0, 0.1, 0.25}) {
        EncoreConfig config;
        config.prune = pmin >= 0.0;
        config.pmin = std::max(pmin, 0.0);
        grid.push_back({pmin < 0 ? "Pmin=none"
                                 : "Pmin=" + formatFixed(pmin, 2),
                        config, pmin == 0.25});
    }
    for (const double gamma : {5.0, 50.0, 500.0, 5000.0}) {
        EncoreConfig config;
        config.gamma = gamma;
        grid.push_back({"gamma=" + formatFixed(gamma, 0), config,
                        gamma == 5000.0});
    }
    {
        EncoreConfig config;
        config.merge_regions = false;
        grid.push_back({"merging off (level-0 intervals only)",
                        config});
    }
    for (const double eta : {10.0, 100.0, 1000.0}) {
        EncoreConfig config;
        config.eta = eta;
        grid.push_back({"eta=" + formatFixed(eta, 0), config,
                        eta == 1000.0});
    }
    for (const double bytes : {64.0, 256.0, 1024.0, 8192.0}) {
        EncoreConfig config;
        config.max_storage_bytes = bytes;
        grid.push_back({"storage<=" + formatFixed(bytes, 0) + "B",
                        config, bytes == 8192.0});
    }
    {
        EncoreConfig config;
        config.use_call_summaries = false;
        grid.push_back({"call summaries off (paper Unknown rule)",
                        config});
    }
    {
        EncoreConfig config;
        config.auto_tune = false;
        grid.push_back({"budget auto-tune off", config});
    }
    {
        EncoreConfig config;
        config.alias_mode = EncoreConfig::AliasMode::Optimistic;
        grid.push_back({"optimistic alias analysis", config});
    }
    return grid;
}

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/// Planner comparison mode: the ablation grid swept with fault
/// campaigns, brute force vs sidecar reuse, per workload.
int
runPlannerBench(const CommandLine &cli)
{
    const std::uint64_t seed = cli.getUint("seed");
    const std::uint64_t sweep_trials = cli.getUint("trials");

    // Sidecar reuse refuses non-anchored models and replay-cost
    // detectors (the planner's probeSidecar gates).
    const fault::models::FaultModel &fault_model =
        bench::faultModelFlag(cli);
    const fault::models::Detector &detector = bench::detectorFlag(cli);

    std::vector<std::string> sweep_names;
    for (const std::string &name :
         split(cli.getString("planner-workloads"), ','))
        if (!name.empty())
            sweep_names.push_back(name);

    const std::vector<GridPoint> grid = ablationGrid();
    bench::printHeader(
        "Planner benchmark",
        std::to_string(grid.size()) + "-point config sweep at " +
            std::to_string(sweep_trials) +
            " trials/point, brute force vs sidecar reuse "
            "(tally-identity\nasserted per point).");
    if (&fault_model != fault::models::defaultFaultModel() ||
        &detector != fault::models::defaultDetector())
        std::cout << "Scenario: " << fault_model.name() << " + "
                  << detector.name() << ".\n\n";

    struct SweepRow
    {
        double brute_seconds = 0.0;
        double planner_seconds = 0.0;
        std::uint64_t brute_executed = 0;
        std::uint64_t planner_executed = 0;
    };
    double brute_total = 0.0, planner_total = 0.0;
    const std::string sidecar_dir = "planner_bench_sidecars";
    std::filesystem::create_directories(sidecar_dir);
    for (const std::string &name : sweep_names) {
        const workloads::Workload *w = workloads::findWorkload(name);
        if (w == nullptr) {
            std::cerr << "error: unknown workload '" << name
                      << "'; valid names:\n";
            for (const workloads::Workload &known :
                 workloads::allWorkloads())
                std::cerr << "  " << known.name << " (" << known.suite
                          << ")\n";
            return 1;
        }
        SweepRow sweep_row;
        const std::string sidecar =
            sidecar_dir + "/" + name + ".tally";
        std::filesystem::remove(sidecar); // cold start every run
        for (const GridPoint &point : grid) {
            auto prepared = bench::prepareWorkload(*w, point.config);
            fault::FaultInjector injector(*prepared.module,
                                          prepared.report);
            if (!injector.prepare(w->entry, w->train_args))
                fatalf("golden run failed for ", name);
            fault::CampaignConfig campaign;
            campaign.trials = sweep_trials;
            campaign.seed = seed;
            campaign.jobs = 1;
            campaign.trial.dmax = 100;
            campaign.trial.model = &fault_model;
            campaign.trial.detector = &detector;

            auto start = std::chrono::steady_clock::now();
            const fault::CampaignResult brute =
                injector.runCampaign(campaign);
            sweep_row.brute_seconds += secondsSince(start);
            sweep_row.brute_executed += sweep_trials;

            campaign::PlannerOptions popts;
            popts.sidecar_path = sidecar;
            popts.program_key = fnv1a64(name);
            campaign::CampaignPlanner planner(
                injector, prepared.report, campaign, popts);
            start = std::chrono::steady_clock::now();
            const campaign::PlanSummary planned = planner.run();
            sweep_row.planner_seconds += secondsSince(start);
            sweep_row.planner_executed += planned.executed;

            // The planner's contract: reuse must be invisible in the
            // tallies at every sweep point.
            for (std::size_t i = 0;
                 i < static_cast<std::size_t>(
                         fault::FaultOutcome::NumOutcomes);
                 ++i)
                if (planned.result.counts[i] != brute.counts[i])
                    fatalf("planner tally mismatch at '", point.label,
                           "' for ", name, ": outcome ", i, " ",
                           planned.result.counts[i], " vs ",
                           brute.counts[i]);
        }
        std::cout << name << ": brute "
                  << formatFixed(sweep_row.brute_seconds, 2)
                  << "s, planner "
                  << formatFixed(sweep_row.planner_seconds, 2) << "s ("
                  << formatFixed(sweep_row.brute_seconds /
                                     std::max(sweep_row.planner_seconds,
                                              1e-9),
                                 1)
                  << "x), executed " << sweep_row.brute_executed
                  << " vs " << sweep_row.planner_executed << "\n";
        brute_total += sweep_row.brute_seconds;
        planner_total += sweep_row.planner_seconds;
    }

    const double speedup =
        brute_total / std::max(planner_total, 1e-9);
    std::cout << "\nsweep speedup " << formatFixed(speedup, 1)
              << "x over " << grid.size() << " grid points\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    // --trials sizes the --planner-bench sweep (trials per grid
    // point; the heuristic table runs no campaign). The default is
    // heavy enough that the per-point planner overhead (fingerprint +
    // sidecar IO) amortises the way a real sweep does.
    CommandLine cli = bench::standardFlags("3000");
    cli.addFlag("planner-bench", "false",
                "run the campaign-planner sweep-reuse comparison "
                "instead of the heuristic table");
    cli.addFlag("planner-workloads", "mpeg2dec,cjpeg,djpeg,rawcaudio",
                "workloads for the sweep-reuse comparison");
    bench::addFaultModelFlag(cli);
    bench::addDetectorFlag(cli);
    cli.parse(argc, argv);
    if (cli.getBool("planner-bench"))
        return runPlannerBench(cli);
    const ThreadPool pool(bench::jobsFlag(cli));

    // One session per workload, shared by every grid point below.
    const std::vector<workloads::Workload> &suite =
        workloads::allWorkloads();
    std::vector<std::unique_ptr<bench::WorkloadSession>> sessions(
        suite.size());
    pool.parallelFor(suite.size(), [&](std::uint64_t i, std::size_t) {
        sessions[i] = std::make_unique<bench::WorkloadSession>(suite[i]);
    });

    bench::printHeader(
        "Ablations",
        "Heuristic sweeps (means over all 23 workloads): overhead, "
        "dynamic fraction\nprotected, candidate regions, selected "
        "regions.");

    Table table({"configuration", "overhead", "protected", "regions",
                 "selected"});

    for (const GridPoint &point : ablationGrid()) {
        addRow(table, point.label, evaluate(point.config, pool, sessions));
        if (point.separator_after)
            table.addSeparator();
    }

    table.print(std::cout);
    return 0;
}
