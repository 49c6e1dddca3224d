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
 */
#include <iostream>

#include "common.h"
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

/// The ablation grid, in table order.
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

} // namespace

int
main(int argc, char **argv)
{
    CommandLine cli = bench::jobsFlags();
    cli.parse(argc, argv);
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
