/**
 * @file
 * Example: inspect Encore's region decisions for any workload.
 *
 * Runs the full pipeline on one of the 23 bundled benchmarks (or all
 * of them) and prints the per-region report: classification, selection
 * decision and why, hot-path length, checkpoint counts, projected
 * overhead and storage. This is the tool to reach for when you want to
 * understand *why* a region was (not) protected.
 *
 * Usage:
 *   region_inspector --workload=175.vpr
 *   region_inspector --workload=181.mcf --pmin=0.1 --budget=0.10
 */
#include <iostream>

#include "encore/pipeline.h"
#include "ir/dot.h"
#include "support/cli.h"
#include "support/strings.h"
#include "support/table.h"
#include "workloads/workload.h"

using namespace encore;

namespace {

void
inspect(const workloads::Workload &w, const EncoreConfig &base_config,
        bool dot)
{
    auto module = w.build();
    EncoreConfig config = base_config;
    for (const std::string &name : w.opaque)
        config.opaque_functions.insert(name);
    EncorePipeline pipeline(*module, config);
    const EncoreReport report =
        pipeline.run({RunSpec{w.entry, w.train_args}});

    std::cout << "=== " << w.name << " (" << w.suite << ") ===\n";
    std::cout << "baseline dynamic instructions: "
              << static_cast<std::uint64_t>(report.baseline_dyn_instrs)
              << ", projected overhead: "
              << formatPercent(report.projectedOverheadFraction())
              << "\n";
    std::cout << "dynamic breakdown: idempotent "
              << formatPercent(report.dynFractionIdempotent())
              << ", checkpointed "
              << formatPercent(report.dynFractionCheckpointed())
              << ", unprotected "
              << formatPercent(report.dynFractionUnprotected()) << "\n\n";

    Table table({"region", "class", "sel", "entries", "hot path",
                 "dyn%", "ckpts m/r", "oh instrs", "note"});
    double total_dyn = std::max(report.baseline_dyn_instrs, 1.0);
    for (const RegionReport &region : report.regions) {
        std::string name = region.function + "#" +
                           std::to_string(region.header);
        std::string note = region.selected
                               ? ""
                               : (region.rejection_reason.empty()
                                      ? region.unknown_reason
                                      : region.rejection_reason);
        if (note.size() > 38)
            note = note.substr(0, 35) + "...";
        table.addRow({name, regionClassName(region.cls),
                      region.selected ? "yes" : "no",
                      formatFixed(region.entries, 0),
                      formatFixed(region.hot_path_length, 1),
                      formatPercent(region.dyn_instrs / total_dyn),
                      std::to_string(region.static_mem_ckpts) + "/" +
                          std::to_string(region.static_reg_ckpts),
                      formatFixed(region.overhead_instrs, 0), note});
    }
    table.print(std::cout);
    std::cout << "\n";

    if (dot) {
        // Colour blocks by the decision of the region that owns them.
        for (const auto &func : module->functions()) {
            std::map<ir::BlockId, ir::DotBlockStyle> styles;
            for (const RegionReport &region : report.regions) {
                if (region.function != func->name())
                    continue;
                const std::string fill =
                    !region.selected ? "#f4cccc"
                    : region.cls == RegionClass::Idempotent ? "#d9ead3"
                                                            : "#fff2cc";
                // The report carries the header id; recolour the whole
                // region via the pipeline's block lists is not exposed,
                // so mark headers and annotate.
                styles[region.header] = ir::DotBlockStyle{
                    fill, regionClassName(region.cls) +
                              (region.selected ? ", protected"
                                               : ", unprotected")};
            }
            std::cout << ir::functionToDot(*func, styles) << "\n";
        }
    }
}

} // namespace

int
main(int argc, char **argv)
{
    CommandLine cli;
    cli.addFlag("workload", "175.vpr",
                "benchmark name (or 'all' for every workload)");
    cli.addFlag("pmin", "0.0", "pruning threshold (-1 disables)");
    cli.addFlag("budget", "0.20", "runtime overhead budget");
    cli.addFlag("gamma", "50", "region selection threshold");
    cli.addFlag("optimistic", "false",
                "use the profile-guided alias analysis");
    cli.addFlag("dot", "false",
                "also emit Graphviz DOT of each function, region "
                "headers coloured by decision");
    cli.parse(argc, argv);

    EncoreConfig config;
    const double pmin = cli.getDouble("pmin");
    config.prune = pmin >= 0.0;
    config.pmin = std::max(0.0, pmin);
    config.overhead_budget = cli.getDouble("budget");
    config.gamma = cli.getDouble("gamma");
    if (cli.getBool("optimistic"))
        config.alias_mode = EncoreConfig::AliasMode::Optimistic;

    const bool dot = cli.getBool("dot");
    const std::string name = cli.getString("workload");
    if (name == "all") {
        for (const workloads::Workload &w : workloads::allWorkloads())
            inspect(w, config, dot);
        return 0;
    }
    inspect(workloads::workloadNamed(name), config, dot);
    return 0;
}
