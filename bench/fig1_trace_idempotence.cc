/**
 * @file
 * Figure 1: percentage of dynamic instruction traces that are
 * inherently idempotent as a function of trace (window) size, plus the
 * "Idempotence Target" curve — the nearly-idempotent population Encore
 * aims to expose (windows whose WAR violations involve at most a
 * handful of store sites).
 */
#include <iostream>

#include "common.h"
#include "interp/interpreter.h"
#include "interp/profile.h"
#include "support/strings.h"

using namespace encore;

int
main(int argc, char **argv)
{
    CommandLine cli;
    cli.addFlag("sizes", "5,10,25,50,100,250,500,1000",
                "comma-separated window sizes (dynamic instructions)");
    cli.parse(argc, argv);
    const std::vector<std::uint64_t> sizes =
        bench::positiveIntsFlag(cli, "sizes");

    bench::printHeader(
        "Figure 1",
        "Fraction of fixed-size dynamic execution windows with no WAR "
        "hazard\n(fully idempotent), and the nearly-idempotent "
        "'Idempotence Target'.");

    // Collect one trace per workload, grouped by suite.
    struct SuiteAgg
    {
        std::vector<std::uint64_t> windows;
        std::vector<std::uint64_t> idempotent;
        std::vector<std::uint64_t> target;
    };
    std::map<std::string, SuiteAgg> agg;
    for (const std::string &suite : workloads::suiteNames()) {
        agg[suite].windows.assign(sizes.size(), 0);
        agg[suite].idempotent.assign(sizes.size(), 0);
        agg[suite].target.assign(sizes.size(), 0);
    }
    SuiteAgg total;
    total.windows.assign(sizes.size(), 0);
    total.idempotent.assign(sizes.size(), 0);
    total.target.assign(sizes.size(), 0);

    for (const workloads::Workload &w : workloads::allWorkloads()) {
        auto module = w.build();
        interp::TraceCollector trace;
        interp::Interpreter interp(*module);
        interp.setHooks(&trace);
        const auto result = interp.run(w.entry, w.train_args);
        if (!result.ok()) {
            std::cerr << "skipping " << w.name << ": " << result.error
                      << "\n";
            continue;
        }
        for (std::size_t s = 0; s < sizes.size(); ++s) {
            // Target tolerance: a few offending stores, scaled with
            // the window (the paper's 'only a few offending
            // instructions, often on unlikely paths').
            const std::uint64_t tolerance =
                std::max<std::uint64_t>(1, sizes[s] / 100);
            const interp::WindowIdempotence win =
                interp::analyzeWindows(trace, result.dyn_instrs, sizes[s],
                                       tolerance);
            agg[w.suite].windows[s] += win.windows;
            agg[w.suite].idempotent[s] += win.idempotent;
            agg[w.suite].target[s] += win.nearly_idempotent;
            total.windows[s] += win.windows;
            total.idempotent[s] += win.idempotent;
            total.target[s] += win.nearly_idempotent;
        }
    }

    Table table({"window (dyn instrs)", "SPEC2K-INT", "SPEC2K-FP",
                 "MEDIABENCH", "All", "Target (All)"});
    auto pct = [](std::uint64_t num, std::uint64_t den) {
        return den ? formatPercent(static_cast<double>(num) /
                                   static_cast<double>(den))
                   : std::string("-");
    };
    for (std::size_t s = 0; s < sizes.size(); ++s) {
        table.addRow(
            {std::to_string(sizes[s]),
             pct(agg["SPEC2K-INT"].idempotent[s],
                 agg["SPEC2K-INT"].windows[s]),
             pct(agg["SPEC2K-FP"].idempotent[s],
                 agg["SPEC2K-FP"].windows[s]),
             pct(agg["MEDIABENCH"].idempotent[s],
                 agg["MEDIABENCH"].windows[s]),
             pct(total.idempotent[s], total.windows[s]),
             pct(total.target[s], total.windows[s])});
    }
    table.print(std::cout);

    std::cout << "\nPaper shape check: the fully-idempotent fraction "
                 "should fall steeply between\n~10 and ~100 "
                 "instructions, with the target curve staying well "
                 "above it.\n";
    return 0;
}
