/**
 * @file
 * Figure 7a: runtime performance overhead (percent extra dynamic
 * instructions) under the conservative Static Alias Analysis and the
 * profile-guided Optimistic Alias Analysis lower bound.
 *
 * Overheads are *measured* by executing the instrumented module on the
 * training input and counting pseudo-op executions, not just projected
 * from the model.
 */
#include <iostream>

#include "common.h"
#include "interp/interpreter.h"
#include "support/strings.h"

using namespace encore;

namespace {

double
measureOverhead(const bench::PreparedWorkload &prepared)
{
    interp::Interpreter interp(*prepared.module);
    const interp::RunResult result = interp.run(
        prepared.workload->entry, prepared.workload->train_args);
    if (!result.ok())
        return -1.0;
    const double baseline =
        static_cast<double>(result.dyn_instrs - result.overhead_instrs);
    return baseline > 0.0
               ? static_cast<double>(result.overhead_instrs) / baseline
               : 0.0;
}

} // namespace

int
main(int argc, char **argv)
{
    CommandLine cli = bench::jobsFlags();
    bench::addJsonFlag(cli, "");
    cli.parse(argc, argv);
    const std::size_t jobs = bench::jobsFlag(cli);
    const std::string json_path = cli.getString("json");

    bench::printHeader(
        "Figure 7a",
        "Measured runtime overhead (extra dynamic instructions / "
        "baseline), Static vs\nOptimistic alias analysis, 20% budget. "
        "Paper: 14% mean with static analysis.");

    bench::SuiteTable table({"benchmark", "Static AA", "Optimistic AA"},
                            bench::percentMeans);
    bench::mapWorkloads(
        jobs,
        // Parallel: instrument + execute under both alias modes.
        [](const workloads::Workload &w) {
            EncoreConfig static_cfg;
            static_cfg.alias_mode = EncoreConfig::AliasMode::Static;
            auto static_run = bench::prepareWorkload(w, static_cfg);

            EncoreConfig opt_cfg;
            opt_cfg.alias_mode = EncoreConfig::AliasMode::Optimistic;
            auto opt_run = bench::prepareWorkload(w, opt_cfg);

            return std::vector<double>{measureOverhead(static_run),
                                       measureOverhead(opt_run)};
        },
        [&](const workloads::Workload &w,
            const std::vector<double> &overheads) {
            table.add(w, overheads);
        });
    table.table().print(std::cout);

    std::cout << "\nPaper shape check: mean static-AA overhead in the "
                 "low-to-mid teens, under the\n20% budget; optimistic "
                 "AA strictly lower (paper's approximate lower "
                 "bound).\n";

    const bool json_ok = bench::writeJsonReport(
        json_path, [&](std::ostream &out) {
            out << "  \"bench\": \"fig7a_runtime_overhead\",\n";
            table.writeJson(out, [](std::ostream &row,
                                    const std::vector<double> &oh) {
                row << "\"static_overhead\": " << formatFixed(oh[0], 6)
                    << ", \"optimistic_overhead\": "
                    << formatFixed(oh[1], 6);
            });
        });
    return json_ok ? 0 : 1;
}
