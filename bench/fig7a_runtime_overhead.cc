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

    Table table({"benchmark", "Static AA", "Optimistic AA"});

    double sum_static = 0, sum_opt = 0;
    int count = 0;
    std::map<std::string, std::pair<double, int>> suite_static;
    std::map<std::string, double> suite_opt;

    struct JsonRow
    {
        std::string name;
        std::string suite;
        double static_oh;
        double opt_oh;
    };
    std::vector<JsonRow> json_rows;

    std::string current_suite;
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

            return std::pair<double, double>{measureOverhead(static_run),
                                             measureOverhead(opt_run)};
        },
        [&](const workloads::Workload &w,
            const std::pair<double, double> &overheads) {
            const auto [static_oh, opt_oh] = overheads;
            json_rows.push_back(
                JsonRow{w.name, w.suite, static_oh, opt_oh});
            if (w.suite != current_suite) {
                if (!current_suite.empty())
                    table.addSeparator();
                current_suite = w.suite;
            }
            table.addRow({w.name, formatPercent(static_oh),
                          formatPercent(opt_oh)});
            sum_static += static_oh;
            sum_opt += opt_oh;
            ++count;
            suite_static[w.suite].first += static_oh;
            suite_static[w.suite].second += 1;
            suite_opt[w.suite] += opt_oh;
        });

    table.addSeparator();
    for (const std::string &suite : workloads::suiteNames()) {
        const auto &[s, c] = suite_static[suite];
        table.addRow({"Mean " + suite, formatPercent(s / c),
                      formatPercent(suite_opt[suite] / c)});
    }
    table.addRow({"Mean ALL", formatPercent(sum_static / count),
                  formatPercent(sum_opt / count)});
    table.print(std::cout);

    std::cout << "\nPaper shape check: mean static-AA overhead in the "
                 "low-to-mid teens, under the\n20% budget; optimistic "
                 "AA strictly lower (paper's approximate lower "
                 "bound).\n";

    const bool json_ok = bench::writeJsonReport(
        json_path, [&](std::ostream &out) {
            out << "  \"bench\": \"fig7a_runtime_overhead\",\n"
                << "  \"workloads\": [\n";
            for (std::size_t i = 0; i < json_rows.size(); ++i) {
                const JsonRow &row = json_rows[i];
                out << "    {\"name\": \"" << row.name
                    << "\", \"suite\": \"" << row.suite
                    << "\", \"static_overhead\": "
                    << formatFixed(row.static_oh, 6)
                    << ", \"optimistic_overhead\": "
                    << formatFixed(row.opt_oh, 6) << "}"
                    << (i + 1 < json_rows.size() ? "," : "") << "\n";
            }
            out << "  ]\n}\n";
        });
    return json_ok ? 0 : 1;
}
