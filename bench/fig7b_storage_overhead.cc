/**
 * @file
 * Figure 7b: checkpoint storage overhead — average bytes per region
 * needed to hold Encore's selective checkpointing state, split into
 * memory (16 B per undo record: address + datum) and register (8 B)
 * components. The paper reports ~24 B per region on average.
 */
#include <iostream>

#include "common.h"
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

    bench::SuiteTable table(
        {"benchmark", "Memory B", "Register B", "Total B"},
        [](const std::vector<double> &sums, std::size_t count) {
            std::vector<std::string> cells;
            for (const double sum : sums)
                cells.push_back(formatFixed(sum / count, 1));
            return cells;
        });
    bench::mapWorkloads(
        jobs,
        [](const workloads::Workload &w) {
            EncoreConfig config;
            auto prepared = bench::prepareWorkload(w, config);
            const double mem = prepared.report.avgStorageMemBytes();
            const double reg = prepared.report.avgStorageRegBytes();
            // The total is its own column so its mean sums the rows'
            // totals, not the two means.
            return std::vector<double>{mem, reg, mem + reg};
        },
        [&](const workloads::Workload &w,
            const std::vector<double> &bytes) { table.add(w, bytes); });
    table.table().print(std::cout);

    std::cout << "\nPaper shape check: tens of bytes per region — "
                 "orders of magnitude below\nfull-system "
                 "checkpointing footprints (Table 1).\n";

    const bool json_ok = bench::writeJsonReport(
        json_path, [&](std::ostream &out) {
            out << "  \"bench\": \"fig7b_storage_overhead\",\n";
            table.writeJson(out, [](std::ostream &row,
                                    const std::vector<double> &bytes) {
                row << "\"mem_bytes\": " << formatFixed(bytes[0], 3)
                    << ", \"reg_bytes\": " << formatFixed(bytes[1], 3)
                    << ", \"total_bytes\": " << formatFixed(bytes[2], 3);
            });
        });
    return json_ok ? 0 : 1;
}
