/**
 * @file
 * Figure 6: breakdown of dynamic execution time.
 *
 * For each benchmark, the fraction of baseline dynamic instructions
 * spent in (a) inherently idempotent protected regions, (b)
 * non-idempotent regions instrumented with Encore checkpointing, and
 * (c) unprotected regions (lost recoverability coverage).
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
        "Figure 6",
        "Dynamic execution breakdown at Pmin=0.0 under the ~20% "
        "overhead budget:\nIdempotent / w/ Encore Checkpointing / w/o "
        "Encore Checkpointing (lost coverage).");

    Table table({"benchmark", "Idempotent", "w/ Ckpt", "w/o Ckpt"});

    struct Acc
    {
        double idem = 0, ckpt = 0, lost = 0;
        int count = 0;
    };
    std::map<std::string, Acc> by_suite;
    Acc all;

    struct Fractions
    {
        double idem, ckpt, lost;
    };
    struct JsonRow
    {
        std::string name;
        std::string suite;
        Fractions fractions;
    };
    std::vector<JsonRow> json_rows;
    std::string current_suite;
    bench::mapWorkloads(
        jobs,
        [](const workloads::Workload &w) {
            EncoreConfig config;
            auto prepared = bench::prepareWorkload(w, config);
            return Fractions{prepared.report.dynFractionIdempotent(),
                             prepared.report.dynFractionCheckpointed(),
                             prepared.report.dynFractionUnprotected()};
        },
        [&](const workloads::Workload &w, const Fractions &f) {
            json_rows.push_back(JsonRow{w.name, w.suite, f});
            if (w.suite != current_suite) {
                if (!current_suite.empty())
                    table.addSeparator();
                current_suite = w.suite;
            }
            table.addRow({w.name, formatPercent(f.idem),
                          formatPercent(f.ckpt), formatPercent(f.lost)});
            auto &acc = by_suite[w.suite];
            acc.idem += f.idem;
            acc.ckpt += f.ckpt;
            acc.lost += f.lost;
            ++acc.count;
            all.idem += f.idem;
            all.ckpt += f.ckpt;
            all.lost += f.lost;
            ++all.count;
        });

    table.addSeparator();
    for (const std::string &suite : workloads::suiteNames()) {
        const Acc &acc = by_suite[suite];
        table.addRow({"Mean " + suite,
                      formatPercent(acc.idem / acc.count),
                      formatPercent(acc.ckpt / acc.count),
                      formatPercent(acc.lost / acc.count)});
    }
    table.addRow({"Mean ALL", formatPercent(all.idem / all.count),
                  formatPercent(all.ckpt / all.count),
                  formatPercent(all.lost / all.count)});
    table.print(std::cout);

    std::cout << "\nPaper shape check: SPEC2K-FP and MEDIABENCH spend "
                 "more dynamic time in\nEncore-recoverable code "
                 "(Idempotent + w/ Ckpt) than SPEC2K-INT.\n";

    const bool json_ok = bench::writeJsonReport(
        json_path, [&](std::ostream &out) {
            out << "  \"bench\": \"fig6_dynamic_breakdown\",\n"
                << "  \"workloads\": [\n";
            for (std::size_t i = 0; i < json_rows.size(); ++i) {
                const JsonRow &row = json_rows[i];
                out << "    {\"name\": \"" << row.name
                    << "\", \"suite\": \"" << row.suite
                    << "\", \"idempotent\": "
                    << formatFixed(row.fractions.idem, 6)
                    << ", \"checkpointed\": "
                    << formatFixed(row.fractions.ckpt, 6)
                    << ", \"unprotected\": "
                    << formatFixed(row.fractions.lost, 6) << "}"
                    << (i + 1 < json_rows.size() ? "," : "") << "\n";
            }
            out << "  ]\n}\n";
        });
    return json_ok ? 0 : 1;
}
