/**
 * @file
 * Figure 5: inherent region idempotence as a function of Pmin.
 *
 * For each benchmark, the fraction of candidate recovery regions
 * classified Idempotent / Non-idempotent / Unknown under
 * Pmin ∈ {∅, 0.0, 0.1, 0.25}. ∅ means no profile pruning.
 */
#include <array>
#include <iostream>

#include "common.h"
#include "support/strings.h"

using namespace encore;

namespace {

struct Breakdown
{
    std::size_t idem = 0;
    std::size_t non = 0;
    std::size_t unknown = 0;

    std::size_t
    total() const
    {
        return idem + non + unknown;
    }
};

Breakdown
classify(const EncoreReport &report)
{
    Breakdown b;
    b.idem = report.countByClass(RegionClass::Idempotent);
    b.non = report.countByClass(RegionClass::NonIdempotent);
    b.unknown = report.countByClass(RegionClass::Unknown);
    return b;
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
        "Figure 5",
        "Static region classification (% of candidate regions) for "
        "Pmin = none, 0.0, 0.1, 0.25.\nColumns show "
        "idempotent/non-idempotent/unknown percentages per Pmin.");

    struct PminSetting
    {
        const char *label;
        bool prune;
        double pmin;
    };
    const std::vector<PminSetting> settings = {
        {"none", false, 0.0},
        {"0.0", true, 0.0},
        {"0.1", true, 0.1},
        {"0.25", true, 0.25},
    };

    Table table({"benchmark", "Pmin=none (I/N/U)", "Pmin=0.0 (I/N/U)",
                 "Pmin=0.1 (I/N/U)", "Pmin=0.25 (I/N/U)"});

    struct SuiteTotals
    {
        Breakdown per_setting[4];
    };
    std::map<std::string, SuiteTotals> suite_totals;
    SuiteTotals grand;

    struct JsonRow
    {
        std::string name;
        std::string suite;
        std::array<Breakdown, 4> breakdowns;
    };
    std::vector<JsonRow> json_rows;

    std::string current_suite;
    bench::mapWorkloads(
        jobs,
        // Parallel: all four pipeline configurations per workload.
        // One session per workload builds + profiles once and shares
        // the analysis base across the four Pmin points.
        [&](const workloads::Workload &w) {
            std::array<Breakdown, 4> breakdowns;
            bench::WorkloadSession session(w);
            for (std::size_t s = 0; s < settings.size(); ++s) {
                EncoreConfig config;
                config.prune = settings[s].prune;
                config.pmin = settings[s].pmin;
                breakdowns[s] = classify(session.analyze(config));
            }
            return breakdowns;
        },
        // Sequential, suite order: rows and aggregates.
        [&](const workloads::Workload &w,
            const std::array<Breakdown, 4> &breakdowns) {
            json_rows.push_back(JsonRow{w.name, w.suite, breakdowns});
            if (w.suite != current_suite) {
                if (!current_suite.empty())
                    table.addSeparator();
                current_suite = w.suite;
            }
            std::vector<std::string> row{w.name};
            for (std::size_t s = 0; s < settings.size(); ++s) {
                const Breakdown &b = breakdowns[s];
                const double total =
                    std::max<std::size_t>(1, b.total());
                row.push_back(
                    formatFixed(100.0 * b.idem / total, 0) + "/" +
                    formatFixed(100.0 * b.non / total, 0) + "/" +
                    formatFixed(100.0 * b.unknown / total, 0));
                suite_totals[w.suite].per_setting[s].idem += b.idem;
                suite_totals[w.suite].per_setting[s].non += b.non;
                suite_totals[w.suite].per_setting[s].unknown +=
                    b.unknown;
                grand.per_setting[s].idem += b.idem;
                grand.per_setting[s].non += b.non;
                grand.per_setting[s].unknown += b.unknown;
            }
            table.addRow(std::move(row));
        });

    auto totals_row = [&](const std::string &label,
                          const SuiteTotals &totals) {
        std::vector<std::string> row{label};
        for (std::size_t s = 0; s < settings.size(); ++s) {
            const Breakdown &b = totals.per_setting[s];
            const double total = std::max<std::size_t>(1, b.total());
            row.push_back(
                formatFixed(100.0 * b.idem / total, 0) + "/" +
                formatFixed(100.0 * b.non / total, 0) + "/" +
                formatFixed(100.0 * b.unknown / total, 0));
        }
        return row;
    };

    table.addSeparator();
    for (const std::string &suite : workloads::suiteNames())
        table.addRow(totals_row("Mean " + suite, suite_totals[suite]));
    table.addRow(totals_row("Mean ALL", grand));
    table.print(std::cout);

    const Breakdown &unpruned = grand.per_setting[0];
    const Breakdown &zero = grand.per_setting[1];
    std::cout << "\nPaper shape check: idempotent share grows with "
                 "Pmin, and most of the gain\nappears already at "
                 "Pmin=0.0 (paper: 49% unpruned -> 75% at 0.0). "
                 "Here: "
              << formatPercent(static_cast<double>(unpruned.idem) /
                               std::max<std::size_t>(1,
                                                     unpruned.total()))
              << " -> "
              << formatPercent(static_cast<double>(zero.idem) /
                               std::max<std::size_t>(1, zero.total()))
              << ".\n";

    const bool json_ok = bench::writeJsonReport(
        json_path, [&](std::ostream &out) {
            out << "  \"bench\": \"fig5_region_idempotence\",\n"
                << "  \"settings\": [\"none\", \"0.0\", \"0.1\", "
                   "\"0.25\"],\n"
                << "  \"workloads\": [\n";
            for (std::size_t i = 0; i < json_rows.size(); ++i) {
                const JsonRow &row = json_rows[i];
                out << "    {\"name\": \"" << row.name
                    << "\", \"suite\": \"" << row.suite
                    << "\", \"classification\": [";
                for (std::size_t s = 0; s < row.breakdowns.size();
                     ++s) {
                    const Breakdown &b = row.breakdowns[s];
                    out << "{\"idempotent\": " << b.idem
                        << ", \"non_idempotent\": " << b.non
                        << ", \"unknown\": " << b.unknown << "}"
                        << (s + 1 < row.breakdowns.size() ? ", " : "");
                }
                out << "]}"
                    << (i + 1 < json_rows.size() ? "," : "") << "\n";
            }
            out << "  ]\n}\n";
        });
    return json_ok ? 0 : 1;
}
