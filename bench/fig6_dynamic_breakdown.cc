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

    bench::SuiteTable table({"benchmark", "Idempotent", "w/ Ckpt",
                             "w/o Ckpt"},
                            bench::percentMeans);
    bench::mapWorkloads(
        jobs,
        [](const workloads::Workload &w) {
            EncoreConfig config;
            auto prepared = bench::prepareWorkload(w, config);
            return std::vector<double>{
                prepared.report.dynFractionIdempotent(),
                prepared.report.dynFractionCheckpointed(),
                prepared.report.dynFractionUnprotected()};
        },
        [&](const workloads::Workload &w,
            const std::vector<double> &fractions) {
            table.add(w, fractions);
        });
    table.table().print(std::cout);

    std::cout << "\nPaper shape check: SPEC2K-FP and MEDIABENCH spend "
                 "more dynamic time in\nEncore-recoverable code "
                 "(Idempotent + w/ Ckpt) than SPEC2K-INT.\n";

    const bool json_ok = bench::writeJsonReport(
        json_path, [&](std::ostream &out) {
            out << "  \"bench\": \"fig6_dynamic_breakdown\",\n";
            table.writeJson(out, [](std::ostream &row,
                                    const std::vector<double> &f) {
                row << "\"idempotent\": " << formatFixed(f[0], 6)
                    << ", \"checkpointed\": " << formatFixed(f[1], 6)
                    << ", \"unprotected\": " << formatFixed(f[2], 6);
            });
        });
    return json_ok ? 0 : 1;
}
