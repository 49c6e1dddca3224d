/**
 * @file
 * End-to-end scenario: protecting an embedded audio codec.
 *
 * Takes the bundled rawcaudio (IMA ADPCM) workload — the kind of
 * streaming kernel the paper's low-end commodity systems run — and
 * walks the whole Encore story:
 *
 *   - profile + instrument within a 20% overhead budget,
 *   - measure the real instrumentation cost by executing the result,
 *   - sweep the detection latency and compare the *measured* fault
 *     coverage of statistical injection against the closed-form alpha
 *     model of Equation 7.
 */
#include <iostream>

#include "encore/detection_model.h"
#include "encore/pipeline.h"
#include "fault/injector.h"
#include "interp/interpreter.h"
#include "support/cli.h"
#include "support/diagnostics.h"
#include "support/strings.h"
#include "support/table.h"
#include "workloads/workload.h"

using namespace encore;

int
main(int argc, char **argv)
{
    CommandLine cli;
    cli.addFlag("workload", "rawcaudio", "codec workload to protect");
    cli.addFlag("trials", "500", "injection trials per latency");
    cli.addFlag("seed", "2026", "RNG seed");
    cli.parse(argc, argv);

    const workloads::Workload &w =
        workloads::workloadNamed(cli.getString("workload"));

    // --- Instrument under the default (paper) configuration. -----------
    auto module = w.build();
    EncoreConfig config;
    for (const std::string &name : w.opaque)
        config.opaque_functions.insert(name);
    EncorePipeline pipeline(*module, config);
    const EncoreReport report =
        pipeline.run({RunSpec{w.entry, w.train_args}});

    std::cout << "=== " << w.name << " under Encore ===\n";
    std::cout << "regions: " << report.regions.size()
              << ", mean protected region length: "
              << formatFixed(report.meanSelectedRegionLength(), 0)
              << " instructions, checkpoint state: "
              << formatFixed(report.avgStorageBytes(), 1)
              << " B/region\n";

    // --- Measure the real cost on the reference input. ------------------
    interp::Interpreter interp(*module);
    const interp::RunResult run = interp.run(w.entry, w.ref_args);
    if (!run.ok())
        fatalf("instrumented run failed: ", run.error);
    const double overhead =
        static_cast<double>(run.overhead_instrs) /
        static_cast<double>(run.dyn_instrs - run.overhead_instrs);
    std::cout << "measured runtime overhead: " << formatPercent(overhead)
              << " (budget " << formatPercent(config.overhead_budget)
              << ")\n\n";

    // --- Latency sweep: measured SFI coverage vs Equation 7. -------------
    fault::FaultInjector injector(*module, report);
    if (!injector.prepare(w.entry, w.train_args))
        fatalf("golden run failed");

    const double n = report.meanSelectedRegionLength();
    Table table({"Dmax", "measured coverage", "alpha model",
                 "not recoverable"});
    for (const std::uint64_t dmax : {10ULL, 100ULL, 1000ULL, 10000ULL}) {
        fault::CampaignConfig campaign;
        campaign.trials = cli.getUint("trials");
        campaign.seed = cli.getUint("seed");
        campaign.model_masking = false; // isolate Encore's contribution
        campaign.trial.dmax = dmax;
        const fault::CampaignResult result =
            injector.runCampaign(campaign);

        // Equation 7 prediction for the protected share: faults are
        // recoverable with probability alpha when they strike inside a
        // protected region.
        const double protected_share =
            report.dynFractionIdempotent() +
            report.dynFractionCheckpointed();
        const double alpha =
            alphaUniform(n, static_cast<double>(dmax));
        table.addRow({std::to_string(dmax),
                      formatPercent(result.coveredFraction()),
                      formatPercent(protected_share * alpha),
                      formatPercent(result.fraction(
                          fault::FaultOutcome::NotRecoverable))});
    }
    table.print(std::cout);
    std::cout << "\nThe alpha column is Equation 7 evaluated at the mean "
                 "protected region length;\nthe measured column counts "
                 "executions that actually rolled back and finished\n"
                 "with the golden output (plus benign completions).\n";
    return 0;
}
