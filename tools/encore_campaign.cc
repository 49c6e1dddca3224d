/**
 * @file
 * encore_campaign — durable fault-injection campaign driver.
 *
 * Subcommands:
 *   run      start (or transparently resume) a campaign on one
 *            workload, optionally durable via --store and split
 *            across processes via --shard i/N
 *   resume   like run, but requires the store to already exist —
 *            the explicit "continue after a crash/kill" verb
 *   merge    combine completed shard stores into one aggregate,
 *            refusing stores with mismatched campaign identity
 *   inspect  print a store's header, record count and outcome tally
 *            without executing anything
 *
 * Determinism contract: any split of a campaign across kills,
 * resumes, shards and thread counts yields a byte-identical aggregate
 * table to one uninterrupted single-process run (see
 * src/campaign/runner.h). Exit status is 0 on success, 1 on
 * any refusal (invalid config, identity mismatch, unusable store).
 */
#include <iostream>
#include <memory>

#include "campaign/planner.h"
#include "campaign/runner.h"
#include "common.h"
#include "support/checksum.h"
#include "support/diagnostics.h"
#include "support/strings.h"
#include "workloads/workload.h"

using namespace encore;

namespace {

void
usage(std::ostream &os)
{
    os << "usage: encore_campaign "
          "<run|resume|plan|merge|inspect> [flags]\n"
          "  run     --workload <name> [--store <path>] [--trials N] "
          "[--seed S]\n"
          "          [--jobs J] [--dmax D] [--mask R] [--no-masking]\n"
          "          [--shard i/N] [--progress]\n"
          "          [--heartbeat <path.jsonl>] [--stop-after K] "
          "[--json <path>]\n"
          "          [--fault-model M] [--detector D]\n"
          "          planner path: [--sidecar <path>]\n"
          "  resume  same flags; --store must name an existing store\n"
          "  plan    planner dry run: attribution + grouping + sidecar "
          "probe,\n"
          "          no trial executes (run flags plus --sidecar)\n"
          "  merge   --stores <a,b,...> [--json <path>]\n"
          "  inspect --store <path>\n"
          "Pass --help after a subcommand for its full flag list.\n";
}

fault::CampaignConfig
campaignFromFlags(const CommandLine &cli, bool has_jobs)
{
    fault::CampaignConfig config;
    // getUint, not getInt-and-cast: `--trials -1` must be an error,
    // not a campaign of 2^64-1 trials.
    config.trials = cli.getUint("trials");
    config.seed = cli.getUint("seed");
    config.jobs = has_jobs ? bench::jobsFlag(cli) : 1;
    config.trial.dmax = cli.getUint("dmax");
    config.masking_rate = cli.getDouble("mask");
    config.model_masking = !cli.getBool("no-masking");
    const bench::Scenario scenario = bench::scenarioFlags(cli);
    config.trial.model = scenario.model;
    config.trial.detector = scenario.detector;
    return config;
}

/// "scenario <model> + <detector>" line for the human-readable
/// output, printed only when either differs from the default so the
/// classic reg-bit/analytic output stays byte-identical to older
/// builds.
std::string
scenarioLine(const fault::CampaignConfig &config)
{
    if (config.trial.model == fault::models::defaultFaultModel() &&
        config.trial.detector == fault::models::defaultDetector())
        return "";
    std::string line = "scenario ";
    line += config.trial.model->name();
    line += " + ";
    line += config.trial.detector->name();
    line += "\n";
    return line;
}

/// The injector plus the pipeline state it references (module,
/// report) — keep both alive together.
struct PreparedInjector
{
    bench::PreparedWorkload prepared;
    std::unique_ptr<fault::FaultInjector> injector;
};

/// Full pipeline + snapshot tier + golden run; fatal when the golden
/// run itself fails. Shared by run/resume and plan.
PreparedInjector
prepareInjector(const workloads::Workload &workload,
                const interp::SnapshotConfig &snapshots)
{
    std::cerr << "preparing " << workload.name
              << " (build + profile + analyze + instrument)...\n";
    PreparedInjector out;
    EncoreConfig encore_config;
    out.prepared = bench::prepareWorkload(workload, encore_config);
    out.injector = std::make_unique<fault::FaultInjector>(
        *out.prepared.module, out.prepared.report);
    out.injector->configureSnapshots(snapshots);
    if (!out.injector->prepare(workload.entry, workload.train_args))
        fatalf("golden run failed for ", workload.name);
    return out;
}

/// The snapshot tier's store and what the trials made of it; printed
/// once the trials have run.
void
printSnapshotTier(const fault::FaultInjector &injector)
{
    if (!injector.snapshotsActive())
        return;
    const interp::SnapshotStats stats = injector.snapshotStats();
    std::cerr << "snapshot tier: " << stats.count << " snapshots, "
              << stats.anchors << " entry anchors, stride "
              << stats.stride << ", " << stats.bytes / 1024
              << " KiB resident; " << stats.resyncs << " resyncs, "
              << stats.entry_resyncs << " at a region entry\n";
}

/// The planner flag shared by `run`, `resume` (where it must stay
/// unset) and `plan`.
void
addSidecarFlag(CommandLine &cli)
{
    cli.addFlag("sidecar", "",
                "planner tally sidecar for compositional sweep reuse; "
                "\"\" disables reuse");
}

campaign::PlannerOptions
plannerFromFlags(const CommandLine &cli,
                 const std::string &workload_name)
{
    campaign::PlannerOptions options;
    options.sidecar_path = cli.getString("sidecar");
    // The workload name identifies the uninstrumented program + input:
    // sweep points over one workload share sidecar entries, different
    // workloads never collide.
    options.program_key = fnv1a64(workload_name);
    return options;
}

constexpr int kNumOutcomes =
    static_cast<int>(fault::FaultOutcome::NumOutcomes);

/// The "counts" field every JSON report carries: outcome name → count.
void
writeCountsJson(std::ostream &out, const fault::CampaignResult &result)
{
    out << "  \"counts\": {";
    for (int i = 0; i < kNumOutcomes; ++i) {
        const auto outcome = static_cast<fault::FaultOutcome>(i);
        out << "\"" << fault::outcomeName(outcome)
            << "\": " << result.count(outcome)
            << (i + 1 < kNumOutcomes ? ", " : "");
    }
    out << "},\n";
}

/// Counts + fractions as JSON fields under the writeJsonReport
/// contract (provenance + opening brace come from the harness).
void
writeCampaignJson(std::ostream &out, const std::string &mode,
                  const std::string &workload,
                  const fault::CampaignConfig &config,
                  const fault::CampaignResult &result)
{
    out << "  \"tool\": \"encore_campaign\",\n"
        << "  \"mode\": \"" << mode << "\",\n"
        << "  \"workload\": \"" << workload << "\",\n"
        << "  \"seed\": " << config.seed << ",\n"
        << "  \"trials\": " << config.trials << ",\n"
        << "  \"dmax\": " << config.trial.dmax << ",\n"
        << "  \"run_budget_factor\": " << fault::kRunBudgetFactor << ",\n"
        << "  \"masking_rate\": " << config.masking_rate << ",\n"
        << "  \"model_masking\": "
        << (config.model_masking ? "true" : "false") << ",\n"
        << "  \"fault_model\": \"" << config.trial.model->name()
        << "\",\n"
        << "  \"detector\": \"" << config.trial.detector->name()
        << "\",\n"
        << "  \"replay_cost\": " << result.replay_cost << ",\n";
    writeCountsJson(out, result);
    out << "  \"covered\": "
        << formatFixed(result.coveredFraction(), 6) << "\n"
        << "}\n";
}

/// JSON for the planner path: the campaign fields plus the CI and
/// reuse accounting the brute-force path does not have.
void
writePlannerJson(std::ostream &out, const std::string &mode,
                 const std::string &workload,
                 const fault::CampaignConfig &config,
                 const campaign::PlanSummary &summary)
{
    out << "  \"tool\": \"encore_campaign\",\n"
        << "  \"mode\": \"" << mode << "\",\n"
        << "  \"workload\": \"" << workload << "\",\n"
        << "  \"seed\": " << config.seed << ",\n"
        << "  \"trials\": " << config.trials << ",\n"
        << "  \"dmax\": " << config.trial.dmax << ",\n"
        << "  \"fault_model\": \"" << config.trial.model->name()
        << "\",\n"
        << "  \"detector\": \"" << config.trial.detector->name()
        << "\",\n"
        << "  \"replay_cost\": " << summary.result.replay_cost
        << ",\n"
        << "  \"executed\": " << summary.executed << ",\n"
        << "  \"masked_trials\": " << summary.masked_trials << ",\n"
        << "  \"reused_trials\": " << summary.reused_trials << ",\n"
        << "  \"groups\": " << summary.groups << ",\n"
        << "  \"groups_reused\": " << summary.groups_reused << ",\n";
    writeCountsJson(out, summary.result);
    out << "  \"coverage\": " << formatFixed(summary.coverage, 6)
        << ",\n"
        << "  \"ci_half\": " << formatFixed(summary.ci_half, 6)
        << ",\n"
        << "  \"ci_low\": " << formatFixed(summary.low, 6) << ",\n"
        << "  \"ci_high\": " << formatFixed(summary.high, 6)
        << "\n}\n";
}

int
cmdRunOrResume(int argc, char **argv, bool resume)
{
    CommandLine cli;
    cli.addFlag("workload", "",
                "workload to inject into (see encore_campaign run "
                "--workload '' for the list)");
    cli.addFlag("store", "",
                "trial store path; \"\" runs without durability");
    cli.addFlag("trials", "10000", "total campaign trials (all shards)");
    cli.addFlag("seed", "12345", "campaign RNG seed");
    cli.addFlag("jobs", "0",
                "worker threads (0 = all hardware threads); never "
                "affects results");
    cli.addFlag("dmax", "100",
                "detection latency bound, dynamic instructions");
    cli.addFlag("mask", "0.91", "hardware masking rate in [0, 1]");
    cli.addFlag("no-masking", "false",
                "inject every trial (skip the modelled masking coin)");
    cli.addFlag("shard", "0/1",
                "this process's shard, as i/N: it owns trial indices "
                "with t %% N == i");
    cli.addFlag("stop-after", "0",
                "stop after executing K new trials (0 = run to "
                "completion); simulates an interrupted campaign");
    cli.addFlag("progress", "false",
                "print an in-place progress line to stderr");
    cli.addFlag("heartbeat", "",
                "append a JSONL heartbeat to this path for external "
                "monitors");
    bench::addSnapshotStrideFlag(cli);
    bench::addScenarioFlags(cli);
    addSidecarFlag(cli);
    bench::addJsonFlag(cli, "");
    cli.parse(argc, argv);

    const workloads::Workload &workload =
        workloads::workloadNamed(cli.getString("workload"));

    const fault::CampaignConfig config =
        campaignFromFlags(cli, /*has_jobs=*/true);
    fault::validateCampaignConfig(config);

    // Planner path: compositional sidecar reuse (--sidecar).
    // Store-less by design: the sidecar is the planner's durability.
    const bool planner_path = !cli.getString("sidecar").empty();
    if (planner_path) {
        if (resume)
            fatal("resume: drives the durable brute-force store; the "
                  "planner path is store-less (re-run with `run`)");
        if (!cli.getString("store").empty())
            fatal("--store and the planner path are mutually "
                  "exclusive: the trial store records exhaustive "
                  "campaigns, the planner's durability is --sidecar");
        if (cli.getString("shard") != "0/1")
            fatal("--shard and the planner path are mutually "
                  "exclusive: the planner owns the whole campaign");
        if (cli.getUint("stop-after") != 0)
            fatal("--stop-after only applies to the durable "
                  "brute-force path");
    }

    campaign::RunnerOptions options;
    options.store_path = cli.getString("store");
    if (resume) {
        if (options.store_path.empty())
            fatal("resume: --store is required (that is what is being "
                  "resumed)");
        options.store_policy =
            campaign::RunnerOptions::StorePolicy::MustExist;
    }
    const auto shard = campaign::parseShardSpec(cli.getString("shard"));
    if (!shard)
        fatalf("--shard expects i/N with 0 <= i < N, got '",
               cli.getString("shard"), "'");
    options.shard = *shard;
    options.stop_after = cli.getUint("stop-after");
    options.progress = cli.getBool("progress");
    options.heartbeat_path = cli.getString("heartbeat");
    options.label = workload.name + " shard " +
                    std::to_string(options.shard.index) + "/" +
                    std::to_string(options.shard.count);

    PreparedInjector pi =
        prepareInjector(workload, bench::snapshotStrideFlag(cli));

    if (planner_path) {
        campaign::CampaignPlanner planner(
            *pi.injector, pi.prepared.report, config,
            plannerFromFlags(cli, workload.name));
        const campaign::PlanSummary summary = planner.run();
        printSnapshotTier(*pi.injector);
        std::cout << "campaign " << workload.name << " seed "
                  << config.seed << " dmax " << config.trial.dmax
                  << " (planner, sweep reuse)\n"
                  << scenarioLine(config)
                  << campaign::formatPlanSummary(summary) << "\n"
                  << campaign::formatAggregate(summary.result);
        const bool json_ok = bench::writeJsonReport(
            cli.getString("json"), [&](std::ostream &out) {
                writePlannerJson(out, "planner", workload.name,
                                 config, summary);
            });
        return json_ok ? 0 : 1;
    }

    campaign::CampaignRunner runner(*pi.injector, config, options);
    const campaign::RunSummary summary = runner.run();
    printSnapshotTier(*pi.injector);

    std::cout << "campaign " << workload.name << " seed "
              << config.seed << " dmax " << config.trial.dmax
              << " shard " << options.shard.index << "/"
              << options.shard.count << "\n"
              << scenarioLine(config)
              << "resumed " << summary.resumed << ", executed "
              << summary.executed << " of " << summary.shard_trials
              << " owned trials\n\n"
              << campaign::formatAggregate(summary.result);
    if (!summary.complete)
        std::cout << "\nINCOMPLETE: "
                  << summary.shard_trials - summary.result.trials
                  << " trials still missing — rerun with `resume` to "
                     "continue this store.\n";

    const bool json_ok = bench::writeJsonReport(
        cli.getString("json"), [&](std::ostream &out) {
            writeCampaignJson(out, resume ? "resume" : "run",
                              workload.name, config, summary.result);
        });
    return json_ok ? 0 : 1;
}

/// Planner dry run: attribution, grouping and the sidecar probe with
/// zero trial executions — prints what a planned `run` would reuse.
int
cmdPlan(int argc, char **argv)
{
    CommandLine cli;
    cli.addFlag("workload", "",
                "workload to plan for (see encore_campaign run "
                "--workload '' for the list)");
    cli.addFlag("trials", "10000", "total campaign trials");
    cli.addFlag("seed", "12345", "campaign RNG seed");
    cli.addFlag("dmax", "100",
                "detection latency bound, dynamic instructions");
    cli.addFlag("mask", "0.91", "hardware masking rate in [0, 1]");
    cli.addFlag("no-masking", "false",
                "inject every trial (skip the modelled masking coin)");
    bench::addScenarioFlags(cli);
    addSidecarFlag(cli);
    bench::addJsonFlag(cli, "");
    cli.parse(argc, argv);

    const workloads::Workload &workload =
        workloads::workloadNamed(cli.getString("workload"));
    const fault::CampaignConfig config =
        campaignFromFlags(cli, /*has_jobs=*/false);
    fault::validateCampaignConfig(config);

    // The dry run executes no trial, so it records no snapshots.
    PreparedInjector pi =
        prepareInjector(workload, {.enabled = false, .stride = 0});
    campaign::CampaignPlanner planner(
        *pi.injector, pi.prepared.report, config,
        plannerFromFlags(cli, workload.name));
    const campaign::PlanSummary summary = planner.plan();
    std::cout << "plan " << workload.name << " seed " << config.seed
              << " dmax " << config.trial.dmax << "\n"
              << scenarioLine(config)
              << campaign::formatPlanSummary(summary);

    const bool json_ok = bench::writeJsonReport(
        cli.getString("json"), [&](std::ostream &out) {
            writePlannerJson(out, "plan", workload.name, config,
                             summary);
        });
    return json_ok ? 0 : 1;
}

int
cmdMerge(int argc, char **argv)
{
    CommandLine cli;
    cli.addFlag("stores", "",
                "comma-separated shard store paths to combine");
    bench::addJsonFlag(cli, "");
    cli.parse(argc, argv);

    std::vector<std::string> paths;
    for (const std::string &path : split(cli.getString("stores"), ','))
        if (!path.empty())
            paths.push_back(path);
    if (paths.empty())
        fatal("merge: --stores expects at least one store path");

    campaign::MergeSummary merged;
    if (const auto err = campaign::mergeTrialStores(paths, merged))
        fatal(*err);

    std::cout << "merged " << merged.stores_merged << " store"
              << (merged.stores_merged == 1 ? "" : "s") << " ("
              << merged.header.shard_count << " shards, seed "
              << merged.header.seed << ")\n\n"
              << campaign::formatAggregate(merged.result);

    const bool json_ok = bench::writeJsonReport(
        cli.getString("json"), [&](std::ostream &out) {
            out << "  \"tool\": \"encore_campaign\",\n"
                << "  \"mode\": \"merge\",\n"
                << "  \"stores\": " << merged.stores_merged << ",\n"
                << "  \"shards\": " << merged.header.shard_count
                << ",\n"
                << "  \"seed\": " << merged.header.seed << ",\n"
                << "  \"trials\": " << merged.header.total_trials
                << ",\n";
            writeCountsJson(out, merged.result);
            out << "  \"covered\": "
                << formatFixed(merged.result.coveredFraction(), 6)
                << "\n}\n";
        });
    return json_ok ? 0 : 1;
}

int
cmdInspect(int argc, char **argv)
{
    CommandLine cli;
    cli.addFlag("store", "", "trial store to describe");
    cli.parse(argc, argv);

    const std::string path = cli.getString("store");
    if (path.empty())
        fatal("inspect: --store is required");
    campaign::StoreContents contents;
    if (const auto err = campaign::readTrialStore(path, contents))
        fatal(*err);

    const campaign::StoreHeader &h = contents.header;
    const campaign::ShardSpec spec{h.shard_index, h.shard_count};
    // Scenario identity: a store written under a fault model or
    // detector this build does not know cannot be interpreted (the
    // outcome of every trial depends on it) — refuse with the
    // registered list, the way unknown workloads are reported.
    const auto unknown = [&](const char *kind, std::uint32_t id,
                             const char *known,
                             const std::vector<std::string_view> &names) {
        std::cerr << "error: store '" << path << "' was written under "
                  << "unknown " << kind << " id " << id
                  << " (a newer build?); " << known
                  << " this build knows:\n";
        for (const std::string_view name : names)
            std::cerr << "  " << name << "\n";
        return 1;
    };
    const fault::models::FaultModel *model =
        fault::models::faultModelById(h.fault_model_id);
    if (model == nullptr)
        return unknown("fault-model", h.fault_model_id, "models",
                       fault::models::faultModelNames());
    const fault::models::Detector *detector =
        fault::models::detectorById(h.detector_id);
    if (detector == nullptr)
        return unknown("detector", h.detector_id, "detectors",
                       fault::models::detectorNames());
    const campaign::StoreTally tally = campaign::tallyStore(contents);
    const std::uint64_t bad_records = tally.foreign + tally.duplicates;

    std::cout << "store " << path << "\n"
              << std::hex << "  config fingerprint 0x"
              << h.config_fingerprint << "\n  module hash 0x"
              << h.module_hash << std::dec << "\n  seed " << h.seed
              << "\n  total trials " << h.total_trials << " (shard "
              << h.shard_index << "/" << h.shard_count << " owns "
              << spec.ownedTrials(h.total_trials) << ")\n"
              << "  fault model " << model->name() << " ("
              << model->description() << ")\n  detector "
              << detector->name() << " (" << detector->description()
              << ")\n";
    // Snapshot provenance: how the shard was produced. Audit-only —
    // snapshot settings never change outcomes, so merge/resume accept
    // shards that differ here (see campaign/trial_store.h).
    if (h.snapshot_stride > 0)
        std::cout << "  snapshots on: stride " << h.snapshot_stride
                  << " value instrs, page " << h.snapshot_page_bytes
                  << " B, budget " << (h.snapshot_byte_budget >> 20)
                  << " MiB\n";
    else
        std::cout << "  snapshots off (full re-execution per trial)\n";
    std::cout << "  records "
              << contents.records.size() << " valid";
    if (bad_records > 0)
        std::cout << " (" << bad_records
                  << " duplicate/foreign — store was tampered with?)";
    if (contents.dropped_bytes > 0)
        std::cout << ", " << contents.dropped_bytes
                  << " torn tail bytes (interrupted run; `resume` "
                     "will repair)";
    std::cout << "\n  missing "
              << spec.ownedTrials(h.total_trials) - tally.result.trials
              << " of " << spec.ownedTrials(h.total_trials)
              << " owned trials\n\n"
              << campaign::formatAggregate(tally.result);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        usage(std::cerr);
        return 1;
    }
    const std::string command = argv[1];
    if (command == "--help" || command == "-h" || command == "help") {
        usage(std::cout);
        return 0;
    }
    if (command == "run")
        return cmdRunOrResume(argc - 1, argv + 1, /*resume=*/false);
    if (command == "resume")
        return cmdRunOrResume(argc - 1, argv + 1, /*resume=*/true);
    if (command == "plan")
        return cmdPlan(argc - 1, argv + 1);
    if (command == "merge")
        return cmdMerge(argc - 1, argv + 1);
    if (command == "inspect")
        return cmdInspect(argc - 1, argv + 1);
    std::cerr << "error: unknown subcommand '" << command << "'\n";
    usage(std::cerr);
    return 1;
}
