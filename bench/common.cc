#include "common.h"

#include <cstdlib>
#include <fstream>
#include <iostream>

#include "support/build_info.h"
#include "support/strings.h"

namespace encore::bench {

WorkloadSession::WorkloadSession(const workloads::Workload &workload)
    : workload_(&workload), module_(workload.build())
{
    EncoreConfig defaults;
    base_ = std::make_unique<AnalysisBase>(
        *module_, std::vector<RunSpec>{RunSpec{workload.entry,
                                               workload.train_args}},
        defaults.profile_max_instrs);
    cache_ = std::make_unique<AnalysisCache>(*base_);
}

WorkloadSession::~WorkloadSession() = default;

EncoreReport
WorkloadSession::analyze(EncoreConfig config,
                         AnalysisPhaseTimings *timings)
{
    for (const std::string &name : workload_->opaque)
        config.opaque_functions.insert(name);
    return analyzeConfig(*base_, config, cache_.get(), timings).report;
}

PreparedWorkload
prepareWorkload(const workloads::Workload &workload, EncoreConfig config)
{
    PreparedWorkload prepared;
    prepared.workload = &workload;
    prepared.module = workload.build();
    for (const std::string &name : workload.opaque)
        config.opaque_functions.insert(name);
    prepared.pipeline =
        std::make_unique<EncorePipeline>(*prepared.module, config);
    prepared.report = prepared.pipeline->run(
        {RunSpec{workload.entry, workload.train_args}});
    return prepared;
}

std::vector<PreparedWorkload>
prepareSuite(const EncoreConfig &config, std::size_t jobs)
{
    const std::vector<workloads::Workload> &suite =
        workloads::allWorkloads();
    std::vector<PreparedWorkload> prepared(suite.size());
    ThreadPool(jobs).parallelFor(suite.size(),
                                 [&](std::uint64_t i, std::size_t) {
                                     prepared[i] =
                                         prepareWorkload(suite[i], config);
                                 });
    return prepared;
}

void
forEachWorkload(
    const std::function<void(const workloads::Workload &)> &fn)
{
    for (const workloads::Workload &w : workloads::allWorkloads())
        fn(w);
}

CommandLine
standardFlags(const std::string &trials_default)
{
    CommandLine cli;
    cli.addFlag("seed", "12345", "base RNG seed for the experiment");
    cli.addFlag("trials", trials_default,
                "fault-injection trials per configuration");
    cli.addFlag("jobs", "0",
                "worker threads for workload prep and campaigns "
                "(0 = all hardware threads)");
    return cli;
}

std::size_t
jobsFlag(const CommandLine &cli)
{
    return resolveJobs(cli.getUint("jobs"));
}

void
addJsonFlag(CommandLine &cli, const std::string &default_path)
{
    cli.addFlag("json", default_path,
                "path for the machine-readable report "
                "(\"\" disables it)");
}

void
addEngineFlag(CommandLine &cli)
{
    cli.addFlag("engine", "fused",
                "interpreter tier: 'fused' (superinstruction dispatch, "
                "the default) or 'decoded' (one dispatch per source "
                "instruction; same outcomes, slower)");
}

void
addSnapshotStrideFlag(CommandLine &cli)
{
    cli.addFlag("snapshot-stride",
                std::to_string(interp::SnapshotConfig{}.stride),
                "golden-run snapshot stride in value instructions "
                "(0 disables the snapshot tier; never affects "
                "outcomes)");
}

interp::EngineKind
engineFlag(const CommandLine &cli)
{
    const std::string name = cli.getString("engine");
    const auto kind = interp::parseEngineKind(name);
    if (!kind) {
        std::cerr << "error: unknown --engine '" << name
                  << "': expected 'fused' or 'decoded'.\n";
        std::exit(1);
    }
    return *kind;
}

namespace {

std::string
joinNames(const std::vector<std::string_view> &names)
{
    std::string out;
    for (const std::string_view name : names) {
        if (!out.empty())
            out += ", ";
        out += "'";
        out += name;
        out += "'";
    }
    return out;
}

[[noreturn]] void
unknownScenarioName(const char *flag, const std::string &name,
                    const std::vector<std::string_view> &valid)
{
    std::cerr << "error: unknown --" << flag << " '" << name
              << "': expected one of " << joinNames(valid) << ".\n";
    std::exit(1);
}

} // namespace

void
addFaultModelFlag(CommandLine &cli)
{
    cli.addFlag("fault-model", "reg-bit",
                "fault model: " +
                    joinNames(fault::models::faultModelNames()) +
                    " (default reg-bit, the classic single-bit "
                    "register flip)");
}

void
addDetectorFlag(CommandLine &cli)
{
    cli.addFlag("detector", "analytic",
                "detector: " +
                    joinNames(fault::models::detectorNames()) +
                    " (default analytic, the Dmax latency model)");
}

const fault::models::FaultModel &
faultModelFlag(const CommandLine &cli)
{
    const std::string name = cli.getString("fault-model");
    const fault::models::FaultModel *model =
        fault::models::findFaultModel(name);
    if (!model)
        unknownScenarioName("fault-model", name,
                            fault::models::faultModelNames());
    return *model;
}

const fault::models::Detector &
detectorFlag(const CommandLine &cli)
{
    const std::string name = cli.getString("detector");
    const fault::models::Detector *detector =
        fault::models::findDetector(name);
    if (!detector)
        unknownScenarioName("detector", name,
                            fault::models::detectorNames());
    return *detector;
}

std::vector<const fault::models::FaultModel *>
faultModelListFlag(const CommandLine &cli)
{
    std::vector<const fault::models::FaultModel *> models;
    const std::string list = cli.getString("fault-model");
    if (list.empty()) {
        for (const std::string_view name :
             fault::models::faultModelNames())
            models.push_back(fault::models::findFaultModel(name));
        return models;
    }
    for (const std::string &name : split(list, ',')) {
        const fault::models::FaultModel *model =
            fault::models::findFaultModel(name);
        if (!model)
            unknownScenarioName("fault-model", name,
                                fault::models::faultModelNames());
        models.push_back(model);
    }
    return models;
}

std::vector<const fault::models::Detector *>
detectorListFlag(const CommandLine &cli)
{
    std::vector<const fault::models::Detector *> detectors;
    const std::string list = cli.getString("detector");
    if (list.empty()) {
        for (const std::string_view name :
             fault::models::detectorNames())
            detectors.push_back(fault::models::findDetector(name));
        return detectors;
    }
    for (const std::string &name : split(list, ',')) {
        const fault::models::Detector *detector =
            fault::models::findDetector(name);
        if (!detector)
            unknownScenarioName("detector", name,
                                fault::models::detectorNames());
        detectors.push_back(detector);
    }
    return detectors;
}

bool
writeJsonReport(const std::string &path,
                const std::function<void(std::ostream &)> &body)
{
    if (path.empty())
        return true;
    std::ofstream json(path);
    if (!json) {
        std::cerr << "error: cannot open '" << path
                  << "' for writing (--json): check that the "
                     "directory exists and is writable, or pass "
                     "--json \"\" to disable the report.\n";
        return false;
    }
    // Every report opens with the build provenance so its numbers stay
    // attributable to the build that produced them; the body supplies
    // the remaining fields and the closing brace.
    json << "{\n  \"build\": " << buildInfoJson() << ",\n";
    body(json);
    json.flush();
    if (!json) {
        std::cerr << "error: failed while writing '" << path
                  << "' (--json): the file may be truncated "
                     "(disk full or I/O error).\n";
        return false;
    }
    std::cout << "Wrote " << path << ".\n";
    return true;
}

void
printHeader(const std::string &figure, const std::string &summary)
{
    std::cout << "==================================================="
                 "=========================\n";
    std::cout << "Encore reproduction — " << figure << "\n";
    std::cout << summary << "\n";
    std::cout << "==================================================="
                 "=========================\n\n";
}

} // namespace encore::bench
