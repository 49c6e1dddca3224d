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
    prepared.report = EncorePipeline(*prepared.module, config)
                          .run({RunSpec{workload.entry, workload.train_args}});
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
jobsFlags()
{
    CommandLine cli;
    cli.addFlag("jobs", "0",
                "worker threads for workload prep and campaigns "
                "(0 = all hardware threads)");
    return cli;
}

CommandLine
campaignFlags(const std::string &trials_default)
{
    CommandLine cli = jobsFlags();
    cli.addFlag("seed", "12345", "base RNG seed for the experiment");
    cli.addFlag("trials", trials_default,
                "fault-injection trials per configuration");
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
addSnapshotStrideFlag(CommandLine &cli)
{
    cli.addFlag("snapshot-stride",
                std::to_string(interp::SnapshotConfig{}.stride),
                "golden-run snapshot stride in value instructions "
                "(0 disables the snapshot tier; never affects "
                "outcomes)");
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

/// The rows `flag` names in one table, looked up with `find`: its
/// whole value as one name or, for a `list`, each comma-separated
/// entry, where "" is the whole table. Exits with the table's `names`
/// on an unknown one.
template <typename Row>
std::vector<const Row *>
tableRows(const CommandLine &cli, const char *flag, bool list,
          const Row *(*find)(std::string_view),
          const std::vector<std::string_view> &names)
{
    const std::string value = cli.getString(flag);
    std::vector<std::string> wanted{value};
    if (list)
        wanted = value.empty() ? std::vector<std::string>(names.begin(),
                                                          names.end())
                               : split(value, ',');
    std::vector<const Row *> rows;
    for (const std::string &name : wanted) {
        const Row *row = find(name);
        if (!row) {
            std::cerr << "error: unknown --" << flag << " '" << name
                      << "': expected one of " << joinNames(names)
                      << ".\n";
            std::exit(1);
        }
        rows.push_back(row);
    }
    return rows;
}

std::vector<const fault::models::FaultModel *>
faultModelRows(const CommandLine &cli, bool list)
{
    return tableRows(cli, "fault-model", list,
                     fault::models::findFaultModel,
                     fault::models::faultModelNames());
}

std::vector<const fault::models::Detector *>
detectorRows(const CommandLine &cli, bool list)
{
    return tableRows(cli, "detector", list, fault::models::findDetector,
                     fault::models::detectorNames());
}

} // namespace

void
addScenarioFlags(CommandLine &cli)
{
    cli.addFlag("fault-model", "reg-bit",
                "fault model: " +
                    joinNames(fault::models::faultModelNames()) +
                    " (default reg-bit, the classic single-bit "
                    "register flip)");
    cli.addFlag("detector", "analytic",
                "detector: " +
                    joinNames(fault::models::detectorNames()) +
                    " (default analytic, the Dmax latency model)");
}

Scenario
scenarioFlags(const CommandLine &cli)
{
    return {faultModelRows(cli, false)[0], detectorRows(cli, false)[0]};
}

std::vector<Scenario>
scenarioListFlags(const CommandLine &cli)
{
    const auto models = faultModelRows(cli, true);
    const auto detectors = detectorRows(cli, true);
    std::vector<Scenario> scenarios;
    for (const fault::models::FaultModel *model : models)
        for (const fault::models::Detector *detector : detectors)
            scenarios.push_back({model, detector});
    return scenarios;
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
