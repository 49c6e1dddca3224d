#include "common.h"

#include <cstdlib>
#include <fstream>
#include <iostream>

#include "support/build_info.h"
#include "support/diagnostics.h"
#include "support/strings.h"

namespace encore::bench {

namespace {

/// Largest --jobs accepted. Every worker thread builds its own
/// interpreter, and a campaign starts min(jobs, trials) - 1 of them,
/// so an unbounded value would start one thread per trial.
constexpr std::uint64_t kMaxJobs = 256;

} // namespace

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

CommandLine
jobsFlags()
{
    CommandLine cli;
    cli.addFlag("jobs", "0",
                "worker threads for workload prep and campaigns "
                "(0 = all hardware threads; at most 256)");
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
    const std::uint64_t jobs = cli.getUint("jobs");
    if (jobs > kMaxJobs)
        fatalf("flag '--jobs' expects an integer in [0, ", kMaxJobs,
               "], got '", cli.getString("jobs"), "'");
    return resolveJobs(static_cast<std::size_t>(jobs));
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

interp::SnapshotConfig
snapshotStrideFlag(const CommandLine &cli)
{
    interp::SnapshotConfig config;
    config.stride = cli.getUint("snapshot-stride");
    config.enabled = config.stride > 0;
    return config;
}

std::vector<std::uint64_t>
positiveIntsFlag(const CommandLine &cli, const std::string &name)
{
    std::vector<std::uint64_t> values;
    for (const std::string &entry : split(cli.getString(name), ',')) {
        const auto value = parseInt(entry, 10);
        if (!value || *value <= 0) {
            std::cerr << "error: --" << name
                      << " expects comma-separated positive integers, "
                         "got '"
                      << entry << "'\n";
            std::exit(1);
        }
        values.push_back(static_cast<std::uint64_t>(*value));
    }
    return values;
}

std::vector<const workloads::Workload *>
workloadsFlag(const CommandLine &cli)
{
    std::vector<const workloads::Workload *> selected;
    for (const std::string &name : split(cli.getString("workloads"), ','))
        if (!name.empty())
            selected.push_back(&workloads::workloadNamed(name));
    if (selected.empty())
        for (const workloads::Workload &w : workloads::allWorkloads())
            selected.push_back(&w);
    return selected;
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

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

SuiteTable::SuiteTable(std::vector<std::string> headers, Renderer render)
    : headers_(std::move(headers)), render_(std::move(render))
{
}

void
SuiteTable::add(const workloads::Workload &workload,
                std::vector<double> values,
                std::vector<std::string> trailing)
{
    rows_.push_back({&workload, std::move(values), std::move(trailing)});
}

SuiteTable::Sums
SuiteTable::sums(const std::string &suite) const
{
    Sums sums;
    for (const Row &row : rows_) {
        if (!suite.empty() && row.workload->suite != suite)
            continue;
        // Start from +0.0 and add in row order, so every mean is the
        // one a running per-suite accumulator would give.
        sums.values.resize(row.values.size(), 0.0);
        for (std::size_t i = 0; i < row.values.size(); ++i)
            sums.values[i] += row.values[i];
        ++sums.count;
    }
    return sums;
}

Table
SuiteTable::table() const
{
    Table table(headers_);
    // Label, rendered cells, then `trailing` (blank to the table's
    // width when empty).
    const auto addRow = [&](const std::string &label,
                            const std::vector<double> &sums,
                            std::size_t count,
                            const std::vector<std::string> &trailing) {
        std::vector<std::string> cells{label};
        for (std::string &cell : render_(sums, count))
            cells.push_back(std::move(cell));
        cells.insert(cells.end(), trailing.begin(), trailing.end());
        cells.resize(headers_.size());
        table.addRow(std::move(cells));
    };
    for (std::size_t i = 0; i < rows_.size(); ++i) {
        const Row &row = rows_[i];
        if (i > 0 && row.workload->suite != rows_[i - 1].workload->suite)
            table.addSeparator();
        addRow(row.workload->name, row.values, 1, row.trailing);
    }
    table.addSeparator();
    for (const std::string &suite : workloads::suiteNames())
        if (const Sums suite_sums = sums(suite); suite_sums.count > 0)
            addRow("Mean " + suite, suite_sums.values, suite_sums.count, {});
    const Sums all = sums();
    addRow("Mean ALL", all.values, all.count, {});
    return table;
}

void
SuiteTable::writeJson(
    std::ostream &out,
    const std::function<void(std::ostream &, const std::vector<double> &)>
        &fields) const
{
    out << "  \"workloads\": [\n";
    for (std::size_t i = 0; i < rows_.size(); ++i) {
        out << "    {\"name\": \"" << rows_[i].workload->name
            << "\", \"suite\": \"" << rows_[i].workload->suite << "\", ";
        fields(out, rows_[i].values);
        out << "}" << (i + 1 < rows_.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
}

std::vector<std::string>
percentMeans(const std::vector<double> &sums, std::size_t count)
{
    std::vector<std::string> cells;
    for (const double sum : sums)
        cells.push_back(formatPercent(sum / count));
    return cells;
}

} // namespace encore::bench
