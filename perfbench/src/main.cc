/**
 * @file
 * perfbench_workload: runs one benchmark workload in this process and
 * prints its metrics.
 *
 *   perfbench_workload --workload campaign|durable|sweep --seed N
 *       --seconds S --trace 0|1 --digests FILE [--workdir DIR]
 *       [--record FILE]
 *
 * The run sets up every program, then runs one whole unit of the
 * workload on them, one caller in a closed loop, and repeats both until
 * S seconds have passed; setup_s is the median set-up time. run_s is
 * the wall time of one unit, taken as the sum of each cell's fastest
 * time over the untraced units. With --trace 1 the first units
 * alternate untraced and traced; the traced ones record spans and give
 * the per-layer metrics, and trace_overhead compares them with the
 * untraced units they alternate with. The last line of stdout is one
 * JSON object with the metrics, the checks and the provenance. The exit
 * code is 1 when any output check failed.
 */
#include <sys/resource.h>

#include <algorithm>
#include <iostream>
#include <thread>

#include "bench.h"
#include "support/build_info.h"

using namespace perfbench;

namespace {

/// Set-up repetitions before the first unit; one more runs before every
/// unit, so the set-up median samples the whole run, not one second of
/// it.
constexpr int kSetupRepsFirst = 4;
/// Traced units a --trace 1 run records (they alternate with untraced
/// ones); enough for every per-layer number, and it bounds the memory
/// the campaign's per-trial spans take.
constexpr std::size_t kTracedUnits = 4;

double
median(std::vector<double> values)
{
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

[[noreturn]] void
usage(const std::string &message)
{
    std::cerr << "perfbench_workload: " << message
              << "\nusage: perfbench_workload --workload "
                 "campaign|durable|sweep --seed N --seconds S --trace 0|1 "
                 "--digests FILE [--workdir DIR] [--record FILE]\n";
    std::exit(2);
}

Options
parseOptions(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const std::string value = argv[++i];
        try {
            if (flag == "--workload")
                o.workload = value;
            else if (flag == "--seed")
                o.seed = std::stoull(value);
            else if (flag == "--seconds")
                o.seconds = std::stod(value);
            else if (flag == "--trace")
                o.trace = value == "1";
            else if (flag == "--digests")
                o.digests = value;
            else if (flag == "--record")
                o.record = value;
            else if (flag == "--workdir")
                o.workdir = value;
            else
                usage("unknown flag " + flag);
        } catch (const std::exception &) {
            usage("bad value '" + value + "' for " + flag);
        }
    }
    if (!o.record.empty() && o.seed != kDefaultSeed)
        usage("--record needs the default seed " +
              std::to_string(kDefaultSeed));
    return o;
}

std::string
jsonString(const std::string &text)
{
    std::string out = "\"";
    for (const char c : text) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out + "\"";
}

} // namespace

int
main(int argc, char **argv)
{
    const Options options = parseOptions(argc, argv);
    std::unique_ptr<BenchWorkload> workload;
    if (options.workload == "campaign")
        workload = makeCampaign(options);
    else if (options.workload == "durable")
        workload = makeDurable(options);
    else if (options.workload == "sweep")
        workload = makeSweep(options);
    else
        usage("unknown workload '" + options.workload + "'");
    const bool record = !options.record.empty();
    Checks checks(options, workload->params());

    // Set-up (build, pipeline, decode + fusion, golden run) repeats
    // before every unit; each unit runs on the programs of the set-up
    // before it.
    std::vector<double> setup_times;
    std::vector<SetupCost> setup_costs;
    const auto setUp = [&] {
        SetupCost cost;
        const auto start = Clock::now();
        workload->setup(cost, checks);
        setup_times.push_back(secondsSince(start));
        setup_costs.push_back(cost);
    };
    for (int rep = 1; !record && rep < kSetupRepsFirst; ++rep)
        setUp();

    // Timed phase: whole units until the time is up.
    Tracer untraced(false), traced(true);
    const std::uint32_t unit_span = traced.intern("bench.unit");
    std::vector<double> plain_s, traced_s;
    std::vector<std::vector<double>> plain_cells, traced_cells;
    Unit unit;
    const auto phase_start = Clock::now();
    for (std::size_t i = 0;; ++i) {
        setUp();
        const bool trace_this = options.trace && i % 2 == 1 &&
                                traced_s.size() < kTracedUnits;
        Tracer &tracer = trace_this ? traced : untraced;
        const auto start = Clock::now();
        {
            Tracer::Scope span(tracer, unit_span);
            unit = workload->run(tracer, checks);
        }
        (trace_this ? traced_s : plain_s).push_back(secondsSince(start));
        (trace_this ? traced_cells : plain_cells).push_back(unit.cell_s);
        if (record)
            break;
        if (secondsSince(phase_start) >= options.seconds &&
            (!options.trace || !traced_s.empty()))
            break;
    }
    const SetupCost setup = SetupCost::median(setup_costs);

    if (record && !checks.writeDigests(options.record)) {
        std::cerr << "cannot write " << options.record << "\n";
        return 1;
    }

    // run_s: the sum over cells of each cell's fastest time across the
    // untraced units. Every unit does the same work, and load from
    // outside this process only ever slows a cell down, so the fastest
    // of many repeats is the steadiest estimate of the work's own cost
    // on a shared machine; bursts of outside load that slow some units
    // for seconds then drop out.
    const auto fastestUnit = [](const std::vector<std::vector<double>> &units,
                                std::size_t count) {
        double total = 0.0;
        for (std::size_t c = 0; c < units.front().size(); ++c) {
            double fastest = units.front().at(c);
            for (std::size_t u = 0; u < count; ++u)
                fastest = std::min(fastest, units[u].at(c));
            total += fastest;
        }
        return total;
    };
    const double run_s = fastestUnit(plain_cells, plain_cells.size());
    rusage usage_now{};
    getrusage(RUSAGE_SELF, &usage_now);
    const double failed_frac = static_cast<double>(checks.failed()) /
                               static_cast<double>(checks.attempted());

    Metrics e2e;
    e2e.set("trials_per_s", static_cast<double>(unit.trials) / run_s, "1/s");
    e2e.set("points_per_s", static_cast<double>(unit.cell_s.size()) / run_s,
            "1/s");
    e2e.set("run_s", run_s, "s");
    e2e.set("setup_s", median(setup_times), "s");
    e2e.set("peak_rss_mb", static_cast<double>(usage_now.ru_maxrss) / 1024.0,
            "MB");

    Metrics layers;
    if (options.trace) {
        workload->layerMetrics(traced, setup, traced_s.size(), layers);
        const std::map<std::string, double> self = traced.selfTimeByName();
        const double units = static_cast<double>(traced_s.size());
        layers.set("bench.self_s", self.at("bench.unit") / units, "s");
        // Traced against untraced units of the same stretch of the run,
        // where the two alternate.
        layers.set("trace_overhead",
                   fastestUnit(traced_cells, traced_cells.size()) /
                       fastestUnit(plain_cells, traced_cells.size()),
                   "ratio");
        // The self times of all spans add up to the traced unit time;
        // print them per layer (per-program span names folded).
        std::map<std::string, double> by_layer;
        for (const auto &[name, seconds] : self) {
            const std::size_t dot = name.find('.', name.find('.') + 1);
            by_layer[name.substr(0, dot)] += seconds / units;
        }
        double covered = 0.0;
        std::cout << "span self time per traced unit (s):";
        for (const auto &[name, seconds] : by_layer) {
            std::cout << " " << name << " " << seconds;
            covered += seconds;
        }
        std::cout << "; sum " << covered << " of "
                  << traced.totalTime("bench.unit") / units << "\n";
    }

    const encore::BuildInfo &build = encore::buildInfo();
    std::cout << options.workload << " seed=" << options.seed << ": "
              << plain_s.size() << " untraced + " << traced_s.size()
              << " traced units of " << unit.trials << " trials / "
              << unit.cell_s.size() << " points; setup reps "
              << setup_times.size()
              << "\n  untraced unit times (s):";
    for (const double t : plain_s)
        std::cout << " " << t;
    std::cout << "\n  setup times (s):";
    for (const double t : setup_times)
        std::cout << " " << t;
    std::cout << "\n";
    for (const Metrics *metrics : {&e2e, &layers})
        for (const auto &[name, metric] : metrics->entries())
            std::cout << "  " << name << " = " << metric.first << " "
                      << metric.second << "\n";
    std::cout << "  failed_frac = " << failed_frac << " (" << checks.failed()
              << " of " << checks.attempted() << " checks failed)\n";

    std::cout << "{\"workload\": " << jsonString(options.workload)
              << ", \"seed\": " << options.seed
              << ", \"trace\": " << (options.trace ? 1 : 0)
              << ", \"attempted\": " << checks.attempted()
              << ", \"failed\": " << checks.failed()
              << ", \"failed_frac\": " << failed_frac
              << ", \"units\": " << plain_s.size() + traced_s.size()
              << ", \"provenance\": {\"git_hash\": "
              << jsonString(build.git_hash)
              << ", \"build_type\": " << jsonString(build.build_type)
              << ", \"compiler\": " << jsonString(build.compiler)
              << ", \"computed_goto\": "
              << (build.computed_goto ? "true" : "false")
              << ", \"engine\": " << jsonString(setup.engine)
              << ", \"snapshot_stride\": " << setup.snapshot_stride
              << ", \"nproc\": " << std::thread::hardware_concurrency()
              << ", \"jobs\": " << workload->jobs()
              << ", \"seed\": " << options.seed << "}"
              << ", \"metrics\": "
              << (options.trace ? layers.json() : e2e.json()) << "}"
              << std::endl;
    return checks.failed() == 0 ? 0 : 1;
}
