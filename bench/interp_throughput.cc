/**
 * @file
 * Interpreter throughput over every registered workload: decode time
 * (DecodedModule construction), and dynamic instructions per second of
 * the reference (tree-walking) and decoded engines on the training
 * input, both measured in one run so that their ratio divides out most
 * of the machine. Prints one row per workload; --json PATH also writes
 * the rows and the two suite means as a report, which scripts/ci.sh's
 * warn-only interpreter smoke reads.
 */
#include <chrono>
#include <iostream>

#include "common.h"
#include "interp/decoded.h"
#include "interp/interpreter.h"
#include "interp/reference.h"
#include "support/strings.h"
#include "workloads/workload.h"

using namespace encore;

namespace {

struct InterpStats
{
    std::string name;
    std::uint64_t dyn_instrs = 0;
    double decode_ms = 0.0;
    double ref_mips = 0.0;     // reference engine, M instrs/sec
    double decoded_mips = 0.0; // decoded engine
};

/// Runs `body` repeatedly until it has consumed at least `min_seconds`
/// of wall time, returning the mean seconds per call.
template <typename Fn>
double
timeLoop(Fn &&body, double min_seconds = 0.1)
{
    int iterations = 0;
    const auto start = std::chrono::steady_clock::now();
    double elapsed = 0.0;
    do {
        body();
        ++iterations;
        elapsed = bench::secondsSince(start);
    } while (elapsed < min_seconds);
    return elapsed / iterations;
}

std::vector<InterpStats>
measureInterpreters()
{
    std::vector<InterpStats> stats;
    for (const auto &w : workloads::allWorkloads()) {
        auto module = w.build();
        InterpStats s;
        s.name = w.name;

        const double decode_seconds =
            timeLoop([&] { interp::DecodedModule decoded(*module); });
        s.decode_ms = decode_seconds * 1e3;

        interp::ReferenceInterpreter ref(*module);
        const double ref_seconds = timeLoop([&] {
            const interp::RunResult r = ref.run(w.entry, w.train_args);
            s.dyn_instrs = r.dyn_instrs;
        });

        interp::Interpreter decoded(*module);
        const double dec_seconds =
            timeLoop([&] { decoded.run(w.entry, w.train_args); });

        const double instrs = static_cast<double>(s.dyn_instrs);
        s.ref_mips = ref_seconds > 0.0 ? instrs / ref_seconds / 1e6 : 0.0;
        s.decoded_mips =
            dec_seconds > 0.0 ? instrs / dec_seconds / 1e6 : 0.0;
        stats.push_back(std::move(s));
    }
    return stats;
}

bool
writeInterpJson(const std::vector<InterpStats> &stats,
                const std::string &path)
{
    double ref_sum = 0.0, dec_sum = 0.0;
    for (const InterpStats &s : stats) {
        ref_sum += s.ref_mips;
        dec_sum += s.decoded_mips;
    }
    const double n = static_cast<double>(stats.size());
    return bench::writeJsonReport(path, [&](std::ostream &json) {
    json << "  \"bench\": \"interp_throughput\",\n"
         << "  \"mean_reference_mips\": "
         << formatFixed(n > 0 ? ref_sum / n : 0.0, 3) << ",\n"
         << "  \"mean_decoded_mips\": "
         << formatFixed(n > 0 ? dec_sum / n : 0.0, 3) << ",\n"
         << "  \"workloads\": [\n";
    for (std::size_t i = 0; i < stats.size(); ++i) {
        const InterpStats &s = stats[i];
        json << "    {\"name\": \"" << s.name << "\", \"dyn_instrs\": "
             << s.dyn_instrs << ", \"decode_ms\": "
             << formatFixed(s.decode_ms, 4)
             << ", \"reference_mips\": "
             << formatFixed(s.ref_mips, 3)
             << ", \"decoded_mips\": "
             << formatFixed(s.decoded_mips, 3)
             << ", \"speedup\": "
             << formatFixed(
                    s.ref_mips > 0.0 ? s.decoded_mips / s.ref_mips : 0.0,
                    3)
             << "}" << (i + 1 < stats.size() ? "," : "") << "\n";
    }
    json << "  ]\n}\n";
    });
}

} // namespace

int
main(int argc, char **argv)
{
    CommandLine cli;
    bench::addJsonFlag(cli, "");
    cli.parse(argc, argv);

    const std::vector<InterpStats> stats = measureInterpreters();
    std::cout << "Interpreter throughput (training inputs):\n";
    for (const InterpStats &s : stats) {
        std::cout << "  " << s.name << ": reference "
                  << formatFixed(s.ref_mips, 1) << " Mi/s, decoded "
                  << formatFixed(s.decoded_mips, 1) << " Mi/s ("
                  << formatFixed(s.ref_mips > 0.0
                                     ? s.decoded_mips / s.ref_mips
                                     : 0.0,
                                 2)
                  << "x, decode " << formatFixed(s.decode_ms, 3)
                  << " ms)\n";
    }
    return writeInterpJson(stats, cli.getString("json")) ? 0 : 1;
}
