/**
 * @file
 * Google-benchmark microbenchmarks of the compiler passes themselves:
 * scalability of interval partitioning, dominators, loop analysis,
 * the idempotence dataflow, and the full pipeline, as a function of
 * workload size. Verifies the §3.1 claim that the analysis is
 * "efficient, scalable".
 *
 * Before the registered benchmarks run, main() measures the decoded
 * interpreter directly — per-workload decode time (DecodedModule
 * construction) and execution throughput of the tree-walking reference
 * engine vs the flat pre-decoded engine — and prints the results;
 * --interp-json=PATH also writes them as a machine-readable report,
 * and an explicit empty --interp-json= skips the measurement.
 */
#include <benchmark/benchmark.h>

#include <chrono>
#include <iostream>

#include "analysis/intervals.h"
#include "analysis/liveness.h"
#include "common.h"
#include "encore/pipeline.h"
#include "interp/decoded.h"
#include "interp/interpreter.h"
#include "interp/reference.h"
#include "support/strings.h"
#include "workloads/workload.h"

using namespace encore;

namespace {

const workloads::Workload &
workloadByIndex(int index)
{
    const auto &all = workloads::allWorkloads();
    return all[static_cast<std::size_t>(index) % all.size()];
}

void
BM_BuildCfgAndDominators(benchmark::State &state)
{
    const auto &w = workloadByIndex(static_cast<int>(state.range(0)));
    auto module = w.build();
    const ir::Function &f = *module->functionByName(w.entry);
    for (auto _ : state) {
        analysis::DiGraph cfg = analysis::buildCfg(f);
        analysis::DominatorTree dom(cfg, f.entry()->id());
        benchmark::DoNotOptimize(dom.idom(f.entry()->id()));
    }
    state.SetLabel(w.name);
}
BENCHMARK(BM_BuildCfgAndDominators)->DenseRange(0, 5, 1);

void
BM_LoopInfo(benchmark::State &state)
{
    const auto &w = workloadByIndex(static_cast<int>(state.range(0)));
    auto module = w.build();
    const ir::Function &f = *module->functionByName(w.entry);
    analysis::DiGraph cfg = analysis::buildCfg(f);
    analysis::DominatorTree dom(cfg, f.entry()->id());
    for (auto _ : state) {
        analysis::LoopInfo loops(cfg, dom);
        benchmark::DoNotOptimize(loops.numLoops());
    }
    state.SetLabel(w.name);
}
BENCHMARK(BM_LoopInfo)->DenseRange(0, 5, 1);

void
BM_IntervalHierarchy(benchmark::State &state)
{
    const auto &w = workloadByIndex(static_cast<int>(state.range(0)));
    auto module = w.build();
    const ir::Function &f = *module->functionByName(w.entry);
    analysis::DiGraph cfg = analysis::buildCfg(f);
    for (auto _ : state) {
        analysis::IntervalHierarchy hierarchy(cfg, f.entry()->id());
        benchmark::DoNotOptimize(hierarchy.numLevels());
    }
    state.SetLabel(w.name);
}
BENCHMARK(BM_IntervalHierarchy)->DenseRange(0, 5, 1);

void
BM_Liveness(benchmark::State &state)
{
    const auto &w = workloadByIndex(static_cast<int>(state.range(0)));
    auto module = w.build();
    const ir::Function &f = *module->functionByName(w.entry);
    for (auto _ : state) {
        analysis::Liveness liveness(f);
        benchmark::DoNotOptimize(liveness.liveIn(0));
    }
    state.SetLabel(w.name);
}
BENCHMARK(BM_Liveness)->DenseRange(0, 5, 1);

void
BM_FullPipeline(benchmark::State &state)
{
    const auto &w = workloadByIndex(static_cast<int>(state.range(0)));
    for (auto _ : state) {
        auto module = w.build();
        EncoreConfig config;
        for (const auto &name : w.opaque)
            config.opaque_functions.insert(name);
        EncorePipeline pipeline(*module, config);
        const EncoreReport report =
            pipeline.run({RunSpec{w.entry, w.train_args}});
        benchmark::DoNotOptimize(report.regions.size());
    }
    state.SetLabel(w.name);
}
BENCHMARK(BM_FullPipeline)->DenseRange(0, 5, 1)->Unit(
    benchmark::kMillisecond);

void
BM_Interpreter(benchmark::State &state)
{
    const auto &w = workloadByIndex(static_cast<int>(state.range(0)));
    auto module = w.build();
    interp::Interpreter interp(*module);
    std::uint64_t instrs = 0;
    for (auto _ : state) {
        const interp::RunResult result =
            interp.run(w.entry, w.train_args);
        instrs = result.dyn_instrs;
        benchmark::DoNotOptimize(result.return_value);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations() * instrs));
    state.SetLabel(w.name);
}
BENCHMARK(BM_Interpreter)->DenseRange(0, 5, 1)->Unit(
    benchmark::kMillisecond);

void
BM_ReferenceInterpreter(benchmark::State &state)
{
    const auto &w = workloadByIndex(static_cast<int>(state.range(0)));
    auto module = w.build();
    interp::ReferenceInterpreter interp(*module);
    std::uint64_t instrs = 0;
    for (auto _ : state) {
        const interp::RunResult result =
            interp.run(w.entry, w.train_args);
        instrs = result.dyn_instrs;
        benchmark::DoNotOptimize(result.return_value);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations() * instrs));
    state.SetLabel(w.name);
}
BENCHMARK(BM_ReferenceInterpreter)->DenseRange(0, 5, 1)->Unit(
    benchmark::kMillisecond);

void
BM_DecodeModule(benchmark::State &state)
{
    const auto &w = workloadByIndex(static_cast<int>(state.range(0)));
    auto module = w.build();
    for (auto _ : state) {
        interp::DecodedModule decoded(*module);
        benchmark::DoNotOptimize(decoded.numFunctions());
    }
    state.SetLabel(w.name);
}
BENCHMARK(BM_DecodeModule)->DenseRange(0, 5, 1);

/**
 * Direct (non-google-benchmark) measurement of the decoded execution
 * engine over every registered workload: decode wall time, plus
 * dynamic-instructions-per-second for the reference (tree-walking)
 * engine and the decoded engine on the training input.
 */
struct InterpStats
{
    std::string name;
    std::uint64_t dyn_instrs = 0;
    double decode_ms = 0.0;
    double ref_mips = 0.0;     // reference engine, M instrs/sec
    double decoded_mips = 0.0; // decoded engine (fusion off)
    double fused_mips = 0.0;   // fused engine (the default)
};

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

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
        elapsed = secondsSince(start);
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

        const double decode_seconds = timeLoop([&] {
            interp::DecodedModule decoded(*module);
            benchmark::DoNotOptimize(decoded.numFunctions());
        });
        s.decode_ms = decode_seconds * 1e3;

        interp::ReferenceInterpreter ref(*module);
        const double ref_seconds = timeLoop([&] {
            const interp::RunResult r = ref.run(w.entry, w.train_args);
            s.dyn_instrs = r.dyn_instrs;
            benchmark::DoNotOptimize(r.return_value);
        });

        interp::Interpreter decoded(*module,
                                    interp::EngineKind::Decoded);
        const double dec_seconds = timeLoop([&] {
            const interp::RunResult r =
                decoded.run(w.entry, w.train_args);
            benchmark::DoNotOptimize(r.return_value);
        });

        interp::Interpreter fused(*module, interp::EngineKind::Fused);
        const double fused_seconds = timeLoop([&] {
            const interp::RunResult r = fused.run(w.entry, w.train_args);
            benchmark::DoNotOptimize(r.return_value);
        });

        const double instrs = static_cast<double>(s.dyn_instrs);
        s.ref_mips = ref_seconds > 0.0 ? instrs / ref_seconds / 1e6 : 0.0;
        s.decoded_mips =
            dec_seconds > 0.0 ? instrs / dec_seconds / 1e6 : 0.0;
        s.fused_mips =
            fused_seconds > 0.0 ? instrs / fused_seconds / 1e6 : 0.0;
        stats.push_back(std::move(s));
    }
    return stats;
}

bool
writeInterpJson(const std::vector<InterpStats> &stats,
                const std::string &path)
{
    double ref_sum = 0.0, dec_sum = 0.0, fused_sum = 0.0;
    for (const InterpStats &s : stats) {
        ref_sum += s.ref_mips;
        dec_sum += s.decoded_mips;
        fused_sum += s.fused_mips;
    }
    const double n = static_cast<double>(stats.size());
    return bench::writeJsonReport(path, [&](std::ostream &json) {
    // Provenance: the default engine these numbers describe, plus the
    // fusion flag explicitly so trajectories stay comparable across
    // PRs even if the default ever changes. decoded_mips rows measure
    // --engine=decoded (fusion off) on the same build.
    json << "  \"bench\": \"bench_passes/interp\",\n"
         << "  \"engine\": \"fused\",\n"
         << "  \"fusion\": true,\n"
         << "  \"mean_reference_mips\": "
         << formatFixed(n > 0 ? ref_sum / n : 0.0, 3) << ",\n"
         << "  \"mean_decoded_mips\": "
         << formatFixed(n > 0 ? dec_sum / n : 0.0, 3) << ",\n"
         << "  \"mean_fused_mips\": "
         << formatFixed(n > 0 ? fused_sum / n : 0.0, 3) << ",\n"
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
             << ", \"fused_mips\": "
             << formatFixed(s.fused_mips, 3)
             << ", \"decoded_speedup\": "
             << formatFixed(
                    s.ref_mips > 0.0 ? s.decoded_mips / s.ref_mips : 0.0,
                    3)
             << ", \"speedup\": "
             << formatFixed(
                    s.ref_mips > 0.0 ? s.fused_mips / s.ref_mips : 0.0,
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
    // --interp-json=PATH also writes the interpreter measurement as a
    // report (no file by default); an explicit empty --interp-json=
    // skips the measurement (useful for quick benchmark filters).
    // Remaining flags go to google-benchmark.
    std::string interp_json;
    bool measure_interp = true;
    std::vector<char *> bench_args;
    bench_args.push_back(argv[0]);
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const std::string interp_prefix = "--interp-json=";
        if (arg.rfind(interp_prefix, 0) == 0) {
            interp_json = arg.substr(interp_prefix.size());
            measure_interp = !interp_json.empty();
        } else {
            bench_args.push_back(argv[i]);
        }
    }

    if (measure_interp) {
        const std::vector<InterpStats> stats = measureInterpreters();
        std::cout << "Interpreter throughput (training inputs):\n";
        for (const InterpStats &s : stats) {
            std::cout << "  " << s.name << ": reference "
                      << formatFixed(s.ref_mips, 1)
                      << " Mi/s, decoded "
                      << formatFixed(s.decoded_mips, 1)
                      << " Mi/s, fused "
                      << formatFixed(s.fused_mips, 1) << " Mi/s ("
                      << formatFixed(s.ref_mips > 0.0
                                         ? s.fused_mips / s.ref_mips
                                         : 0.0,
                                     2)
                      << "x, decode " << formatFixed(s.decode_ms, 3)
                      << " ms)\n";
        }
        if (!writeInterpJson(stats, interp_json))
            return 1;
    }

    int bench_argc = static_cast<int>(bench_args.size());
    benchmark::Initialize(&bench_argc, bench_args.data());
    if (benchmark::ReportUnrecognizedArguments(bench_argc,
                                               bench_args.data()))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
