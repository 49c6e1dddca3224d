/**
 * @file
 * `campaign`: the Fig. 8 campaign. All 23 programs x Dmax {1000, 100,
 * 10}, default scenario, train inputs, in-memory tallies, jobs=1.
 *
 * Untraced units call FaultInjector::runCampaign. Traced units run the
 * same trials through runCampaignTrial on one interpreter per cell, as
 * runCampaign does at jobs=1, with a span around every trial.
 */
#include <iostream>

#include "bench.h"
#include "interp/interpreter.h"

namespace perfbench {

using namespace encore;

namespace {

constexpr std::uint64_t kTrialsPerCell = 4000;
constexpr std::uint64_t kDmax[] = {1000, 100, 10};

class Campaign : public BenchWorkload
{
  public:
    explicit Campaign(const Options &options) : options_(options) {}

    std::size_t jobs() const override { return 1; }

    std::string
    params() const override
    {
        return "campaign trials_per_cell=" + std::to_string(kTrialsPerCell) +
               " seed=" + std::to_string(options_.seed);
    }

    void
    setup(SetupCost &cost, Checks &checks) override
    {
        programs_.clear();
        Tracer off(false);
        for (const workloads::Workload &w : workloads::allWorkloads()) {
            std::optional<Program> p =
                prepareProgram(w, EncoreConfig{}, w.train_args,
                               !options_.record.empty(), cost, off);
            checks.op(p.has_value(), "golden run of " + w.name);
            if (p)
                programs_.push_back(std::move(*p));
        }
    }

    Unit
    run(Tracer &tracer, Checks &checks) override
    {
        const interp::SnapshotStats before = snapshotTotals(programs_);
        const std::uint32_t cell_span = tracer.intern("fault.campaign");
        executed_.resize(programs_.size());
        fault::CampaignResult total;
        Unit unit;
        for (std::size_t i = 0; i < programs_.size(); ++i) {
            const Program &p = programs_[i];
            const std::uint32_t trial_span =
                tracer.intern("fault.trial." + p.workload->name);
            for (std::size_t d = 0; d < std::size(kDmax); ++d) {
                const auto cell_start = Clock::now();
                fault::CampaignConfig config;
                config.trials = kTrialsPerCell;
                config.seed = cellSeed(options_.seed, i * 3 + d);
                config.jobs = 1;
                config.trial.dmax = kDmax[d];
                fault::CampaignResult result;
                if (!tracer.enabled()) {
                    result = p.injector->runCampaign(config);
                } else {
                    Tracer::Scope cell(tracer, cell_span);
                    fault::validateCampaignConfig(config);
                    interp::Interpreter interp(p.injector->decodedModule());
                    for (std::uint64_t t = 0; t < config.trials; ++t) {
                        std::uint32_t aux = 0;
                        const std::int32_t span = tracer.begin(trial_span);
                        const fault::FaultOutcome outcome =
                            p.injector->runCampaignTrial(t, config, interp,
                                                         aux);
                        tracer.end(span);
                        if (outcome != fault::FaultOutcome::Masked)
                            executed_[i].push_back(span);
                        ++result.counts[static_cast<int>(outcome)];
                        ++result.trials;
                        result.replay_cost += aux;
                    }
                }
                checks.cell(p.workload->name + "@dmax=" +
                                std::to_string(kDmax[d]),
                            result, kTrialsPerCell);
                accumulate(total, result);
                unit.add(kTrialsPerCell, cell_start);
            }
        }
        if (tracer.enabled()) {
            last_total_ = total;
            snap_before_ = before;
            snap_after_ = snapshotTotals(programs_);
        }
        return unit;
    }

    void
    layerMetrics(const Tracer &tracer, const SetupCost &setup,
                 std::size_t traced_units, Metrics &m) override
    {
        setup.report(m);
        reportSnapshotUse(snap_before_, snap_after_, m);
        reportOutcomes(last_total_, m);
        m.set("fault.trials_executed",
              static_cast<double>(
                  last_total_.trials -
                  last_total_.count(fault::FaultOutcome::Masked)),
              "count");

        // Per-program table: trial rate, latency of executed trials and
        // what the snapshot tier did for the program.
        std::vector<double> all, all_executed;
        std::cout << "per-program trials (traced units; latency of "
                     "executed trials):\n"
                  << "  program       trials/s  exec_p50_us  exec_p99_us  "
                     "executed  golden_dyn  snaps  snap_kB  stride  "
                     "resyncs/unit\n";
        for (std::size_t i = 0; i < programs_.size(); ++i) {
            const Program &p = programs_[i];
            std::vector<double> samples =
                tracer.durations("fault.trial." + p.workload->name);
            double busy = 0.0;
            for (const double s : samples)
                busy += s;
            const double rate =
                busy > 0.0 ? static_cast<double>(samples.size()) / busy : 0.0;
            m.set("fault.trials_per_s." + p.workload->name, rate, "1/s");
            std::vector<double> executed;
            for (const std::int32_t span : executed_[i]) {
                const Span &s = tracer.spans()[static_cast<std::size_t>(span)];
                executed.push_back(1e-3 *
                                   static_cast<double>(s.end_ns - s.start_ns));
            }
            const interp::SnapshotStats snaps = p.injector->snapshotStats();
            const auto p50 = tailPercentile(executed, 0.5);
            const auto p99 = tailPercentile(executed, 0.99);
            char line[200];
            std::snprintf(line, sizeof line,
                          "  %-12s %9.0f %12.2f %12.2f %9zu %11llu %6llu "
                          "%8.0f %7llu %8llu\n",
                          p.workload->name.c_str(), rate, p50.value_or(0.0),
                          p99.value_or(0.0), executed.size(),
                          static_cast<unsigned long long>(
                              p.injector->golden().dyn_instrs),
                          static_cast<unsigned long long>(snaps.count),
                          static_cast<double>(snaps.bytes) / 1024.0,
                          static_cast<unsigned long long>(snaps.stride),
                          static_cast<unsigned long long>(snaps.resyncs));
            std::cout << line;
            for (double &s : samples)
                s *= 1e6;
            all.insert(all.end(), samples.begin(), samples.end());
            all_executed.insert(all_executed.end(), executed.begin(),
                                executed.end());
        }
        m.set("fault.trial_samples", static_cast<double>(all.size()), "count");
        m.set("fault.trial_us_p50", tailPercentile(all, 0.5).value_or(0.0),
              "us");
        m.set("fault.trial_us_p99", tailPercentile(all, 0.99).value_or(0.0),
              "us");
        m.set("fault.executed_us_p50",
              tailPercentile(all_executed, 0.5).value_or(0.0), "us");
        m.set("fault.executed_us_p99",
              tailPercentile(all_executed, 0.99).value_or(0.0), "us");

        const std::map<std::string, double> self = tracer.selfTimeByName();
        const double units = static_cast<double>(traced_units);
        m.set("fault.trials_s", sumByPrefix(self, "fault.trial.") / units,
              "s");
        m.set("fault.campaign_self_s",
              sumByPrefix(self, "fault.campaign") / units, "s");
    }

  private:
    const Options &options_;
    std::vector<Program> programs_;
    /// Per program: indices of the traced trial spans that executed
    /// (were not modelled as masked).
    std::vector<std::vector<std::int32_t>> executed_;
    fault::CampaignResult last_total_;
    interp::SnapshotStats snap_before_, snap_after_;
};

} // namespace

std::unique_ptr<BenchWorkload>
makeCampaign(const Options &options)
{
    return std::make_unique<Campaign>(options);
}

} // namespace perfbench
