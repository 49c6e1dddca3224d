/**
 * @file
 * `sweep`: the 20 ablation grid points x 23 programs. Each point runs
 * a cold pipeline, a golden run, then CampaignPlanner::run with sidecar
 * reuse at Dmax=100, jobs=1. The sidecars start empty in every unit, so
 * every unit does the same work: the first grid point executes its
 * groups and later points fold what they share with earlier ones.
 */
#include <filesystem>

#include "bench.h"
#include "campaign/planner.h"

namespace perfbench {

using namespace encore;
namespace fs = std::filesystem;

namespace {

constexpr std::uint64_t kTrialsPerPoint = 3000;

/// The grid of bench/ablation_heuristics.cc's ablationGrid(), in the
/// same order: baseline, Pmin, gamma, merging, eta, storage budget,
/// call summaries, auto-tune, alias mode.
std::vector<EncoreConfig>
ablationGrid()
{
    std::vector<EncoreConfig> grid;
    grid.push_back(EncoreConfig{});
    for (const double pmin : {-1.0, 0.0, 0.1, 0.25}) {
        EncoreConfig config;
        config.prune = pmin >= 0.0;
        config.pmin = std::max(pmin, 0.0);
        grid.push_back(config);
    }
    for (const double gamma : {5.0, 50.0, 500.0, 5000.0}) {
        EncoreConfig config;
        config.gamma = gamma;
        grid.push_back(config);
    }
    {
        EncoreConfig config;
        config.merge_regions = false;
        grid.push_back(config);
    }
    for (const double eta : {10.0, 100.0, 1000.0}) {
        EncoreConfig config;
        config.eta = eta;
        grid.push_back(config);
    }
    for (const double bytes : {64.0, 256.0, 1024.0, 8192.0}) {
        EncoreConfig config;
        config.max_storage_bytes = bytes;
        grid.push_back(config);
    }
    {
        EncoreConfig config;
        config.use_call_summaries = false;
        grid.push_back(config);
    }
    {
        EncoreConfig config;
        config.auto_tune = false;
        grid.push_back(config);
    }
    {
        EncoreConfig config;
        config.alias_mode = EncoreConfig::AliasMode::Optimistic;
        grid.push_back(config);
    }
    return grid;
}

struct SweepTotals
{
    SetupCost cost;
    fault::CampaignResult result;
    std::uint64_t executed = 0;
    std::uint64_t reused = 0;
    std::uint64_t masked = 0;
    std::uint64_t groups = 0;
    std::uint64_t groups_reused = 0;
    std::uint64_t sidecar_bytes = 0;
    interp::SnapshotStats snaps;
};

class Sweep : public BenchWorkload
{
  public:
    explicit Sweep(const Options &options)
        : options_(options), grid_(ablationGrid()),
          dir_(options.workdir + "/sweep")
    {
    }

    std::size_t jobs() const override { return 1; }

    std::string
    params() const override
    {
        return "sweep trials_per_point=" + std::to_string(kTrialsPerPoint) +
               " seed=" + std::to_string(options_.seed);
    }

    /// The set-up is the baseline point's pipeline and golden run for
    /// every program; the timed units redo it cold for every point.
    void
    setup(SetupCost &cost, Checks &checks) override
    {
        Tracer off(false);
        for (const workloads::Workload &w : workloads::allWorkloads())
            checks.op(prepareProgram(w, EncoreConfig{}, w.train_args,
                                     !options_.record.empty(), cost, off)
                          .has_value(),
                      "golden run of " + w.name);
        fs::create_directories(dir_);
    }

    Unit
    run(Tracer &tracer, Checks &checks) override
    {
        const std::uint32_t planner_span = tracer.intern("campaign.planner");
        const std::uint32_t point_span = tracer.intern("sweep.point");
        const std::vector<workloads::Workload> &suite =
            workloads::allWorkloads();
        for (std::size_t i = 0; i < suite.size(); ++i)
            fs::remove(sidecar(i));
        SweepTotals totals;
        Unit unit;
        program_s_.resize(suite.size());
        for (std::size_t g = 0; g < grid_.size(); ++g) {
            for (std::size_t i = 0; i < suite.size(); ++i) {
                const workloads::Workload &w = suite[i];
                const auto cell_start = Clock::now();
                Tracer::Scope point(tracer, point_span);
                std::optional<Program> p =
                    prepareProgram(w, grid_[g], w.train_args,
                                   !options_.record.empty(), totals.cost,
                                   tracer);
                const std::string key = std::to_string(g) + ":" + w.name;
                checks.op(p.has_value(), key + ": golden run failed");
                if (!p)
                    continue;
                fault::CampaignConfig config;
                config.trials = kTrialsPerPoint;
                config.seed = cellSeed(options_.seed, i);
                config.jobs = 1;
                config.trial.dmax = 100;
                campaign::PlannerOptions popts;
                popts.sidecar_path = sidecar(i);
                popts.program_key = fnv1a(w.name);
                const auto start = Clock::now();
                campaign::PlanSummary s;
                {
                    Tracer::Scope span(tracer, planner_span);
                    s = campaign::CampaignPlanner(*p->injector, p->report,
                                                  config, popts)
                            .run();
                }
                if (tracer.enabled())
                    program_s_[i] += secondsSince(start);
                checks.cell(key, s.result, kTrialsPerPoint);
                accumulate(totals.result, s.result);
                totals.executed += s.executed;
                totals.reused += s.reused_trials;
                totals.masked += s.masked_trials;
                totals.groups += s.groups;
                totals.groups_reused += s.groups_reused;
                const interp::SnapshotStats snaps =
                    p->injector->snapshotStats();
                totals.snaps.hits += snaps.hits;
                totals.snaps.misses += snaps.misses;
                totals.snaps.resyncs += snaps.resyncs;
                unit.add(kTrialsPerPoint, cell_start);
            }
        }
        for (std::size_t i = 0; i < suite.size(); ++i) {
            std::error_code ec;
            const std::uintmax_t size = fs::file_size(sidecar(i), ec);
            totals.sidecar_bytes += ec ? 0 : size;
        }
        if (tracer.enabled())
            traced_.push_back(totals);
        return unit;
    }

    void
    layerMetrics(const Tracer &tracer, const SetupCost &,
                 std::size_t traced_units, Metrics &m) override
    {
        // Analysis, decode and golden work happen inside the sweep's
        // timed units, so their per-layer numbers come from there.
        std::vector<SetupCost> costs;
        for (const SweepTotals &t : traced_)
            costs.push_back(t.cost);
        SetupCost::median(costs).report(m);
        const SweepTotals &last = traced_.back();
        reportSnapshotUse(interp::SnapshotStats{}, last.snaps, m);
        reportOutcomes(last.result, m);
        m.set("fault.trials_executed", static_cast<double>(last.executed),
              "count");
        m.set("fault.trials_masked", static_cast<double>(last.masked),
              "count");
        const double units = static_cast<double>(traced_units);
        const std::vector<workloads::Workload> &suite =
            workloads::allWorkloads();
        for (std::size_t i = 0; i < suite.size(); ++i)
            m.set("fault.trials_per_s." + suite[i].name,
                  program_s_[i] > 0.0
                      ? units * static_cast<double>(grid_.size() *
                                                    kTrialsPerPoint) /
                            program_s_[i]
                      : 0.0,
                  "1/s");
        m.set("campaign.planner_s",
              tracer.totalTime("campaign.planner") / units, "s");
        m.set("campaign.planner_executed", static_cast<double>(last.executed),
              "count");
        m.set("campaign.planner_reused", static_cast<double>(last.reused),
              "count");
        const std::uint64_t base = last.reused + last.executed;
        m.set("campaign.reuse_ratio",
              base ? static_cast<double>(last.reused) /
                         static_cast<double>(base)
                   : 0.0,
              "ratio");
        m.set("campaign.reuse_base", static_cast<double>(base), "count");
        m.set("campaign.groups", static_cast<double>(last.groups), "count");
        m.set("campaign.groups_reused",
              static_cast<double>(last.groups_reused), "count");
        m.set("campaign.sidecar_bytes", static_cast<double>(last.sidecar_bytes),
              "bytes");
        m.set("sweep.point_self_s",
              tracer.selfTimeByName()["sweep.point"] / units, "s");
    }

  private:
    std::string
    sidecar(std::size_t program) const
    {
        return dir_ + "/program" + std::to_string(program) + ".tally";
    }

    const Options &options_;
    std::vector<EncoreConfig> grid_;
    std::string dir_;
    std::vector<double> program_s_;
    std::vector<SweepTotals> traced_;
};

} // namespace

std::unique_ptr<BenchWorkload>
makeSweep(const Options &options)
{
    return std::make_unique<Sweep>(options);
}

} // namespace perfbench
