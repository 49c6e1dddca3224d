/**
 * @file
 * `durable`: the seven non-default (fault model, detector) pairs at
 * Dmax=100 on the ref inputs (profiled on train), through
 * CampaignRunner with on-disk trial stores at jobs=2. Per cell, shard
 * 0/2 stops half-way (RunnerOptions::stop_after) and is resumed, shard
 * 1/2 runs straight through, and mergeTrialStores combines the two.
 */
#include <filesystem>

#include "bench.h"
#include "campaign/runner.h"
#include "fault/models/fault_model.h"

namespace perfbench {

using namespace encore;
namespace fs = std::filesystem;

namespace {

constexpr std::uint64_t kTrialsPerCell = 3000;
constexpr std::uint64_t kDmax = 100;
constexpr std::size_t kJobs = 2;

struct Pair
{
    const fault::models::FaultModel *model;
    const fault::models::Detector *detector;
};

std::vector<Pair>
nonDefaultPairs()
{
    std::vector<Pair> pairs;
    for (const std::string_view m : fault::models::faultModelNames())
        for (const std::string_view d : fault::models::detectorNames()) {
            Pair pair{fault::models::findFaultModel(m),
                      fault::models::findDetector(d)};
            if (pair.model != fault::models::defaultFaultModel() ||
                pair.detector != fault::models::defaultDetector())
                pairs.push_back(pair);
        }
    return pairs;
}

std::uint64_t
fileBytes(const std::string &path)
{
    std::error_code ec;
    const std::uintmax_t size = fs::file_size(path, ec);
    return ec ? 0 : static_cast<std::uint64_t>(size);
}

class Durable : public BenchWorkload
{
  public:
    explicit Durable(const Options &options)
        : options_(options), pairs_(nonDefaultPairs()),
          dir_(options.workdir + "/durable")
    {
    }

    std::size_t jobs() const override { return kJobs; }

    std::string
    params() const override
    {
        return "durable trials_per_cell=" + std::to_string(kTrialsPerCell) +
               " seed=" + std::to_string(options_.seed);
    }

    void
    setup(SetupCost &cost, Checks &checks) override
    {
        programs_.clear();
        Tracer off(false);
        for (const workloads::Workload &w : workloads::allWorkloads()) {
            std::optional<Program> p =
                prepareProgram(w, EncoreConfig{}, w.ref_args,
                               !options_.record.empty(), cost, off);
            checks.op(p.has_value(), "golden run of " + w.name);
            if (p)
                programs_.push_back(std::move(*p));
        }
        fs::create_directories(dir_);
    }

    Unit
    run(Tracer &tracer, Checks &checks) override
    {
        const std::uint32_t runner_span = tracer.intern("campaign.runner");
        const std::uint32_t resume_span = tracer.intern("campaign.resume");
        const std::uint32_t merge_span = tracer.intern("campaign.merge");
        const std::uint32_t cell_span = tracer.intern("campaign.cell");
        const interp::SnapshotStats before = snapshotTotals(programs_);
        fault::CampaignResult total;
        std::uint64_t store_bytes = 0;
        Unit unit;
        const campaign::ShardSpec shard0{0, 2}, shard1{1, 2};
        const std::uint64_t half = shard0.ownedTrials(kTrialsPerCell) / 2;
        program_s_.resize(programs_.size());
        for (std::size_t i = 0; i < programs_.size(); ++i) {
            const Program &p = programs_[i];
            const auto program_start = Clock::now();
            for (std::size_t k = 0; k < pairs_.size(); ++k) {
                const auto cell_start = Clock::now();
                Tracer::Scope cell(tracer, cell_span);
                fault::CampaignConfig config;
                config.trials = kTrialsPerCell;
                config.seed = cellSeed(options_.seed, i * pairs_.size() + k);
                config.jobs = kJobs;
                config.trial.dmax = kDmax;
                config.trial.model = pairs_[k].model;
                config.trial.detector = pairs_[k].detector;
                const std::string key =
                    p.workload->name + "@" +
                    std::string(pairs_[k].model->name()) + "+" +
                    std::string(pairs_[k].detector->name());
                const std::string path0 = dir_ + "/cell_s0.trials";
                const std::string path1 = dir_ + "/cell_s1.trials";
                fs::remove(path0);
                fs::remove(path1);

                campaign::RunnerOptions first;
                first.store_path = path0;
                first.shard = shard0;
                first.stop_after = half;
                campaign::RunSummary stopped, resumed, straight;
                {
                    Tracer::Scope span(tracer, runner_span);
                    stopped =
                        campaign::CampaignRunner(*p.injector, config, first)
                            .run();
                }
                checks.op(!stopped.complete && stopped.executed == half,
                          key + ": shard 0/2 did not stop after " +
                              std::to_string(half) + " trials");

                campaign::RunnerOptions again = first;
                again.stop_after = 0;
                again.store_policy =
                    campaign::RunnerOptions::StorePolicy::MustExist;
                {
                    Tracer::Scope span(tracer, resume_span);
                    resumed =
                        campaign::CampaignRunner(*p.injector, config, again)
                            .run();
                }
                checks.op(resumed.complete && resumed.resumed == half,
                          key + ": resume of shard 0/2 incomplete");

                campaign::RunnerOptions other;
                other.store_path = path1;
                other.shard = shard1;
                {
                    Tracer::Scope span(tracer, runner_span);
                    straight =
                        campaign::CampaignRunner(*p.injector, config, other)
                            .run();
                }
                checks.op(straight.complete, key + ": shard 1/2 incomplete");

                store_bytes += fileBytes(path0) + fileBytes(path1);
                campaign::MergeSummary merged;
                std::optional<std::string> refusal;
                {
                    Tracer::Scope span(tracer, merge_span);
                    refusal = campaign::mergeTrialStores({path0, path1},
                                                         merged);
                }
                checks.op(!refusal && merged.stores_merged == 2,
                          key + ": merge refused: " + refusal.value_or(""));
                checks.cell(key, merged.result, kTrialsPerCell);
                accumulate(total, merged.result);
                unit.add(kTrialsPerCell, cell_start);
            }
            if (tracer.enabled())
                program_s_[i] += secondsSince(program_start);
        }
        fs::remove(dir_ + "/cell_s0.trials");
        fs::remove(dir_ + "/cell_s1.trials");
        if (tracer.enabled()) {
            last_total_ = total;
            store_bytes_ = store_bytes;
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
        const double units = static_cast<double>(traced_units);
        for (std::size_t i = 0; i < programs_.size(); ++i)
            m.set("fault.trials_per_s." + programs_[i].workload->name,
                  program_s_[i] > 0.0
                      ? units * static_cast<double>(pairs_.size() *
                                                    kTrialsPerCell) /
                            program_s_[i]
                      : 0.0,
                  "1/s");
        m.set("campaign.runner_s", tracer.totalTime("campaign.runner") / units,
              "s");
        m.set("campaign.resume_s", tracer.totalTime("campaign.resume") / units,
              "s");
        m.set("campaign.merge_s", tracer.totalTime("campaign.merge") / units,
              "s");
        m.set("campaign.cell_self_s",
              tracer.selfTimeByName()["campaign.cell"] / units, "s");
        m.set("campaign.store_bytes", static_cast<double>(store_bytes_),
              "bytes");
    }

  private:
    const Options &options_;
    std::vector<Pair> pairs_;
    std::string dir_;
    std::vector<Program> programs_;
    std::vector<double> program_s_;
    fault::CampaignResult last_total_;
    std::uint64_t store_bytes_ = 0;
    interp::SnapshotStats snap_before_, snap_after_;
};

} // namespace

std::unique_ptr<BenchWorkload>
makeDurable(const Options &options)
{
    return std::make_unique<Durable>(options);
}

} // namespace perfbench
