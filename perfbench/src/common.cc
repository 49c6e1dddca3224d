#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>

#include "bench.h"

namespace perfbench {

using namespace encore;

namespace {

std::string
formatNumber(double value)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    return buf;
}

} // namespace

void
Metrics::set(const std::string &name, double value, const std::string &unit)
{
    for (auto &entry : entries_)
        if (entry.first == name) {
            entry.second = {value, unit};
            return;
        }
    entries_.push_back({name, {value, unit}});
}

std::string
Metrics::json() const
{
    std::string out = "{";
    for (std::size_t i = 0; i < entries_.size(); ++i) {
        const auto &[name, metric] = entries_[i];
        out += (i ? ", \"" : "\"") + name + "\": {\"value\": " +
               formatNumber(metric.first) + ", \"unit\": \"" +
               metric.second + "\"}";
    }
    return out + "}";
}

SetupCost
SetupCost::median(const std::vector<SetupCost> &reps)
{
    SetupCost out = reps.at(0);
    const auto med = [&](auto field) {
        std::vector<double> values;
        for (const SetupCost &rep : reps)
            values.push_back(static_cast<double>(field(rep)));
        std::sort(values.begin(), values.end());
        const std::size_t n = values.size();
        return n % 2 ? values[n / 2]
                     : 0.5 * (values[n / 2 - 1] + values[n / 2]);
    };
    out.build_s = med([](const SetupCost &c) { return c.build_s; });
    out.phases.profile =
        med([](const SetupCost &c) { return c.phases.profile; });
    out.phases.structures =
        med([](const SetupCost &c) { return c.phases.structures; });
    out.phases.formation =
        med([](const SetupCost &c) { return c.phases.formation; });
    out.phases.dataflow =
        med([](const SetupCost &c) { return c.phases.dataflow; });
    out.phases.select_merge =
        med([](const SetupCost &c) { return c.phases.select_merge; });
    out.phases.instrument =
        med([](const SetupCost &c) { return c.phases.instrument; });
    out.decode_s = med([](const SetupCost &c) { return c.decode_s; });
    out.golden_s = med([](const SetupCost &c) { return c.golden_s; });
    return out;
}

void
SetupCost::report(Metrics &m) const
{
    m.set("encore.build_s", build_s, "s");
    m.set("encore.profile_s", phases.profile, "s");
    m.set("encore.structures_s", phases.structures, "s");
    m.set("encore.formation_s", phases.formation, "s");
    m.set("encore.dataflow_s", phases.dataflow, "s");
    m.set("encore.select_merge_s", phases.select_merge, "s");
    m.set("encore.instrument_s", phases.instrument, "s");
    m.set("encore.regions_selected", static_cast<double>(regions_selected),
          "count");
    m.set("interp.decode_s", decode_s, "s");
    m.set("interp.golden_s", golden_s, "s");
    m.set("interp.golden_dyn_instrs", static_cast<double>(golden_dyn_instrs),
          "count");
    m.set("interp.golden_mips",
          golden_s > 0.0 ? 1e-6 * static_cast<double>(golden_dyn_instrs) /
                               golden_s
                         : 0.0,
          "MIPS");
    m.set("interp.snapshot_count", static_cast<double>(snapshot_count),
          "count");
    m.set("interp.snapshot_bytes", static_cast<double>(snapshot_bytes),
          "bytes");
}

std::optional<Program>
prepareProgram(const workloads::Workload &w, EncoreConfig config,
               const std::vector<std::uint64_t> &eval_args, bool reference,
               SetupCost &cost, Tracer &tracer)
{
    const std::uint32_t build_span = tracer.intern("encore.build");
    const std::uint32_t analysis_span = tracer.intern("encore.analysis");
    const std::uint32_t decode_span = tracer.intern("interp.decode");
    const std::uint32_t golden_span = tracer.intern("interp.golden");
    Program p;
    p.workload = &w;

    auto start = Clock::now();
    {
        Tracer::Scope span(tracer, build_span);
        p.module = w.build();
    }
    cost.build_s += secondsSince(start);

    for (const std::string &name : w.opaque)
        config.opaque_functions.insert(name);
    {
        Tracer::Scope span(tracer, analysis_span);
        AnalysisBase base(*p.module, {RunSpec{w.entry, w.train_args}},
                          config.profile_max_instrs, 1);
        cost.phases.accumulate(base.setupTimings());
        p.report = runConfig(base, config, nullptr, &cost.phases).report;
    }
    for (const RegionReport &region : p.report.regions)
        cost.regions_selected += region.selected ? 1 : 0;

    start = Clock::now();
    {
        Tracer::Scope span(tracer, decode_span);
        p.injector =
            reference ? std::make_unique<fault::FaultInjector>(
                            *p.module, p.report, interp::EngineKind::Decoded)
                      : std::make_unique<fault::FaultInjector>(*p.module,
                                                               p.report);
        if (reference) {
            interp::SnapshotConfig off;
            off.enabled = false;
            p.injector->configureSnapshots(off);
        }
    }
    cost.decode_s += secondsSince(start);

    start = Clock::now();
    bool ok = false;
    {
        Tracer::Scope span(tracer, golden_span);
        ok = p.injector->prepare(w.entry, eval_args);
    }
    cost.golden_s += secondsSince(start);
    if (!ok)
        return std::nullopt;
    cost.golden_dyn_instrs += p.injector->golden().dyn_instrs;
    const interp::SnapshotStats snaps = p.injector->snapshotStats();
    cost.snapshot_count += snaps.count;
    cost.snapshot_bytes += snaps.bytes;
    if (cost.engine.empty()) {
        cost.engine = std::string(
            interp::engineKindName(p.injector->decodedModule()->engine()));
        cost.snapshot_stride = p.injector->snapshotConfig().enabled
                                   ? p.injector->snapshotConfig().stride
                                   : 0;
    }
    return p;
}

std::uint64_t
fnv1a(const std::string &text)
{
    std::uint64_t h = 14695981039346656037ULL;
    for (const unsigned char c : text) {
        h ^= c;
        h *= 1099511628211ULL;
    }
    return h;
}

std::string
tallyDigest(const fault::CampaignResult &result)
{
    std::string text;
    for (const std::uint64_t count : result.counts)
        text += std::to_string(count) + " ";
    text += std::to_string(result.trials) + " " +
            std::to_string(result.replay_cost);
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016" PRIx64, fnv1a(text));
    return buf;
}

Checks::Checks(const Options &options, const std::string &params)
    : params_(params)
{
    if (!options.record.empty() || options.seed != kDefaultSeed)
        return;
    check_recorded_ = true;
    std::ifstream in(options.digests);
    if (!in) {
        fail("cannot read digest file '" + options.digests + "'");
        return;
    }
    std::string line;
    std::getline(in, line);
    if (line != "# " + params_) {
        fail("digest file '" + options.digests + "' was recorded for '" +
             line + "', this run is '# " + params_ + "'");
        return;
    }
    while (std::getline(in, line)) {
        std::istringstream fields(line);
        std::string key, digest;
        if (fields >> key >> digest)
            recorded_[key] = digest;
    }
}

void
Checks::fail(const std::string &message)
{
    ++failed_;
    if (messages_++ < 20)
        std::cout << "CHECK FAILED: " << message << "\n";
}

void
Checks::op(bool ok, const std::string &what)
{
    ++attempted_;
    if (!ok)
        fail(what);
}

void
Checks::cell(const std::string &key, const fault::CampaignResult &result,
             std::uint64_t universe)
{
    ++attempted_;
    std::uint64_t sum = 0;
    for (const std::uint64_t count : result.counts)
        sum += count;
    if (sum != universe || result.trials != universe) {
        fail(key + ": outcome counts sum to " + std::to_string(sum) +
             " over " + std::to_string(result.trials) +
             " trials, expected " + std::to_string(universe));
        return;
    }
    const std::string digest = tallyDigest(result);
    const auto [first, fresh] = first_.try_emplace(key, digest);
    if (fresh)
        order_.push_back(key);
    else if (first->second != digest) {
        fail(key + ": digest " + digest + " differs from the first unit's " +
             first->second);
        return;
    }
    if (!check_recorded_)
        return;
    const auto recorded = recorded_.find(key);
    if (recorded == recorded_.end())
        fail(key + ": no recorded digest");
    else if (recorded->second != digest)
        fail(key + ": digest " + digest + " != recorded " +
             recorded->second);
}

bool
Checks::writeDigests(const std::string &path) const
{
    std::ofstream out(path);
    out << "# " << params_ << "\n";
    for (const std::string &key : order_)
        out << key << " " << first_.at(key) << "\n";
    out.flush();
    return static_cast<bool>(out);
}

std::uint64_t
cellSeed(std::uint64_t seed, std::uint64_t cell)
{
    return seed * 1000003ULL + cell * 7919ULL;
}

double
sumByPrefix(const std::map<std::string, double> &values,
            const std::string &prefix)
{
    double total = 0.0;
    for (const auto &[name, value] : values)
        if (name.compare(0, prefix.size(), prefix) == 0)
            total += value;
    return total;
}

void
accumulate(fault::CampaignResult &total, const fault::CampaignResult &result)
{
    constexpr int kOutcomes =
        static_cast<int>(fault::FaultOutcome::NumOutcomes);
    for (int o = 0; o < kOutcomes; ++o)
        total.counts[o] += result.counts[o];
    total.trials += result.trials;
    total.replay_cost += result.replay_cost;
}

void
reportOutcomes(const fault::CampaignResult &r, Metrics &m)
{
    using fault::FaultOutcome;
    const auto count = [&](FaultOutcome o) {
        return static_cast<double>(r.count(o));
    };
    m.set("fault.trials_masked", count(FaultOutcome::Masked), "count");
    m.set("fault.recovered_idem", count(FaultOutcome::RecoveredIdempotent),
          "count");
    m.set("fault.recovered_ckpt", count(FaultOutcome::RecoveredCheckpoint),
          "count");
    m.set("fault.not_recoverable", count(FaultOutcome::NotRecoverable),
          "count");
    m.set("fault.recovery_failed", count(FaultOutcome::RecoveryFailed),
          "count");
    m.set("fault.benign", count(FaultOutcome::Benign), "count");
    m.set("fault.sdc", count(FaultOutcome::SilentCorruption), "count");
    m.set("fault.replay_cost", static_cast<double>(r.replay_cost), "instrs");
}

interp::SnapshotStats
snapshotTotals(const std::vector<Program> &programs)
{
    interp::SnapshotStats total;
    for (const Program &p : programs) {
        const interp::SnapshotStats s = p.injector->snapshotStats();
        total.hits += s.hits;
        total.misses += s.misses;
        total.resyncs += s.resyncs;
    }
    return total;
}

void
reportSnapshotUse(const interp::SnapshotStats &before,
                  const interp::SnapshotStats &after, Metrics &m)
{
    interp::SnapshotStats delta;
    delta.hits = after.hits - before.hits;
    delta.misses = after.misses - before.misses;
    m.set("interp.snapshot_hit_rate", delta.hitRate(), "ratio");
    m.set("interp.snapshot_resyncs",
          static_cast<double>(after.resyncs - before.resyncs), "count");
}

} // namespace perfbench
