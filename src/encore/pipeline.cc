#include "encore/pipeline.h"

#include <cstdio>
#include <functional>

#include "encore/analysis_base.h"
#include "support/diagnostics.h"

namespace encore {

std::size_t
EncoreReport::countByClass(RegionClass cls) const
{
    std::size_t count = 0;
    for (const RegionReport &region : regions) {
        if (region.cls == cls)
            ++count;
    }
    return count;
}

namespace {

double
dynFraction(const EncoreReport &report,
            const std::function<bool(const RegionReport &)> &pred)
{
    if (report.baseline_dyn_instrs <= 0.0)
        return 0.0;
    double dyn = 0.0;
    for (const RegionReport &region : report.regions) {
        if (pred(region))
            dyn += region.dyn_instrs;
    }
    return dyn / report.baseline_dyn_instrs;
}

} // namespace

double
EncoreReport::dynFractionIdempotent() const
{
    return dynFraction(*this, [](const RegionReport &r) {
        return r.selected && r.cls == RegionClass::Idempotent;
    });
}

double
EncoreReport::dynFractionCheckpointed() const
{
    return dynFraction(*this, [](const RegionReport &r) {
        return r.selected && r.cls == RegionClass::NonIdempotent;
    });
}

double
EncoreReport::dynFractionUnprotected() const
{
    return dynFraction(*this,
                       [](const RegionReport &r) { return !r.selected; });
}

double
EncoreReport::avgStorageBytes() const
{
    return avgStorageMemBytes() + avgStorageRegBytes();
}

namespace {

double
entryWeightedStorage(const EncoreReport &report,
                     double RegionReport::*component)
{
    double weight = 0.0;
    double total = 0.0;
    for (const RegionReport &region : report.regions) {
        if (!region.selected || region.entries <= 0.0)
            continue;
        weight += region.entries;
        total += region.entries * (region.*component);
    }
    return weight > 0.0 ? total / weight : 0.0;
}

} // namespace

double
EncoreReport::avgStorageMemBytes() const
{
    return entryWeightedStorage(*this,
                                &RegionReport::static_storage_mem_bytes);
}

double
EncoreReport::avgStorageRegBytes() const
{
    return entryWeightedStorage(*this,
                                &RegionReport::static_storage_reg_bytes);
}

double
EncoreReport::meanSelectedRegionLength() const
{
    double weight = 0.0;
    double total = 0.0;
    for (const RegionReport &region : regions) {
        if (!region.selected || region.entries <= 0.0)
            continue;
        weight += region.entries;
        total += region.entries * region.hot_path_length;
    }
    return weight > 0.0 ? total / weight : 0.0;
}

namespace {

void
appendDouble(std::string &out, double value)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    out += buf;
    out += '\n';
}

} // namespace

std::string
EncoreReport::serialized() const
{
    std::string out;
    appendDouble(out, baseline_dyn_instrs);
    appendDouble(out, projected_overhead_instrs);
    for (const RegionReport &region : regions) {
        out += std::to_string(region.id);
        out += '|';
        out += region.function;
        out += '|';
        out += std::to_string(region.header);
        out += '|';
        out += std::to_string(region.num_blocks);
        out += '|';
        out += regionClassName(region.cls);
        out += '|';
        out += region.unknown_reason;
        out += '|';
        out += region.selected ? '1' : '0';
        out += '|';
        out += region.rejection_reason;
        out += '\n';
        appendDouble(out, region.entries);
        appendDouble(out, region.hot_path_length);
        appendDouble(out, region.dyn_instrs);
        appendDouble(out, region.overhead_instrs);
        out += std::to_string(region.static_mem_ckpts);
        out += '|';
        out += std::to_string(region.static_reg_ckpts);
        out += '\n';
        appendDouble(out, region.storage_bytes);
        appendDouble(out, region.storage_mem_bytes);
        appendDouble(out, region.storage_reg_bytes);
        appendDouble(out, region.static_storage_mem_bytes);
        appendDouble(out, region.static_storage_reg_bytes);
    }
    return out;
}

EncorePipeline::EncorePipeline(ir::Module &module, EncoreConfig config)
    : module_(module), config_(std::move(config))
{
}

EncoreReport
EncorePipeline::run(const std::vector<RunSpec> &profile_runs)
{
    ENCORE_ASSERT(!ran_, "EncorePipeline::run may only be called once");
    ran_ = true;

    const AnalysisBase base(module_, profile_runs,
                            config_.profile_max_instrs);
    return runConfig(base, config_).report;
}

} // namespace encore
