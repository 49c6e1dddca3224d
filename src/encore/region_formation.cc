#include "encore/region_formation.h"

#include <algorithm>

#include "analysis/intervals.h"
#include "support/diagnostics.h"

namespace encore {

namespace {

CandidateRegion
makeCandidate(const ir::Function &func, ir::BlockId header,
              std::vector<ir::BlockId> blocks, unsigned level,
              const RegionEvaluation &evaluate)
{
    CandidateRegion candidate;
    candidate.region.func = &func;
    candidate.region.header = header;
    std::sort(blocks.begin(), blocks.end());
    candidate.region.blocks = std::move(blocks);
    candidate.level = level;
    evaluate(candidate);
    return candidate;
}

} // namespace

std::vector<CandidateRegion>
formRegions(const ir::Function &func, const FunctionContext &ctx,
            const interp::ProfileData &profile,
            const RegionEvaluation &evaluate, const FormationOptions &options)
{
    const analysis::IntervalHierarchy &hierarchy = ctx.intervals;

    const double func_dyn = std::max<double>(
        1.0, static_cast<double>(profile.functionDynInstrs(func)));

    // decisions[i] — the current region set representing interval i of
    // the level being processed.
    std::vector<std::vector<CandidateRegion>> decisions;
    for (const analysis::IntervalRegion &interval : hierarchy.level(0)) {
        std::vector<ir::BlockId> blocks;
        for (const analysis::NodeId b : interval.blocks)
            blocks.push_back(static_cast<ir::BlockId>(b));
        std::vector<CandidateRegion> single;
        single.push_back(makeCandidate(
            func, static_cast<ir::BlockId>(interval.header),
            std::move(blocks), 0, evaluate));
        decisions.push_back(std::move(single));
    }

    for (std::size_t level = 1;
         options.merge && level < hierarchy.numLevels(); ++level) {
        std::vector<std::vector<CandidateRegion>> next;
        for (const analysis::IntervalRegion &interval :
             hierarchy.level(level)) {
            // Gather the constituents' current decisions.
            std::vector<CandidateRegion> constituents;
            for (const std::size_t child : interval.children) {
                for (CandidateRegion &region : decisions[child])
                    constituents.push_back(std::move(region));
            }

            if (constituents.size() <= 1) {
                next.push_back(std::move(constituents));
                continue;
            }

            std::vector<ir::BlockId> blocks;
            for (const analysis::NodeId b : interval.blocks)
                blocks.push_back(static_cast<ir::BlockId>(b));
            CandidateRegion merged = makeCandidate(
                func, static_cast<ir::BlockId>(interval.header),
                std::move(blocks), static_cast<unsigned>(level),
                evaluate);

            bool accept = merged.analysis.cls != RegionClass::Unknown &&
                          merged.analysis.checkpointable &&
                          merged.cost.storage_bytes <=
                              options.max_storage_bytes &&
                          merged.cost.hot_path_length <=
                              options.max_hot_path;
            if (accept) {
                double max_cov = 0.0;
                double constituent_overhead = 0.0;
                for (const CandidateRegion &region : constituents) {
                    max_cov = std::max(max_cov, region.cost.coverage());
                    constituent_overhead += region.cost.overhead_instrs;
                }
                const double d_coverage =
                    max_cov > 0.0 ? merged.cost.coverage() / max_cov
                                  : 1.0;
                const double d_cost =
                    (merged.cost.overhead_instrs - constituent_overhead) /
                    func_dyn;
                if (d_cost > 0.0) {
                    accept = d_coverage / d_cost > options.eta;
                } else {
                    // Merging is free or cheaper (one region.enter
                    // instead of several): accept unless coverage would
                    // somehow shrink.
                    accept = d_coverage >= 1.0;
                }
            }

            if (accept) {
                std::vector<CandidateRegion> adopted;
                adopted.push_back(std::move(merged));
                next.push_back(std::move(adopted));
            } else {
                next.push_back(std::move(constituents));
            }
        }
        decisions = std::move(next);
    }

    std::vector<CandidateRegion> result;
    for (auto &group : decisions) {
        for (CandidateRegion &region : group)
            result.push_back(std::move(region));
    }
    return result;
}

} // namespace encore
