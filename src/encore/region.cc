#include "encore/region.h"

#include "support/diagnostics.h"

namespace encore {

std::string
regionClassName(RegionClass cls)
{
    switch (cls) {
      case RegionClass::Idempotent:
        return "idempotent";
      case RegionClass::NonIdempotent:
        return "non-idempotent";
      case RegionClass::Unknown:
        return "unknown";
    }
    return "?";
}

std::vector<ir::BlockId>
Region::exitingBlocks() const
{
    ENCORE_ASSERT(func, "region without a function");
    std::vector<ir::BlockId> exits;
    for (const ir::BlockId id : blocks) {
        const ir::BasicBlock *bb = func->blockById(id);
        const auto succs = bb->successors();
        if (succs.empty()) {
            exits.push_back(id);
            continue;
        }
        for (const ir::BasicBlock *succ : succs) {
            if (!contains(succ->id())) {
                exits.push_back(id);
                break;
            }
        }
    }
    return exits;
}

} // namespace encore
