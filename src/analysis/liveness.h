/**
 * @file
 * Register liveness (backward may-analysis).
 *
 * The instrumentation pass (§3.2) must checkpoint, on region entry,
 * every register that is live-in to the region *and* overwritten inside
 * it — otherwise re-execution would read a clobbered value. This is the
 * standard use/def block-level formulation; `liveIn(bb)` gives the
 * registers whose pre-block values may still be read.
 */
#ifndef ENCORE_ANALYSIS_LIVENESS_H
#define ENCORE_ANALYSIS_LIVENESS_H

#include <vector>

#include "ir/function.h"

namespace encore::analysis {

/// Dense per-block register bitsets.
class RegSet
{
  public:
    RegSet() = default;
    explicit RegSet(std::size_t num_regs) : bits_(num_regs, false) {}

    void set(ir::RegId reg) { bits_.at(reg) = true; }
    void clear(ir::RegId reg) { bits_.at(reg) = false; }
    bool test(ir::RegId reg) const { return bits_.at(reg); }
    std::size_t size() const { return bits_.size(); }

    /// this |= other; returns true if anything changed.
    bool unionWith(const RegSet &other);

    /// Registers present in the set, ascending.
    std::vector<ir::RegId> toVector() const;

  private:
    std::vector<bool> bits_;
};

/// Registers read by one instruction (operands, address components,
/// call arguments; CkptReg reads its operand).
std::vector<ir::RegId> instructionUses(const ir::Instruction &inst);

/// The register defined by the instruction, or kInvalidReg.
ir::RegId instructionDef(const ir::Instruction &inst);

class Liveness
{
  public:
    explicit Liveness(const ir::Function &func);

    const RegSet &liveIn(ir::BlockId block) const
    {
        return live_in_.at(block);
    }
    const RegSet &liveOut(ir::BlockId block) const
    {
        return live_out_.at(block);
    }

    /// def(bb): registers written anywhere within bb.
    const RegSet &defs(ir::BlockId block) const { return def_.at(block); }

  private:
    std::vector<RegSet> use_;
    std::vector<RegSet> def_;
    std::vector<RegSet> live_in_;
    std::vector<RegSet> live_out_;
};

} // namespace encore::analysis

#endif // ENCORE_ANALYSIS_LIVENESS_H
