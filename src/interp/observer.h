/**
 * @file
 * The interpreter's one callback interface, ExecHooks.
 *
 * Every client that watches or steers execution implements it: the
 * profilers and the trace collector (interp/profile.h) only listen to
 * block entries and memory accesses, while the fault injector also
 * corrupts an instruction's output and later fires the
 * (latency-delayed) detection event that exercises the Encore
 * recovery runtime.
 */
#ifndef ENCORE_INTERP_OBSERVER_H
#define ENCORE_INTERP_OBSERVER_H

#include <cstdint>

#include "ir/module.h"

namespace encore::interp {

/// What the recovery runtime did in response to a detection event.
enum class DetectionResponse
{
    RolledBack,    ///< Active region: state restored, control at header.
    Unrecoverable, ///< No active region: execution is abandoned.
};

class ExecHooks
{
  public:
    virtual ~ExecHooks() = default;

    /// Capability query, sampled once per run when the hooks arm (at
    /// the value index given to Interpreter::setHooks). Hooks that need
    /// the per-instruction branch/memory filter points below must
    /// return true: those points fire only in unfused dispatch, so
    /// the interpreter pins superinstruction fusion off from the
    /// arm point until quiesceHooks() or the end of the run. Before
    /// the arm point the run stays fused.
    virtual bool
    needsUnfusedDispatch() const
    {
        return false;
    }

    /// Called after an instruction computes its destination value and
    /// before write-back; the return value is written instead. This is
    /// the fault-injection point.
    virtual std::uint64_t
    filterResult(const ir::Instruction &inst, std::uint64_t dyn_index,
                 std::uint64_t value)
    {
        (void)inst;
        (void)dyn_index;
        return value;
    }

    /// Polled before each instruction executes (`next` is the
    /// instruction about to run). Returning true fires the detection
    /// path of the recovery runtime (rollback if a region is active,
    /// abandonment otherwise). Seeing the upcoming instruction lets a
    /// fault model trigger symptom-based detection when a corrupted
    /// value is about to steer control flow or address memory.
    virtual bool
    shouldTriggerDetection(const ir::Instruction &next,
                           std::uint64_t dyn_index)
    {
        (void)next;
        (void)dyn_index;
        return false;
    }

    /// Called on the unfused path after a branch/jump has computed its
    /// taken target block and before control transfers (only when
    /// needsUnfusedDispatch() is true). The hook may rewrite `target`
    /// to redirect control — the control-flow fault-injection point.
    /// `num_blocks` is the current function's block count.
    virtual void
    filterBranchTarget(const ir::Instruction &inst, std::uint32_t &target,
                       std::uint32_t num_blocks, std::uint64_t dyn_index)
    {
        (void)inst;
        (void)target;
        (void)num_blocks;
        (void)dyn_index;
    }

    /// Called on the unfused path after a load/store has evaluated and
    /// validated its address, before the access (only when
    /// needsUnfusedDispatch() is true). The hook may rewrite `offset`
    /// (the interpreter re-validates it and surfaces an out-of-range
    /// result as a runtime error — an address-bus fault) and returns an
    /// XOR mask applied to the transferred data word (0 = clean) — the
    /// memory-bus fault-injection point.
    virtual std::uint64_t
    filterMemoryOp(const ir::Instruction &inst, bool is_store,
                   ir::ObjectId object, std::uint32_t &offset,
                   std::uint64_t dyn_index)
    {
        (void)inst;
        (void)is_store;
        (void)object;
        (void)offset;
        (void)dyn_index;
        return 0;
    }

    /// Reports what the detection did.
    virtual void
    onDetectionHandled(DetectionResponse response)
    {
        (void)response;
    }

    /// A runtime error (wild address, division by zero) occurred.
    /// Returning true asks the runtime to treat it as an immediately
    /// detected symptom (rollback if possible); false propagates the
    /// error. The golden runs return false so real bugs surface.
    virtual bool
    onRuntimeError(std::uint64_t dyn_index)
    {
        (void)dyn_index;
        return false;
    }

    /// Control entered `block` of `func`: the run's entry block, a
    /// callee's entry block, a branch or jump target, or a rollback's
    /// recovery block. `from` is the predecessor block when the
    /// transfer was an intra-function branch, and nullptr for the
    /// other (external) entries.
    virtual void
    onBlockEnter(const ir::Function &func, const ir::BasicBlock &block,
                 const ir::BasicBlock *from)
    {
        (void)func;
        (void)block;
        (void)from;
    }

    /// A load or store touched memory (after address evaluation).
    virtual void
    onMemoryAccess(const ir::Instruction &inst, ir::ObjectId object,
                   std::uint32_t offset, bool is_store,
                   std::uint64_t dyn_index)
    {
        (void)inst;
        (void)object;
        (void)offset;
        (void)is_store;
        (void)dyn_index;
    }
};

} // namespace encore::interp

#endif // ENCORE_INTERP_OBSERVER_H
