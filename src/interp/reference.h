/**
 * @file
 * The original tree-walking interpreter, kept as a reference oracle.
 *
 * This is the seed execution engine: it dispatches by walking each
 * basic block's std::list<ir::Instruction> and re-resolves operand
 * kinds on every dynamic instruction. The production engine
 * (interp/interpreter.h) executes pre-decoded flat bytecode instead;
 * this class preserves the original semantics so differential tests
 * can assert, over randomly generated and real programs, that the
 * decoded engine produces bit-identical RunResults (status, return
 * value, counters, globals) under the same hooks. It makes only the
 * hook calls those tests drive: filterResult, shouldTriggerDetection,
 * onRuntimeError and onDetectionHandled.
 *
 * Not for production use — it is deliberately left unoptimized.
 */
#ifndef ENCORE_INTERP_REFERENCE_H
#define ENCORE_INTERP_REFERENCE_H

#include <list>
#include <string>
#include <vector>

#include "interp/interpreter.h"
#include "interp/memory.h"

namespace encore::interp {

class ReferenceInterpreter
{
  public:
    explicit ReferenceInterpreter(const ir::Module &module);

    /// Installs hooks (not owned); pass nullptr to remove.
    void setHooks(ExecHooks *hooks) { hooks_ = hooks; }

    /// Execution budget; runs exceeding it end with InstructionLimit.
    void setMaxInstructions(std::uint64_t limit) { max_instrs_ = limit; }

    /// Runs `func_name` with the given arguments on fresh memory.
    RunResult run(const std::string &func_name,
                  const std::vector<std::uint64_t> &args);

    // --- Recovery-runtime introspection ---------------------------------
    std::uint64_t currentRegionToken() const;
    ir::RegionId currentRegionId() const;
    std::size_t frameDepth() const { return frames_.size(); }

  private:
    struct Undo
    {
        enum class Kind : std::uint8_t { Mem, Reg };
        Kind kind;
        ir::ObjectId object;
        std::uint32_t offset;
        ir::RegId reg;
        std::uint64_t value;
    };

    struct RecoveryState
    {
        bool active = false;
        ir::RegionId region = ir::kInvalidRegion;
        std::uint64_t token = 0;
        const ir::BasicBlock *recovery_block = nullptr;
        std::vector<Undo> log;
    };

    struct Frame
    {
        const ir::Function *func = nullptr;
        std::vector<std::uint64_t> regs;
        const ir::BasicBlock *block = nullptr;
        std::list<ir::Instruction>::const_iterator ip;
        ir::RegId caller_dest = ir::kInvalidReg;
        RecoveryState recovery;
    };

    // Internal error signal carrying the message.
    struct ExecError
    {
        std::string message;
    };

    std::uint64_t evalOperand(const Frame &frame,
                              const ir::Operand &op) const;
    void evalAddr(const Frame &frame, const ir::AddrExpr &addr,
                  ir::ObjectId &object, std::uint32_t &offset) const;
    std::uint64_t execValueOp(Frame &frame, const ir::Instruction &inst);

    void enterBlock(Frame &frame, const ir::BasicBlock *block);
    bool handleDetection(Frame &frame);

    const ir::Module &module_;
    Memory memory_;
    ExecHooks *hooks_ = nullptr;
    std::uint64_t max_instrs_ = 200'000'000;

    // Per-run state.
    std::vector<Frame> frames_;
    std::uint64_t dyn_count_ = 0;
    std::uint64_t value_count_ = 0;
    std::uint64_t overhead_count_ = 0;
    std::uint64_t rollback_count_ = 0;
    std::uint64_t next_token_ = 0;
};

} // namespace encore::interp

#endif // ENCORE_INTERP_REFERENCE_H
