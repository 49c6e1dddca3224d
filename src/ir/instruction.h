/**
 * @file
 * Instruction representation for the Encore IR.
 *
 * Instructions are stored by value in an intrusive std::list per basic
 * block, which keeps their addresses stable across the instrumentation
 * pass — the idempotence analysis records the offending stores of a
 * region (the CP set of §3.2) as Instruction pointers and later inserts
 * checkpoints immediately before them.
 */
#ifndef ENCORE_IR_INSTRUCTION_H
#define ENCORE_IR_INSTRUCTION_H

#include <cstdint>
#include <vector>

#include "ir/opcode.h"
#include "ir/operand.h"

namespace encore::ir {

class BasicBlock;
class Function;

/// Identifier of an Encore recovery region, carried by the runtime
/// pseudo-ops so the interpreter can associate checkpoints with the
/// correct region instance.
using RegionId = std::uint32_t;

constexpr RegionId kInvalidRegion = ~0u;

class Instruction
{
  public:
    explicit Instruction(Opcode op) : opcode_(op) {}

    Opcode opcode() const { return opcode_; }

    // --- Destination -----------------------------------------------------
    bool hasDest() const { return dest_ != kInvalidReg; }
    RegId dest() const { return dest_; }
    void setDest(RegId reg) { dest_ = reg; }

    // --- Value operands --------------------------------------------------
    const Operand &a() const { return ops_[0]; }
    const Operand &b() const { return ops_[1]; }
    const Operand &c() const { return ops_[2]; }
    void setA(Operand op) { ops_[0] = op; }
    void setB(Operand op) { ops_[1] = op; }
    void setC(Operand op) { ops_[2] = op; }

    /// All value operands in use (excluding call arguments).
    std::vector<Operand> usedOperands() const;

    // --- Memory ----------------------------------------------------------
    const AddrExpr &addr() const { return addr_; }
    void setAddr(AddrExpr addr) { addr_ = addr; }

    // --- Calls -----------------------------------------------------------
    const std::string &calleeName() const { return callee_name_; }
    void setCalleeName(std::string name) { callee_name_ = std::move(name); }
    Function *callee() const { return callee_; }
    void setCallee(Function *f) { callee_ = f; }
    const std::vector<Operand> &args() const { return args_; }
    void setArgs(std::vector<Operand> args) { args_ = std::move(args); }

    // --- Control flow ----------------------------------------------------
    BasicBlock *succ0() const { return succ_[0]; }
    BasicBlock *succ1() const { return succ_[1]; }
    void setSucc0(BasicBlock *bb) { succ_[0] = bb; }
    void setSucc1(BasicBlock *bb) { succ_[1] = bb; }
    bool isTerminator() const { return opcodeIsTerminator(opcode_); }

    // --- Encore runtime pseudo-ops ----------------------------------------
    RegionId regionId() const { return region_id_; }
    void setRegionId(RegionId id) { region_id_ = id; }
    bool isPseudo() const { return opcodeIsPseudo(opcode_); }

  private:
    Opcode opcode_;
    RegId dest_ = kInvalidReg;
    Operand ops_[3];
    AddrExpr addr_;
    std::string callee_name_;
    Function *callee_ = nullptr;
    std::vector<Operand> args_;
    BasicBlock *succ_[2] = {nullptr, nullptr};
    RegionId region_id_ = kInvalidRegion;
};

} // namespace encore::ir

#endif // ENCORE_IR_INSTRUCTION_H
