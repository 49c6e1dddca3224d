/**
 * @file
 * Fluent construction API for the Encore IR.
 *
 * The builder tracks a current insertion block and allocates fresh
 * destination registers on demand; the *To variants write a specific
 * register, which is how non-SSA loop-carried variables (counters,
 * accumulators) are expressed. All 23 synthetic workloads are written
 * against this interface.
 */
#ifndef ENCORE_IR_BUILDER_H
#define ENCORE_IR_BUILDER_H

#include <string>
#include <vector>

#include "ir/module.h"

namespace encore::ir {

class IRBuilder
{
  public:
    explicit IRBuilder(Module *module) : module_(module) {}

    Module *module() const { return module_; }
    Function *function() const { return func_; }

    // --- Function / block management ------------------------------------
    /// Starts a new function and creates+selects its entry block.
    Function *beginFunction(const std::string &name, unsigned num_params,
                            const std::string &entry_name = "entry");

    /// Creates a block in the current function (does not move the
    /// insertion point).
    BasicBlock *newBlock(const std::string &name);

    /// Moves the insertion point to the end of `bb`.
    void setInsertPoint(BasicBlock *bb);

    /// Finishes the current function: recomputes CFG edges.
    void endFunction();

    // --- Operand helpers ---------------------------------------------------
    static Operand reg(RegId r) { return Operand::makeReg(r); }
    static Operand imm(std::int64_t v) { return Operand::makeImm(v); }
    static Operand fpImm(double v) { return Operand::makeFpImm(v); }

    // --- Memory objects -----------------------------------------------------
    ObjectId global(const std::string &name, std::uint32_t size_words);
    ObjectId local(const std::string &name, std::uint32_t size_words);

    // --- Generic emitters ----------------------------------------------------
    /// Emits `dest = op(a, b, c)` with a freshly allocated dest.
    RegId emit(Opcode op, Operand a = Operand::none(),
               Operand b = Operand::none(), Operand c = Operand::none());

    /// Emits `dest = op(a, b, c)` into an existing register.
    void emitTo(RegId dest, Opcode op, Operand a = Operand::none(),
                Operand b = Operand::none(), Operand c = Operand::none());

    // --- Convenience wrappers -----------------------------------------------
    RegId mov(Operand a) { return emit(Opcode::Mov, a); }
    void movTo(RegId d, Operand a) { emitTo(d, Opcode::Mov, a); }
    RegId add(Operand a, Operand b) { return emit(Opcode::Add, a, b); }
    void addTo(RegId d, Operand a, Operand b)
    {
        emitTo(d, Opcode::Add, a, b);
    }
    RegId sub(Operand a, Operand b) { return emit(Opcode::Sub, a, b); }
    RegId mul(Operand a, Operand b) { return emit(Opcode::Mul, a, b); }
    RegId div(Operand a, Operand b) { return emit(Opcode::Div, a, b); }
    RegId rem(Operand a, Operand b) { return emit(Opcode::Rem, a, b); }
    RegId band(Operand a, Operand b) { return emit(Opcode::And, a, b); }
    RegId bor(Operand a, Operand b) { return emit(Opcode::Or, a, b); }
    RegId bxor(Operand a, Operand b) { return emit(Opcode::Xor, a, b); }
    RegId shl(Operand a, Operand b) { return emit(Opcode::Shl, a, b); }
    RegId shr(Operand a, Operand b) { return emit(Opcode::Shr, a, b); }
    RegId neg(Operand a) { return emit(Opcode::Neg, a); }
    RegId bnot(Operand a) { return emit(Opcode::Not, a); }
    RegId fadd(Operand a, Operand b) { return emit(Opcode::FAdd, a, b); }
    RegId fsub(Operand a, Operand b) { return emit(Opcode::FSub, a, b); }
    RegId fmul(Operand a, Operand b) { return emit(Opcode::FMul, a, b); }
    RegId fdiv(Operand a, Operand b) { return emit(Opcode::FDiv, a, b); }
    RegId i2f(Operand a) { return emit(Opcode::IntToFp, a); }
    RegId f2i(Operand a) { return emit(Opcode::FpToInt, a); }
    RegId cmpEq(Operand a, Operand b) { return emit(Opcode::CmpEq, a, b); }
    RegId cmpNe(Operand a, Operand b) { return emit(Opcode::CmpNe, a, b); }
    RegId cmpLt(Operand a, Operand b) { return emit(Opcode::CmpLt, a, b); }
    RegId cmpLe(Operand a, Operand b) { return emit(Opcode::CmpLe, a, b); }
    RegId cmpGt(Operand a, Operand b) { return emit(Opcode::CmpGt, a, b); }
    RegId cmpGe(Operand a, Operand b) { return emit(Opcode::CmpGe, a, b); }
    RegId fcmpLt(Operand a, Operand b)
    {
        return emit(Opcode::FCmpLt, a, b);
    }
    RegId select(Operand cond, Operand t, Operand f)
    {
        return emit(Opcode::Select, cond, t, f);
    }

    // --- Memory ---------------------------------------------------------------
    RegId load(AddrExpr addr);
    void loadTo(RegId dest, AddrExpr addr);
    void store(AddrExpr addr, Operand value);
    RegId lea(AddrExpr addr);

    // --- Calls ------------------------------------------------------------------
    /// Emits a call whose return value lands in a fresh register.
    RegId call(const std::string &callee, std::vector<Operand> args);
    /// Emits a call discarding the return value.
    void callVoid(const std::string &callee, std::vector<Operand> args);

    // --- Terminators --------------------------------------------------------------
    void br(Operand cond, BasicBlock *if_true, BasicBlock *if_false);
    void jmp(BasicBlock *target);
    void ret(Operand value = Operand::none());

  private:
    void noteOperand(const Operand &op);
    void noteAddr(const AddrExpr &addr);
    Instruction *push(Instruction inst);

    Module *module_;
    Function *func_ = nullptr;
    BasicBlock *bb_ = nullptr;
};

} // namespace encore::ir

#endif // ENCORE_IR_BUILDER_H
