#include "interp/decoded.h"

#include <map>

#include "support/diagnostics.h"

namespace encore::interp {

namespace {

/// Interns immediates into one per-function pool so operands become
/// plain frame-window slot indices (registers first, then the pool).
class OperandDecoder
{
  public:
    explicit OperandDecoder(DecodedFunction &func) : func_(func) {}

    DecodedOperand
    operator()(const ir::Operand &op)
    {
        if (op.isReg())
            return DecodedOperand{op.reg};
        return DecodedOperand{
            internImm(op.isImm() ? static_cast<std::uint64_t>(op.imm)
                                 : 0)};
    }

  private:
    std::uint32_t
    internImm(std::uint64_t value)
    {
        const auto it = pool_.find(value);
        if (it != pool_.end())
            return it->second;
        const std::uint32_t slot =
            func_.num_regs +
            static_cast<std::uint32_t>(func_.consts.size());
        func_.consts.push_back(value);
        pool_.emplace(value, slot);
        return slot;
    }

    DecodedFunction &func_;
    std::map<std::uint64_t, std::uint32_t> pool_;
};

std::uint32_t
blockIndexOf(const ir::BasicBlock *bb)
{
    return bb ? bb->id() : kNoDecodedBlock;
}

void
decodeFunction(const ir::Function &func, std::uint32_t index,
               const std::map<const ir::Function *, std::uint32_t> &fn_index,
               DecodedFunction &out)
{
    out.src = &func;
    out.index = index;
    out.num_regs = func.numRegs();
    out.entry_block = func.entry()->id();
    out.blocks.resize(func.numBlocks());
    OperandDecoder decodeOperand(out);

    std::size_t total = 0;
    for (const auto &bb : func.blocks())
        total += bb->size();
    out.code.reserve(total);

    // Blocks are laid out in block-id order; within a block the flat
    // order is the list order, so `ip + 1` is the fall-through.
    for (ir::BlockId id = 0; id < func.numBlocks(); ++id) {
        const ir::BasicBlock *bb = func.blockById(id);
        // Every block must end in a terminator: the dispatch loop then
        // never steps past a block's last instruction, so it needs no
        // fell-off-the-block check.
        ENCORE_ASSERT(!bb->empty() &&
                          ir::opcodeIsTerminator(
                              bb->instructions().back().opcode()),
                      "block '" + bb->name() + "' of '" + func.name() +
                          "' does not end in a terminator");
        out.blocks[id] =
            DecodedBlock{static_cast<std::uint32_t>(out.code.size()), bb};
        for (const ir::Instruction &inst : bb->instructions()) {
            DecodedInst d;
            d.op = inst.opcode();
            d.dest = inst.dest();
            d.a = decodeOperand(inst.a());
            d.b = decodeOperand(inst.b());
            d.c = decodeOperand(inst.c());
            d.region = inst.regionId();
            d.src = &inst;

            const ir::AddrExpr &addr = inst.addr();
            if (addr.isObjectBase()) {
                d.addr_base = DecodedInst::AddrBase::Object;
                d.addr_object = addr.object;
            } else if (addr.isRegBase()) {
                d.addr_base = DecodedInst::AddrBase::Reg;
                d.addr_reg = addr.base_reg;
            }
            d.addr_off = decodeOperand(addr.offset);

            d.target0 = blockIndexOf(inst.succ0());
            d.target1 = blockIndexOf(inst.succ1());

            if (inst.opcode() == ir::Opcode::Call) {
                const ir::Function *callee = inst.callee();
                if (callee) {
                    const auto it = fn_index.find(callee);
                    ENCORE_ASSERT(it != fn_index.end(),
                                  "call to a function outside the module");
                    d.callee = it->second;
                }
                d.args_first =
                    static_cast<std::uint32_t>(out.args_pool.size());
                d.args_count =
                    static_cast<std::uint32_t>(inst.args().size());
                for (const ir::Operand &arg : inst.args())
                    out.args_pool.push_back(decodeOperand(arg));
            }
            out.code.push_back(d);
        }
    }
    out.num_slots =
        out.num_regs + static_cast<std::uint32_t>(out.consts.size());
}

} // namespace

std::string_view
engineKindName(EngineKind)
{
    return "decoded";
}

DecodedModule::DecodedModule(const ir::Module &module) : module_(&module)
{
    std::map<const ir::Function *, std::uint32_t> fn_index;
    const auto &funcs = module.functions();
    for (std::size_t i = 0; i < funcs.size(); ++i)
        fn_index[funcs[i].get()] = static_cast<std::uint32_t>(i);
    functions_.resize(funcs.size());
    for (std::size_t i = 0; i < funcs.size(); ++i)
        decodeFunction(*funcs[i], static_cast<std::uint32_t>(i), fn_index,
                       functions_[i]);
}

const DecodedFunction *
DecodedModule::functionByName(const std::string &name) const
{
    const ir::Function *func = module_->functionByName(name);
    if (!func)
        return nullptr;
    for (const DecodedFunction &d : functions_) {
        if (d.src == func)
            return &d;
    }
    return nullptr;
}

} // namespace encore::interp
