#include "interp/decoded.h"

#include <algorithm>
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

/// A run component: a pure value op (reads registers/immediates,
/// writes one register; Div/Rem included — a divide-by-zero error is
/// raised identically fused and unfused because components advance
/// `ip` one source instruction at a time), lea, load or store.
bool
isRunComponent(ir::Opcode op)
{
    return (op >= ir::Opcode::Mov && op <= ir::Opcode::Select) ||
           op == ir::Opcode::Lea || op == ir::Opcode::Load ||
           op == ir::Opcode::Store;
}

bool
isCmp(ir::Opcode op)
{
    return op >= ir::Opcode::CmpEq && op <= ir::Opcode::FCmpLt;
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
            d.exec_op = static_cast<std::uint8_t>(inst.opcode());
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

/// True when `br` is a conditional branch whose condition register is
/// exactly `cond_dest` — the precondition for RunCmpBr, which branches
/// on the compare's freshly computed value instead of re-reading the
/// register file.
bool
branchConsumes(const DecodedInst &br, ir::RegId cond_dest)
{
    // A register destination's slot is its register id, and immediates
    // live in slots >= num_regs, so a plain slot compare suffices.
    return br.op == ir::Opcode::Br && br.a.slot == cond_dest;
}

/**
 * The superinstruction pass: greedy maximal-munch over each block's
 * flat body, annotating sequence HEADS with a FusedOp exec opcode.
 * Components are left completely untouched, so any control transfer
 * into the middle of a sequence (snapshot resume, recovery redirect)
 * executes the remainder unfused. Sequences never cross a block
 * boundary — the scan is per block — which is also what keeps them
 * from spanning a loop-top snapshot barrier: barriers are only
 * honored between dispatches, and the interpreter's de-fuse guard
 * runs a head unfused within a kMaxFuseLen window of one.
 *
 * Matching works on maximal *runs*: the longest stretch of value /
 * lea / load / store instructions starting at the cursor. A run that
 * ends on a compare consumed by the following conditional branch
 * absorbs the branch too (RunCmpBr — the loop back-edge). Any other
 * run fuses as a Run, chunked at kMaxFuseLen.
 */
void
fuseFunction(DecodedFunction &func)
{
    const auto fuse = [&](std::uint32_t head, FusedOp op,
                          std::uint32_t len) {
        func.code[head].exec_op = static_cast<std::uint8_t>(op);
        func.code[head].fused_len = static_cast<std::uint8_t>(len);
    };
    for (std::size_t b = 0; b < func.blocks.size(); ++b) {
        const std::uint32_t first = func.blocks[b].first;
        const std::uint32_t end = b + 1 < func.blocks.size()
                                      ? func.blocks[b + 1].first
                                      : static_cast<std::uint32_t>(
                                            func.code.size());
        std::uint32_t i = first;
        while (i < end) {
            // Longest run of fusible straight-line work from i.
            std::uint32_t run = 0;
            while (i + run < end &&
                   isRunComponent(func.code[i + run].op))
                ++run;
            if (run == 0) {
                ++i;
                continue;
            }

            // Compare+branch tail: the run ends on a compare whose
            // result the next instruction's conditional branch
            // consumes. Folding the branch in removes the back-edge
            // dispatch and the branch's condition re-fetch. (The
            // compare result is still materialized even when the
            // branch is its only reader: fused and de-fused execution
            // must leave an identical register file, or snapshot
            // capture and the golden-resync state equality would see
            // fusion-dependent state — see DESIGN.md §8.)
            const DecodedInst &last = func.code[i + run - 1];
            const bool tail = i + run < end && isCmp(last.op) &&
                              branchConsumes(func.code[i + run],
                                             last.dest);
            if (tail && run + 1 <= kMaxFuseLen) {
                fuse(i, FusedOp::RunCmpBr, run + 1);
                i += run + 1;
                continue;
            }

            std::uint32_t len = std::min<std::uint32_t>(run, kMaxFuseLen);
            // An over-long sequence ending in a compare+branch tail:
            // stop the chunk before the compare so the next match
            // still gets the compare and its branch.
            if (tail && len == run)
                --len;
            if (len < 2) {
                ++i;
                continue;
            }
            fuse(i, FusedOp::Run, len);
            i += len;
        }
    }
}

} // namespace

std::string_view
engineKindName(EngineKind kind)
{
    return kind == EngineKind::Fused ? "fused" : "decoded";
}

DecodedModule::DecodedModule(const ir::Module &module, EngineKind engine)
    : module_(&module), engine_(engine)
{
    std::map<const ir::Function *, std::uint32_t> fn_index;
    const auto &funcs = module.functions();
    for (std::size_t i = 0; i < funcs.size(); ++i)
        fn_index[funcs[i].get()] = static_cast<std::uint32_t>(i);
    functions_.resize(funcs.size());
    for (std::size_t i = 0; i < funcs.size(); ++i) {
        decodeFunction(*funcs[i], static_cast<std::uint32_t>(i), fn_index,
                       functions_[i]);
        if (engine_ == EngineKind::Fused)
            fuseFunction(functions_[i]);
    }
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
