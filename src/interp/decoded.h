/**
 * @file
 * Pre-decoded flat bytecode for the interpreter.
 *
 * The tree-shaped IR (functions → blocks → std::list<Instruction>) is
 * what the compiler passes want, but it is a poor execution format:
 * every dynamic instruction chases a list node and re-inspects operand
 * kinds. A DecodedModule lowers each function once into a contiguous
 * array of compact DecodedInsts — opcode, pre-resolved operands,
 * destination register, and control-flow targets as dense block
 * indices — so the interpreter's hot loop is a linear walk with a
 * flat switch.
 *
 * Superinstruction tier: with EngineKind::Fused (the default) a
 * decode-time peephole pass additionally annotates each straight-line
 * run of value/lea/load/store instructions inside a block with one of
 * two fused execution opcodes on the run's HEAD: Run, or RunCmpBr
 * when the run ends in a compare that the block's conditional branch
 * consumes (the branch joins the run). Fusion is strictly in-place:
 * every component instruction keeps its slot, its fields, and its
 * source pointer, so instruction indices (ip), branch
 * targets, snapshot cursors, and the objects hooks see are identical
 * between the two engines. The dispatcher executes a fused sequence
 * between two loop tops, running each component through its own
 * opcode's handler (so every execution counter advances per *source*
 * instruction and every hook fires exactly as in the unfused
 * sequence); entering a sequence mid-way — a
 * restored snapshot cursor or a recovery redirect — simply executes
 * the remaining components unfused, because only head slots carry a
 * fused exec_op. EngineKind::Decoded skips the pass entirely and is
 * byte-identical to the pre-fusion engine.
 *
 * Lifetime and thread-safety contract: a DecodedModule is built from a
 * module *after* all passes that mutate it (notably the instrumenter)
 * and is immutable afterwards, so one cache can be shared read-only by
 * any number of interpreters on any number of threads. Each
 * DecodedInst keeps a pointer to its source ir::Instruction purely so
 * hooks see the exact same objects as before; the
 * referenced module must therefore outlive the cache.
 */
#ifndef ENCORE_INTERP_DECODED_H
#define ENCORE_INTERP_DECODED_H

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "ir/module.h"

namespace encore::interp {

/// Which execution tier a DecodedModule is prepared for. Fused is the
/// default everywhere; Decoded reproduces the pre-fusion engine byte
/// for byte (the tests and perfbench's reference mode use it).
/// Outcomes are engine-independent by construction — the choice
/// trades speed only.
enum class EngineKind : std::uint8_t
{
    Decoded, ///< Flat bytecode, one dispatch per source instruction.
    Fused,   ///< Flat bytecode plus superinstruction annotations.
};

std::string_view engineKindName(EngineKind kind);

/// A pre-resolved operand: an index into the frame's value window.
/// Slots below DecodedFunction::num_regs are the function's registers
/// (slot == register id); slots at or above it name entries of the
/// function's immediate pool, which frame activation materializes
/// right after the registers. Either way a fetch is one unconditional
/// indexed load — no register/immediate branch on the hot path. An
/// absent operand decodes as the pooled immediate 0, matching the
/// interpreter's evalOperand.
struct DecodedOperand
{
    std::uint32_t slot = 0;
};

/// Sentinel for "no block target" (e.g. a region.enter with no
/// recovery block).
constexpr std::uint32_t kNoDecodedBlock = ~0u;

/**
 * Fused execution opcodes, numbered directly after ir::Opcode so one
 * dispatch table covers both. The head slot carries the exec opcode;
 * the components follow at ip+1 .. ip+fused_len-1 untouched, and the
 * interpreter runs each of them through its own opcode's handler
 * without a loop top in between. The two values name the sequence's
 * shape; the interpreter treats them alike.
 */
enum class FusedOp : std::uint8_t
{
    /// Straight-line run of 2..kMaxFuseLen value/lea/load/store
    /// components in any order.
    Run = static_cast<std::uint8_t>(ir::Opcode::NumOpcodes),
    /// A (possibly empty) run ending in cmp + consuming br: the loop
    /// back-edge (load/alu/store setup, compare, branch) as one
    /// dispatch.
    RunCmpBr,
    NumExecOps,
};

/// Longest fused sequence, in source instructions. The interpreter's
/// de-fuse guard derives its barrier windows from this, so raising it
/// widens the window in which heads near a value barrier (snapshot
/// capture, hook arm point) fall back to unfused stepping, and the
/// reach of the head that can cover a resync anchor.
constexpr std::uint8_t kMaxFuseLen = 8;

/// Size of the extended dispatch space (base opcodes + fused forms).
constexpr unsigned kNumExecOps =
    static_cast<unsigned>(FusedOp::NumExecOps);

/**
 * One flat instruction. Field use depends on the opcode:
 *  - value ops: dest, a/b/c
 *  - lea/load/store/ckpt.mem: addr_* (+ a for store)
 *  - br/jmp: target0/target1 (block indices, taken edge first)
 *  - call: callee (DecodedModule function index), args_first/args_count
 *    into DecodedFunction::args_pool, dest
 *  - region.enter: region, target0 (recovery block index)
 */
struct DecodedInst
{
    enum class AddrBase : std::uint8_t { None, Object, Reg };

    ir::Opcode op;
    /// Dispatch opcode: equal to `op` for ordinary instructions, or a
    /// FusedOp value when this slot heads a fused sequence. The
    /// dispatcher indexes its table with this; `op` stays the source
    /// opcode so hooks, tests, and the de-fuse path are unaffected.
    std::uint8_t exec_op = 0;
    /// Source instructions covered by this slot's dispatch: 1 for
    /// ordinary instructions, 2..kMaxFuseLen for fused heads.
    /// Component slots (the ones following a head) keep fused_len == 1.
    std::uint8_t fused_len = 1;
    AddrBase addr_base = AddrBase::None;
    ir::RegId dest = ir::kInvalidReg;
    DecodedOperand a, b, c;
    ir::ObjectId addr_object = ir::kInvalidObject;
    ir::RegId addr_reg = ir::kInvalidReg;
    DecodedOperand addr_off;
    std::uint32_t target0 = kNoDecodedBlock;
    std::uint32_t target1 = kNoDecodedBlock;
    ir::RegionId region = ir::kInvalidRegion;
    std::uint32_t callee = ~0u;
    std::uint32_t args_first = 0;
    std::uint32_t args_count = 0;
    /// The instruction this was decoded from, for hooks.
    const ir::Instruction *src = nullptr;
};

// One instruction per 64-byte cache line on LP64 hosts, so the
// interpreter's pc steps and cursor write-backs are shifts.
static_assert(sizeof(void *) != 8 || sizeof(DecodedInst) == 64,
              "DecodedInst outgrew a cache line");

/// Where a block lives in the flat code array, plus the source block
/// handed to ExecHooks::onBlockEnter.
struct DecodedBlock
{
    std::uint32_t first = 0; ///< Index of the block's first instruction.
    const ir::BasicBlock *bb = nullptr;
};

struct DecodedFunction
{
    const ir::Function *src = nullptr;
    std::uint32_t index = 0; ///< Position within the DecodedModule.
    std::uint32_t num_regs = 0;
    /// Frame window width: num_regs register slots followed by the
    /// immediate pool (see DecodedOperand).
    std::uint32_t num_slots = 0;
    std::uint32_t entry_block = 0; ///< Block index of the entry block.
    /// Deduplicated immediates referenced by this function's operands;
    /// copied into the frame window at slots [num_regs, num_slots) on
    /// every activation.
    std::vector<std::uint64_t> consts;
    std::vector<DecodedInst> code; ///< All blocks, in block-id order.
    std::vector<DecodedBlock> blocks; ///< Indexed by ir::BlockId.
    /// Call-argument operands for every call in the function, addressed
    /// by DecodedInst::args_first/args_count (keeps DecodedInst flat).
    std::vector<DecodedOperand> args_pool;
};

class DecodedModule
{
  public:
    /// Decodes every function (and, for EngineKind::Fused, runs the
    /// superinstruction pass). The module must already be in its final
    /// (e.g. instrumented) form and must outlive this cache.
    explicit DecodedModule(const ir::Module &module,
                           EngineKind engine = EngineKind::Fused);

    const ir::Module &module() const { return *module_; }

    EngineKind engine() const { return engine_; }
    bool fused() const { return engine_ == EngineKind::Fused; }

    const DecodedFunction &
    function(std::uint32_t index) const
    {
        return functions_[index];
    }

    /// Lookup by name; nullptr when the module has no such function.
    const DecodedFunction *functionByName(const std::string &name) const;

    std::size_t numFunctions() const { return functions_.size(); }

  private:
    const ir::Module *module_;
    EngineKind engine_;
    std::vector<DecodedFunction> functions_; ///< Module function order.
};

} // namespace encore::interp

#endif // ENCORE_INTERP_DECODED_H
