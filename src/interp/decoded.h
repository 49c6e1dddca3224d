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
 * flat dispatch on the source opcode.
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

/// Kept only because perfbench/src/common.cc names it: its reference
/// mode passes EngineKind::Decoded to FaultInjector and prints
/// engineKindName(DecodedModule::engine()) as build provenance. There
/// is one engine, so the value selects nothing.
enum class EngineKind : std::uint8_t
{
    Decoded, ///< The decoded engine, the only one.
};

/// "decoded". Kept only for perfbench/src/common.cc, which prints it as
/// build provenance.
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

    ir::Opcode op; ///< The dispatch index.
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
    /// Decodes every function. The module must already be in its final
    /// (e.g. instrumented) form and must outlive this cache.
    explicit DecodedModule(const ir::Module &module);

    const ir::Module &module() const { return *module_; }

    /// Always EngineKind::Decoded; perfbench/src/common.cc reads it as
    /// build provenance.
    EngineKind engine() const { return EngineKind::Decoded; }

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
    std::vector<DecodedFunction> functions_; ///< Module function order.
};

} // namespace encore::interp

#endif // ENCORE_INTERP_DECODED_H
