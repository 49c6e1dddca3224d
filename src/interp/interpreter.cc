#include "interp/interpreter.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <utility>

#include "support/diagnostics.h"

// Dispatch selection. The default with GCC/Clang is a labels-as-values
// jump table (ENCORE_COMPUTED_GOTO); the dense switch over the flat
// decoded opcode is the portable fallback (-DENCORE_COMPUTED_GOTO=OFF).
// Both dispatchers index DecodedInst::op and execute the exact same
// case bodies, and every handler returns (ENCORE_NEXT) to the one
// shared loop top.
#if defined(ENCORE_COMPUTED_GOTO) && !defined(__GNUC__) && \
    !defined(__clang__)
#error "ENCORE_COMPUTED_GOTO requires GCC or Clang (labels as values)"
#endif

#ifdef ENCORE_COMPUTED_GOTO
#define ENCORE_OP(name) L_##name
#else
#define ENCORE_OP(name) case static_cast<unsigned>(ir::Opcode::name)
#endif
#define ENCORE_NEXT goto L_dispatch_done

// ---- Register-resident loop state -------------------------------------
//
// execLoop keeps its hot state in locals: the counters (dyn, values,
// overhead), the cursor (frame, its code base, its value window regs,
// and pc, the instruction about to run) and the loop-top limits
// (ENCORE_REREAD_LIMITS). The members they mirror are stale while the
// loop runs, so every call-out writes the state back first
// (ENCORE_WRITE_BACK): every ExecHooks callback, hot or rare, the
// value-barrier crossing (snapshot capture reads the counters and the
// cursor through saveExecState, and so may a hook), the resync compare,
// detection handling, the runtime-error exit and the finish. A call-out
// may move the limits, so the loop re-reads them after it returns. A
// hot hook callback (ENCORE_HOOK) may lower the budget
// (setMaxInstructions) or quiesce the hooks, so after one the loop
// re-reads those two (ENCORE_REREAD_HOT); detection handling — where
// the hooks arm the resync watch or request a trial stop — the
// runtime-error exit and the loop's own call-outs (ENCORE_CALL_OUT) may
// move every limit, so after those it re-reads them all. Detection
// handling also moves the cursor, which is then re-read too
// (ENCORE_REREAD_CURSOR). Nothing outside the loop moves the counters
// mid-run.

#define ENCORE_WRITE_BACK                                               \
    do {                                                                \
        dyn_count_ = dyn;                                               \
        value_count_ = values;                                          \
        overhead_count_ = overhead;                                     \
        frame->ip = static_cast<std::uint32_t>(pc - code);              \
    } while (0)

#define ENCORE_REREAD_HOT                                               \
    do {                                                                \
        hooks = hot_hooks_;                                             \
        budget = max_instrs_;                                           \
    } while (0)

#define ENCORE_REREAD_LIMITS                                            \
    do {                                                                \
        ENCORE_REREAD_HOT;                                              \
        value_barrier = value_barrier_;                                 \
        resync_pc = resync_pc_;                                         \
    } while (0)

#define ENCORE_REREAD_CURSOR                                            \
    do {                                                                \
        frame = &frames_[depth_ - 1];                                   \
        code = frame->func->code.data();                                \
        regs = frame->regs;                                             \
        pc = code + frame->ip;                                          \
    } while (0)

// One call out of the loop: write back, call, re-read the limits.
#define ENCORE_CALL_OUT(call)                                           \
    do {                                                                \
        ENCORE_WRITE_BACK;                                              \
        call;                                                           \
        ENCORE_REREAD_LIMITS;                                           \
    } while (0)

// One hot hook callback: write back, call, re-read budget and hooks.
#define ENCORE_HOOK(call)                                               \
    do {                                                                \
        ENCORE_WRITE_BACK;                                              \
        call;                                                           \
        ENCORE_REREAD_HOT;                                              \
    } while (0)

#define ENCORE_FINISH(status, message)                                  \
    do {                                                                \
        ENCORE_WRITE_BACK;                                              \
        return finish(status, message);                                 \
    } while (0)

// After a detection fired (state already written back): roll back or
// abandon the run. A rollback moved the cursor to the recovery block,
// so it is re-read before anything writes it back. The hook may have
// sealed the trial's classification during onDetectionHandled (every
// way the run could still end maps to the same outcome): finishing
// then is observationally equivalent and skips the whole remaining
// suffix (requestTrialStop).
#define ENCORE_HANDLE_DETECTION(unrecoverable_message)                  \
    do {                                                                \
        const bool rolled_back_ = handleDetection(*frame);              \
        ENCORE_REREAD_CURSOR;                                           \
        ENCORE_REREAD_LIMITS;                                           \
        if (!rolled_back_)                                              \
            ENCORE_FINISH(RunResult::Status::DetectedUnrecoverable,     \
                          unrecoverable_message);                       \
        if (trial_stop_) {                                              \
            trial_stop_ = false;                                        \
            ENCORE_FINISH(RunResult::Status::Ok, {});                   \
        }                                                               \
    } while (0)

#define ENCORE_VA (regs[pc->a.slot])
#define ENCORE_VB (regs[pc->b.slot])
#define ENCORE_VC (regs[pc->c.slot])

// Dynamic index of the instruction in flight: the loop top counts an
// instruction before its handler runs.
#define ENCORE_INDEX (dyn - 1)

// Runtime errors (wild access, division by zero) leave the handler
// through the loop's cold error exit, with the message recorded out of
// line; the cursor still names the instruction that trapped.
#define ENCORE_RAISE(message)                                           \
    do {                                                                \
        execError(message);                                             \
        goto L_exec_error;                                              \
    } while (0)

#define ENCORE_EVAL_ADDR(object, offset)                                \
    do {                                                                \
        if (!evalAddr(regs, *pc, object, offset)) [[unlikely]]          \
            goto L_exec_error;                                          \
    } while (0)

// Common tail of every value-producing instruction: count it, let the
// hooks filter (fault-inject) the result, write the destination
// register, and step to the next flat instruction.
#define ENCORE_WRITE_VALUE(expr)                                        \
    do {                                                                \
        std::uint64_t v_ = (expr);                                      \
        ++values;                                                       \
        if (hooks) [[unlikely]]                                         \
            ENCORE_HOOK(                                                \
                v_ = hooks->filterResult(*pc->src, ENCORE_INDEX, v_));  \
        regs[pc->dest] = v_;                                            \
        ++pc;                                                           \
    } while (0)

// Control enters block `target` of the current frame's function; `from`
// is the predecessor block index or kNoDecodedBlock (read before the
// frame's block changes).
#define ENCORE_ENTER_BLOCK(target, from)                                \
    do {                                                                \
        const std::uint32_t to_ = (target);                             \
        const std::uint32_t from_ = (from);                             \
        const DecodedFunction &fn_ = *frame->func;                      \
        frame->block = to_;                                             \
        pc = code + fn_.blocks[to_].first;                              \
        if (hooks) [[unlikely]]                                         \
            ENCORE_HOOK(hooks->onBlockEnter(                            \
                *fn_.src, *fn_.blocks[to_].bb,                          \
                from_ == kNoDecodedBlock ? nullptr                      \
                                         : fn_.blocks[from_].bb));      \
    } while (0)

namespace encore::interp {

namespace {

/// Matches the recursion guard of the seed engine; Frame slots are
/// reserved up front so pushing never reallocates the pool (frames are
/// referenced across pushes inside the dispatch loop).
constexpr std::size_t kMaxCallDepth = 512;

std::int64_t
asSigned(std::uint64_t value)
{
    return static_cast<std::int64_t>(value);
}

std::uint64_t
fromSigned(std::int64_t value)
{
    return static_cast<std::uint64_t>(value);
}

double
asDouble(std::uint64_t bits)
{
    return std::bit_cast<double>(bits);
}

std::uint64_t
fromDouble(double value)
{
    return std::bit_cast<std::uint64_t>(value);
}

} // namespace

bool
RunResult::sameOutput(const RunResult &other) const
{
    return return_value == other.return_value && globals == other.globals;
}

Interpreter::Interpreter(const ir::Module &module)
    : Interpreter(std::make_shared<const DecodedModule>(module))
{
}

Interpreter::Interpreter(std::shared_ptr<const DecodedModule> decoded)
    : decoded_(std::move(decoded)),
      module_(decoded_->module()),
      memory_(module_)
{
    frames_.reserve(kMaxCallDepth);
    for (std::size_t i = 0; i < decoded_->numFunctions(); ++i)
        max_regs_ = std::max(max_regs_, decoded_->function(i).num_slots);
    // One contiguous register arena for the whole call stack; frames
    // index it by (depth × stride), so pushes never allocate and the
    // Frame::regs pointers stay valid for the interpreter's lifetime.
    reg_arena_.assign(
        static_cast<std::size_t>(kMaxCallDepth) * max_regs_, 0);
}

void
Interpreter::execError(const char *message)
{
    exec_error_ = message;
}

void
Interpreter::badAccess(ir::ObjectId object, std::int64_t offset)
{
    if (!memory_.isAllocated(object))
        exec_error_ = "access to unallocated object '" +
                      module_.object(object).name + "'";
    else
        exec_error_ = "out-of-bounds access to '" +
                      module_.object(object).name + "' at offset " +
                      std::to_string(offset);
}

inline bool
Interpreter::evalAddr(const std::uint64_t *regs, const DecodedInst &inst,
                      ir::ObjectId &object, std::uint32_t &offset)
{
    std::int64_t off = static_cast<std::int64_t>(regs[inst.addr_off.slot]);

    if (inst.addr_base == DecodedInst::AddrBase::Object) {
        object = inst.addr_object;
    } else if (inst.addr_base == DecodedInst::AddrBase::Reg) {
        const std::uint64_t ptr = regs[inst.addr_reg];
        if (!ir::Pointer::isPointer(ptr)) [[unlikely]] {
            execError("dereference of a non-pointer value");
            return false;
        }
        object = ir::Pointer::object(ptr);
        if (object >= module_.objects().size()) [[unlikely]] {
            execError("dereference of a corrupt pointer");
            return false;
        }
        off += static_cast<std::int64_t>(ir::Pointer::offset(ptr));
    } else [[unlikely]] {
        execError("memory access with no address");
        return false;
    }

    if (!memory_.isAllocated(object) || off < 0 ||
        off >= static_cast<std::int64_t>(memory_.objectSize(object)))
        [[unlikely]] {
        badAccess(object, off);
        return false;
    }
    offset = static_cast<std::uint32_t>(off);
    return true;
}

Interpreter::Frame &
Interpreter::activateFrame(const DecodedFunction &func)
{
    if (depth_ == frames_.size())
        frames_.emplace_back();
    Frame &frame = frames_[depth_];
    frame.regs = reg_arena_.data() + depth_ * max_regs_;
    ++depth_;
    frame.func = &func;
    std::fill_n(frame.regs, func.num_regs, 0);
    // Materialize the function's immediate pool right after the
    // registers: operand slots index the combined window.
    std::copy(func.consts.begin(), func.consts.end(),
              frame.regs + func.num_regs);
    frame.caller_dest = ir::kInvalidReg;
    frame.recovery.active = false;
    frame.recovery.region = ir::kInvalidRegion;
    frame.recovery.token = 0;
    frame.recovery.recovery_block = kNoDecodedBlock;
    frame.recovery.log.clear();
    return frame;
}

void
Interpreter::enterBlock(Frame &frame, std::uint32_t block,
                        const ir::BasicBlock *from)
{
    const DecodedBlock &db = frame.func->blocks[block];
    frame.block = block;
    frame.ip = db.first;
    if (hot_hooks_)
        hot_hooks_->onBlockEnter(*frame.func->src, *db.bb, from);
}

bool
Interpreter::handleDetection(Frame &frame)
{
    RecoveryState &rec = frame.recovery;
    if (!rec.active || rec.recovery_block == kNoDecodedBlock) {
        if (hooks_)
            hooks_->onDetectionHandled(DetectionResponse::Unrecoverable);
        return false;
    }
    // Redirect control to the recovery block. Its `restore` pseudo-op
    // unwinds the checkpoint buffer and its trailing jump re-enters the
    // region header.
    ++rollback_count_;
    if (hooks_)
        hooks_->onDetectionHandled(DetectionResponse::RolledBack);
    enterBlock(frame, rec.recovery_block, nullptr);
    return true;
}

std::uint64_t
Interpreter::currentRegionToken() const
{
    if (depth_ == 0)
        return 0;
    const RecoveryState &rec = frames_[depth_ - 1].recovery;
    return rec.active ? rec.token : 0;
}

ir::RegionId
Interpreter::currentRegionId() const
{
    if (depth_ == 0)
        return ir::kInvalidRegion;
    const RecoveryState &rec = frames_[depth_ - 1].recovery;
    return rec.active ? rec.region : ir::kInvalidRegion;
}

RunResult
Interpreter::run(const std::string &func_name,
                 const std::vector<std::uint64_t> &args)
{
    const DecodedFunction *func = decoded_->functionByName(func_name);
    if (!func)
        fatalf("run: no function named '", func_name, "'");
    ENCORE_ASSERT(args.size() == func->src->numParams(),
                  "argument count mismatch for '" + func_name + "'");

    memory_.reset();
    depth_ = 0;
    dyn_count_ = 0;
    value_count_ = 0;
    overhead_count_ = 0;
    rollback_count_ = 0;
    next_token_ = 0;
    if (recorder_)
        snapshot_barrier_ = recorder_->firstBarrier();
    beginRun();

    // Set up the initial frame (reusing the pooled slot, if any).
    {
        Frame &frame = activateFrame(*func);
        for (std::size_t i = 0; i < args.size(); ++i)
            frame.regs[i] = args[i];
        memory_.pushFrame(*func->src);
        enterBlock(frame, func->entry_block, nullptr);
    }

    return execLoop();
}

RunResult
Interpreter::resumeRun(const Snapshot &snap, const PagePool &pool)
{
    ENCORE_ASSERT(!snap.exec.frames.empty(),
                  "resumeRun from a snapshot with no frames");
    memory_.restore(snap.mem, pool);
    restoreExecState(snap.exec);
    beginRun();
    return execLoop();
}

void
Interpreter::beginRun()
{
    disarmGoldenResync();
    trial_stop_ = false;
    // Every run re-arms the installed hooks at their arm point; until
    // then the hot call sites see no hooks. A run that starts at or
    // past its arm point arms here, not at its first loop top: the
    // hooks see the same callbacks from that loop top on, plus run()'s
    // entry into the entry block ahead of it.
    hot_hooks_ = nullptr;
    hooks_filter_ = false;
    arm_barrier_ = hooks_ ? hooks_arm_at_ : kNoSnapshotBarrier;
    if (value_count_ >= arm_barrier_)
        armHooks();
    value_barrier_ = std::min(snapshot_barrier_, arm_barrier_);
}

void
Interpreter::armHooks()
{
    arm_barrier_ = kNoSnapshotBarrier;
    hot_hooks_ = hooks_;
    hooks_filter_ = hooks_->filtersBranchesAndMemory();
}

RunResult
Interpreter::execLoop()
{
    RunResult result;

    auto finish = [&](RunResult::Status status, const std::string &error) {
        result.status = status;
        result.error = error;
        result.dyn_instrs = dyn_count_;
        result.overhead_instrs = overhead_count_;
        result.value_instrs = value_count_;
        result.rollbacks = rollback_count_;
        if (capture_globals_)
            result.globals = memory_.snapshotGlobals();
        return result;
    };

    // The register-resident state (see ENCORE_WRITE_BACK).
    std::uint64_t dyn = dyn_count_;
    std::uint64_t values = value_count_;
    std::uint64_t overhead = overhead_count_;
    Frame *frame;
    const DecodedInst *code;
    std::uint64_t *regs;
    const DecodedInst *pc;
    ENCORE_REREAD_CURSOR;
    ExecHooks *hooks;
    std::uint64_t budget, value_barrier;
    const DecodedInst *resync_pc;
    ENCORE_REREAD_LIMITS;

    while (true) {
        if (dyn >= budget) [[unlikely]]
            ENCORE_FINISH(RunResult::Status::InstructionLimit,
                          "instruction limit exceeded");

        // Value-count events: a snapshot capture (golden run) or the
        // hooks' arm point (trials). The loop top is a consistent
        // between-instructions boundary, so a captured state is
        // exactly what a trial restored here would have reached by
        // re-executing the prefix, and armed hooks see every callback
        // from this boundary on.
        if (values >= value_barrier) [[unlikely]]
            ENCORE_CALL_OUT(crossValueBarrier());

        // Golden-resync watch (armed trials only): once the live state
        // exactly equals the anchor snapshot, the rest of the run is
        // the golden suffix by determinism — stop here and let the
        // caller adopt the golden outcome. Equality is only possible
        // at the anchor's exact code position, so the armed steady
        // state (the whole rolled-back replay) pays one pointer compare
        // per dispatch, not a ladder call; a disarmed watch compares
        // against null.
        if (pc == resync_pc && values >= resync_barrier_) [[unlikely]] {
            bool resynced;
            ENCORE_CALL_OUT(resynced = tryGoldenResync());
            if (resynced) {
                result.golden_resync = true;
                result.entry_resync = resync_entry_ != nullptr;
                return finish(RunResult::Status::Ok, {});
            }
        }

        // No fell-off-the-block check: the decoder refuses a block that
        // does not end in a terminator, so pc never leaves its block.
        if (hooks) [[unlikely]] {
            bool detect;
            ENCORE_HOOK(detect =
                            hooks->shouldTriggerDetection(*pc->src, dyn));
            if (detect) {
                ENCORE_HANDLE_DETECTION(
                    "fault detected outside any active region");
                continue;
            }
        }

        ++dyn;

        // The dispatch. Every handler leaves through ENCORE_NEXT (to the
        // loop top) or the runtime-error exit.
        {
#ifdef ENCORE_COMPUTED_GOTO
            // Table order must match ir::Opcode.
            static const void *const kJumpTable[] = {
                &&L_Mov,     &&L_Add,     &&L_Sub,     &&L_Mul,
                &&L_Div,     &&L_Rem,     &&L_And,     &&L_Or,
                &&L_Xor,     &&L_Shl,     &&L_Shr,     &&L_Neg,
                &&L_Not,     &&L_FAdd,    &&L_FSub,    &&L_FMul,
                &&L_FDiv,    &&L_IntToFp, &&L_FpToInt, &&L_CmpEq,
                &&L_CmpNe,   &&L_CmpLt,   &&L_CmpLe,   &&L_CmpGt,
                &&L_CmpGe,   &&L_FCmpLt,  &&L_Select,  &&L_Lea,
                &&L_Load,    &&L_Store,   &&L_Call,    &&L_Br,
                &&L_Jmp,     &&L_Ret,     &&L_RegionEnter,
                &&L_CkptMem, &&L_CkptReg, &&L_Restore,
            };
            static_assert(sizeof(kJumpTable) / sizeof(kJumpTable[0]) ==
                              static_cast<std::size_t>(
                                  ir::Opcode::NumOpcodes),
                          "jump table out of sync with ir::Opcode");
            goto *kJumpTable[static_cast<unsigned>(pc->op)];
#else
            switch (static_cast<unsigned>(pc->op)) {
#endif

            ENCORE_OP(Mov):
                ENCORE_WRITE_VALUE(ENCORE_VA);
                ENCORE_NEXT;
            ENCORE_OP(Add):
                ENCORE_WRITE_VALUE(ENCORE_VA + ENCORE_VB);
                ENCORE_NEXT;
            ENCORE_OP(Sub):
                ENCORE_WRITE_VALUE(ENCORE_VA - ENCORE_VB);
                ENCORE_NEXT;
            ENCORE_OP(Mul):
                ENCORE_WRITE_VALUE(ENCORE_VA * ENCORE_VB);
                ENCORE_NEXT;
            ENCORE_OP(Div): {
                const std::uint64_t a = ENCORE_VA, b = ENCORE_VB;
                if (b == 0) [[unlikely]]
                    ENCORE_RAISE("division by zero");
                const std::int64_t sa = asSigned(a), sb = asSigned(b);
                std::uint64_t v;
                if (sa == std::numeric_limits<std::int64_t>::min() &&
                    sb == -1)
                    v = a; // wraps, matching hardware behavior
                else
                    v = fromSigned(sa / sb);
                ENCORE_WRITE_VALUE(v);
            }
                ENCORE_NEXT;
            ENCORE_OP(Rem): {
                const std::uint64_t a = ENCORE_VA, b = ENCORE_VB;
                if (b == 0) [[unlikely]]
                    ENCORE_RAISE("remainder by zero");
                const std::int64_t sa = asSigned(a), sb = asSigned(b);
                std::uint64_t v;
                if (sa == std::numeric_limits<std::int64_t>::min() &&
                    sb == -1)
                    v = 0;
                else
                    v = fromSigned(sa % sb);
                ENCORE_WRITE_VALUE(v);
            }
                ENCORE_NEXT;
            ENCORE_OP(And):
                ENCORE_WRITE_VALUE(ENCORE_VA & ENCORE_VB);
                ENCORE_NEXT;
            ENCORE_OP(Or):
                ENCORE_WRITE_VALUE(ENCORE_VA | ENCORE_VB);
                ENCORE_NEXT;
            ENCORE_OP(Xor):
                ENCORE_WRITE_VALUE(ENCORE_VA ^ ENCORE_VB);
                ENCORE_NEXT;
            ENCORE_OP(Shl):
                ENCORE_WRITE_VALUE(ENCORE_VA << (ENCORE_VB & 63));
                ENCORE_NEXT;
            ENCORE_OP(Shr):
                ENCORE_WRITE_VALUE(ENCORE_VA >> (ENCORE_VB & 63));
                ENCORE_NEXT;
            ENCORE_OP(Neg):
                ENCORE_WRITE_VALUE(fromSigned(-asSigned(ENCORE_VA)));
                ENCORE_NEXT;
            ENCORE_OP(Not):
                ENCORE_WRITE_VALUE(~ENCORE_VA);
                ENCORE_NEXT;
            ENCORE_OP(FAdd):
                ENCORE_WRITE_VALUE(
                    fromDouble(asDouble(ENCORE_VA) + asDouble(ENCORE_VB)));
                ENCORE_NEXT;
            ENCORE_OP(FSub):
                ENCORE_WRITE_VALUE(
                    fromDouble(asDouble(ENCORE_VA) - asDouble(ENCORE_VB)));
                ENCORE_NEXT;
            ENCORE_OP(FMul):
                ENCORE_WRITE_VALUE(
                    fromDouble(asDouble(ENCORE_VA) * asDouble(ENCORE_VB)));
                ENCORE_NEXT;
            ENCORE_OP(FDiv):
                // IEEE division by zero yields inf/nan: well-defined.
                ENCORE_WRITE_VALUE(
                    fromDouble(asDouble(ENCORE_VA) / asDouble(ENCORE_VB)));
                ENCORE_NEXT;
            ENCORE_OP(IntToFp):
                ENCORE_WRITE_VALUE(
                    fromDouble(static_cast<double>(asSigned(ENCORE_VA))));
                ENCORE_NEXT;
            ENCORE_OP(FpToInt): {
                // Saturating conversion: NaN -> 0, +/-inf clamp like
                // hardware cvttsd2si-with-saturation semantics.
                const double d = asDouble(ENCORE_VA);
                std::uint64_t v;
                if (std::isnan(d))
                    v = 0;
                else if (d >= 9.2e18)
                    v = fromSigned(
                        std::numeric_limits<std::int64_t>::max());
                else if (d <= -9.2e18)
                    v = fromSigned(
                        std::numeric_limits<std::int64_t>::min());
                else
                    v = fromSigned(static_cast<std::int64_t>(d));
                ENCORE_WRITE_VALUE(v);
            }
                ENCORE_NEXT;
            ENCORE_OP(CmpEq):
                ENCORE_WRITE_VALUE(ENCORE_VA == ENCORE_VB ? 1 : 0);
                ENCORE_NEXT;
            ENCORE_OP(CmpNe):
                ENCORE_WRITE_VALUE(ENCORE_VA != ENCORE_VB ? 1 : 0);
                ENCORE_NEXT;
            ENCORE_OP(CmpLt):
                ENCORE_WRITE_VALUE(
                    asSigned(ENCORE_VA) < asSigned(ENCORE_VB) ? 1 : 0);
                ENCORE_NEXT;
            ENCORE_OP(CmpLe):
                ENCORE_WRITE_VALUE(
                    asSigned(ENCORE_VA) <= asSigned(ENCORE_VB) ? 1 : 0);
                ENCORE_NEXT;
            ENCORE_OP(CmpGt):
                ENCORE_WRITE_VALUE(
                    asSigned(ENCORE_VA) > asSigned(ENCORE_VB) ? 1 : 0);
                ENCORE_NEXT;
            ENCORE_OP(CmpGe):
                ENCORE_WRITE_VALUE(
                    asSigned(ENCORE_VA) >= asSigned(ENCORE_VB) ? 1 : 0);
                ENCORE_NEXT;
            ENCORE_OP(FCmpLt):
                ENCORE_WRITE_VALUE(
                    asDouble(ENCORE_VA) < asDouble(ENCORE_VB) ? 1 : 0);
                ENCORE_NEXT;
            ENCORE_OP(Select):
                ENCORE_WRITE_VALUE(ENCORE_VA ? ENCORE_VB : ENCORE_VC);
                ENCORE_NEXT;

            ENCORE_OP(Lea): {
                ir::ObjectId object;
                std::uint32_t offset;
                ENCORE_EVAL_ADDR(object, offset);
                ENCORE_WRITE_VALUE(ir::Pointer::encode(object, offset));
            }
                ENCORE_NEXT;
            ENCORE_OP(Load): {
                ir::ObjectId object;
                std::uint32_t offset;
                ENCORE_EVAL_ADDR(object, offset);
                std::uint64_t mem_mask = 0;
                if (hooks && hooks_filter_) [[unlikely]] {
                    ENCORE_HOOK(mem_mask = hooks->filterMemoryOp(
                                        *pc->src, false, object, offset,
                                        ENCORE_INDEX));
                    // A rewritten offset is re-validated here: an
                    // address-bus fault that leaves the object surfaces
                    // as a runtime error, exactly like a wild access.
                    if (offset >= memory_.objectSize(object)) {
                        badAccess(object, offset);
                        goto L_exec_error;
                    }
                }
                std::uint64_t value =
                    memory_.wordAt(object, offset) ^ mem_mask;
                if (hooks) [[unlikely]]
                    ENCORE_HOOK(hooks->onMemoryAccess(
                        *pc->src, object, offset, false, ENCORE_INDEX));
                ENCORE_WRITE_VALUE(value);
            }
                ENCORE_NEXT;
            ENCORE_OP(Store): {
                ir::ObjectId object;
                std::uint32_t offset;
                ENCORE_EVAL_ADDR(object, offset);
                std::uint64_t mem_mask = 0;
                if (hooks && hooks_filter_) [[unlikely]] {
                    ENCORE_HOOK(mem_mask = hooks->filterMemoryOp(
                                        *pc->src, true, object, offset,
                                        ENCORE_INDEX));
                    if (offset >= memory_.objectSize(object)) {
                        badAccess(object, offset);
                        goto L_exec_error;
                    }
                }
                memory_.setWord(object, offset, ENCORE_VA ^ mem_mask);
                if (hooks) [[unlikely]]
                    ENCORE_HOOK(hooks->onMemoryAccess(
                        *pc->src, object, offset, true, ENCORE_INDEX));
                ++pc;
            }
                ENCORE_NEXT;

            ENCORE_OP(Call): {
                if (pc->callee == ~0u) [[unlikely]]
                    ENCORE_RAISE("unresolved call");
                if (depth_ >= kMaxCallDepth) [[unlikely]]
                    ENCORE_RAISE("call stack overflow");
                const DecodedInst &call = *pc;
                const DecodedFunction &callee =
                    decoded_->function(call.callee);
                // The caller's cursor waits at the return point in
                // memory while the callee runs.
                frame->ip = static_cast<std::uint32_t>(pc + 1 - code);
                // `frame` stays valid across the push: the pool's
                // capacity is reserved to kMaxCallDepth up front.
                Frame &next = activateFrame(callee);
                const DecodedOperand *call_args =
                    frame->func->args_pool.data() + call.args_first;
                for (std::uint32_t i = 0; i < call.args_count; ++i)
                    next.regs[i] = regs[call_args[i].slot];
                next.caller_dest = call.dest;
                memory_.pushFrame(*callee.src);
                frame = &next;
                code = callee.code.data();
                regs = next.regs;
                ENCORE_ENTER_BLOCK(callee.entry_block, kNoDecodedBlock);
            }
                ENCORE_NEXT;
            ENCORE_OP(Br): {
                std::uint32_t target =
                    ENCORE_VA ? pc->target0 : pc->target1;
                if (hooks && hooks_filter_) [[unlikely]] {
                    ENCORE_HOOK(hooks->filterBranchTarget(
                        *pc->src, target,
                        static_cast<std::uint32_t>(
                            frame->func->blocks.size()),
                        ENCORE_INDEX));
                }
                ENCORE_ENTER_BLOCK(target, frame->block);
            }
                ENCORE_NEXT;
            ENCORE_OP(Jmp): {
                std::uint32_t target = pc->target0;
                if (hooks && hooks_filter_) [[unlikely]] {
                    ENCORE_HOOK(hooks->filterBranchTarget(
                        *pc->src, target,
                        static_cast<std::uint32_t>(
                            frame->func->blocks.size()),
                        ENCORE_INDEX));
                }
                ENCORE_ENTER_BLOCK(target, frame->block);
            }
                ENCORE_NEXT;
            ENCORE_OP(Ret): {
                const std::uint64_t value = ENCORE_VA;
                const ir::RegId dest = frame->caller_dest;
                memory_.popFrame();
                --depth_;
                if (depth_ == 0) {
                    result.return_value = value;
                    ENCORE_FINISH(RunResult::Status::Ok, "");
                }
                ENCORE_REREAD_CURSOR;
                if (dest != ir::kInvalidReg)
                    regs[dest] = value;
            }
                ENCORE_NEXT;

            // The pseudo-ops count themselves as runtime overhead first,
            // so a trapping ckpt.mem is counted like every other one.
            ENCORE_OP(RegionEnter): {
                ++overhead;
                RecoveryState &rec = frame->recovery;
                rec.log.clear();
                if (pc->region == ir::kInvalidRegion) {
                    rec.active = false;
                    rec.region = ir::kInvalidRegion;
                    rec.token = 0;
                    rec.recovery_block = kNoDecodedBlock;
                } else {
                    rec.active = true;
                    rec.region = pc->region;
                    rec.token = ++next_token_;
                    rec.recovery_block = pc->target0;
                }
                ++pc;
            }
                ENCORE_NEXT;
            ENCORE_OP(CkptMem): {
                ++overhead;
                ir::ObjectId object;
                std::uint32_t offset;
                ENCORE_EVAL_ADDR(object, offset);
                const std::uint64_t value = memory_.wordAt(object, offset);
                if (frame->recovery.active) {
                    frame->recovery.log.push_back(
                        Undo{Undo::Kind::Mem, object, offset,
                             ir::kInvalidReg, value});
                }
                ++pc;
            }
                ENCORE_NEXT;
            ENCORE_OP(CkptReg): {
                ++overhead;
                ENCORE_ASSERT(pc->a.slot < frame->func->num_regs,
                              "ckpt.reg needs a register operand");
                if (frame->recovery.active) {
                    frame->recovery.log.push_back(
                        Undo{Undo::Kind::Reg, ir::kInvalidObject, 0,
                             pc->a.slot, regs[pc->a.slot]});
                }
                ++pc;
            }
                ENCORE_NEXT;
            ENCORE_OP(Restore): {
                ++overhead;
                RecoveryState &rec = frame->recovery;
                for (auto it = rec.log.rbegin(); it != rec.log.rend();
                     ++it) {
                    if (it->kind == Undo::Kind::Mem)
                        memory_.write(it->object, it->offset, it->value);
                    else
                        regs[it->reg] = it->value;
                }
                rec.log.clear();
                ++pc;
            }
                ENCORE_NEXT;

#ifndef ENCORE_COMPUTED_GOTO
              default:
                panicf("interpreter dispatch on invalid opcode ",
                       static_cast<int>(pc->op));
            }
#endif
        }
    L_dispatch_done:
        continue;

    L_exec_error: {
            // Runtime errors are execution symptoms. The hooks decide
            // whether to treat them as an immediate detection (fault
            // injection campaigns) or to surface them (golden runs).
            // The cursor still names the instruction that trapped.
            bool treat_as_detection = false;
            ENCORE_CALL_OUT(treat_as_detection =
                                hooks_ &&
                                hooks_->onRuntimeError(ENCORE_INDEX));
            if (!treat_as_detection)
                ENCORE_FINISH(RunResult::Status::Error, exec_error_);
            ENCORE_HANDLE_DETECTION(exec_error_);
        }
    }
}

void
Interpreter::crossValueBarrier()
{
    // Every loop top checks the barrier and an instruction adds at most
    // one value, so the first loop top at or past it is the one where
    // value_count_ equals it exactly.
    if (value_count_ >= arm_barrier_)
        armHooks();
    if (value_count_ >= snapshot_barrier_)
        snapshot_barrier_ = recorder_->capture(*this);
    value_barrier_ = std::min(snapshot_barrier_, arm_barrier_);
}

void
Interpreter::quiesceHooks()
{
    // Runs inside a callback: the dispatch loop re-reads the hooks when
    // the callback returns.
    hot_hooks_ = nullptr;
    hooks_filter_ = false;
    arm_barrier_ = kNoSnapshotBarrier;
    value_barrier_ = snapshot_barrier_;
}

void
Interpreter::armGoldenResync()
{
    disarmGoldenResync();
    if (!resync_store_)
        return;
    if (const EntryAnchor *entry =
            resync_store_->findAnchor(currentRegionToken())) {
        // The rollback lands on the anchor's instruction two dispatches
        // from now (restore, then the jump back through the
        // preheader), and no earlier loop top sits there: barrier 0
        // lets the watch fire at the landing.
        const SnapFrame &top = entry->state.exec.frames.back();
        resync_entry_ = entry;
        resync_barrier_ = 0;
        resync_pc_ = &decoded_->function(top.func_index).code[top.ip];
        return;
    }
    armSnapshotResync();
}

void
Interpreter::armSnapshotResync()
{
    disarmGoldenResync();
    // Anchor strictly after the *current* value count. Although the
    // imminent rollback rewinds control to the region entry, the
    // memory image does not follow it there: the undo log only covers
    // checkpoint-required locations (none at all for idempotent
    // regions, clobbering stores only for checkpointed ones), so
    // locations the region wrote without a checkpoint keep their
    // later-than-entry values until the replay overwrites them. The
    // earliest point the live state can equal a golden snapshot is
    // therefore at-or-after the current position — exactly where the
    // replay finishes re-deriving what the fault window corrupted. An
    // anchor is self-certifying (the watch fires only on full
    // semantic-state equality), so a conservative choice costs
    // nothing in correctness.
    const Snapshot *anchor = resync_store_->findFirstAfter(value_count_);
    if (!anchor)
        return;
    const SnapFrame &top = anchor->exec.frames.back();
    resync_target_ = anchor;
    resync_barrier_ = anchor->exec.value_count;
    resync_pc_ = &decoded_->function(top.func_index).code[top.ip];
    resync_full_compares_ = 0;
}

bool
Interpreter::cursorMatches(const Frame &frame, const SnapFrame &saved)
{
    return frame.func->index == saved.func_index &&
           frame.block == saved.block && frame.ip == saved.ip &&
           frame.caller_dest == saved.caller_dest;
}

bool
Interpreter::frameStateMatches(const Frame &frame, const SnapFrame &saved)
{
    const RecoveryState &rec = frame.recovery;
    // rec.token (and next_token_) are deliberately excluded: tokens are
    // a session counter — a rolled-back trial's run ahead of the golden
    // run's — and nothing reads them once detection is past.
    // Everything else, including the undo log contents, is state a
    // future `restore` could observe.
    return std::equal(saved.regs.begin(), saved.regs.end(), frame.regs,
                      frame.regs + frame.func->num_regs) &&
           rec.active == saved.recovery.active &&
           rec.region == saved.recovery.region &&
           rec.recovery_block == saved.recovery.recovery_block &&
           rec.log == saved.recovery.log;
}

bool
Interpreter::tryGoldenResync()
{
    constexpr std::uint32_t kMaxResyncFullCompares = 8;

    // An entry anchor gets this one compare, and a miss hands over to
    // the snapshot watch. The snapshot watch stays armed through a
    // miss, and disarms where it can never match.
    const EntryAnchor *entry = resync_entry_;
    auto miss = [&](bool give_up) {
        if (entry)
            armSnapshotResync();
        else if (give_up)
            disarmGoldenResync();
        return false;
    };
    const Snapshot &target = entry ? entry->state : *resync_target_;
    const ExecSnapshot &exec = target.exec;
    const BitMask *dead_regs = entry ? &entry->dead_regs : nullptr;

    // Cheap-first laddering: stack depth and the top frame's cursor
    // and registers weed out nearly every non-matching boundary before
    // the full compare runs.
    if (depth_ != exec.frames.size())
        return miss(false);
    const Frame &top = frames_[depth_ - 1];
    const SnapFrame &saved_top = exec.frames.back();
    if (top.func->index != saved_top.func_index ||
        top.block != saved_top.block || top.ip != saved_top.ip)
        return miss(false);
    for (std::uint32_t r = 0; r < top.func->num_regs; ++r) {
        if (top.regs[r] != saved_top.regs[r] &&
            !(dead_regs && dead_regs->test(r)))
            return miss(false);
    }

    // The fast-forwarded run stands in for executing the golden suffix
    // on top of the instructions already burned. If that projected
    // total would trip the budget, the full run ends in
    // InstructionLimit and the shortcut must not fire; dyn_count_ only
    // grows, so give up outright rather than re-checking forever.
    if (dyn_count_ + (resync_golden_dyn_ - exec.dyn_count) >= max_instrs_)
        return miss(true);

    // Full compares are capped: past the cheap tests a near-converged
    // trial can graze the snapshot repeatedly, and each graze pays an
    // O(live memory) walk. A trial that hasn't locked on within the
    // cap just runs to completion the ordinary way.
    if (!entry && ++resync_full_compares_ > kMaxResyncFullCompares)
        return miss(true);

    // Every frame's cursor and caller wiring, and its registers and
    // recovery state — bar an entry anchor's top frame, whose
    // registers were compared masked above and whose recovery state
    // its `region.enter` is about to overwrite.
    for (std::size_t f = 0; f < depth_; ++f) {
        const bool entry_top = entry && f + 1 == depth_;
        if (!cursorMatches(frames_[f], exec.frames[f]) ||
            (!entry_top && !frameStateMatches(frames_[f], exec.frames[f])))
            return miss(false);
    }
    if (!memory_.matches(target.mem, resync_store_->pool(),
                         entry ? &entry->dead_words : nullptr))
        return miss(false);
    return true;
}

void
Interpreter::saveExecState(ExecSnapshot &out) const
{
    out.frames.clear();
    out.frames.reserve(depth_);
    for (std::size_t f = 0; f < depth_; ++f) {
        const Frame &frame = frames_[f];
        out.frames.push_back(SnapFrame{
            frame.func->index,
            {frame.regs, frame.regs + frame.func->num_regs},
            frame.block,
            frame.ip,
            frame.caller_dest,
            frame.recovery});
    }
    out.dyn_count = dyn_count_;
    out.value_count = value_count_;
    out.overhead_count = overhead_count_;
    out.rollback_count = rollback_count_;
    out.next_token = next_token_;
}

void
Interpreter::restoreExecState(const ExecSnapshot &snap)
{
    depth_ = 0;
    for (const SnapFrame &saved : snap.frames) {
        if (depth_ == frames_.size())
            frames_.emplace_back();
        Frame &frame = frames_[depth_];
        frame.regs = reg_arena_.data() + depth_ * max_regs_;
        ++depth_;
        frame.func = &decoded_->function(saved.func_index);
        ENCORE_ASSERT(saved.regs.size() == frame.func->num_regs,
                      "snapshot frame register count mismatch");
        std::copy(saved.regs.begin(), saved.regs.end(), frame.regs);
        // Snapshots carry registers only; the immediate pool is static
        // per function and re-materialized here.
        std::copy(frame.func->consts.begin(), frame.func->consts.end(),
                  frame.regs + frame.func->num_regs);
        frame.block = saved.block;
        frame.ip = saved.ip;
        frame.caller_dest = saved.caller_dest;
        frame.recovery = saved.recovery;
    }
    dyn_count_ = snap.dyn_count;
    value_count_ = snap.value_count;
    overhead_count_ = snap.overhead_count;
    rollback_count_ = snap.rollback_count;
    next_token_ = snap.next_token;
}

} // namespace encore::interp

#undef ENCORE_OP
#undef ENCORE_NEXT
#undef ENCORE_WRITE_BACK
#undef ENCORE_REREAD_HOT
#undef ENCORE_REREAD_LIMITS
#undef ENCORE_REREAD_CURSOR
#undef ENCORE_CALL_OUT
#undef ENCORE_HOOK
#undef ENCORE_FINISH
#undef ENCORE_HANDLE_DETECTION
#undef ENCORE_VA
#undef ENCORE_VB
#undef ENCORE_VC
#undef ENCORE_INDEX
#undef ENCORE_RAISE
#undef ENCORE_EVAL_ADDR
#undef ENCORE_WRITE_VALUE
#undef ENCORE_ENTER_BLOCK
