#include "interp/interpreter.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "support/diagnostics.h"

// Dispatch selection. The default is a dense switch over the flat
// decoded opcode; -DENCORE_COMPUTED_GOTO=ON replaces it with a
// labels-as-values jump table (GCC/Clang extension), which removes the
// bounds check and gives each opcode its own indirect-branch site.
// Both dispatchers execute the exact same case bodies.
#if defined(ENCORE_COMPUTED_GOTO) && !defined(__GNUC__) && \
    !defined(__clang__)
#error "ENCORE_COMPUTED_GOTO requires GCC or Clang (labels as values)"
#endif

// The dispatch index is DecodedInst::exec_op — the source opcode for
// ordinary instructions, or FusedOp::Run / FusedOp::RunCmpBr (numbered
// after the base opcodes) when the slot heads a fused sequence — so
// both dispatchers cover the extended space with one table/switch.
#ifdef ENCORE_COMPUTED_GOTO
#define ENCORE_OP(name) L_##name
#define ENCORE_FOP(name) L_Fused##name
#define ENCORE_NEXT goto L_dispatch_done
#else
#define ENCORE_OP(name) case static_cast<unsigned>(ir::Opcode::name)
#define ENCORE_FOP(name) case static_cast<unsigned>(FusedOp::name)
#define ENCORE_NEXT break
#endif

// Pre-resolved operand fetches for the current decoded instruction.
#define ENCORE_VA (fetch(frame, inst.a))
#define ENCORE_VB (fetch(frame, inst.b))
#define ENCORE_VC (fetch(frame, inst.c))

// Common tail of every value-producing opcode: count it, let the hooks
// filter (fault-inject) the result, write the destination register,
// and fall through to the next flat instruction.
#define ENCORE_WRITE_VALUE(expr)                                        \
    do {                                                                \
        std::uint64_t v_ = (expr);                                      \
        ++value_count_;                                                 \
        if (hot_hooks_)                                                 \
            v_ = hot_hooks_->filterResult(*inst.src, my_index, v_);     \
        frame.regs[inst.dest] = v_;                                     \
        ++frame.ip;                                                     \
    } while (0)

// ---- Fused-handler building blocks ------------------------------------
//
// A fused handler executes its 2..kMaxFuseLen source instructions back to back
// between two loop tops. Every component replays the corresponding
// unfused case body exactly — same counter increments, same hook calls
// in the same order, same per-component ip advance — so the observable
// trace (injection targets, memory-access callbacks, detection poll
// points, even the ip seen by a mid-component ExecError) is identical
// to dispatching the components individually. The only loop-top work a
// handler does NOT replay at interior boundaries is the value-barrier
// (snapshot capture, hook arming), resync and budget checks;
// ENCORE_FUSE_GUARD therefore re-dispatches the head unfused whenever
// a value barrier or the budget could fire before the sequence ends
// (see recomputeFuseLimits), and for the one head that covers an armed
// resync anchor on a pass where the watch could fire inside it (see
// armGoldenResync).

#define ENCORE_FUSE_GUARD                                               \
    do {                                                                \
        if (value_count_ >= fuse_value_limit_ ||                        \
            dyn_count_ > fuse_dyn_limit_ ||                             \
            (&inst == resync_head_ && resyncCouldFireInHead())) {       \
            dispatch_op = static_cast<unsigned>(inst.op);               \
            goto L_redispatch;                                          \
        }                                                               \
    } while (0)

// Advance to the next component: replicate the loop top's detection
// poll and per-instruction counters for it. On a detection the rest of
// the sequence is abandoned exactly as the unfused loop abandons its
// suffix (control was redirected to a recovery block).
#define ENCORE_FUSE_STEP(comp)                                          \
    do {                                                                \
        if (hot_hooks_ && hot_hooks_->shouldTriggerDetection(           \
                              *(comp).src, dyn_count_)) {               \
            if (!handleDetection(frame))                                \
                return finish(                                          \
                    RunResult::Status::DetectedUnrecoverable,           \
                    "fault detected outside any active region");        \
            if (trial_stop_) {                                          \
                trial_stop_ = false;                                    \
                return finish(RunResult::Status::Ok, {});               \
            }                                                           \
            goto L_dispatch_done;                                       \
        }                                                               \
        my_index = dyn_count_;                                          \
        ++dyn_count_;                                                   \
    } while (0)

// ENCORE_WRITE_VALUE for an explicit component instruction.
#define ENCORE_FUSE_VALUE(comp, expr)                                   \
    do {                                                                \
        std::uint64_t v_ = (expr);                                      \
        ++value_count_;                                                 \
        if (hot_hooks_)                                                 \
            v_ = hot_hooks_->filterResult(*(comp).src, my_index, v_);   \
        frame.regs[(comp).dest] = v_;                                   \
        ++frame.ip;                                                     \
    } while (0)

// One run component, dispatched on its decode-time class tag. Value
// ops go through the shared semantics function.
#define ENCORE_FUSE_COMP(comp)                                          \
    do {                                                                \
        ir::ObjectId obj_;                                              \
        std::uint32_t off_;                                             \
        switch ((comp).comp_class) {                                    \
        case kCompValue:                                                \
            ENCORE_FUSE_VALUE(                                          \
                (comp), applyValueOp((comp).op, fetch(frame, (comp).a), \
                                     fetch(frame, (comp).b),            \
                                     fetch(frame, (comp).c)));          \
            break;                                                      \
        case kCompLea:                                                  \
            evalAddr(frame, (comp), obj_, off_);                        \
            ENCORE_FUSE_VALUE((comp),                                   \
                              ir::Pointer::encode(obj_, off_));         \
            break;                                                      \
        case kCompLoad: {                                               \
            evalAddr(frame, (comp), obj_, off_);                        \
            const std::uint64_t word_ = memory_.wordAt(obj_, off_);     \
            if (hot_hooks_) {                                           \
                hot_hooks_->onMemoryAccess(*(comp).src, obj_, off_,     \
                                           false, my_index);            \
            }                                                           \
            ENCORE_FUSE_VALUE((comp), word_);                           \
        } break;                                                        \
        default:                                                        \
            evalAddr(frame, (comp), obj_, off_);                        \
            memory_.setWord(obj_, off_, fetch(frame, (comp).a));        \
            if (hot_hooks_) {                                           \
                hot_hooks_->onMemoryAccess(*(comp).src, obj_, off_,     \
                                           true, my_index);             \
            }                                                           \
            ++frame.ip;                                                 \
            break;                                                      \
        }                                                               \
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

} // namespace

bool
RunResult::sameOutput(const RunResult &other) const
{
    return return_value == other.return_value && globals == other.globals;
}

Interpreter::Interpreter(const ir::Module &module, EngineKind engine)
    : Interpreter(std::make_shared<const DecodedModule>(module, engine))
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
Interpreter::evalAddr(const Frame &frame, const DecodedInst &inst,
                      ir::ObjectId &object, std::uint32_t &offset) const
{
    std::int64_t off =
        static_cast<std::int64_t>(fetch(frame, inst.addr_off));

    if (inst.addr_base == DecodedInst::AddrBase::Object) {
        object = inst.addr_object;
    } else if (inst.addr_base == DecodedInst::AddrBase::Reg) {
        const std::uint64_t ptr = frame.regs[inst.addr_reg];
        if (!ir::Pointer::isPointer(ptr))
            throw ExecError{"dereference of a non-pointer value"};
        object = ir::Pointer::object(ptr);
        if (object >= module_.objects().size())
            throw ExecError{"dereference of a corrupt pointer"};
        off += static_cast<std::int64_t>(ir::Pointer::offset(ptr));
    } else {
        throw ExecError{"memory access with no address"};
    }

    if (!memory_.isAllocated(object))
        throw ExecError{"access to unallocated object '" +
                        module_.object(object).name + "'"};
    const std::uint32_t size = memory_.objectSize(object);
    if (off < 0 || off >= static_cast<std::int64_t>(size)) {
        throw ExecError{"out-of-bounds access to '" +
                        module_.object(object).name + "' at offset " +
                        std::to_string(off)};
    }
    offset = static_cast<std::uint32_t>(off);
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
    // then the hot call sites see no hooks and fusion is not pinned. A
    // run that starts at or past its arm point arms here, not at its
    // first loop top: the hooks see the same callbacks from that loop
    // top on, plus run()'s entry into the entry block ahead of it.
    hot_hooks_ = nullptr;
    hooks_unfused_ = false;
    arm_barrier_ = hooks_ ? hooks_arm_at_ : kNoSnapshotBarrier;
    if (value_count_ >= arm_barrier_)
        armHooks();
    value_barrier_ = std::min(snapshot_barrier_, arm_barrier_);
    recomputeFuseLimits();
}

void
Interpreter::armHooks()
{
    arm_barrier_ = kNoSnapshotBarrier;
    hot_hooks_ = hooks_;
    hooks_unfused_ = hooks_->needsUnfusedDispatch();
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

    while (true) {
        if (dyn_count_ >= max_instrs_)
            return finish(RunResult::Status::InstructionLimit,
                          "instruction limit exceeded");

        // Value-count events: a snapshot capture (golden run) or the
        // hooks' arm point (trials). The loop top is a consistent
        // between-instructions boundary, so a captured state is
        // exactly what a trial restored here would have reached by
        // re-executing the prefix, and armed hooks see every callback
        // from this boundary on.
        if (value_count_ >= value_barrier_)
            crossValueBarrier();

        Frame &frame = frames_[depth_ - 1];

        // Golden-resync watch (armed trials only): once the live state
        // exactly equals the anchor snapshot, the rest of the run is
        // the golden suffix by determinism — stop here and let the
        // caller adopt the golden outcome. The anchor's top-frame
        // instruction index is hoisted into resync_top_ip_ so the
        // armed steady state (the whole rolled-back replay) pays two
        // compares per dispatch, not a ladder call: equality is only
        // possible at the anchor's exact code position, which stays a
        // dispatch boundary (see armGoldenResync).
        if (value_count_ >= resync_barrier_ &&
            frame.ip == resync_top_ip_ && tryGoldenResync()) {
            result.golden_resync = true;
            result.entry_resync = resync_entry_ != nullptr;
            return finish(RunResult::Status::Ok, {});
        }

        ENCORE_ASSERT(frame.ip < frame.func->code.size(),
                      "fell off the end of a basic block");
        const DecodedInst &inst = frame.func->code[frame.ip];

        if (hot_hooks_ &&
            hot_hooks_->shouldTriggerDetection(*inst.src, dyn_count_)) {
            if (!handleDetection(frame)) {
                return finish(RunResult::Status::DetectedUnrecoverable,
                              "fault detected outside any active region");
            }
            // The hook may have sealed the trial's classification
            // during onDetectionHandled (every possible way the run
            // could still end maps to the same outcome) — finishing
            // now is then observationally equivalent and skips the
            // whole remaining suffix.
            if (trial_stop_) {
                trial_stop_ = false;
                return finish(RunResult::Status::Ok, {});
            }
            continue;
        }

        // Mutable: fused handlers re-point it at each component's
        // dynamic index, so per-component hook calls see exactly the
        // index the unfused loop would have handed them.
        std::uint64_t my_index = dyn_count_;
        ++dyn_count_;
        overhead_count_ += inst.is_pseudo;

        try {
            // Fused heads re-enter here with dispatch_op reset to the
            // plain source opcode when the de-fuse guard refuses the
            // sequence (barrier or budget too close).
            unsigned dispatch_op = inst.exec_op;
        L_redispatch:
#ifdef ENCORE_COMPUTED_GOTO
            // Table order must match ir::Opcode, then FusedOp.
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
                &&L_FusedRun, &&L_FusedRunCmpBr,
            };
            static_assert(sizeof(kJumpTable) / sizeof(kJumpTable[0]) ==
                              static_cast<std::size_t>(kNumExecOps),
                          "jump table out of sync with the exec-opcode "
                          "space");
            goto *kJumpTable[dispatch_op];
#else
            switch (dispatch_op) {
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
                if (b == 0)
                    throw ExecError{"division by zero"};
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
                if (b == 0)
                    throw ExecError{"remainder by zero"};
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
                    ir::doubleToBits(ir::bitsToDouble(ENCORE_VA) +
                                     ir::bitsToDouble(ENCORE_VB)));
                ENCORE_NEXT;
            ENCORE_OP(FSub):
                ENCORE_WRITE_VALUE(
                    ir::doubleToBits(ir::bitsToDouble(ENCORE_VA) -
                                     ir::bitsToDouble(ENCORE_VB)));
                ENCORE_NEXT;
            ENCORE_OP(FMul):
                ENCORE_WRITE_VALUE(
                    ir::doubleToBits(ir::bitsToDouble(ENCORE_VA) *
                                     ir::bitsToDouble(ENCORE_VB)));
                ENCORE_NEXT;
            ENCORE_OP(FDiv):
                // IEEE division by zero yields inf/nan: well-defined.
                ENCORE_WRITE_VALUE(
                    ir::doubleToBits(ir::bitsToDouble(ENCORE_VA) /
                                     ir::bitsToDouble(ENCORE_VB)));
                ENCORE_NEXT;
            ENCORE_OP(IntToFp):
                ENCORE_WRITE_VALUE(ir::doubleToBits(
                    static_cast<double>(asSigned(ENCORE_VA))));
                ENCORE_NEXT;
            ENCORE_OP(FpToInt): {
                // Saturating conversion: NaN -> 0, +/-inf clamp like
                // hardware cvttsd2si-with-saturation semantics.
                const double d = ir::bitsToDouble(ENCORE_VA);
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
                ENCORE_WRITE_VALUE(ir::bitsToDouble(ENCORE_VA) <
                                           ir::bitsToDouble(ENCORE_VB)
                                       ? 1
                                       : 0);
                ENCORE_NEXT;
            ENCORE_OP(Select):
                ENCORE_WRITE_VALUE(ENCORE_VA ? ENCORE_VB : ENCORE_VC);
                ENCORE_NEXT;

            ENCORE_OP(Lea): {
                ir::ObjectId object;
                std::uint32_t offset;
                evalAddr(frame, inst, object, offset);
                ENCORE_WRITE_VALUE(ir::Pointer::encode(object, offset));
            }
                ENCORE_NEXT;
            ENCORE_OP(Load): {
                ir::ObjectId object;
                std::uint32_t offset;
                evalAddr(frame, inst, object, offset);
                std::uint64_t mem_mask = 0;
                if (hot_hooks_ && hooks_unfused_) {
                    mem_mask = hot_hooks_->filterMemoryOp(
                        *inst.src, false, object, offset, my_index);
                    // A rewritten offset is re-validated here: an
                    // address-bus fault that leaves the object surfaces
                    // as a runtime error, exactly like a wild access.
                    if (offset >= memory_.objectSize(object)) {
                        throw ExecError{
                            "out-of-bounds access to '" +
                            module_.object(object).name + "' at offset " +
                            std::to_string(offset)};
                    }
                }
                std::uint64_t value =
                    memory_.wordAt(object, offset) ^ mem_mask;
                if (hot_hooks_) {
                    hot_hooks_->onMemoryAccess(*inst.src, object, offset,
                                               false, my_index);
                }
                ++value_count_;
                if (hot_hooks_)
                    value = hot_hooks_->filterResult(*inst.src, my_index,
                                                     value);
                frame.regs[inst.dest] = value;
                ++frame.ip;
            }
                ENCORE_NEXT;
            ENCORE_OP(Store): {
                ir::ObjectId object;
                std::uint32_t offset;
                evalAddr(frame, inst, object, offset);
                std::uint64_t mem_mask = 0;
                if (hot_hooks_ && hooks_unfused_) {
                    mem_mask = hot_hooks_->filterMemoryOp(
                        *inst.src, true, object, offset, my_index);
                    if (offset >= memory_.objectSize(object)) {
                        throw ExecError{
                            "out-of-bounds access to '" +
                            module_.object(object).name + "' at offset " +
                            std::to_string(offset)};
                    }
                }
                memory_.setWord(object, offset, ENCORE_VA ^ mem_mask);
                if (hot_hooks_) {
                    hot_hooks_->onMemoryAccess(*inst.src, object, offset,
                                               true, my_index);
                }
                ++frame.ip;
            }
                ENCORE_NEXT;

            ENCORE_OP(Call): {
                if (inst.callee == ~0u)
                    throw ExecError{"unresolved call"};
                if (depth_ >= kMaxCallDepth)
                    throw ExecError{"call stack overflow"};
                const DecodedFunction &callee =
                    decoded_->function(inst.callee);
                ++frame.ip; // return point
                // `frame` stays valid across the push: the pool's
                // capacity is reserved to kMaxCallDepth up front.
                Frame &next = activateFrame(callee);
                const DecodedOperand *call_args =
                    frame.func->args_pool.data() + inst.args_first;
                for (std::uint32_t i = 0; i < inst.args_count; ++i)
                    next.regs[i] = fetch(frame, call_args[i]);
                next.caller_dest = inst.dest;
                memory_.pushFrame(*callee.src);
                enterBlock(next, callee.entry_block, nullptr);
            }
                ENCORE_NEXT;
            ENCORE_OP(Br): {
                const std::uint64_t cond = ENCORE_VA;
                std::uint32_t target =
                    cond ? inst.target0 : inst.target1;
                if (hot_hooks_ && hooks_unfused_) {
                    hot_hooks_->filterBranchTarget(
                        *inst.src, target,
                        static_cast<std::uint32_t>(
                            frame.func->blocks.size()),
                        my_index);
                }
                enterBlock(frame, target,
                           frame.func->blocks[frame.block].bb);
            }
                ENCORE_NEXT;
            ENCORE_OP(Jmp): {
                std::uint32_t target = inst.target0;
                if (hot_hooks_ && hooks_unfused_) {
                    hot_hooks_->filterBranchTarget(
                        *inst.src, target,
                        static_cast<std::uint32_t>(
                            frame.func->blocks.size()),
                        my_index);
                }
                enterBlock(frame, target,
                           frame.func->blocks[frame.block].bb);
            }
                ENCORE_NEXT;
            ENCORE_OP(Ret): {
                const std::uint64_t value = ENCORE_VA;
                const ir::RegId dest = frame.caller_dest;
                memory_.popFrame();
                --depth_;
                if (depth_ == 0) {
                    result.return_value = value;
                    return finish(RunResult::Status::Ok, "");
                }
                if (dest != ir::kInvalidReg)
                    frames_[depth_ - 1].regs[dest] = value;
            }
                ENCORE_NEXT;

            ENCORE_OP(RegionEnter): {
                RecoveryState &rec = frame.recovery;
                rec.log.clear();
                if (inst.region == ir::kInvalidRegion) {
                    rec.active = false;
                    rec.region = ir::kInvalidRegion;
                    rec.token = 0;
                    rec.recovery_block = kNoDecodedBlock;
                } else {
                    rec.active = true;
                    rec.region = inst.region;
                    rec.token = ++next_token_;
                    rec.recovery_block = inst.target0;
                }
                ++frame.ip;
            }
                ENCORE_NEXT;
            ENCORE_OP(CkptMem): {
                ir::ObjectId object;
                std::uint32_t offset;
                evalAddr(frame, inst, object, offset);
                const std::uint64_t value = memory_.wordAt(object, offset);
                if (frame.recovery.active) {
                    frame.recovery.log.push_back(
                        Undo{Undo::Kind::Mem, object, offset,
                             ir::kInvalidReg, value});
                }
                ++frame.ip;
            }
                ENCORE_NEXT;
            ENCORE_OP(CkptReg): {
                ENCORE_ASSERT(inst.a.slot < frame.func->num_regs,
                              "ckpt.reg needs a register operand");
                if (frame.recovery.active) {
                    frame.recovery.log.push_back(
                        Undo{Undo::Kind::Reg, ir::kInvalidObject, 0,
                             inst.a.slot, frame.regs[inst.a.slot]});
                }
                ++frame.ip;
            }
                ENCORE_NEXT;
            ENCORE_OP(Restore): {
                RecoveryState &rec = frame.recovery;
                for (auto it = rec.log.rbegin(); it != rec.log.rend();
                     ++it) {
                    if (it->kind == Undo::Kind::Mem)
                        memory_.write(it->object, it->offset, it->value);
                    else
                        frame.regs[it->reg] = it->value;
                }
                rec.log.clear();
                ++frame.ip;
            }
                ENCORE_NEXT;

            // ---- Fused sequence heads ---------------------------------
            // Components live at ip+1 .. ip+fused_len-1 of the same
            // block; the head slot's own fields are the first
            // component's.

            ENCORE_FOP(Run): {
                ENCORE_FUSE_GUARD;
                const DecodedInst *comp = &inst;
                const DecodedInst *last = &inst + inst.fused_len - 1;
                for (;;) {
                    ENCORE_FUSE_COMP(*comp);
                    if (comp == last)
                        break;
                    ++comp;
                    ENCORE_FUSE_STEP(*comp);
                }
            }
                ENCORE_NEXT;
            ENCORE_FOP(RunCmpBr): {
                // Run prefix (fused_len - 2 >= 0 components) + compare
                // + consuming branch: the loop back-edge.
                ENCORE_FUSE_GUARD;
                const DecodedInst *comp = &inst;
                const DecodedInst *cmp = &inst + inst.fused_len - 2;
                while (comp != cmp) {
                    ENCORE_FUSE_COMP(*comp);
                    ++comp;
                    ENCORE_FUSE_STEP(*comp);
                }
                // The register write always happens, even when the
                // branch is the compare's only reader: the register
                // file must be identical whether this code ran fused or
                // de-fused, because snapshot capture and the
                // golden-resync state equality compare the whole file
                // (see DESIGN.md §8).
                ENCORE_FUSE_VALUE(*cmp, applyValueOp(cmp->op,
                                                     fetch(frame, cmp->a),
                                                     fetch(frame, cmp->b),
                                                     0));
                // The pass guarantees the branch condition register is
                // the compare's destination.
                const std::uint64_t cond = frame.regs[cmp->dest];
                const DecodedInst &br = cmp[1];
                ENCORE_FUSE_STEP(br);
                enterBlock(frame, cond ? br.target0 : br.target1,
                           frame.func->blocks[frame.block].bb);
            }
                ENCORE_NEXT;

#ifndef ENCORE_COMPUTED_GOTO
              default:
                panicf("interpreter dispatch on invalid opcode ",
                       static_cast<int>(dispatch_op));
            }
#endif
        L_dispatch_done:;
        } catch (const ExecError &err) {
            // Runtime errors are execution symptoms. The hooks decide
            // whether to treat them as an immediate detection (fault
            // injection campaigns) or to surface them (golden runs).
            const bool treat_as_detection =
                hooks_ && hooks_->onRuntimeError(my_index);
            if (treat_as_detection) {
                if (!handleDetection(frames_[depth_ - 1])) {
                    return finish(RunResult::Status::DetectedUnrecoverable,
                                  err.message);
                }
                // Same outcome-sealed exit as the loop-top detection
                // site (see requestTrialStop).
                if (trial_stop_) {
                    trial_stop_ = false;
                    return finish(RunResult::Status::Ok, {});
                }
                continue;
            }
            return finish(RunResult::Status::Error, err.message);
        }
    }
}

std::uint64_t
Interpreter::applyValueOp(ir::Opcode op, std::uint64_t a, std::uint64_t b,
                          std::uint64_t c)
{
    switch (op) {
    case ir::Opcode::Mov:
        return a;
    case ir::Opcode::Add:
        return a + b;
    case ir::Opcode::Sub:
        return a - b;
    case ir::Opcode::Mul:
        return a * b;
    case ir::Opcode::Div: {
        if (b == 0)
            throw ExecError{"division by zero"};
        const std::int64_t sa = asSigned(a), sb = asSigned(b);
        if (sa == std::numeric_limits<std::int64_t>::min() && sb == -1)
            return a; // wraps, matching hardware behavior
        return fromSigned(sa / sb);
    }
    case ir::Opcode::Rem: {
        if (b == 0)
            throw ExecError{"remainder by zero"};
        const std::int64_t sa = asSigned(a), sb = asSigned(b);
        if (sa == std::numeric_limits<std::int64_t>::min() && sb == -1)
            return 0;
        return fromSigned(sa % sb);
    }
    case ir::Opcode::And:
        return a & b;
    case ir::Opcode::Or:
        return a | b;
    case ir::Opcode::Xor:
        return a ^ b;
    case ir::Opcode::Shl:
        return a << (b & 63);
    case ir::Opcode::Shr:
        return a >> (b & 63);
    case ir::Opcode::Neg:
        return fromSigned(-asSigned(a));
    case ir::Opcode::Not:
        return ~a;
    case ir::Opcode::FAdd:
        return ir::doubleToBits(ir::bitsToDouble(a) + ir::bitsToDouble(b));
    case ir::Opcode::FSub:
        return ir::doubleToBits(ir::bitsToDouble(a) - ir::bitsToDouble(b));
    case ir::Opcode::FMul:
        return ir::doubleToBits(ir::bitsToDouble(a) * ir::bitsToDouble(b));
    case ir::Opcode::FDiv:
        // IEEE division by zero yields inf/nan: well-defined.
        return ir::doubleToBits(ir::bitsToDouble(a) / ir::bitsToDouble(b));
    case ir::Opcode::IntToFp:
        return ir::doubleToBits(static_cast<double>(asSigned(a)));
    case ir::Opcode::FpToInt: {
        // Saturating conversion: NaN -> 0, +/-inf clamp like hardware
        // cvttsd2si-with-saturation semantics.
        const double d = ir::bitsToDouble(a);
        if (std::isnan(d))
            return 0;
        if (d >= 9.2e18)
            return fromSigned(std::numeric_limits<std::int64_t>::max());
        if (d <= -9.2e18)
            return fromSigned(std::numeric_limits<std::int64_t>::min());
        return fromSigned(static_cast<std::int64_t>(d));
    }
    case ir::Opcode::CmpEq:
        return a == b ? 1 : 0;
    case ir::Opcode::CmpNe:
        return a != b ? 1 : 0;
    case ir::Opcode::CmpLt:
        return asSigned(a) < asSigned(b) ? 1 : 0;
    case ir::Opcode::CmpLe:
        return asSigned(a) <= asSigned(b) ? 1 : 0;
    case ir::Opcode::CmpGt:
        return asSigned(a) > asSigned(b) ? 1 : 0;
    case ir::Opcode::CmpGe:
        return asSigned(a) >= asSigned(b) ? 1 : 0;
    case ir::Opcode::FCmpLt:
        return ir::bitsToDouble(a) < ir::bitsToDouble(b) ? 1 : 0;
    case ir::Opcode::Select:
        return a ? b : c;
    default:
        panicf("applyValueOp on non-value opcode ",
               static_cast<int>(op));
    }
    return 0; // unreachable
}

void
Interpreter::crossValueBarrier()
{
    // The de-fuse window below the barrier makes the first loop top at
    // or past it the one where value_count_ equals it exactly.
    if (value_count_ >= arm_barrier_)
        armHooks();
    if (value_count_ >= snapshot_barrier_)
        snapshot_barrier_ = recorder_->capture(*this);
    value_barrier_ = std::min(snapshot_barrier_, arm_barrier_);
    recomputeFuseLimits();
}

void
Interpreter::quiesceHooks()
{
    hot_hooks_ = nullptr;
    hooks_unfused_ = false;
    arm_barrier_ = kNoSnapshotBarrier;
    value_barrier_ = snapshot_barrier_;
    // Runs inside a detection callback: the handler in flight is
    // abandoned right after, so the new limits apply from the next
    // dispatch on.
    recomputeFuseLimits();
}

void
Interpreter::recomputeFuseLimits()
{
    // Interior boundaries of a fused sequence (after each non-final
    // component) must stay strictly below the value barrier; the worst
    // case is a maximal all-value run, kMaxFuseLen - 1 values before
    // the final component. Sequences are bounded by kMaxFuseLen source
    // instructions, bounding the budget overshoot the same way. Armed
    // hooks that need unfused dispatch (branch/memory filter points
    // exist only in the unfused handlers) or a Decoded-engine cache
    // (which has no fused heads anyway) pin the limit to 0: every head
    // then de-fuses and the trace is the one-instruction-per-dispatch
    // one.
    constexpr std::uint64_t kMaxInteriorValues = kMaxFuseLen - 1;
    constexpr std::uint64_t kMaxFusedLen = kMaxFuseLen;
    if (!decoded_->fused() || hooks_unfused_)
        fuse_value_limit_ = 0;
    else
        fuse_value_limit_ = value_barrier_ >= kMaxInteriorValues
                                ? value_barrier_ - kMaxInteriorValues
                                : 0;
    fuse_dyn_limit_ =
        max_instrs_ >= kMaxFusedLen ? max_instrs_ - kMaxFusedLen : 0;
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
        resync_entry_ = entry;
        resync_barrier_ = 0;
        resync_top_ip_ = entry->state.exec.frames.back().ip;
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
    resync_target_ = anchor;
    resync_barrier_ = anchor->exec.value_count;
    const SnapFrame &top = anchor->exec.frames.back();
    resync_top_ip_ = top.ip;
    resync_full_compares_ = 0;
    // The watch may fire only where the live cursor sits on the
    // anchor's instruction at a loop top. A fused sequence passes its
    // interior instructions without one, so the head whose span covers
    // the anchor (sequences are disjoint and never cross a block, so
    // it is the nearest head before the anchor, if that one reaches
    // it) must de-fuse on every pass where the watch could fire there.
    // Every other head stays fused: the watch then sees exactly the
    // boundaries the decoded engine sees at the anchor's instruction,
    // and fires at the same one.
    const DecodedFunction &func = decoded_->function(top.func_index);
    const std::uint32_t reach =
        std::min<std::uint32_t>(top.ip, kMaxFuseLen - 1);
    std::uint32_t head = top.ip;
    for (std::uint32_t h = top.ip; h > top.ip - reach;) {
        if (func.code[--h].fused_len > 1) {
            if (h + func.code[h].fused_len > top.ip)
                head = h;
            break;
        }
    }
    if (head == top.ip)
        return;
    resync_head_ = &func.code[head];
    // The anchor usually sits in a hot loop, and de-fusing its head on
    // every pass would cost that loop its fusion for the whole replay.
    // But the watch fires only on a pass whose top-frame registers all
    // equal the anchor's, and the components ahead of the anchor write
    // only their own destinations: every other register already holds
    // its anchor-instruction value when the head dispatches. Those are
    // pinned, and a pass that misses one (or runs at another depth)
    // stays fused — tryGoldenResync's cheap tests would reject it
    // without a side effect.
    resync_pins_.clear();
    for (std::uint32_t r = 0; r < func.num_regs; ++r) {
        bool written = false;
        for (std::uint32_t i = head; i < top.ip; ++i)
            written = written || func.code[i].dest == r;
        if (!written)
            resync_pins_.emplace_back(r, top.regs[r]);
    }
}

bool
Interpreter::resyncCouldFireInHead()
{
    if (depth_ != resync_target_->exec.frames.size())
        return false;
    const std::uint64_t *regs = frames_[depth_ - 1].regs;
    for (std::size_t i = 0; i < resync_pins_.size(); ++i) {
        if (regs[resync_pins_[i].first] != resync_pins_[i].second) {
            // Try the register that told this pass apart first next
            // time: in a loop it is usually the induction variable,
            // which then rejects each later pass in one compare.
            std::swap(resync_pins_[0], resync_pins_[i]);
            return false;
        }
    }
    return true;
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
#undef ENCORE_FOP
#undef ENCORE_NEXT
#undef ENCORE_VA
#undef ENCORE_VB
#undef ENCORE_VC
#undef ENCORE_WRITE_VALUE
#undef ENCORE_FUSE_GUARD
#undef ENCORE_FUSE_STEP
#undef ENCORE_FUSE_VALUE
#undef ENCORE_FUSE_COMP
