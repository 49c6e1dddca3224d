#include "interp/reference.h"

#include <cmath>
#include <limits>

#include "support/diagnostics.h"

namespace encore::interp {

ReferenceInterpreter::ReferenceInterpreter(const ir::Module &module)
    : module_(module), memory_(module)
{
}

std::uint64_t
ReferenceInterpreter::evalOperand(const Frame &frame, const ir::Operand &op) const
{
    switch (op.kind) {
      case ir::Operand::Kind::Reg:
        return frame.regs[op.reg];
      case ir::Operand::Kind::Imm:
        return static_cast<std::uint64_t>(op.imm);
      case ir::Operand::Kind::None:
        return 0;
    }
    return 0;
}

void
ReferenceInterpreter::evalAddr(const Frame &frame, const ir::AddrExpr &addr,
                      ir::ObjectId &object, std::uint32_t &offset) const
{
    std::int64_t off =
        static_cast<std::int64_t>(evalOperand(frame, addr.offset));

    if (addr.isObjectBase()) {
        object = addr.object;
    } else if (addr.isRegBase()) {
        const std::uint64_t ptr = frame.regs[addr.base_reg];
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

namespace {

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

std::uint64_t
ReferenceInterpreter::execValueOp(Frame &frame, const ir::Instruction &inst)
{
    using ir::Opcode;
    const std::uint64_t a = evalOperand(frame, inst.a());
    const std::uint64_t b = evalOperand(frame, inst.b());

    switch (inst.opcode()) {
      case Opcode::Mov:
        return a;
      case Opcode::Add:
        return a + b;
      case Opcode::Sub:
        return a - b;
      case Opcode::Mul:
        return a * b;
      case Opcode::Div: {
        if (b == 0)
            throw ExecError{"division by zero"};
        const std::int64_t sa = asSigned(a), sb = asSigned(b);
        if (sa == std::numeric_limits<std::int64_t>::min() && sb == -1)
            return a; // wraps, matching hardware behavior
        return fromSigned(sa / sb);
      }
      case Opcode::Rem: {
        if (b == 0)
            throw ExecError{"remainder by zero"};
        const std::int64_t sa = asSigned(a), sb = asSigned(b);
        if (sa == std::numeric_limits<std::int64_t>::min() && sb == -1)
            return 0;
        return fromSigned(sa % sb);
      }
      case Opcode::And:
        return a & b;
      case Opcode::Or:
        return a | b;
      case Opcode::Xor:
        return a ^ b;
      case Opcode::Shl:
        return a << (b & 63);
      case Opcode::Shr:
        return a >> (b & 63);
      case Opcode::Neg:
        return fromSigned(-asSigned(a));
      case Opcode::Not:
        return ~a;
      case Opcode::FAdd:
        return ir::doubleToBits(ir::bitsToDouble(a) + ir::bitsToDouble(b));
      case Opcode::FSub:
        return ir::doubleToBits(ir::bitsToDouble(a) - ir::bitsToDouble(b));
      case Opcode::FMul:
        return ir::doubleToBits(ir::bitsToDouble(a) * ir::bitsToDouble(b));
      case Opcode::FDiv: {
        // IEEE division by zero yields inf/nan, which is well-defined.
        return ir::doubleToBits(ir::bitsToDouble(a) / ir::bitsToDouble(b));
      }
      case Opcode::IntToFp:
        return ir::doubleToBits(static_cast<double>(asSigned(a)));
      case Opcode::FpToInt: {
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
      case Opcode::CmpEq:
        return a == b ? 1 : 0;
      case Opcode::CmpNe:
        return a != b ? 1 : 0;
      case Opcode::CmpLt:
        return asSigned(a) < asSigned(b) ? 1 : 0;
      case Opcode::CmpLe:
        return asSigned(a) <= asSigned(b) ? 1 : 0;
      case Opcode::CmpGt:
        return asSigned(a) > asSigned(b) ? 1 : 0;
      case Opcode::CmpGe:
        return asSigned(a) >= asSigned(b) ? 1 : 0;
      case Opcode::FCmpLt:
        return ir::bitsToDouble(a) < ir::bitsToDouble(b) ? 1 : 0;
      case Opcode::Select:
        return a ? b : evalOperand(frame, inst.c());
      default:
        panicf("execValueOp on non-value opcode '",
               ir::opcodeName(inst.opcode()), "'");
    }
}

void
ReferenceInterpreter::enterBlock(Frame &frame, const ir::BasicBlock *block)
{
    frame.block = block;
    frame.ip = block->instructions().begin();
}

bool
ReferenceInterpreter::handleDetection(Frame &frame)
{
    RecoveryState &rec = frame.recovery;
    if (!rec.active || !rec.recovery_block) {
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
    enterBlock(frame, rec.recovery_block);
    return true;
}

std::uint64_t
ReferenceInterpreter::currentRegionToken() const
{
    if (frames_.empty())
        return 0;
    const RecoveryState &rec = frames_.back().recovery;
    return rec.active ? rec.token : 0;
}

ir::RegionId
ReferenceInterpreter::currentRegionId() const
{
    if (frames_.empty())
        return ir::kInvalidRegion;
    const RecoveryState &rec = frames_.back().recovery;
    return rec.active ? rec.region : ir::kInvalidRegion;
}

RunResult
ReferenceInterpreter::run(const std::string &func_name,
                 const std::vector<std::uint64_t> &args)
{
    RunResult result;
    const ir::Function *func = module_.functionByName(func_name);
    if (!func)
        fatalf("run: no function named '", func_name, "'");
    ENCORE_ASSERT(args.size() == func->numParams(),
                  "argument count mismatch for '" + func_name + "'");

    memory_.reset();
    frames_.clear();
    dyn_count_ = 0;
    value_count_ = 0;
    overhead_count_ = 0;
    rollback_count_ = 0;
    next_token_ = 0;

    auto finish = [&](RunResult::Status status, const std::string &error) {
        result.status = status;
        result.error = error;
        result.dyn_instrs = dyn_count_;
        result.overhead_instrs = overhead_count_;
        result.value_instrs = value_count_;
        result.rollbacks = rollback_count_;
        result.globals = memory_.snapshotGlobals();
        return result;
    };

    // Set up the initial frame.
    {
        Frame frame;
        frame.func = func;
        frame.regs.assign(func->numRegs(), 0);
        for (std::size_t i = 0; i < args.size(); ++i)
            frame.regs[i] = args[i];
        memory_.pushFrame(*func);
        frames_.push_back(std::move(frame));
        enterBlock(frames_.back(), func->entry());
    }

    while (true) {
        if (dyn_count_ >= max_instrs_)
            return finish(RunResult::Status::InstructionLimit,
                          "instruction limit exceeded");

        Frame &frame = frames_.back();

        ENCORE_ASSERT(frame.ip != frame.block->instructions().end(),
                      "fell off the end of a basic block");
        const ir::Instruction &inst = *frame.ip;

        if (hooks_ && hooks_->shouldTriggerDetection(inst, dyn_count_)) {
            if (!handleDetection(frame)) {
                return finish(RunResult::Status::DetectedUnrecoverable,
                              "fault detected outside any active region");
            }
            continue;
        }

        const std::uint64_t my_index = dyn_count_;
        ++dyn_count_;
        if (inst.isPseudo())
            ++overhead_count_;

        try {
            using ir::Opcode;
            switch (inst.opcode()) {
              case Opcode::Load: {
                ir::ObjectId object;
                std::uint32_t offset;
                evalAddr(frame, inst.addr(), object, offset);
                std::uint64_t value = 0;
                memory_.read(object, offset, value);
                ++value_count_;
                if (hooks_)
                    value = hooks_->filterResult(inst, my_index, value);
                frame.regs[inst.dest()] = value;
                ++frame.ip;
                break;
              }
              case Opcode::Lea: {
                ir::ObjectId object;
                std::uint32_t offset;
                evalAddr(frame, inst.addr(), object, offset);
                std::uint64_t value = ir::Pointer::encode(object, offset);
                ++value_count_;
                if (hooks_)
                    value = hooks_->filterResult(inst, my_index, value);
                frame.regs[inst.dest()] = value;
                ++frame.ip;
                break;
              }
              case Opcode::Store: {
                ir::ObjectId object;
                std::uint32_t offset;
                evalAddr(frame, inst.addr(), object, offset);
                memory_.write(object, offset,
                              evalOperand(frame, inst.a()));
                ++frame.ip;
                break;
              }
              case Opcode::Call: {
                const ir::Function *callee = inst.callee();
                if (!callee)
                    throw ExecError{"unresolved call"};
                if (frames_.size() >= 512)
                    throw ExecError{"call stack overflow"};
                Frame next;
                next.func = callee;
                next.regs.assign(callee->numRegs(), 0);
                for (std::size_t i = 0; i < inst.args().size(); ++i)
                    next.regs[i] = evalOperand(frame, inst.args()[i]);
                next.caller_dest =
                    inst.hasDest() ? inst.dest() : ir::kInvalidReg;
                ++frame.ip; // return point
                memory_.pushFrame(*callee);
                frames_.push_back(std::move(next));
                enterBlock(frames_.back(), callee->entry());
                break;
              }
              case Opcode::Br: {
                const std::uint64_t cond = evalOperand(frame, inst.a());
                enterBlock(frame, cond ? inst.succ0() : inst.succ1());
                break;
              }
              case Opcode::Jmp:
                enterBlock(frame, inst.succ0());
                break;
              case Opcode::Ret: {
                const std::uint64_t value = evalOperand(frame, inst.a());
                const ir::RegId dest = frame.caller_dest;
                memory_.popFrame();
                frames_.pop_back();
                if (frames_.empty()) {
                    result.return_value = value;
                    return finish(RunResult::Status::Ok, "");
                }
                if (dest != ir::kInvalidReg)
                    frames_.back().regs[dest] = value;
                break;
              }
              case Opcode::RegionEnter: {
                RecoveryState &rec = frame.recovery;
                rec.log.clear();
                if (inst.regionId() == ir::kInvalidRegion) {
                    rec.active = false;
                    rec.region = ir::kInvalidRegion;
                    rec.token = 0;
                    rec.recovery_block = nullptr;
                } else {
                    rec.active = true;
                    rec.region = inst.regionId();
                    rec.token = ++next_token_;
                    rec.recovery_block = inst.succ0();
                }
                ++frame.ip;
                break;
              }
              case Opcode::CkptMem: {
                ir::ObjectId object;
                std::uint32_t offset;
                evalAddr(frame, inst.addr(), object, offset);
                std::uint64_t value = 0;
                memory_.read(object, offset, value);
                if (frame.recovery.active) {
                    frame.recovery.log.push_back(
                        Undo{Undo::Kind::Mem, object, offset,
                             ir::kInvalidReg, value});
                }
                ++frame.ip;
                break;
              }
              case Opcode::CkptReg: {
                ENCORE_ASSERT(inst.a().isReg(),
                              "ckpt.reg needs a register operand");
                if (frame.recovery.active) {
                    frame.recovery.log.push_back(
                        Undo{Undo::Kind::Reg, ir::kInvalidObject, 0,
                             inst.a().reg, frame.regs[inst.a().reg]});
                }
                ++frame.ip;
                break;
              }
              case Opcode::Restore: {
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
                break;
              }
              default: {
                std::uint64_t value = execValueOp(frame, inst);
                ++value_count_;
                if (hooks_)
                    value = hooks_->filterResult(inst, my_index, value);
                frame.regs[inst.dest()] = value;
                ++frame.ip;
                break;
              }
            }
        } catch (const ExecError &err) {
            // Runtime errors are execution symptoms. The hooks decide
            // whether to treat them as an immediate detection (fault
            // injection campaigns) or to surface them (golden runs).
            const bool treat_as_detection =
                hooks_ && hooks_->onRuntimeError(my_index);
            if (treat_as_detection) {
                if (!handleDetection(frames_.back())) {
                    return finish(RunResult::Status::DetectedUnrecoverable,
                                  err.message);
                }
                continue;
            }
            return finish(RunResult::Status::Error, err.message);
        }
    }
}

} // namespace encore::interp
