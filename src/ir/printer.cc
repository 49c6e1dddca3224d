#include "ir/printer.h"

#include <ostream>
#include <sstream>

#include "support/diagnostics.h"

namespace encore::ir {

namespace {

/// Prints a register as rN.
std::string
regName(RegId reg)
{
    return std::string("r").append(std::to_string(reg));
}

/// Prints an object reference: @name for globals, %short for locals of
/// the containing function.
std::string
objectRef(const Module &module, const Function &func, ObjectId id)
{
    const MemObject &obj = module.object(id);
    if (obj.is_global)
        return "@" + obj.name;
    const std::string prefix = func.name() + ".";
    ENCORE_ASSERT(obj.name.rfind(prefix, 0) == 0,
                  "local object referenced outside its function");
    return std::string("%").append(obj.name, prefix.size());
}

std::string
operandText(const Operand &op)
{
    switch (op.kind) {
      case Operand::Kind::None:
        return "<none>";
      case Operand::Kind::Reg:
        return regName(op.reg);
      case Operand::Kind::Imm:
        return std::to_string(op.imm);
    }
    return "<bad>";
}

std::string
addrText(const Module &module, const Function &func, const AddrExpr &addr)
{
    std::string base;
    switch (addr.base_kind) {
      case AddrExpr::BaseKind::Object:
        base = objectRef(module, func, addr.object);
        break;
      case AddrExpr::BaseKind::Reg:
        base = regName(addr.base_reg);
        break;
      case AddrExpr::BaseKind::None:
        return "[<none>]";
    }
    if (addr.offset.isImm() && addr.offset.imm == 0)
        return "[" + base + "]";
    return "[" + base + " + " + operandText(addr.offset) + "]";
}

} // namespace

std::string
printInstruction(const Module &module, const Function &func,
                 const Instruction &inst)
{
    std::ostringstream os;
    const Opcode op = inst.opcode();

    switch (op) {
      case Opcode::Load:
        os << regName(inst.dest()) << " = load "
           << addrText(module, func, inst.addr());
        return os.str();
      case Opcode::Lea:
        os << regName(inst.dest()) << " = lea "
           << addrText(module, func, inst.addr());
        return os.str();
      case Opcode::Store:
        os << "store " << addrText(module, func, inst.addr()) << ", "
           << operandText(inst.a());
        return os.str();
      case Opcode::Call: {
        if (inst.hasDest())
            os << regName(inst.dest()) << " = ";
        os << "call @" << inst.calleeName() << "(";
        for (std::size_t i = 0; i < inst.args().size(); ++i) {
            if (i)
                os << ", ";
            os << operandText(inst.args()[i]);
        }
        os << ")";
        return os.str();
      }
      case Opcode::Br:
        os << "br " << operandText(inst.a()) << ", "
           << inst.succ0()->name() << ", " << inst.succ1()->name();
        return os.str();
      case Opcode::Jmp:
        os << "jmp " << inst.succ0()->name();
        return os.str();
      case Opcode::Ret:
        os << "ret";
        if (!inst.a().isNone())
            os << " " << operandText(inst.a());
        return os.str();
      case Opcode::RegionEnter:
        os << "region.enter " << inst.regionId();
        return os.str();
      case Opcode::CkptMem:
        os << "ckpt.mem " << addrText(module, func, inst.addr());
        return os.str();
      case Opcode::CkptReg:
        os << "ckpt.reg " << operandText(inst.a());
        return os.str();
      case Opcode::Restore:
        os << "restore " << inst.regionId();
        return os.str();
      default:
        break;
    }

    // Generic register-to-register form: dest = op a [, b [, c]].
    os << regName(inst.dest()) << " = " << opcodeName(op);
    const int n = opcodeNumOperands(op);
    for (int i = 0; i < n; ++i) {
        os << (i ? ", " : " ");
        const Operand &operand = i == 0 ? inst.a()
                               : i == 1 ? inst.b()
                                        : inst.c();
        os << operandText(operand);
    }
    return os.str();
}

void
printFunction(std::ostream &os, const Module &module, const Function &func)
{
    os << "func @" << func.name() << "(" << func.numParams() << ") {\n";
    for (ObjectId id : func.localObjects()) {
        const MemObject &obj = module.object(id);
        const std::string prefix = func.name() + ".";
        os << "  local %" << obj.name.substr(prefix.size()) << " "
           << obj.size << "\n";
    }
    for (unsigned p = 0; p < func.numParams(); ++p) {
        const auto *targets = func.paramPointsTo(p);
        if (!targets)
            continue;
        os << "  points r" << p << " ->";
        for (std::size_t i = 0; i < targets->size(); ++i) {
            os << (i ? ", " : " ")
               << objectRef(module, func, (*targets)[i]);
        }
        os << "\n";
    }
    for (const auto &bb : func.blocks()) {
        os << "  bb " << bb->name() << ":\n";
        for (const auto &inst : bb->instructions())
            os << "    " << printInstruction(module, func, inst) << "\n";
    }
    os << "}\n";
}

void
printModule(std::ostream &os, const Module &module)
{
    os << "module \"" << module.name() << "\"\n";
    for (const MemObject &obj : module.objects()) {
        if (obj.is_global)
            os << "global @" << obj.name << " " << obj.size << "\n";
    }
    for (const auto &func : module.functions()) {
        os << "\n";
        printFunction(os, module, *func);
    }
}

std::string
moduleToString(const Module &module)
{
    std::ostringstream os;
    printModule(os, module);
    return os.str();
}

} // namespace encore::ir
