/**
 * @file
 * Operands, virtual registers, memory objects, pointer values, and
 * symbolic address expressions for the Encore IR.
 *
 * Memory is organized as a set of named MemObjects (globals or
 * function-local "stack" arrays), each an array of 64-bit words. An
 * address expression is `base + offset` where the base is either a
 * MemObject named statically, or a register holding a pointer value
 * produced by `lea` (or derived from one by integer arithmetic). This
 * split is what gives the static alias analysis something to reason
 * about — exactly the situation the paper's conservative "static alias
 * analysis" faces — while remaining fully executable.
 */
#ifndef ENCORE_IR_OPERAND_H
#define ENCORE_IR_OPERAND_H

#include <cstdint>
#include <string>

namespace encore::ir {

/// Virtual register index. Registers are function-local; arguments
/// arrive in r0..r{argc-1}.
using RegId = std::uint32_t;

constexpr RegId kInvalidReg = ~0u;

/// Identifier of a memory object; unique module-wide.
using ObjectId = std::uint32_t;

constexpr ObjectId kInvalidObject = ~0u;

/**
 * A named array of 64-bit words. Globals are owned by the Module and
 * live for the whole execution; locals are owned by a Function and are
 * (re)allocated per activation.
 */
struct MemObject
{
    ObjectId id = kInvalidObject;
    std::string name;
    std::uint32_t size = 0; ///< Capacity in 64-bit words.
    bool is_global = false;
};

/**
 * Runtime pointer encoding: object id in the high 32 bits (biased by 1
 * so that 0 is never a valid pointer) and word offset in the low 32.
 */
struct Pointer
{
    static std::uint64_t
    encode(ObjectId object, std::uint32_t offset)
    {
        return (static_cast<std::uint64_t>(object) + 1) << 32 | offset;
    }

    static bool
    isPointer(std::uint64_t value)
    {
        return (value >> 32) != 0;
    }

    static ObjectId
    object(std::uint64_t value)
    {
        return static_cast<ObjectId>((value >> 32) - 1);
    }

    static std::uint32_t
    offset(std::uint64_t value)
    {
        return static_cast<std::uint32_t>(value);
    }
};

/**
 * An instruction operand: a register, an immediate, or absent.
 */
struct Operand
{
    enum class Kind : std::uint8_t { None, Reg, Imm };

    Kind kind = Kind::None;
    RegId reg = kInvalidReg;
    std::int64_t imm = 0;

    Operand() = default;

    static Operand
    makeReg(RegId r)
    {
        Operand op;
        op.kind = Kind::Reg;
        op.reg = r;
        return op;
    }

    static Operand
    makeImm(std::int64_t value)
    {
        Operand op;
        op.kind = Kind::Imm;
        op.imm = value;
        return op;
    }

    /// Immediate holding the bit pattern of a double (for FP opcodes).
    static Operand makeFpImm(double value);

    static Operand
    none()
    {
        return Operand();
    }

    bool isReg() const { return kind == Kind::Reg; }
    bool isImm() const { return kind == Kind::Imm; }
    bool isNone() const { return kind == Kind::None; }

    bool
    operator==(const Operand &other) const
    {
        if (kind != other.kind)
            return false;
        switch (kind) {
          case Kind::None:
            return true;
          case Kind::Reg:
            return reg == other.reg;
          case Kind::Imm:
            return imm == other.imm;
        }
        return false;
    }
};

/**
 * Symbolic address expression `base + offset` (word granularity).
 *
 * The base is either a statically named MemObject or a register that
 * holds a pointer at runtime. The offset is a register or immediate.
 */
struct AddrExpr
{
    enum class BaseKind : std::uint8_t { None, Object, Reg };

    BaseKind base_kind = BaseKind::None;
    ObjectId object = kInvalidObject;
    RegId base_reg = kInvalidReg;
    Operand offset = Operand::makeImm(0);

    AddrExpr() = default;

    static AddrExpr
    makeObject(ObjectId obj, Operand off = Operand::makeImm(0))
    {
        AddrExpr a;
        a.base_kind = BaseKind::Object;
        a.object = obj;
        a.offset = off;
        return a;
    }

    static AddrExpr
    makeReg(RegId base, Operand off = Operand::makeImm(0))
    {
        AddrExpr a;
        a.base_kind = BaseKind::Reg;
        a.base_reg = base;
        a.offset = off;
        return a;
    }

    bool isObjectBase() const { return base_kind == BaseKind::Object; }
    bool isRegBase() const { return base_kind == BaseKind::Reg; }
    bool isNone() const { return base_kind == BaseKind::None; }
};

/// Reinterprets a register value as a double (FP opcodes).
double bitsToDouble(std::uint64_t bits);

/// Reinterprets a double as a register value.
std::uint64_t doubleToBits(double value);

} // namespace encore::ir

#endif // ENCORE_IR_OPERAND_H
