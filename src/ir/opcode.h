/**
 * @file
 * Opcode enumeration and static opcode properties for the Encore IR.
 *
 * The IR is a compact, non-SSA register machine: enough surface to write
 * realistic workloads (integer/floating arithmetic, loads/stores through
 * symbolic address expressions, calls, structured and unstructured control
 * flow) while keeping the dataflow analyses of the paper tractable and
 * readable. The last four opcodes are the Encore runtime pseudo-ops that
 * the instrumentation pass of §3.2 inserts; they are no-ops for program
 * semantics and are interpreted by the recovery runtime.
 */
#ifndef ENCORE_IR_OPCODE_H
#define ENCORE_IR_OPCODE_H

#include <cstdint>
#include <string_view>

namespace encore::ir {

enum class Opcode : std::uint8_t {
    // Data movement and integer arithmetic: dest = op(a [, b]).
    Mov,
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    And,
    Or,
    Xor,
    Shl,
    Shr,
    Neg,
    Not,

    // Floating point (registers hold the bit pattern of a double).
    FAdd,
    FSub,
    FMul,
    FDiv,
    IntToFp,
    FpToInt,

    // Comparisons produce 0/1. The F-variant compares as doubles.
    CmpEq,
    CmpNe,
    CmpLt,
    CmpLe,
    CmpGt,
    CmpGe,
    FCmpLt,

    // dest = a ? b : c
    Select,

    // Memory. Lea materializes a pointer to an address expression;
    // Load/Store access one 64-bit word.
    Lea,
    Load,
    Store,

    // Direct call; arguments are copied into the callee's r0..rN-1.
    Call,

    // Terminators.
    Br,  // conditional: a != 0 -> succ0 else succ1
    Jmp, // unconditional -> succ0
    Ret, // optional operand a is the return value

    // Encore recovery runtime pseudo-ops (§3.2). Inserted by the
    // Instrumenter, executed by the interpreter's recovery runtime.
    RegionEnter, // publish recovery target, reset checkpoint buffer
    CkptMem,     // save (address, current word) into the active buffer
    CkptReg,     // save (register, current value) into the active buffer
    Restore,     // undo the active buffer in reverse order

    NumOpcodes,
};

/// Mnemonic used by the printer and parser, e.g. "add", "ckpt.mem".
std::string_view opcodeName(Opcode op);

/// Parses a mnemonic; returns NumOpcodes if unrecognized.
Opcode opcodeFromName(std::string_view name);

/// True if the opcode defines a destination register.
bool opcodeHasDest(Opcode op);

/// Number of register/immediate operands the opcode consumes (excluding
/// call arguments and address expressions).
int opcodeNumOperands(Opcode op);

/// True for Br/Jmp/Ret, which must terminate a basic block.
bool opcodeIsTerminator(Opcode op);

/// True if the opcode carries an address expression operand.
bool opcodeHasAddress(Opcode op);

/// True for the recovery-runtime pseudo-ops.
bool opcodeIsPseudo(Opcode op);

} // namespace encore::ir

#endif // ENCORE_IR_OPCODE_H
