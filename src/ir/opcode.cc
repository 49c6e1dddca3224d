#include "ir/opcode.h"

#include <array>

#include "support/diagnostics.h"

namespace encore::ir {

namespace {

struct OpcodeInfo
{
    std::string_view name;
    bool has_dest;
    int num_operands;
    bool terminator;
    bool has_addr;
    bool pseudo;
};

constexpr std::size_t kNumOpcodes =
    static_cast<std::size_t>(Opcode::NumOpcodes);

constexpr std::array<OpcodeInfo, kNumOpcodes> kInfo = {{
    // name          dest  ops term   addr   pseudo
    {"mov",          true,  1, false, false, false},
    {"add",          true,  2, false, false, false},
    {"sub",          true,  2, false, false, false},
    {"mul",          true,  2, false, false, false},
    {"div",          true,  2, false, false, false},
    {"rem",          true,  2, false, false, false},
    {"and",          true,  2, false, false, false},
    {"or",           true,  2, false, false, false},
    {"xor",          true,  2, false, false, false},
    {"shl",          true,  2, false, false, false},
    {"shr",          true,  2, false, false, false},
    {"neg",          true,  1, false, false, false},
    {"not",          true,  1, false, false, false},
    {"fadd",         true,  2, false, false, false},
    {"fsub",         true,  2, false, false, false},
    {"fmul",         true,  2, false, false, false},
    {"fdiv",         true,  2, false, false, false},
    {"i2f",          true,  1, false, false, false},
    {"f2i",          true,  1, false, false, false},
    {"cmpeq",        true,  2, false, false, false},
    {"cmpne",        true,  2, false, false, false},
    {"cmplt",        true,  2, false, false, false},
    {"cmple",        true,  2, false, false, false},
    {"cmpgt",        true,  2, false, false, false},
    {"cmpge",        true,  2, false, false, false},
    {"fcmplt",       true,  2, false, false, false},
    {"select",       true,  3, false, false, false},
    {"lea",          true,  0, false, true,  false},
    {"load",         true,  0, false, true,  false},
    {"store",        false, 1, false, true,  false},
    {"call",         false, 0, false, false, false},
    {"br",           false, 1, true,  false, false},
    {"jmp",          false, 0, true,  false, false},
    {"ret",          false, 1, true,  false, false},
    {"region.enter", false, 0, false, false, true},
    {"ckpt.mem",     false, 0, false, true,  true},
    {"ckpt.reg",     false, 1, false, false, true},
    {"restore",      false, 0, false, false, true},
}};

const OpcodeInfo &
info(Opcode op)
{
    const auto idx = static_cast<std::size_t>(op);
    ENCORE_ASSERT(idx < kNumOpcodes, "opcode out of range");
    return kInfo[idx];
}

} // namespace

std::string_view
opcodeName(Opcode op)
{
    return info(op).name;
}

Opcode
opcodeFromName(std::string_view name)
{
    for (std::size_t i = 0; i < kNumOpcodes; ++i) {
        if (kInfo[i].name == name)
            return static_cast<Opcode>(i);
    }
    return Opcode::NumOpcodes;
}

bool
opcodeHasDest(Opcode op)
{
    return info(op).has_dest;
}

int
opcodeNumOperands(Opcode op)
{
    return info(op).num_operands;
}

bool
opcodeIsTerminator(Opcode op)
{
    return info(op).terminator;
}

bool
opcodeHasAddress(Opcode op)
{
    return info(op).has_addr;
}

bool
opcodeIsPseudo(Opcode op)
{
    return info(op).pseudo;
}

} // namespace encore::ir
