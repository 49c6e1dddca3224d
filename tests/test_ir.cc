/**
 * @file
 * Unit tests for the IR: opcode metadata, builder, module structure,
 * printer/parser round-trips, parse errors, and the verifier.
 */
#include <gtest/gtest.h>

#include "ir/builder.h"
#include "ir/parser.h"
#include "ir/printer.h"
#include "ir/verifier.h"

namespace encore::ir {
namespace {

TEST(Opcode, NamesRoundTrip)
{
    for (std::size_t i = 0;
         i < static_cast<std::size_t>(Opcode::NumOpcodes); ++i) {
        const auto op = static_cast<Opcode>(i);
        EXPECT_EQ(opcodeFromName(opcodeName(op)), op);
    }
    EXPECT_EQ(opcodeFromName("nonsense"), Opcode::NumOpcodes);
}

TEST(Opcode, Properties)
{
    EXPECT_TRUE(opcodeHasDest(Opcode::Add));
    EXPECT_FALSE(opcodeHasDest(Opcode::Store));
    EXPECT_TRUE(opcodeIsTerminator(Opcode::Br));
    EXPECT_TRUE(opcodeIsTerminator(Opcode::Ret));
    EXPECT_FALSE(opcodeIsTerminator(Opcode::Mov));
    EXPECT_TRUE(opcodeReadsMemory(Opcode::Load));
    EXPECT_TRUE(opcodeWritesMemory(Opcode::Store));
    EXPECT_TRUE(opcodeHasAddress(Opcode::Lea));
    EXPECT_TRUE(opcodeIsPseudo(Opcode::RegionEnter));
    EXPECT_TRUE(opcodeIsPseudo(Opcode::CkptMem));
    EXPECT_FALSE(opcodeIsPseudo(Opcode::Store));
}

TEST(PointerEncoding, RoundTrip)
{
    const std::uint64_t ptr = Pointer::encode(7, 123);
    EXPECT_TRUE(Pointer::isPointer(ptr));
    EXPECT_EQ(Pointer::object(ptr), 7u);
    EXPECT_EQ(Pointer::offset(ptr), 123u);
    EXPECT_FALSE(Pointer::isPointer(42));
    EXPECT_FALSE(Pointer::isPointer(0));
}

TEST(Builder, ConstructsFunction)
{
    Module module("test");
    IRBuilder b(&module);
    const ObjectId g = b.global("G", 16);

    b.beginFunction("main", 1);
    BasicBlock *exit = b.newBlock("exit");
    const RegId sum = b.add(IRBuilder::reg(0), IRBuilder::imm(5));
    b.store(AddrExpr::makeObject(g, IRBuilder::imm(3)),
            IRBuilder::reg(sum));
    b.jmp(exit);
    b.setInsertPoint(exit);
    b.ret(IRBuilder::reg(sum));
    b.endFunction();

    Function *f = module.functionByName("main");
    ASSERT_NE(f, nullptr);
    EXPECT_EQ(f->numBlocks(), 2u);
    EXPECT_EQ(f->entry()->name(), "entry");
    EXPECT_GE(f->numRegs(), 2u);
    EXPECT_EQ(f->instructionCount(), 4u);
    EXPECT_TRUE(verifyModule(module).empty());
}

TEST(Builder, CfgEdges)
{
    Module module;
    IRBuilder b(&module);
    b.beginFunction("f", 0);
    BasicBlock *t = b.newBlock("then");
    BasicBlock *e = b.newBlock("else");
    BasicBlock *join = b.newBlock("join");
    const RegId c = b.mov(IRBuilder::imm(1));
    b.br(IRBuilder::reg(c), t, e);
    b.setInsertPoint(t);
    b.jmp(join);
    b.setInsertPoint(e);
    b.jmp(join);
    b.setInsertPoint(join);
    b.ret();
    b.endFunction();

    Function *f = module.functionByName("f");
    EXPECT_EQ(f->entry()->successors().size(), 2u);
    EXPECT_EQ(join->predecessors().size(), 2u);
    EXPECT_TRUE(f->entry()->predecessors().empty());
}

TEST(ModuleTest, ObjectsAndLookup)
{
    Module module;
    IRBuilder b(&module);
    const ObjectId g = b.global("table", 64);
    b.beginFunction("f", 0);
    const ObjectId l = b.local("buf", 8);
    b.ret();
    b.endFunction();

    EXPECT_TRUE(module.object(g).is_global);
    EXPECT_FALSE(module.object(l).is_global);
    EXPECT_EQ(module.object(l).name, "f.buf");
    EXPECT_EQ(module.objectByName("table"), g);
    EXPECT_EQ(module.objectByName("f.buf"), l);
    EXPECT_EQ(module.objectByName("nothing"), kInvalidObject);
    ASSERT_EQ(module.functionByName("f")->localObjects().size(), 1u);
}

const char *kSampleText = R"(
module "sample"
global @G 32

func @helper(1) {
  bb entry:
    r1 = mul r0, r0
    ret r1
}

func @main(2) {
  local %buf 8
  points r1 -> @G
  bb entry:
    r2 = add r0, 1
    r3 = load [@G + r2]
    store [%buf + 3], r3
    r4 = lea [%buf]
    r5 = load [r4 + 1]
    r6 = call @helper(r5)
    br r6, hot, cold
  bb hot:
    store [r1 + 2], r6
    jmp done
  bb cold:
    call @helper(0)
    jmp done
  bb done:
    ret r6
}
)";

TEST(Parser, ParsesSample)
{
    auto module = parseModule(kSampleText);
    ASSERT_NE(module, nullptr);
    EXPECT_EQ(module->name(), "sample");
    ASSERT_NE(module->functionByName("main"), nullptr);
    ASSERT_NE(module->functionByName("helper"), nullptr);

    Function *main = module->functionByName("main");
    EXPECT_EQ(main->numBlocks(), 4u);
    EXPECT_EQ(main->numParams(), 2u);
    ASSERT_NE(main->paramPointsTo(1), nullptr);
    EXPECT_EQ(main->paramPointsTo(1)->size(), 1u);
    EXPECT_TRUE(verifyModule(*module).empty());

    // Calls resolved.
    const auto &entry = main->entry()->instructions();
    bool found_call = false;
    for (const auto &inst : entry) {
        if (inst.opcode() == Opcode::Call) {
            found_call = true;
            EXPECT_EQ(inst.callee()->name(), "helper");
        }
    }
    EXPECT_TRUE(found_call);
}

TEST(Parser, RoundTripsThroughPrinter)
{
    auto module = parseModule(kSampleText);
    const std::string printed = moduleToString(*module);
    auto reparsed = parseModule(printed);
    EXPECT_EQ(moduleToString(*reparsed), printed);
}

TEST(Parser, PseudoOpsRoundTrip)
{
    const char *text = R"(
module "m"
global @A 4
func @f(0) {
  bb entry:
    region.enter 3
    ckpt.reg r1
    ckpt.mem [@A + 2]
    r1 = mov 7
    store [@A + 2], r1
    ret r1
  bb rec:
    restore 3
    jmp entry
}
)";
    auto module = parseModule(text);
    const std::string printed = moduleToString(*module);
    auto reparsed = parseModule(printed);
    EXPECT_EQ(moduleToString(*reparsed), printed);

    const auto &instrs = module->functionByName("f")->entry()->instructions();
    EXPECT_EQ(instrs.front().opcode(), Opcode::RegionEnter);
    EXPECT_EQ(instrs.front().regionId(), 3u);
}

TEST(Parser, FpImmediates)
{
    const char *text = R"(
module "m"
func @f(0) {
  bb entry:
    r0 = mov f:2.5
    r1 = fadd r0, f:0.5
    ret r1
}
)";
    auto module = parseModule(text);
    const auto &first =
        module->functionByName("f")->entry()->instructions().front();
    EXPECT_DOUBLE_EQ(bitsToDouble(static_cast<std::uint64_t>(first.a().imm)),
                     2.5);
}

TEST(Parser, ErrorsOnUnknownBlock)
{
    const char *text = R"(
module "m"
func @f(0) {
  bb entry:
    jmp nowhere
}
)";
    EXPECT_THROW(parseModule(text), ParseError);
}

TEST(Parser, ErrorsOnUnknownOpcode)
{
    const char *text = R"(
module "m"
func @f(0) {
  bb entry:
    r1 = frobnicate 1, 2
    ret
}
)";
    EXPECT_THROW(parseModule(text), ParseError);
}

TEST(Parser, ErrorsOnUnknownCallee)
{
    const char *text = R"(
module "m"
func @f(0) {
  bb entry:
    call @missing()
    ret
}
)";
    EXPECT_THROW(parseModule(text), ParseError);
}

TEST(Parser, ErrorsOnBadOperandCount)
{
    const char *text = R"(
module "m"
func @f(0) {
  bb entry:
    r1 = add 1
    ret
}
)";
    EXPECT_THROW(parseModule(text), ParseError);
}

TEST(Parser, ErrorsOnUnknownObject)
{
    const char *text = R"(
module "m"
func @f(0) {
  bb entry:
    r1 = load [@nope]
    ret
}
)";
    EXPECT_THROW(parseModule(text), ParseError);
}

TEST(Parser, ErrorsOnDuplicateNamesAndOversizedObjects)
{
    // Each text reaches a builder precondition (unique names, a size
    // that fits 32 bits); the parser must reject it with a ParseError
    // instead of letting the builder abort the process.
    const struct
    {
        const char *message;
        const char *text;
    } cases[] = {
        {"line 6: duplicate block label 'entry'", R"(
module "m"
func @f(0) {
  bb entry:
    jmp entry
  bb entry:
    ret
}
)"},
        {"line 4: duplicate object name 'g'", R"(
module "m"
global @g 4
global @g 8
)"},
        {"line 7: duplicate function name 'f'", R"(
module "m"
func @f(0) {
  bb entry:
    ret
}
func @f(0) {
  bb entry:
    ret
}
)"},
        {"line 5: duplicate object name 'f.x'", R"(
module "m"
func @f(0) {
  local %x 1
  local %x 2
  bb entry:
    ret
}
)"},
        {"line 5: duplicate object name 'main.x'", R"(
module "m"
global @main.x 1
func @main(0) {
  local %x 1
  bb entry:
    ret
}
)"},
        {"line 3: global size must be a positive integer below 2^32",
         R"(
module "m"
global @g 4294967296
)"},
        {"line 4: local size must be a positive integer below 2^32",
         R"(
module "m"
func @f(0) {
  local %x 4294967296
  bb entry:
    ret
}
)"},
    };
    for (const auto &c : cases) {
        SCOPED_TRACE(c.message);
        try {
            parseModule(c.text);
            ADD_FAILURE() << "no ParseError";
        } catch (const ParseError &e) {
            EXPECT_EQ(std::string(e.what()), c.message);
        }
    }
}

TEST(Verifier, CatchesMissingTerminator)
{
    Module module;
    IRBuilder b(&module);
    b.beginFunction("f", 0);
    b.mov(IRBuilder::imm(1)); // no terminator
    b.endFunction();
    const auto problems = verifyModule(module);
    ASSERT_FALSE(problems.empty());
    EXPECT_NE(problems.front().find("terminator"), std::string::npos);
}

TEST(Verifier, CatchesOutOfBoundsConstantOffset)
{
    Module module;
    IRBuilder b(&module);
    const ObjectId g = b.global("G", 4);
    b.beginFunction("f", 0);
    b.load(AddrExpr::makeObject(g, IRBuilder::imm(9)));
    b.ret();
    b.endFunction();
    const auto problems = verifyModule(module);
    ASSERT_FALSE(problems.empty());
    EXPECT_NE(problems.front().find("out of bounds"), std::string::npos);
}

TEST(Verifier, CatchesArgCountMismatch)
{
    const char *text = R"(
module "m"
func @callee(2) {
  bb entry:
    ret r0
}
func @f(0) {
  bb entry:
    r1 = call @callee(5)
    ret r1
}
)";
    auto module = parseModule(text);
    const auto problems = verifyModule(*module);
    ASSERT_FALSE(problems.empty());
    EXPECT_NE(problems.front().find("passes 1 args"), std::string::npos);
}

TEST(InstructionTest, InsertBeforeKeepsAddressesStable)
{
    Module module;
    IRBuilder b(&module);
    const ObjectId g = b.global("G", 4);
    b.beginFunction("f", 0);
    const RegId v = b.mov(IRBuilder::imm(1));
    b.store(AddrExpr::makeObject(g, IRBuilder::imm(0)), IRBuilder::reg(v));
    b.ret();
    b.endFunction();

    Function *f = module.functionByName("f");
    BasicBlock *entry = f->entry();
    // Find the store and keep a pointer to it.
    Instruction *store = nullptr;
    for (auto &inst : entry->instructions()) {
        if (inst.opcode() == Opcode::Store)
            store = &inst;
    }
    ASSERT_NE(store, nullptr);

    Instruction ckpt(Opcode::CkptMem);
    ckpt.setAddr(store->addr());
    entry->insertBefore(store, std::move(ckpt));

    // The pointer must still identify the same store instruction.
    EXPECT_EQ(store->opcode(), Opcode::Store);
    EXPECT_EQ(entry->size(), 4u);
    auto it = entry->instructions().begin();
    ++it; // mov
    EXPECT_EQ(it->opcode(), Opcode::CkptMem);
}

} // namespace
} // namespace encore::ir
