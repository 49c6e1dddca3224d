#include "ir/parser.h"

#include <cstdint>
#include <cstdlib>
#include <sstream>
#include <vector>

#include "support/strings.h"

namespace encore::ir {

namespace {

/**
 * Line-oriented recursive-descent parser. State is the module under
 * construction plus the current function while inside `func { }`.
 */
class ParserImpl
{
  public:
    explicit ParserImpl(const std::string &text)
        : module_(std::make_unique<Module>())
    {
        std::istringstream stream(text);
        std::string raw;
        while (std::getline(stream, raw)) {
            ++line_no_;
            const std::size_t hash = raw.find('#');
            if (hash != std::string::npos)
                raw.erase(hash);
            const std::string line{trim(raw)};
            if (!line.empty())
                lines_.push_back({line_no_, line});
        }
    }

    std::unique_ptr<Module>
    run()
    {
        while (pos_ < lines_.size()) {
            const auto &[num, line] = lines_[pos_];
            if (startsWith(line, "module ")) {
                parseModuleHeader(line);
                ++pos_;
            } else if (startsWith(line, "global ")) {
                parseGlobal(line);
                ++pos_;
            } else if (startsWith(line, "func ")) {
                parseFunction();
            } else {
                error(num, "unexpected top-level line: '" + line + "'");
            }
        }
        resolveModuleCalls();
        return std::move(module_);
    }

  private:
    struct Line
    {
        int number;
        std::string text;
    };

    [[noreturn]] void
    error(int line, const std::string &message) const
    {
        throw ParseError("line " + std::to_string(line) + ": " + message);
    }

    [[noreturn]] void
    errorHere(const std::string &message) const
    {
        error(lines_[pos_].number, message);
    }

    void
    parseModuleHeader(const std::string &line)
    {
        const std::size_t open = line.find('"');
        const std::size_t close = line.rfind('"');
        if (open == std::string::npos || close <= open)
            errorHere("expected: module \"name\"");
        // Module name is informational only; reconstruct in place.
        *module_ = Module(line.substr(open + 1, close - open - 1));
    }

    void
    parseGlobal(const std::string &line)
    {
        const auto tokens = splitWhitespace(line);
        if (tokens.size() != 3 || tokens[1][0] != '@')
            errorHere("expected: global @name <words>");
        const std::string name = tokens[1].substr(1);
        if (module_->objectByName(name) != kInvalidObject)
            errorHere("duplicate object name '" + name + "'");
        module_->addGlobal(name, parseObjectSize(tokens[2], "global"));
    }

    void
    parseFunction()
    {
        const std::string header = lines_[pos_].text;
        // func @name(N) {
        std::size_t at = header.find('@');
        std::size_t open = header.find('(');
        std::size_t close = header.find(')');
        std::size_t brace = header.find('{');
        if (at == std::string::npos || open == std::string::npos ||
            close == std::string::npos || brace == std::string::npos ||
            !(at < open && open < close && close < brace)) {
            errorHere("expected: func @name(<nparams>) {");
        }
        const std::string name = header.substr(at + 1, open - at - 1);
        if (module_->functionByName(name) != nullptr)
            errorHere("duplicate function name '" + name + "'");
        const auto nparams =
            parseInt(header.substr(open + 1, close - open - 1));
        if (!nparams || *nparams < 0)
            errorHere("bad parameter count");
        func_ = module_->createFunction(
            name, static_cast<unsigned>(*nparams));
        for (unsigned p = 0; p < func_->numParams(); ++p)
            func_->noteReg(p);
        ++pos_;

        // First pass over the body: find block labels and declarations,
        // creating blocks up-front so branch targets resolve forward.
        const std::size_t body_start = pos_;
        std::size_t body_end = pos_;
        int depth = 1;
        while (body_end < lines_.size()) {
            const std::string &text = lines_[body_end].text;
            if (text == "}") {
                --depth;
                if (depth == 0)
                    break;
            } else if (text.back() == '{') {
                ++depth;
            }
            ++body_end;
        }
        if (body_end >= lines_.size())
            error(lines_[body_start - 1].number,
                  "unterminated function body");

        for (std::size_t i = body_start; i < body_end; ++i) {
            const std::string &text = lines_[i].text;
            if (startsWith(text, "bb ")) {
                std::string label{trim(text.substr(3))};
                if (label.empty() || label.back() != ':')
                    error(lines_[i].number, "expected: bb label:");
                label.pop_back();
                const std::string block{trim(label)};
                if (func_->blockByName(block) != nullptr)
                    error(lines_[i].number,
                          "duplicate block label '" + block + "'");
                func_->createBlock(block);
            }
        }
        if (func_->numBlocks() == 0)
            error(lines_[body_start - 1].number,
                  "function has no basic blocks");

        // Second pass: declarations and instructions.
        BasicBlock *current = nullptr;
        for (std::size_t i = body_start; i < body_end; ++i) {
            pos_ = i;
            const std::string &text = lines_[i].text;
            if (startsWith(text, "bb ")) {
                std::string label{trim(text.substr(3))};
                label.pop_back();
                current = func_->blockByName(std::string{trim(label)});
            } else if (startsWith(text, "local ")) {
                parseLocal(text);
            } else if (startsWith(text, "points ")) {
                parsePoints(text);
            } else {
                if (!current)
                    errorHere("instruction outside any basic block");
                parseInstruction(current, text);
            }
        }

        func_->recomputeCfg();
        func_ = nullptr;
        pos_ = body_end + 1;
    }

    void
    parseLocal(const std::string &line)
    {
        const auto tokens = splitWhitespace(line);
        if (tokens.size() != 3 || tokens[1][0] != '%')
            errorHere("expected: local %name <words>");
        const std::string name = tokens[1].substr(1);
        // Locals share the module's object namespace under their
        // qualified name, so a global spelled "f.x" clashes too.
        const std::string qualified = func_->name() + "." + name;
        if (module_->objectByName(qualified) != kInvalidObject)
            errorHere("duplicate object name '" + qualified + "'");
        module_->addLocal(func_, name, parseObjectSize(tokens[2], "local"));
    }

    /// An object size in words: a positive integer that fits the
    /// builder's 32-bit size field.
    std::uint32_t
    parseObjectSize(const std::string &token, const char *kind) const
    {
        const auto size = parseInt(token);
        if (!size || *size <= 0 || *size > UINT32_MAX)
            errorHere(std::string(kind) +
                      " size must be a positive integer below 2^32");
        return static_cast<std::uint32_t>(*size);
    }

    void
    parsePoints(const std::string &line)
    {
        // points rK -> @a, %b
        const std::size_t arrow = line.find("->");
        if (arrow == std::string::npos)
            errorHere("expected: points rK -> <objects>");
        const auto lhs = splitWhitespace(line.substr(7, arrow - 7));
        if (lhs.size() != 1)
            errorHere("expected a single parameter register");
        const RegId param = parseRegName(lhs[0]);
        std::vector<ObjectId> targets;
        for (const std::string &field : split(line.substr(arrow + 2), ',')) {
            const std::string ref{trim(field)};
            targets.push_back(resolveObjectRef(ref));
        }
        func_->setParamPointsTo(param, std::move(targets));
    }

    RegId
    parseRegName(std::string_view token) const
    {
        if (token.size() < 2 || token[0] != 'r')
            errorHere("expected a register, got '" + std::string(token) +
                      "'");
        const auto value = parseInt(token.substr(1));
        if (!value || *value < 0)
            errorHere("bad register '" + std::string(token) + "'");
        return static_cast<RegId>(*value);
    }

    ObjectId
    resolveObjectRef(std::string_view ref) const
    {
        if (ref.empty())
            errorHere("empty object reference");
        ObjectId id = kInvalidObject;
        if (ref[0] == '@') {
            id = module_->objectByName(std::string(ref.substr(1)));
        } else if (ref[0] == '%') {
            id = module_->objectByName(func_->name() + "." +
                                       std::string(ref.substr(1)));
        } else {
            errorHere("object reference must start with @ or %");
        }
        if (id == kInvalidObject)
            errorHere("unknown object '" + std::string(ref) + "'");
        return id;
    }

    Operand
    parseOperand(std::string_view token) const
    {
        const std::string text{trim(token)};
        if (text.empty())
            errorHere("empty operand");
        if (text[0] == 'r' && text.size() > 1 &&
            std::isdigit(static_cast<unsigned char>(text[1]))) {
            const RegId reg = parseRegName(text);
            func_->noteReg(reg);
            return Operand::makeReg(reg);
        }
        if (startsWith(text, "f:")) {
            char *end = nullptr;
            const double value = std::strtod(text.c_str() + 2, &end);
            if (end != text.c_str() + text.size())
                errorHere("bad floating immediate '" + text + "'");
            return Operand::makeFpImm(value);
        }
        const auto value = parseInt(text);
        if (!value)
            errorHere("bad operand '" + text + "'");
        return Operand::makeImm(*value);
    }

    AddrExpr
    parseAddr(std::string_view token) const
    {
        std::string text{trim(token)};
        if (text.size() < 2 || text.front() != '[' || text.back() != ']')
            errorHere("expected an address expression [..], got '" + text +
                      "'");
        text = text.substr(1, text.size() - 2);

        std::string base_text;
        Operand offset = Operand::makeImm(0);
        const std::size_t plus = text.find('+');
        if (plus == std::string::npos) {
            base_text = std::string{trim(text)};
        } else {
            base_text = std::string{trim(text.substr(0, plus))};
            offset = parseOperand(text.substr(plus + 1));
        }

        if (base_text.empty())
            errorHere("address expression has no base");
        if (base_text[0] == '@' || base_text[0] == '%')
            return AddrExpr::makeObject(resolveObjectRef(base_text), offset);
        const RegId base = parseRegName(base_text);
        func_->noteReg(base);
        return AddrExpr::makeReg(base, offset);
    }

    /// Splits "a, b, c" honoring no nesting (operands contain no commas).
    std::vector<std::string>
    commaFields(std::string_view text) const
    {
        std::vector<std::string> fields;
        for (const std::string &f : split(text, ','))
            fields.push_back(std::string{trim(f)});
        return fields;
    }

    void
    parseCall(BasicBlock *bb, RegId dest, std::string_view rhs)
    {
        // call @f(a, b, ...)
        const std::size_t at = rhs.find('@');
        const std::size_t open = rhs.find('(');
        const std::size_t close = rhs.rfind(')');
        if (at == std::string_view::npos || open == std::string_view::npos ||
            close == std::string_view::npos || !(at < open && open < close))
            errorHere("expected: call @name(args)");
        Instruction inst(Opcode::Call);
        inst.setCalleeName(
            std::string{trim(rhs.substr(at + 1, open - at - 1))});
        std::vector<Operand> args;
        const std::string_view arg_text = rhs.substr(open + 1,
                                                     close - open - 1);
        if (!trim(arg_text).empty()) {
            for (const std::string &field : commaFields(arg_text))
                args.push_back(parseOperand(field));
        }
        inst.setArgs(std::move(args));
        if (dest != kInvalidReg) {
            inst.setDest(dest);
            func_->noteReg(dest);
        }
        bb->append(std::move(inst));
    }

    void
    parseInstruction(BasicBlock *bb, const std::string &line)
    {
        const std::size_t eq = line.find(" = ");
        if (eq != std::string::npos) {
            const RegId dest =
                parseRegName(std::string{trim(line.substr(0, eq))});
            func_->noteReg(dest);
            const std::string rhs{trim(line.substr(eq + 3))};
            const auto tokens = splitWhitespace(rhs);
            if (tokens.empty())
                errorHere("empty instruction right-hand side");

            if (tokens[0] == "load" || tokens[0] == "lea") {
                Instruction inst(tokens[0] == "load" ? Opcode::Load
                                                     : Opcode::Lea);
                inst.setDest(dest);
                inst.setAddr(parseAddr(rhs.substr(tokens[0].size())));
                bb->append(std::move(inst));
                return;
            }
            if (tokens[0] == "call") {
                parseCall(bb, dest, rhs);
                return;
            }

            const Opcode op = opcodeFromName(tokens[0]);
            if (op == Opcode::NumOpcodes || !opcodeHasDest(op))
                errorHere("unknown opcode '" + tokens[0] + "'");
            Instruction inst(op);
            inst.setDest(dest);
            const auto fields =
                commaFields(rhs.substr(tokens[0].size()));
            const int expected = opcodeNumOperands(op);
            if (static_cast<int>(fields.size()) != expected)
                errorHere("opcode '" + tokens[0] + "' expects " +
                          std::to_string(expected) + " operands");
            if (expected >= 1)
                inst.setA(parseOperand(fields[0]));
            if (expected >= 2)
                inst.setB(parseOperand(fields[1]));
            if (expected >= 3)
                inst.setC(parseOperand(fields[2]));
            bb->append(std::move(inst));
            return;
        }

        const auto tokens = splitWhitespace(line);
        const std::string &head = tokens[0];

        if (head == "store") {
            // store [addr], value
            const std::size_t close = line.find(']');
            if (close == std::string::npos)
                errorHere("store needs an address expression");
            Instruction inst(Opcode::Store);
            inst.setAddr(parseAddr(line.substr(5, close - 5 + 1)));
            const std::size_t comma = line.find(',', close);
            if (comma == std::string::npos)
                errorHere("store needs a value operand");
            inst.setA(parseOperand(line.substr(comma + 1)));
            bb->append(std::move(inst));
            return;
        }
        if (head == "call") {
            parseCall(bb, kInvalidReg, line);
            return;
        }
        if (head == "br") {
            const auto fields = commaFields(line.substr(2));
            if (fields.size() != 3)
                errorHere("expected: br cond, label, label");
            Instruction inst(Opcode::Br);
            inst.setA(parseOperand(fields[0]));
            inst.setSucc0(lookupBlock(fields[1]));
            inst.setSucc1(lookupBlock(fields[2]));
            bb->append(std::move(inst));
            return;
        }
        if (head == "jmp") {
            if (tokens.size() != 2)
                errorHere("expected: jmp label");
            Instruction inst(Opcode::Jmp);
            inst.setSucc0(lookupBlock(tokens[1]));
            bb->append(std::move(inst));
            return;
        }
        if (head == "ret") {
            Instruction inst(Opcode::Ret);
            if (tokens.size() == 2)
                inst.setA(parseOperand(tokens[1]));
            else if (tokens.size() > 2)
                errorHere("expected: ret [operand]");
            bb->append(std::move(inst));
            return;
        }
        if (head == "region.enter" || head == "restore") {
            if (tokens.size() != 2)
                errorHere("expected: " + head + " <region-id>");
            const auto id = parseInt(tokens[1]);
            if (!id || *id < 0)
                errorHere("bad region id");
            Instruction inst(head == "restore" ? Opcode::Restore
                                               : Opcode::RegionEnter);
            inst.setRegionId(static_cast<RegionId>(*id));
            bb->append(std::move(inst));
            return;
        }
        if (head == "ckpt.mem") {
            Instruction inst(Opcode::CkptMem);
            inst.setAddr(parseAddr(line.substr(8)));
            bb->append(std::move(inst));
            return;
        }
        if (head == "ckpt.reg") {
            if (tokens.size() != 2)
                errorHere("expected: ckpt.reg rN");
            Instruction inst(Opcode::CkptReg);
            inst.setA(parseOperand(tokens[1]));
            bb->append(std::move(inst));
            return;
        }
        errorHere("unrecognized instruction '" + line + "'");
    }

    BasicBlock *
    lookupBlock(const std::string &label) const
    {
        BasicBlock *bb = func_->blockByName(std::string{trim(label)});
        if (!bb)
            errorHere("unknown block label '" + label + "'");
        return bb;
    }

    void
    resolveModuleCalls()
    {
        for (auto &f : module_->functions()) {
            for (auto &bb : f->blocks()) {
                for (auto &inst : bb->instructions()) {
                    if (inst.opcode() != Opcode::Call)
                        continue;
                    Function *callee =
                        module_->functionByName(inst.calleeName());
                    if (!callee)
                        throw ParseError("call to unknown function '@" +
                                         inst.calleeName() + "'");
                    inst.setCallee(callee);
                }
            }
        }
    }

    std::unique_ptr<Module> module_;
    Function *func_ = nullptr;
    std::vector<Line> lines_;
    std::size_t pos_ = 0;
    int line_no_ = 0;
};

} // namespace

std::unique_ptr<Module>
parseModule(const std::string &text)
{
    return ParserImpl(text).run();
}

} // namespace encore::ir
