#include "support/cli.h"

#include <cstdlib>
#include <iostream>
#include <limits>
#include <sstream>

#include "support/diagnostics.h"
#include "support/strings.h"

namespace encore {

void
CommandLine::addFlag(const std::string &name,
                     const std::string &default_value,
                     const std::string &help)
{
    flags_[name] = Flag{default_value, default_value, help};
}

void
CommandLine::parse(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            std::cout << helpText(argv[0]);
            std::exit(0);
        }
        if (!startsWith(arg, "--"))
            fatalf("unexpected positional argument '", arg, "'");
        arg = arg.substr(2);

        std::string name;
        std::string value;
        const std::size_t eq = arg.find('=');
        if (eq != std::string::npos) {
            name = arg.substr(0, eq);
            value = arg.substr(eq + 1);
        } else {
            name = arg;
            auto it = flags_.find(name);
            if (it == flags_.end())
                fatalf("unknown flag '--", name, "'");
            if (i + 1 < argc && !startsWith(argv[i + 1], "--")) {
                value = argv[++i];
            } else {
                // No consumable value follows. Only a boolean flag
                // (declared with a true/false default) may be bare;
                // for a value flag, '--label --foo' used to become
                // label=true silently — make it an error instead.
                const std::string &dflt = it->second.default_value;
                if (dflt == "true" || dflt == "false")
                    value = "true";
                else
                    fatalf("flag '--", name,
                           "' requires a value (use --", name,
                           "=VALUE if the value itself begins "
                           "with --)");
            }
        }

        auto it = flags_.find(name);
        if (it == flags_.end())
            fatalf("unknown flag '--", name, "'");
        it->second.value = value;
    }
}

const CommandLine::Flag &
CommandLine::find(const std::string &name) const
{
    auto it = flags_.find(name);
    if (it == flags_.end())
        panicf("flag '--", name, "' was never declared");
    return it->second;
}

std::string
CommandLine::getString(const std::string &name) const
{
    return find(name).value;
}

std::int64_t
CommandLine::getInt(const std::string &name) const
{
    const std::string &text = find(name).value;
    const auto parsed = parseInt(text, 10);
    if (!parsed)
        fatalf("flag '--", name, "' expects a base-10 integer in [",
               std::numeric_limits<std::int64_t>::min(), ", ",
               std::numeric_limits<std::int64_t>::max(), "], got '", text,
               "'");
    return *parsed;
}

std::uint64_t
CommandLine::getUint(const std::string &name) const
{
    const std::int64_t value = getInt(name);
    if (value < 0)
        fatalf("flag '--", name,
               "' expects a non-negative integer, got '",
               find(name).value, "'");
    return static_cast<std::uint64_t>(value);
}

double
CommandLine::getDouble(const std::string &name) const
{
    const std::string &text = find(name).value;
    char *end = nullptr;
    const double value = std::strtod(text.c_str(), &end);
    if (text.empty() || end != text.c_str() + text.size())
        fatalf("flag '--", name, "' expects a number, got '", text, "'");
    return value;
}

bool
CommandLine::getBool(const std::string &name) const
{
    const std::string &text = find(name).value;
    if (text == "true" || text == "1" || text == "yes")
        return true;
    if (text == "false" || text == "0" || text == "no" || text.empty())
        return false;
    fatalf("flag '--", name, "' expects a boolean, got '", text, "'");
}

std::string
CommandLine::helpText(const std::string &program) const
{
    std::ostringstream os;
    os << "usage: " << program << " [flags]\n";
    for (const auto &[name, flag] : flags_) {
        os << "  --" << name << " (default: "
           << (flag.default_value.empty() ? "\"\"" : flag.default_value)
           << ")\n      " << flag.help << "\n";
    }
    return os.str();
}

} // namespace encore
