/**
 * @file
 * Minimal command-line flag parser for the bench and example binaries.
 *
 * Flags take the form `--name=value` or `--name value`. Only boolean
 * flags (those declared with a "true"/"false" default) may appear
 * bare: `--json` means `--json=true`. A *value* flag must be given a
 * value — `--label --foo` is fatal, not a silent boolean, because the
 * next token looks like a flag; to pass a value that itself begins
 * with `--`, use the `--label=--foo` form. Unknown flags are fatal so
 * typos in sweep scripts do not silently run the default
 * configuration.
 */
#ifndef ENCORE_SUPPORT_CLI_H
#define ENCORE_SUPPORT_CLI_H

#include <cstdint>
#include <map>
#include <string>

namespace encore {

class CommandLine
{
  public:
    /// Declares a flag with a default value and a help string.
    void addFlag(const std::string &name, const std::string &default_value,
                 const std::string &help);

    /// Parses argv; prints help and exits on --help; fatal on unknowns.
    void parse(int argc, char **argv);

    std::string getString(const std::string &name) const;
    /// Base 10 only (`010` is ten, `0x10` is refused); fatal — naming
    /// the flag and the offending value — on anything else, including
    /// a value outside int64_t, which is refused instead of clamped.
    std::int64_t getInt(const std::string &name) const;
    /// For inherently non-negative quantities (counts, seeds, sizes):
    /// getInt, and fatal on a negative argument, instead of letting a
    /// later cast wrap it into a huge unsigned count. The range stays
    /// [0, INT64_MAX], so `value + 1` (as in `Rng::below(dmax + 1)`)
    /// cannot wrap to 0.
    std::uint64_t getUint(const std::string &name) const;
    double getDouble(const std::string &name) const;
    bool getBool(const std::string &name) const;

    /// Renders a usage message listing all flags.
    std::string helpText(const std::string &program) const;

  private:
    struct Flag
    {
        std::string value;
        std::string default_value;
        std::string help;
    };

    const Flag &find(const std::string &name) const;

    std::map<std::string, Flag> flags_;
};

} // namespace encore

#endif // ENCORE_SUPPORT_CLI_H
