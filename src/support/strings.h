/**
 * @file
 * String utilities shared by the IR text parser and the bench harnesses.
 */
#ifndef ENCORE_SUPPORT_STRINGS_H
#define ENCORE_SUPPORT_STRINGS_H

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace encore {

/// Removes leading and trailing whitespace.
std::string_view trim(std::string_view text);

/// Splits on a delimiter character; empty fields are preserved.
std::vector<std::string> split(std::string_view text, char delim);

/// Splits on runs of whitespace; empty tokens are dropped.
std::vector<std::string> splitWhitespace(std::string_view text);

/// True if `text` begins with `prefix`.
bool startsWith(std::string_view text, std::string_view prefix);

/// Parses a signed 64-bit integer in `base` (the default 0 also reads
/// 0x hex and leading-0 octal); nullopt on malformed text or a value
/// outside int64_t.
std::optional<std::int64_t> parseInt(std::string_view text, int base = 0);

/// Formats a fraction as a fixed-width percentage, e.g. "97.3%".
std::string formatPercent(double fraction, int decimals = 1);

/// Formats with fixed decimals, e.g. formatFixed(3.14159, 2) == "3.14".
std::string formatFixed(double value, int decimals);

} // namespace encore

#endif // ENCORE_SUPPORT_STRINGS_H
