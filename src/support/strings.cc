#include "support/strings.h"

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>

namespace encore {

std::string_view
trim(std::string_view text)
{
    std::size_t begin = 0;
    std::size_t end = text.size();
    while (begin < end &&
           std::isspace(static_cast<unsigned char>(text[begin])))
        ++begin;
    while (end > begin &&
           std::isspace(static_cast<unsigned char>(text[end - 1])))
        --end;
    return text.substr(begin, end - begin);
}

std::vector<std::string>
split(std::string_view text, char delim)
{
    std::vector<std::string> fields;
    std::size_t start = 0;
    while (true) {
        const std::size_t pos = text.find(delim, start);
        if (pos == std::string_view::npos) {
            fields.emplace_back(text.substr(start));
            break;
        }
        fields.emplace_back(text.substr(start, pos - start));
        start = pos + 1;
    }
    return fields;
}

std::vector<std::string>
splitWhitespace(std::string_view text)
{
    std::vector<std::string> tokens;
    std::size_t i = 0;
    while (i < text.size()) {
        while (i < text.size() &&
               std::isspace(static_cast<unsigned char>(text[i])))
            ++i;
        std::size_t start = i;
        while (i < text.size() &&
               !std::isspace(static_cast<unsigned char>(text[i])))
            ++i;
        if (i > start)
            tokens.emplace_back(text.substr(start, i - start));
    }
    return tokens;
}

bool
startsWith(std::string_view text, std::string_view prefix)
{
    return text.size() >= prefix.size() &&
           text.substr(0, prefix.size()) == prefix;
}

std::optional<std::int64_t>
parseInt(std::string_view text, int base)
{
    text = trim(text);
    if (text.empty())
        return std::nullopt;
    std::string buf(text);
    char *end = nullptr;
    errno = 0;
    const long long value = std::strtoll(buf.c_str(), &end, base);
    if (end != buf.c_str() + buf.size() || errno == ERANGE)
        return std::nullopt;
    return static_cast<std::int64_t>(value);
}

std::string
formatPercent(double fraction, int decimals)
{
    return formatFixed(fraction * 100.0, decimals) + "%";
}

std::string
formatFixed(double value, int decimals)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", decimals, value);
    return buf;
}

} // namespace encore
