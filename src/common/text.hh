/**
 * @file
 * Tiny shared string helpers (previously copy-pasted per module).
 */

#ifndef DALOREX_COMMON_TEXT_HH
#define DALOREX_COMMON_TEXT_HH

#include <algorithm>
#include <cctype>
#include <string>
#include <vector>

namespace dalorex
{

/** ASCII lower-casing for flag/name matching. */
inline std::string
toLower(std::string s)
{
    std::transform(s.begin(), s.end(), s.begin(), [](unsigned char c) {
        return static_cast<char>(std::tolower(c));
    });
    return s;
}

/** Split "a,b,,c" at every comma, keeping empty items. */
inline std::vector<std::string>
splitCommas(const std::string& text)
{
    std::vector<std::string> out(1);
    for (const char c : text) {
        if (c == ',')
            out.emplace_back();
        else
            out.back() += c;
    }
    return out;
}

} // namespace dalorex

#endif // DALOREX_COMMON_TEXT_HH
