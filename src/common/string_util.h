// Small string helpers shared by the CSV reader, the text persistence
// formats and bench table printers.

#ifndef CONDENSA_COMMON_STRING_UTIL_H_
#define CONDENSA_COMMON_STRING_UTIL_H_

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace condensa {

// Splits `text` on `delimiter`, keeping empty fields. "a,,b" -> {"a","","b"}.
std::vector<std::string> Split(std::string_view text, char delimiter);

// Removes leading and trailing ASCII whitespace.
std::string_view StripWhitespace(std::string_view text);

// Parses a double; returns false on malformed or trailing garbage.
bool ParseDouble(std::string_view text, double* value);

// Parses a signed integer in [INT_MIN, INT_MAX] (surrounding whitespace
// allowed); returns false on malformed input, trailing garbage or a value
// out of int range. Negative values are accepted: --label-column=-1
// relies on it, so callers that need a count must check the sign.
bool ParseInt(std::string_view text, int* value);

// Parses a non-negative integer in the full std::size_t range (record,
// split and sequence counters); returns false on malformed input, a sign
// or overflow.
bool ParseSize(std::string_view text, std::size_t* value);

// Joins `parts` with `separator`: {"a","b"} + ", " -> "a, b".
std::string Join(const std::vector<std::string>& parts,
                 std::string_view separator);

// Returns true if `text` begins with `prefix`.
bool StartsWith(std::string_view text, std::string_view prefix);

// Formats a double with `precision` digits after the decimal point.
std::string FormatDouble(double value, int precision);

// Longest text AppendExactDouble can write: sign, 17 digits, point and
// a four-character exponent ("-1.2345678901234567e-308").
inline constexpr std::size_t kMaxExactDoubleChars = 24;

// Appends `value` with 17 significant digits, byte-for-byte what
// printf("%.17g") writes — enough to reproduce every double exactly. The
// text persistence formats (group sets, snapshots, journals, spools,
// quarantine files) all write doubles through this one function.
void AppendExactDouble(std::string& out, double value);

}  // namespace condensa

#endif  // CONDENSA_COMMON_STRING_UTIL_H_
