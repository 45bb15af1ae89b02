#ifndef IFLEX_COMMON_STRUTIL_H_
#define IFLEX_COMMON_STRUTIL_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace iflex {

/// Splits `s` on `sep`, keeping empty fields.
std::vector<std::string> Split(std::string_view s, char sep);

/// Joins `parts` with `sep`.
std::string Join(const std::vector<std::string>& parts,
                 std::string_view sep);

/// Removes ASCII whitespace from both ends.
std::string_view StripWhitespace(std::string_view s);

/// True if `s` starts with / ends with `prefix` / `suffix`.
bool StartsWith(std::string_view s, std::string_view prefix);
bool EndsWith(std::string_view s, std::string_view suffix);

/// ASCII lowercase copy.
std::string ToLower(std::string_view s);

/// Case-insensitive substring test (ASCII).
bool ContainsIgnoreCase(std::string_view haystack, std::string_view needle);

/// Parses `s` as a number, tolerating thousands separators (",") and a
/// leading currency symbol ("$"); the paper treats "price is numeric" as a
/// text feature over spans like "$351,000". Returns nullopt when `s` is not
/// numeric in that loose sense.
std::optional<double> ParseLooseNumber(std::string_view s);

/// True when the entire span is numeric in the loose sense above.
bool IsLooseNumber(std::string_view s);

/// Formats a number the way values and Alog literals print: an integral
/// value within the int64 range as an integer ("42"), anything else with
/// %g ("3.5", "1e+30", "inf", "nan").
std::string FormatNumber(double n);

/// printf-style formatting into a std::string.
std::string StringPrintf(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// 64-bit FNV-1a hash, used for cache keys and deterministic fingerprints.
uint64_t Fingerprint64(std::string_view s);

}  // namespace iflex

#endif  // IFLEX_COMMON_STRUTIL_H_
