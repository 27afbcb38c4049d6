// Small string helpers shared across modules (no external deps).

#ifndef NGD_UTIL_STRING_UTIL_H_
#define NGD_UTIL_STRING_UTIL_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace ngd {

/// Strips ASCII whitespace from both ends.
std::string_view StripWhitespace(std::string_view s);

/// Parses a base-10 signed integer; rejects trailing garbage.
std::optional<int64_t> ParseInt64(std::string_view s);

}  // namespace ngd

#endif  // NGD_UTIL_STRING_UTIL_H_
