#include "util/string_util.h"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <string>

namespace ngd {

std::string_view StripWhitespace(std::string_view s) {
  size_t b = 0;
  while (b < s.size() && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  size_t e = s.size();
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

std::optional<int64_t> ParseInt64(std::string_view s) {
  s = StripWhitespace(s);
  if (s.empty()) return std::nullopt;
  std::string buf(s);
  char* end = nullptr;
  errno = 0;
  long long v = std::strtoll(buf.c_str(), &end, 10);
  if (errno != 0 || end != buf.c_str() + buf.size()) return std::nullopt;
  return static_cast<int64_t>(v);
}

}  // namespace ngd
