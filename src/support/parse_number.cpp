#include "support/parse_number.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>

namespace eric {

bool ParseUnsigned(const std::string& text, uint64_t* out) {
  // strtoull skips leading space and accepts a '-' (wrapping -1 to
  // 2^64 - 1), so the text must start with a digit.
  if (text.empty() || !std::isdigit(static_cast<unsigned char>(text[0]))) {
    return false;
  }
  char* end = nullptr;
  errno = 0;
  *out = std::strtoull(text.c_str(), &end, 0);
  return errno == 0 && *end == '\0';
}

bool ParseReal(const std::string& text, double* out) {
  if (text.empty() || std::isspace(static_cast<unsigned char>(text[0]))) {
    return false;
  }
  char* end = nullptr;
  errno = 0;
  *out = std::strtod(text.c_str(), &end);
  return errno == 0 && *end == '\0' && std::isfinite(*out);
}

}  // namespace eric
