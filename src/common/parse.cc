#include "common/parse.h"

#include <cctype>
#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdlib>

namespace graphalign {
namespace {

// strtol/strtod skip leading whitespace; strict parsing must not.
bool HasLeadingSpace(const std::string& text) {
  return !text.empty() && std::isspace(static_cast<unsigned char>(text[0]));
}

Status NotA(const std::string& text, const char* what) {
  return Status::InvalidArgument("'" + text + "' is not " + what);
}

// Whole-string int in [min, INT_MAX].
Result<int> ParseStrictInt(const std::string& text, long min,
                           const char* what) {
  if (HasLeadingSpace(text)) return NotA(text, what);
  errno = 0;
  char* end = nullptr;
  const long v = std::strtol(text.c_str(), &end, 10);
  if (end == text.c_str() || *end != '\0' || errno == ERANGE || v < min ||
      v > INT_MAX) {
    return NotA(text, what);
  }
  return static_cast<int>(v);
}

// Whole-string finite double > 0, or >= 0 when allow_zero.
Result<double> ParseStrictDouble(const std::string& text, bool allow_zero,
                                 const char* what) {
  if (HasLeadingSpace(text)) return NotA(text, what);
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0' || errno == ERANGE ||
      !std::isfinite(v) || v < 0.0 || (v == 0.0 && !allow_zero)) {
    return NotA(text, what);
  }
  return v;
}

}  // namespace

Result<int> ParseStrictPositiveInt(const std::string& text) {
  return ParseStrictInt(text, 1, "a positive integer");
}

Result<int> ParseStrictNonNegativeInt(const std::string& text) {
  return ParseStrictInt(text, 0, "a non-negative integer");
}

Result<double> ParseStrictPositiveDouble(const std::string& text) {
  return ParseStrictDouble(text, false, "a positive number");
}

Result<double> ParseStrictNonNegativeDouble(const std::string& text) {
  return ParseStrictDouble(text, true, "a non-negative number");
}

Result<uint64_t> ParseStrictUint64(const std::string& text) {
  const char* what = "an unsigned integer";
  // strtoull silently accepts "-1" (wrapping it); reject any '-' up front.
  if (HasLeadingSpace(text) || text.find('-') != std::string::npos) {
    return NotA(text, what);
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (end == text.c_str() || *end != '\0' || errno == ERANGE) {
    return NotA(text, what);
  }
  return static_cast<uint64_t>(v);
}

}  // namespace graphalign
