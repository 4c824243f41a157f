#include "util/string_util.h"

#include <charconv>
#include <cstdarg>
#include <cstdio>
#include <system_error>

namespace geacc {
namespace {

// ASCII whitespace, as isspace() in the "C" locale.
bool IsSpace(char c) {
  return c == ' ' || (c >= '\t' && c <= '\r');
}

// The whole trimmed `text` must parse as one T.
template <typename T>
std::optional<T> ParseNumber(std::string_view text) {
  text = Trim(text);
  const char* const end = text.data() + text.size();
  T value{};
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  return value;
}

}  // namespace

std::vector<std::string> Split(std::string_view text, char sep) {
  std::vector<std::string> parts;
  size_t start = 0;
  while (true) {
    const size_t pos = text.find(sep, start);
    if (pos == std::string_view::npos) {
      parts.emplace_back(text.substr(start));
      break;
    }
    parts.emplace_back(text.substr(start, pos - start));
    start = pos + 1;
  }
  return parts;
}

void SplitWhitespace(std::string_view text,
                     std::vector<std::string_view>* tokens) {
  tokens->clear();
  size_t pos = 0;
  while (true) {
    while (pos < text.size() && IsSpace(text[pos])) ++pos;
    if (pos == text.size()) return;
    const size_t begin = pos;
    while (pos < text.size() && !IsSpace(text[pos])) ++pos;
    tokens->push_back(text.substr(begin, pos - begin));
  }
}

std::string_view Trim(std::string_view text) {
  size_t begin = 0;
  while (begin < text.size() && IsSpace(text[begin])) ++begin;
  size_t end = text.size();
  while (end > begin && IsSpace(text[end - 1])) --end;
  return text.substr(begin, end - begin);
}

std::optional<int64_t> ParseInt(std::string_view text) {
  return ParseNumber<int64_t>(text);
}

std::optional<double> ParseDouble(std::string_view text) {
  return ParseNumber<double>(text);
}

std::optional<bool> ParseBool(std::string_view text) {
  const std::string_view buf = Trim(text);
  if (buf == "true" || buf == "1" || buf == "yes" || buf == "on") return true;
  if (buf == "false" || buf == "0" || buf == "no" || buf == "off") {
    return false;
  }
  return std::nullopt;
}

void AppendDouble(std::string* out, double value) {
  // The standard defines to_chars(general, precision) to print what printf
  // prints for "%.*g"; at most 24 characters for a double.
  char buffer[32];
  const auto result = std::to_chars(buffer, buffer + sizeof(buffer), value,
                                    std::chars_format::general, 17);
  out->append(buffer, result.ptr);
}

void AppendInt(std::string* out, int64_t value) {
  char buffer[24];
  const auto result = std::to_chars(buffer, buffer + sizeof(buffer), value);
  out->append(buffer, result.ptr);
}

std::string StrFormat(const char* format, ...) {
  va_list args;
  va_start(args, format);
  va_list args_copy;
  va_copy(args_copy, args);
  const int needed = std::vsnprintf(nullptr, 0, format, args);
  va_end(args);
  std::string result;
  if (needed > 0) {
    result.resize(static_cast<size_t>(needed));
    std::vsnprintf(result.data(), result.size() + 1, format, args_copy);
  }
  va_end(args_copy);
  return result;
}

std::string HumanBytes(uint64_t bytes) {
  constexpr const char* kUnits[] = {"B", "KiB", "MiB", "GiB", "TiB"};
  double value = static_cast<double>(bytes);
  size_t unit = 0;
  while (value >= 1024.0 && unit + 1 < std::size(kUnits)) {
    value /= 1024.0;
    ++unit;
  }
  if (unit == 0) return StrFormat("%llu B", (unsigned long long)bytes);
  return StrFormat("%.1f %s", value, kUnits[unit]);
}

bool StartsWith(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() &&
         text.substr(0, prefix.size()) == prefix;
}

}  // namespace geacc
