// Small string helpers shared by the flag parser and table writers, and
// the number codec every persistence format is written and read with.

#ifndef GEACC_UTIL_STRING_UTIL_H_
#define GEACC_UTIL_STRING_UTIL_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace geacc {

// Splits `text` on `sep`, keeping empty fields.
std::vector<std::string> Split(std::string_view text, char sep);

// Splits `text` on runs of ASCII whitespace into `tokens` (cleared
// first), dropping empty fields. The views point into `text`.
void SplitWhitespace(std::string_view text,
                     std::vector<std::string_view>* tokens);

// Removes leading and trailing ASCII whitespace.
std::string_view Trim(std::string_view text);

// Strict numeric parsers (std::from_chars): the whole trimmed string must
// parse. ParseDouble accepts everything AppendDouble writes, subnormals
// included, plus "inf"/"nan" (callers that need finite values check);
// it rejects overflow ("1e400") and underflow to zero. Neither parser
// accepts a leading '+', and ParseDouble takes no hex floats ("0x1p3").
std::optional<int64_t> ParseInt(std::string_view text);
std::optional<double> ParseDouble(std::string_view text);
std::optional<bool> ParseBool(std::string_view text);

// The writers' half of the codec, for the instance, trace, WAL, checkpoint
// and JSON formats: appends exactly the bytes printf's "%.17g" (resp.
// "%lld") prints, without printf. 17 significant digits make every finite
// double round-trip bit-exactly through ParseDouble.
void AppendDouble(std::string* out, double value);
void AppendInt(std::string* out, int64_t value);

// printf-style formatting into a std::string.
std::string StrFormat(const char* format, ...)
    __attribute__((format(printf, 1, 2)));

// Human-readable byte count, e.g. "1.5 MiB".
std::string HumanBytes(uint64_t bytes);

// True if `text` starts with `prefix`.
bool StartsWith(std::string_view text, std::string_view prefix);

}  // namespace geacc

#endif  // GEACC_UTIL_STRING_UTIL_H_
