// Internal parsing plumbing shared by the io/ readers (instance_io,
// trace_io): a tokenizing line reader with line-number diagnostics and the
// small helpers the line-oriented formats are parsed with. Not part of the
// public API.

#ifndef GEACC_IO_LINE_READER_H_
#define GEACC_IO_LINE_READER_H_

#include <istream>
#include <string>
#include <string_view>
#include <vector>

#include "util/string_util.h"

namespace geacc::io_internal {

using Tokens = std::vector<std::string_view>;

// Tokenizing line reader that tracks line numbers for diagnostics.
class LineReader {
 public:
  explicit LineReader(std::istream& is) : is_(is) {}

  // Next non-empty, non-comment ('#') line split on whitespace; empty at
  // EOF. The tokens view a buffer the next call overwrites.
  const Tokens& NextTokens() {
    while (std::getline(is_, line_)) {
      ++line_number_;
      const std::string_view trimmed = Trim(line_);
      if (trimmed.empty() || trimmed[0] == '#') continue;
      SplitWhitespace(trimmed, &tokens_);
      return tokens_;
    }
    tokens_.clear();
    return tokens_;
  }

  int line_number() const { return line_number_; }

 private:
  std::istream& is_;
  std::string line_;
  Tokens tokens_;
  int line_number_ = 0;
};

inline std::string At(const LineReader& reader, const std::string& what) {
  return StrFormat("line %d: %s", reader.line_number(), what.c_str());
}

inline bool Fail(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
  return false;
}

// Parses "<keyword> <count>"; returns -1 on mismatch.
inline int64_t ParseCountLine(const Tokens& tokens, std::string_view keyword) {
  if (tokens.size() != 2 || tokens[0] != keyword) return -1;
  const auto count = ParseInt(tokens[1]);
  if (!count || *count < 0) return -1;
  return *count;
}

}  // namespace geacc::io_internal

#endif  // GEACC_IO_LINE_READER_H_
