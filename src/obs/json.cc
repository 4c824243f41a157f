#include "obs/json.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "util/string_util.h"

namespace geacc::obs {
namespace {

void AppendEscaped(std::string& out, const std::string& text) {
  out.push_back('"');
  for (const char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                        static_cast<unsigned char>(c));
          out += buffer;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

void AppendJsonDouble(std::string& out, double value) {
  if (!std::isfinite(value)) {
    // JSON has no Inf/NaN; null is the conventional stand-in.
    out += "null";
    return;
  }
  // max_digits10 (17) significant digits, as every persistence format.
  const size_t start = out.size();
  AppendDouble(&out, value);
  // Keep the value recognizably floating-point after a round trip.
  if (out.find_first_of(".eE", start) == std::string::npos) out += ".0";
}

void AppendNewlineIndent(std::string& out, int indent, int depth) {
  if (indent <= 0) return;
  out.push_back('\n');
  out.append(static_cast<size_t>(indent) * depth, ' ');
}

// Recursive-descent parser over the raw text. Tracks a byte offset for
// error messages; depth is bounded to reject pathological nesting.
class Parser {
 public:
  Parser(const std::string& text, std::string* error)
      : text_(text), error_(error) {}

  bool Run(JsonValue* value) {
    if (!ParseValue(value, 0)) return false;
    SkipWhitespace();
    if (pos_ != text_.size()) return Fail("trailing content after document");
    return true;
  }

 private:
  static constexpr int kMaxDepth = 64;

  bool ParseValue(JsonValue* value, int depth) {
    if (depth > kMaxDepth) return Fail("nesting too deep");
    SkipWhitespace();
    if (pos_ >= text_.size()) return Fail("unexpected end of input");
    switch (text_[pos_]) {
      case '{':
        return ParseObject(value, depth);
      case '[':
        return ParseArray(value, depth);
      case '"': {
        std::string text;
        if (!ParseString(&text)) return false;
        *value = JsonValue(std::move(text));
        return true;
      }
      case 't':
        if (!Consume("true")) return Fail("invalid literal");
        *value = JsonValue(true);
        return true;
      case 'f':
        if (!Consume("false")) return Fail("invalid literal");
        *value = JsonValue(false);
        return true;
      case 'n':
        if (!Consume("null")) return Fail("invalid literal");
        *value = JsonValue();
        return true;
      default:
        return ParseNumber(value);
    }
  }

  bool ParseObject(JsonValue* value, int depth) {
    ++pos_;  // '{'
    *value = JsonValue::Object();
    SkipWhitespace();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      SkipWhitespace();
      std::string key;
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Fail("expected object key");
      }
      if (!ParseString(&key)) return false;
      SkipWhitespace();
      if (pos_ >= text_.size() || text_[pos_] != ':') {
        return Fail("expected ':' after object key");
      }
      ++pos_;
      JsonValue member;
      if (!ParseValue(&member, depth + 1)) return false;
      value->Set(key, std::move(member));
      SkipWhitespace();
      if (pos_ >= text_.size()) return Fail("unterminated object");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == '}') {
        ++pos_;
        return true;
      }
      return Fail("expected ',' or '}' in object");
    }
  }

  bool ParseArray(JsonValue* value, int depth) {
    ++pos_;  // '['
    *value = JsonValue::Array();
    SkipWhitespace();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      JsonValue item;
      if (!ParseValue(&item, depth + 1)) return false;
      value->Append(std::move(item));
      SkipWhitespace();
      if (pos_ >= text_.size()) return Fail("unterminated array");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == ']') {
        ++pos_;
        return true;
      }
      return Fail("expected ',' or ']' in array");
    }
  }

  bool ParseString(std::string* out) {
    ++pos_;  // '"'
    out->clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        return Fail("unescaped control character in string");
      }
      if (c != '\\') {
        out->push_back(c);
        ++pos_;
        continue;
      }
      if (++pos_ >= text_.size()) return Fail("unterminated escape");
      switch (text_[pos_]) {
        case '"':
          out->push_back('"');
          break;
        case '\\':
          out->push_back('\\');
          break;
        case '/':
          out->push_back('/');
          break;
        case 'b':
          out->push_back('\b');
          break;
        case 'f':
          out->push_back('\f');
          break;
        case 'n':
          out->push_back('\n');
          break;
        case 'r':
          out->push_back('\r');
          break;
        case 't':
          out->push_back('\t');
          break;
        case 'u': {
          unsigned code = 0;
          if (!ParseHex4(&code)) return false;
          AppendUtf8(*out, code);
          break;
        }
        default:
          return Fail("invalid escape");
      }
      ++pos_;
    }
    return Fail("unterminated string");
  }

  bool ParseHex4(unsigned* code) {
    *code = 0;
    for (int i = 0; i < 4; ++i) {
      if (++pos_ >= text_.size()) return Fail("truncated \\u escape");
      const char c = text_[pos_];
      *code <<= 4;
      if (c >= '0' && c <= '9') {
        *code |= static_cast<unsigned>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        *code |= static_cast<unsigned>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        *code |= static_cast<unsigned>(c - 'A' + 10);
      } else {
        return Fail("invalid \\u escape");
      }
    }
    return true;
  }

  static void AppendUtf8(std::string& out, unsigned code) {
    if (code < 0x80) {
      out.push_back(static_cast<char>(code));
    } else if (code < 0x800) {
      out.push_back(static_cast<char>(0xC0 | (code >> 6)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else {
      out.push_back(static_cast<char>(0xE0 | (code >> 12)));
      out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    }
  }

  bool ParseNumber(JsonValue* value) {
    const size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
    bool is_double = false;
    if (pos_ < text_.size() && text_[pos_] == '.') {
      is_double = true;
      ++pos_;
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      is_double = true;
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
    }
    const char* first = text_.data() + start;
    const char* last = text_.data() + pos_;
    if (first == last) return Fail("invalid number");
    if (!is_double) {
      int64_t parsed = 0;
      const auto [ptr, ec] = std::from_chars(first, last, parsed);
      if (ec == std::errc() && ptr == last) {
        *value = JsonValue(parsed);
        return true;
      }
      // Out-of-int64-range integer literal: fall through to double.
    }
    double parsed = 0.0;
    const auto [ptr, ec] = std::from_chars(first, last, parsed);
    if (ec != std::errc() || ptr != last) return Fail("invalid number");
    *value = JsonValue(parsed);
    return true;
  }

  bool Consume(const char* literal) {
    const size_t length = std::strlen(literal);
    if (text_.compare(pos_, length, literal) != 0) return false;
    pos_ += length;
    return true;
  }

  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool Fail(const std::string& message) {
    if (error_ != nullptr && error_->empty()) {
      *error_ = message + " at byte " + std::to_string(pos_);
    }
    return false;
  }

  const std::string& text_;
  std::string* error_;
  size_t pos_ = 0;
};

}  // namespace

void JsonValue::Set(const std::string& key, JsonValue value) {
  for (auto& [name, member] : members_) {
    if (name == key) {
      member = std::move(value);
      return;
    }
  }
  members_.emplace_back(key, std::move(value));
}

const JsonValue* JsonValue::Find(const std::string& key) const {
  for (const auto& [name, member] : members_) {
    if (name == key) return &member;
  }
  return nullptr;
}

std::string JsonValue::Dump(int indent) const {
  std::string out;
  DumpTo(out, indent, 0);
  return out;
}

void JsonValue::DumpTo(std::string& out, int indent, int depth) const {
  switch (type_) {
    case Type::kNull:
      out += "null";
      return;
    case Type::kBool:
      out += bool_ ? "true" : "false";
      return;
    case Type::kInt:
      out += std::to_string(int_);
      return;
    case Type::kDouble:
      AppendJsonDouble(out, double_);
      return;
    case Type::kString:
      AppendEscaped(out, string_);
      return;
    case Type::kArray: {
      if (items_.empty()) {
        out += "[]";
        return;
      }
      out.push_back('[');
      bool first = true;
      for (const JsonValue& item : items_) {
        if (!first) out.push_back(',');
        first = false;
        AppendNewlineIndent(out, indent, depth + 1);
        item.DumpTo(out, indent, depth + 1);
      }
      AppendNewlineIndent(out, indent, depth);
      out.push_back(']');
      return;
    }
    case Type::kObject: {
      if (members_.empty()) {
        out += "{}";
        return;
      }
      out.push_back('{');
      bool first = true;
      for (const auto& [key, member] : members_) {
        if (!first) out.push_back(',');
        first = false;
        AppendNewlineIndent(out, indent, depth + 1);
        AppendEscaped(out, key);
        out.push_back(':');
        if (indent > 0) out.push_back(' ');
        member.DumpTo(out, indent, depth + 1);
      }
      AppendNewlineIndent(out, indent, depth);
      out.push_back('}');
      return;
    }
  }
}

bool JsonValue::Parse(const std::string& text, JsonValue* value,
                      std::string* error) {
  if (error != nullptr) error->clear();
  return Parser(text, error).Run(value);
}

}  // namespace geacc::obs
