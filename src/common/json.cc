#include "common/json.h"

#include <cctype>
#include <cmath>
#include <cstdio>

#include "common/strings.h"

namespace cexplorer {

// ---------------------------------------------------------------------------
// JsonWriter
// ---------------------------------------------------------------------------

namespace {

/// The per-thread recycled render buffer behind JsonWriter::Recycled().
/// One slot suffices: nested recycled writers on the same thread simply
/// find the slot empty and grow a fresh buffer, and the largest buffer
/// wins the slot back on release.
thread_local std::string t_render_buffer;

void ReleaseRenderBuffer(std::string&& buffer) {
  if (buffer.capacity() > t_render_buffer.capacity()) {
    t_render_buffer = std::move(buffer);
    t_render_buffer.clear();
  }
}

}  // namespace

JsonWriter JsonWriter::Recycled() {
  JsonWriter w;
  w.out_ = std::move(t_render_buffer);
  w.out_.clear();
  w.recycled_ = true;
  return w;
}

JsonWriter::~JsonWriter() {
  if (recycled_) ReleaseRenderBuffer(std::move(out_));
}

JsonWriter::JsonWriter(JsonWriter&& other) noexcept
    : out_(std::move(other.out_)),
      needs_comma_(std::move(other.needs_comma_)),
      pending_key_(other.pending_key_),
      recycled_(other.recycled_) {
  other.out_.clear();
  other.needs_comma_.clear();
  other.pending_key_ = false;
  other.recycled_ = false;
}

JsonWriter& JsonWriter::operator=(JsonWriter&& other) noexcept {
  if (this != &other) {
    if (recycled_) ReleaseRenderBuffer(std::move(out_));
    out_ = std::move(other.out_);
    needs_comma_ = std::move(other.needs_comma_);
    pending_key_ = other.pending_key_;
    recycled_ = other.recycled_;
    other.out_.clear();
    other.needs_comma_.clear();
    other.pending_key_ = false;
    other.recycled_ = false;
  }
  return *this;
}

void JsonWriter::MaybeComma() {
  if (pending_key_) {
    pending_key_ = false;
    return;  // value directly follows its key, no comma
  }
  if (!needs_comma_.empty()) {
    if (needs_comma_.back()) out_ += ',';
    needs_comma_.back() = true;
  }
}

void JsonWriter::BeginObject() {
  MaybeComma();
  out_ += '{';
  needs_comma_.push_back(false);
}

void JsonWriter::EndObject() {
  out_ += '}';
  needs_comma_.pop_back();
}

void JsonWriter::BeginArray() {
  MaybeComma();
  out_ += '[';
  needs_comma_.push_back(false);
}

void JsonWriter::EndArray() {
  out_ += ']';
  needs_comma_.pop_back();
}

void JsonWriter::Key(std::string_view key) {
  MaybeComma();
  out_ += '"';
  out_ += Escape(key);
  out_ += "\":";
  pending_key_ = true;
}

void JsonWriter::String(std::string_view value) {
  MaybeComma();
  out_ += '"';
  out_ += Escape(value);
  out_ += '"';
}

void JsonWriter::Int(std::int64_t value) {
  MaybeComma();
  out_ += std::to_string(value);
}

void JsonWriter::UInt(std::uint64_t value) {
  MaybeComma();
  out_ += std::to_string(value);
}

void JsonWriter::Double(double value) {
  MaybeComma();
  if (std::isfinite(value)) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.12g", value);
    out_ += buf;
  } else {
    out_ += "null";  // JSON has no NaN/Inf
  }
}

void JsonWriter::Bool(bool value) {
  MaybeComma();
  out_ += value ? "true" : "false";
}

void JsonWriter::Null() {
  MaybeComma();
  out_ += "null";
}

std::string JsonWriter::TakeString() {
  std::string result;
  if (recycled_) {
    // One exact-size copy out; the grown buffer goes back to the thread's
    // slot so the next response starts at full capacity.
    result.assign(out_);
    ReleaseRenderBuffer(std::move(out_));
    recycled_ = false;
  } else {
    result = std::move(out_);
  }
  out_.clear();
  needs_comma_.clear();
  pending_key_ = false;
  return result;
}

std::string JsonWriter::Escape(std::string_view raw) {
  std::string out;
  out.reserve(raw.size());
  for (char c : raw) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
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
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// JsonValue parser
// ---------------------------------------------------------------------------

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Result<JsonValue> ParseDocument() {
    SkipSpace();
    JsonValue v;
    Status st = ParseValue(&v);
    if (!st.ok()) return st;
    SkipSpace();
    if (pos_ != text_.size()) {
      return Status::ParseError("trailing characters at offset " +
                                std::to_string(pos_));
    }
    return v;
  }

 private:
  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  Status ParseValue(JsonValue* out) {
    SkipSpace();
    if (pos_ >= text_.size()) return Status::ParseError("unexpected end");
    char c = text_[pos_];
    switch (c) {
      case '{':
      case '[': {
        // The depth bound keeps hostile nesting from exhausting the stack.
        if (depth_ == JsonValue::kMaxDepth) {
          return Status::ParseError("nesting deeper than " +
                                    std::to_string(JsonValue::kMaxDepth) +
                                    " at offset " + std::to_string(pos_));
        }
        ++depth_;
        Status st = c == '{' ? ParseObject(out) : ParseArray(out);
        --depth_;
        return st;
      }
      case '"': {
        std::string s;
        CEXPLORER_RETURN_IF_ERROR(ParseString(&s));
        out->SetString(std::move(s));
        return Status::Ok();
      }
      case 't':
        if (text_.substr(pos_, 4) == "true") {
          pos_ += 4;
          out->SetBool(true);
          return Status::Ok();
        }
        break;
      case 'f':
        if (text_.substr(pos_, 5) == "false") {
          pos_ += 5;
          out->SetBool(false);
          return Status::Ok();
        }
        break;
      case 'n':
        if (text_.substr(pos_, 4) == "null") {
          pos_ += 4;
          *out = JsonValue();
          return Status::Ok();
        }
        break;
      default:
        return ParseNumber(out);
    }
    return Status::ParseError("invalid token at offset " +
                              std::to_string(pos_));
  }

  Status ParseObject(JsonValue* out) {
    ++pos_;  // '{'
    std::map<std::string, JsonValue> members;
    SkipSpace();
    if (Consume('}')) {
      out->SetObject(std::move(members));
      return Status::Ok();
    }
    for (;;) {
      SkipSpace();
      std::string key;
      CEXPLORER_RETURN_IF_ERROR(ParseString(&key));
      SkipSpace();
      if (!Consume(':')) return Status::ParseError("expected ':'");
      JsonValue v;
      CEXPLORER_RETURN_IF_ERROR(ParseValue(&v));
      members.emplace(std::move(key), std::move(v));
      SkipSpace();
      if (Consume(',')) continue;
      if (Consume('}')) break;
      return Status::ParseError("expected ',' or '}'");
    }
    out->SetObject(std::move(members));
    return Status::Ok();
  }

  Status ParseArray(JsonValue* out) {
    ++pos_;  // '['
    std::vector<JsonValue> items;
    SkipSpace();
    if (Consume(']')) {
      out->SetArray(std::move(items));
      return Status::Ok();
    }
    for (;;) {
      JsonValue v;
      CEXPLORER_RETURN_IF_ERROR(ParseValue(&v));
      items.push_back(std::move(v));
      SkipSpace();
      if (Consume(',')) continue;
      if (Consume(']')) break;
      return Status::ParseError("expected ',' or ']'");
    }
    out->SetArray(std::move(items));
    return Status::Ok();
  }

  /// Reads the four hex digits of a \u escape into `*code`.
  Status ParseHex4(unsigned* code) {
    if (pos_ + 4 > text_.size()) {
      return Status::ParseError("truncated \\u escape");
    }
    *code = 0;
    for (int i = 0; i < 4; ++i) {
      char h = text_[pos_++];
      *code <<= 4;
      if (h >= '0' && h <= '9') {
        *code |= static_cast<unsigned>(h - '0');
      } else if (h >= 'a' && h <= 'f') {
        *code |= static_cast<unsigned>(h - 'a' + 10);
      } else if (h >= 'A' && h <= 'F') {
        *code |= static_cast<unsigned>(h - 'A' + 10);
      } else {
        return Status::ParseError("bad \\u escape");
      }
    }
    return Status::Ok();
  }

  /// UTF-8 encoding of one code point (at most U+10FFFF, not a surrogate).
  static void AppendUtf8(unsigned code, std::string* out) {
    if (code < 0x80) {
      *out += static_cast<char>(code);
    } else if (code < 0x800) {
      *out += static_cast<char>(0xC0 | (code >> 6));
      *out += static_cast<char>(0x80 | (code & 0x3F));
    } else if (code < 0x10000) {
      *out += static_cast<char>(0xE0 | (code >> 12));
      *out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      *out += static_cast<char>(0x80 | (code & 0x3F));
    } else {
      *out += static_cast<char>(0xF0 | (code >> 18));
      *out += static_cast<char>(0x80 | ((code >> 12) & 0x3F));
      *out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      *out += static_cast<char>(0x80 | (code & 0x3F));
    }
  }

  Status ParseString(std::string* out) {
    if (!Consume('"')) return Status::ParseError("expected '\"'");
    out->clear();
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') return Status::Ok();
      if (c == '\\') {
        if (pos_ >= text_.size()) break;
        char e = text_[pos_++];
        switch (e) {
          case '"':
            *out += '"';
            break;
          case '\\':
            *out += '\\';
            break;
          case '/':
            *out += '/';
            break;
          case 'n':
            *out += '\n';
            break;
          case 't':
            *out += '\t';
            break;
          case 'r':
            *out += '\r';
            break;
          case 'b':
            *out += '\b';
            break;
          case 'f':
            *out += '\f';
            break;
          case 'u': {
            unsigned code = 0;
            CEXPLORER_RETURN_IF_ERROR(ParseHex4(&code));
            if (code >= 0xDC00 && code <= 0xDFFF) {
              return Status::ParseError("lone low surrogate in \\u escape");
            }
            if (code >= 0xD800 && code <= 0xDBFF) {
              // A high surrogate must be followed by a \u low surrogate;
              // the pair names one code point above the BMP.
              unsigned low = 0;
              if (text_.substr(pos_, 2) != "\\u") {
                return Status::ParseError("lone high surrogate in \\u escape");
              }
              pos_ += 2;
              CEXPLORER_RETURN_IF_ERROR(ParseHex4(&low));
              if (low < 0xDC00 || low > 0xDFFF) {
                return Status::ParseError("lone high surrogate in \\u escape");
              }
              code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
            }
            AppendUtf8(code, out);
            break;
          }
          default:
            return Status::ParseError("bad escape character");
        }
      } else {
        *out += c;
      }
    }
    return Status::ParseError("unterminated string");
  }

  Status ParseNumber(JsonValue* out) {
    std::size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    double value = 0.0;
    if (!ParseDouble(text_.substr(start, pos_ - start), &value)) {
      return Status::ParseError("invalid number at offset " +
                                std::to_string(start));
    }
    out->SetNumber(value);
    return Status::Ok();
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;  // arrays/objects currently open
};

const JsonValue& NullValue() {
  static const JsonValue kNull;
  return kNull;
}

const std::string& EmptyString() {
  static const std::string kEmpty;
  return kEmpty;
}

const std::vector<JsonValue>& EmptyArray() {
  static const std::vector<JsonValue> kEmpty;
  return kEmpty;
}

}  // namespace

Result<JsonValue> JsonValue::Parse(std::string_view text) {
  Parser p(text);
  return p.ParseDocument();
}

bool JsonValue::AsBool(bool fallback) const {
  return type_ == Type::kBool ? bool_ : fallback;
}

double JsonValue::AsDouble(double fallback) const {
  return type_ == Type::kNumber ? number_ : fallback;
}

std::int64_t JsonValue::AsInt(std::int64_t fallback) const {
  // 2^63 is exact as a double. Casting a number outside [-2^63, 2^63), or
  // NaN, to int64 is undefined, so those read as the fallback.
  constexpr double kLimit = 9223372036854775808.0;
  if (type_ != Type::kNumber || !(number_ >= -kLimit && number_ < kLimit)) {
    return fallback;
  }
  return static_cast<std::int64_t>(number_);
}

const std::string& JsonValue::AsString() const {
  return type_ == Type::kString ? string_ : EmptyString();
}

const std::vector<JsonValue>& JsonValue::Items() const {
  return type_ == Type::kArray ? array_ : EmptyArray();
}

const std::map<std::string, JsonValue>& JsonValue::Members() const {
  static const std::map<std::string, JsonValue> kEmpty;
  return type_ == Type::kObject ? object_ : kEmpty;
}

const JsonValue& JsonValue::Get(const std::string& key) const {
  if (type_ != Type::kObject) return NullValue();
  auto it = object_.find(key);
  if (it == object_.end()) return NullValue();
  return it->second;
}

bool JsonValue::Has(const std::string& key) const {
  return type_ == Type::kObject && object_.count(key) > 0;
}

std::string JsonValue::Dump() const {
  JsonWriter w;
  // Recursive lambda over the DOM.
  auto emit = [&w](const JsonValue& v, auto&& self) -> void {
    switch (v.type()) {
      case Type::kNull:
        w.Null();
        break;
      case Type::kBool:
        w.Bool(v.bool_);
        break;
      case Type::kNumber:
        w.Double(v.number_);
        break;
      case Type::kString:
        w.String(v.string_);
        break;
      case Type::kArray:
        w.BeginArray();
        for (const auto& item : v.array_) self(item, self);
        w.EndArray();
        break;
      case Type::kObject:
        w.BeginObject();
        for (const auto& [k, item] : v.object_) {
          w.Key(k);
          self(item, self);
        }
        w.EndObject();
        break;
    }
  };
  emit(*this, emit);
  return w.TakeString();
}

void JsonValue::SetBool(bool v) {
  type_ = Type::kBool;
  bool_ = v;
}

void JsonValue::SetNumber(double v) {
  type_ = Type::kNumber;
  number_ = v;
}

void JsonValue::SetString(std::string v) {
  type_ = Type::kString;
  string_ = std::move(v);
}

void JsonValue::SetArray(std::vector<JsonValue> v) {
  type_ = Type::kArray;
  array_ = std::move(v);
}

void JsonValue::SetObject(std::map<std::string, JsonValue> v) {
  type_ = Type::kObject;
  object_ = std::move(v);
}

}  // namespace cexplorer
