// Minimal JSON support for the server module.
//
// JsonWriter is a streaming writer used to render responses; JsonValue is a
// small DOM with a recursive-descent parser, sufficient for request bodies
// and for round-trip testing. Neither aims at full RFC 8259 coverage
// (numbers are doubles; \uXXXX escapes outside the BMP are not combined).

#ifndef CEXPLORER_COMMON_JSON_H_
#define CEXPLORER_COMMON_JSON_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace cexplorer {

/// Streaming JSON writer with explicit Begin/End nesting.
///
///   JsonWriter w;
///   w.BeginObject();
///   w.Key("vertices"); w.Int(42);
///   w.Key("names"); w.BeginArray(); w.String("jim gray"); w.EndArray();
///   w.EndObject();
///   std::string out = w.TakeString();
class JsonWriter {
 public:
  JsonWriter() = default;
  ~JsonWriter();

  JsonWriter(JsonWriter&& other) noexcept;
  JsonWriter& operator=(JsonWriter&& other) noexcept;
  JsonWriter(const JsonWriter&) = delete;
  JsonWriter& operator=(const JsonWriter&) = delete;

  /// A writer rendering into the calling thread's recycled buffer: the
  /// buffer's capacity is retained across responses (thread-local, so
  /// pooled per server worker), which makes steady-state rendering free of
  /// growth reallocations — TakeString() then hands out one exact-size
  /// copy and returns the big buffer to the thread's slot. Use for
  /// response bodies on hot paths; the default constructor keeps the
  /// plain own-buffer behavior.
  static JsonWriter Recycled();

  void BeginObject();
  void EndObject();
  void BeginArray();
  void EndArray();

  /// Writes an object key; must be followed by exactly one value.
  void Key(std::string_view key);

  void String(std::string_view value);
  void Int(std::int64_t value);
  void UInt(std::uint64_t value);
  void Double(double value);
  void Bool(bool value);
  void Null();

  /// Returns the accumulated document and resets the writer.
  std::string TakeString();

  /// Escapes a string per JSON rules (quotes not included).
  static std::string Escape(std::string_view raw);

 private:
  void MaybeComma();

  std::string out_;
  // Stack of "needs comma before next element" flags per nesting level.
  std::vector<bool> needs_comma_;
  bool pending_key_ = false;
  // True when out_ is borrowed from the thread-local recycled slot and
  // must be given back (by TakeString or the destructor).
  bool recycled_ = false;
};

/// JSON DOM node: null, bool, number, string, array, or object.
class JsonValue {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() : type_(Type::kNull) {}

  /// Parses a complete JSON document (trailing whitespace allowed).
  static Result<JsonValue> Parse(std::string_view text);

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_object() const { return type_ == Type::kObject; }
  bool is_array() const { return type_ == Type::kArray; }

  /// Value accessors; defaults returned on type mismatch. AsInt truncates
  /// toward zero and returns the fallback for numbers outside int64.
  bool AsBool(bool fallback = false) const;
  double AsDouble(double fallback = 0.0) const;
  std::int64_t AsInt(std::int64_t fallback = 0) const;
  const std::string& AsString() const;

  /// Array access; empty vector on mismatch.
  const std::vector<JsonValue>& Items() const;

  /// Object member lookup; null value reference when absent.
  const JsonValue& Get(const std::string& key) const;
  bool Has(const std::string& key) const;

  /// All object members, key-sorted; empty map on mismatch.
  const std::map<std::string, JsonValue>& Members() const;

  /// Serializes back to compact JSON.
  std::string Dump() const;

  // Mutators used by the parser and by tests building documents by hand.
  void SetBool(bool v);
  void SetNumber(double v);
  void SetString(std::string v);
  void SetArray(std::vector<JsonValue> v);
  void SetObject(std::map<std::string, JsonValue> v);

 private:
  Type type_;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::map<std::string, JsonValue> object_;
};

}  // namespace cexplorer

#endif  // CEXPLORER_COMMON_JSON_H_
