// Minimal JSON document model: parse, build, dump.
//
// Exists so the trace exporters, the bench --json reports, the golden-file
// tests and the schema checker all share one implementation with zero
// external dependencies. Deliberately small: UTF-8 pass-through, numbers as
// double, objects keep key order of insertion (deterministic dumps — the
// golden tests diff exporter output byte-for-byte).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace armbar::trace {

class Json {
 public:
  enum class Type : std::uint8_t { kNull, kBool, kNumber, kString, kArray, kObject };

  Json() = default;
  Json(std::nullptr_t) {}  // NOLINT(google-explicit-constructor)
  Json(bool b) : type_(Type::kBool), bool_(b) {}  // NOLINT
  Json(double n) : type_(Type::kNumber), num_(n) {}  // NOLINT
  Json(int n) : Json(static_cast<double>(n)) {}  // NOLINT
  Json(std::uint64_t n) : Json(static_cast<double>(n)) {}  // NOLINT
  Json(std::int64_t n) : Json(static_cast<double>(n)) {}  // NOLINT
  Json(std::string s) : type_(Type::kString), str_(std::move(s)) {}  // NOLINT
  Json(const char* s) : Json(std::string(s)) {}  // NOLINT

  static Json array() { Json j; j.type_ = Type::kArray; return j; }
  static Json object() { Json j; j.type_ = Type::kObject; return j; }

  /// Parse a complete JSON document. Returns a kNull value and sets *err on
  /// malformed input (a parsed `null` leaves *err empty).
  static Json parse(std::string_view text, std::string* err = nullptr);

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  bool boolean() const { return bool_; }
  double number() const { return num_; }
  const std::string& str() const { return str_; }
  const std::vector<Json>& items() const { return items_; }
  const std::vector<std::pair<std::string, Json>>& members() const { return members_; }

  /// Object member lookup; nullptr when absent or not an object.
  const Json* find(std::string_view key) const;
  Json* find_mut(std::string_view key) {
    return const_cast<Json*>(std::as_const(*this).find(key));
  }

  /// Array append (value must be kArray).
  Json& push(Json v);
  /// Object insert/overwrite (value must be kObject). Keeps insertion order.
  Json& set(std::string key, Json v);

  std::size_t size() const {
    return type_ == Type::kArray ? items_.size()
         : type_ == Type::kObject ? members_.size() : 0;
  }

  /// Serialize. indent < 0 → compact one-line; otherwise pretty-print with
  /// `indent` spaces per level. Deterministic for a given document.
  std::string dump(int indent = -1) const;

 private:
  void dump_to(std::string& out, int indent, int depth) const;

  Type type_ = Type::kNull;
  bool bool_ = false;
  double num_ = 0.0;
  std::string str_;
  std::vector<Json> items_;
  std::vector<std::pair<std::string, Json>> members_;
};

/// Write `text` to `path` byte for byte, creating or truncating it: the one
/// writer behind every report, trace, profile and bundle file. False when
/// the file cannot be opened, written or closed.
bool write_file(const std::string& path, const std::string& text);

}  // namespace armbar::trace
