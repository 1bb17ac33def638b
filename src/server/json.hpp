#pragma once
// Minimal JSON for the serving protocol.
//
// The `lsml serve` wire format is newline-delimited JSON: one request
// object per line in, one response object per line out. This is the whole
// JSON implementation behind it — a small tagged value with a recursive-
// descent parser and a canonical serializer. Design constraints, in order:
//
//   1. Determinism: objects preserve insertion order and dump() emits a
//      single canonical spelling (shortest round-trip numbers via
//      std::to_chars, fixed escape set, no whitespace), so two servers
//      answering the same request produce byte-identical lines — the
//      property the concurrent-vs-serial bit-identity tests pin.
//   2. Robustness: parse() throws JsonError with context on malformed
//      input and never reads past the buffer; it is fed straight from the
//      socket.
//   3. No dependencies: the container ships no JSON library, and this
//      repo adds none.
//
// Payloads (PLA text, AIGER text) travel as ordinary JSON strings with
// embedded "\n" escapes, which is what keeps the framing one-line-per-
// message without a length prefix.
//
// An array whose elements are all strings (eval rows, eval outputs) parses
// into one packed node instead of one Json per element: the decoded bytes
// back to back in a single buffer plus end offsets, shared by copies.
// string_views_into() reads it without building elements; at(i) builds
// them once, on first use; a mutator unpacks the node first.

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace lsml::server {

/// Malformed JSON text (or a type-mismatched accessor).
class JsonError : public std::runtime_error {
 public:
  explicit JsonError(const std::string& what) : std::runtime_error(what) {}
};

class JsonParser;

class Json {
 public:
  enum class Type { kNull, kBool, kInt, kDouble, kString, kArray, kObject };

  Json() = default;  // null
  Json(bool v) : type_(Type::kBool), bool_(v) {}                    // NOLINT
  Json(std::int64_t v) : type_(Type::kInt), int_(v) {}              // NOLINT
  Json(int v) : Json(static_cast<std::int64_t>(v)) {}               // NOLINT
  Json(std::uint32_t v) : Json(static_cast<std::int64_t>(v)) {}     // NOLINT
  Json(std::uint64_t v) : Json(static_cast<std::int64_t>(v)) {}     // NOLINT
  Json(double v) : type_(Type::kDouble), double_(v) {}              // NOLINT
  Json(std::string v) : type_(Type::kString), string_(std::move(v)) {}  // NOLINT
  Json(const char* v) : Json(std::string(v)) {}                     // NOLINT

  static Json array() {
    Json j;
    j.type_ = Type::kArray;
    return j;
  }
  static Json object() {
    Json j;
    j.type_ = Type::kObject;
    return j;
  }

  [[nodiscard]] Type type() const { return type_; }
  [[nodiscard]] bool is_null() const { return type_ == Type::kNull; }
  [[nodiscard]] bool is_bool() const { return type_ == Type::kBool; }
  [[nodiscard]] bool is_number() const {
    return type_ == Type::kInt || type_ == Type::kDouble;
  }
  [[nodiscard]] bool is_string() const { return type_ == Type::kString; }
  [[nodiscard]] bool is_array() const { return type_ == Type::kArray; }
  [[nodiscard]] bool is_object() const { return type_ == Type::kObject; }

  [[nodiscard]] bool as_bool() const;
  /// Any number as int64 (doubles are truncated toward zero).
  [[nodiscard]] std::int64_t as_int() const;
  [[nodiscard]] double as_double() const;
  [[nodiscard]] const std::string& as_string() const;

  // ------------------------------------------------------------- arrays
  void push_back(Json v);
  [[nodiscard]] std::size_t size() const;
  /// The i-th element, valid until the array is mutated or destroyed (a
  /// packed array builds all its elements once, on the first call).
  [[nodiscard]] const Json& at(std::size_t i) const;
  /// Sets *out to one view per element of this array: the string's bytes
  /// for a string element (never a null data()), a null view for any
  /// other. The views live as long as at(i) references do.
  void string_views_into(std::vector<std::string_view>* out) const;

  // ------------------------------------------------------------ objects
  /// Appends (or replaces) a member; insertion order is dump() order.
  void set(std::string key, Json value);
  [[nodiscard]] bool has(const std::string& key) const;
  /// Member lookup; throws JsonError when absent.
  [[nodiscard]] const Json& at(const std::string& key) const;
  /// Member lookup; nullptr when absent.
  [[nodiscard]] const Json* find(const std::string& key) const;
  [[nodiscard]] const std::vector<std::pair<std::string, Json>>& members()
      const;

  /// Canonical single-line serialization (no whitespace, shortest
  /// round-trip numbers, minimal escapes).
  [[nodiscard]] std::string dump() const;

  /// Parses exactly one JSON value; trailing non-whitespace throws.
  static Json parse(const std::string& text);

 private:
  friend class JsonParser;
  struct PackedStrings;

  void dump_to(std::string* out) const;

  Type type_ = Type::kNull;
  bool bool_ = false;
  std::int64_t int_ = 0;
  double double_ = 0.0;
  std::string string_;
  std::vector<Json> array_;
  std::vector<std::pair<std::string, Json>> object_;
  /// Set on an array parsed with only string elements; array_ is then empty.
  std::shared_ptr<const PackedStrings> packed_;
};

/// Index of the first byte in data[from, size) that a JSON string cannot
/// hold raw — '"', '\\' or a control byte below 0x20 — or `size` if there
/// is none. Scans eight bytes per step; parse() and dump() both find the
/// ends of plain string runs with it.
std::size_t find_special_byte(const char* data, std::size_t from,
                              std::size_t size);

}  // namespace lsml::server
