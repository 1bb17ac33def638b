#include "server/json.hpp"

#include <bit>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>

namespace lsml::server {

namespace {

static_assert(std::endian::native == std::endian::little,
              "the string scan loads eight bytes per word, the first byte "
              "in the low bits");

constexpr std::uint64_t kEachByte = 0x0101010101010101ULL;
constexpr std::uint64_t kByteHighBits = 0x8080808080808080ULL;

/// Bit 7 of a byte is set for the first byte of `x` (eight text bytes, the
/// first in the low bits) that is '"', '\\' or below 0x20. Bytes above
/// it may be marked too (a subtraction borrow runs upward), so only the
/// lowest mark means anything.
std::uint64_t special_byte_marks(std::uint64_t x) {
  const std::uint64_t quote = x ^ (kEachByte * '"');
  const std::uint64_t backslash = x ^ (kEachByte * '\\');
  return (((quote - kEachByte) & ~quote) |
          ((backslash - kEachByte) & ~backslash) |
          ((x - kEachByte * 0x20) & ~x)) &
         kByteHighBits;
}

[[noreturn]] void fail(const std::string& what) { throw JsonError(what); }

void type_check(bool ok, const char* want) {
  if (!ok) {
    fail(std::string("JSON value is not ") + want);
  }
}

}  // namespace

/// An all-string array: element i is bytes[ends[i-1], ends[i]) (from 0 for
/// i = 0). Immutable once built except for the element Jsons, which at(i)
/// builds once under `once`, so const access from many threads is safe.
struct Json::PackedStrings {
  std::string bytes;
  std::vector<std::size_t> ends;
  mutable std::once_flag once;
  mutable std::vector<Json> elements;

  [[nodiscard]] std::string_view view(std::size_t i) const {
    const std::size_t begin = i == 0 ? 0 : ends[i - 1];
    return {bytes.data() + begin, ends[i] - begin};
  }

  const std::vector<Json>& built_elements() const {
    std::call_once(once, [this] {
      elements.reserve(ends.size());
      for (std::size_t i = 0; i < ends.size(); ++i) {
        elements.emplace_back(std::string(view(i)));
      }
    });
    return elements;
  }
};

std::size_t find_special_byte(const char* data, std::size_t from,
                              std::size_t size) {
  std::size_t i = from;
  for (; i + 8 <= size; i += 8) {
    std::uint64_t x = 0;
    std::memcpy(&x, data + i, 8);
    if (const std::uint64_t marks = special_byte_marks(x); marks != 0) {
      return i + static_cast<std::size_t>(std::countr_zero(marks)) / 8;
    }
  }
  for (; i < size; ++i) {
    const auto u = static_cast<unsigned char>(data[i]);
    if (u == '"' || u == '\\' || u < 0x20) {
      break;
    }
  }
  return i;
}

bool Json::as_bool() const {
  type_check(type_ == Type::kBool, "a bool");
  return bool_;
}

std::int64_t Json::as_int() const {
  type_check(is_number(), "a number");
  return type_ == Type::kInt ? int_ : static_cast<std::int64_t>(double_);
}

double Json::as_double() const {
  type_check(is_number(), "a number");
  return type_ == Type::kInt ? static_cast<double>(int_) : double_;
}

const std::string& Json::as_string() const {
  type_check(type_ == Type::kString, "a string");
  return string_;
}

void Json::push_back(Json v) {
  type_check(type_ == Type::kArray, "an array");
  if (packed_ != nullptr) {  // unpack; copies sharing the node keep it
    array_ = packed_->built_elements();
    packed_.reset();
  }
  array_.push_back(std::move(v));
}

std::size_t Json::size() const {
  if (type_ == Type::kArray) {
    return packed_ != nullptr ? packed_->ends.size() : array_.size();
  }
  if (type_ == Type::kObject) {
    return object_.size();
  }
  fail("JSON value is not a container");
}

const Json& Json::at(std::size_t i) const {
  type_check(type_ == Type::kArray, "an array");
  if (i >= size()) {
    fail("JSON array index out of range");
  }
  return packed_ != nullptr ? packed_->built_elements()[i] : array_[i];
}

void Json::string_views_into(std::vector<std::string_view>* out) const {
  type_check(type_ == Type::kArray, "an array");
  out->resize(size());
  for (std::size_t i = 0; i < out->size(); ++i) {
    (*out)[i] = packed_ != nullptr       ? packed_->view(i)
                : array_[i].is_string() ? std::string_view(array_[i].string_)
                                        : std::string_view();
  }
}

void Json::set(std::string key, Json value) {
  type_check(type_ == Type::kObject, "an object");
  for (auto& member : object_) {
    if (member.first == key) {
      member.second = std::move(value);
      return;
    }
  }
  object_.emplace_back(std::move(key), std::move(value));
}

bool Json::has(const std::string& key) const { return find(key) != nullptr; }

const Json& Json::at(const std::string& key) const {
  const Json* v = find(key);
  if (v == nullptr) {
    fail("missing JSON member '" + key + "'");
  }
  return *v;
}

const Json* Json::find(const std::string& key) const {
  if (type_ != Type::kObject) {
    return nullptr;
  }
  for (const auto& member : object_) {
    if (member.first == key) {
      return &member.second;
    }
  }
  return nullptr;
}

const std::vector<std::pair<std::string, Json>>& Json::members() const {
  type_check(type_ == Type::kObject, "an object");
  return object_;
}

// --------------------------------------------------------------- dumping

namespace {

void dump_string(std::string_view s, std::string* out) {
  out->push_back('"');
  // Bulk-append runs that need no escaping; payload strings (minterm rows,
  // output bit strings, PLA text between newlines) are almost entirely
  // clean runs.
  std::size_t i = 0;
  while (i < s.size()) {
    const std::size_t run = find_special_byte(s.data(), i, s.size());
    out->append(s.data() + i, run - i);
    if (run >= s.size()) {
      break;
    }
    i = run;
    const char c = s[i++];
    const auto u = static_cast<unsigned char>(c);
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\r':
        *out += "\\r";
        break;
      case '\t':
        *out += "\\t";
        break;
      case '\b':
        *out += "\\b";
        break;
      case '\f':
        *out += "\\f";
        break;
      default:
        if (u < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", u);
          *out += buf;
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

}  // namespace

void Json::dump_to(std::string* out) const {
  switch (type_) {
    case Type::kNull:
      *out += "null";
      return;
    case Type::kBool:
      *out += bool_ ? "true" : "false";
      return;
    case Type::kInt: {
      char buf[24];
      const auto res = std::to_chars(buf, buf + sizeof buf, int_);
      out->append(buf, res.ptr);
      return;
    }
    case Type::kDouble: {
      if (!std::isfinite(double_)) {
        // JSON has no Inf/NaN; the protocol never produces them, but a
        // defensive spelling beats emitting an unparseable token.
        *out += "null";
        return;
      }
      char buf[32];
      const auto res = std::to_chars(buf, buf + sizeof buf, double_);
      out->append(buf, res.ptr);
      return;
    }
    case Type::kString:
      dump_string(string_, out);
      return;
    case Type::kArray: {
      out->push_back('[');
      for (std::size_t i = 0; i < size(); ++i) {
        if (i > 0) {
          out->push_back(',');
        }
        if (packed_ != nullptr) {
          dump_string(packed_->view(i), out);
        } else {
          array_[i].dump_to(out);
        }
      }
      out->push_back(']');
      return;
    }
    case Type::kObject: {
      out->push_back('{');
      for (std::size_t i = 0; i < object_.size(); ++i) {
        if (i > 0) {
          out->push_back(',');
        }
        dump_string(object_[i].first, out);
        out->push_back(':');
        object_[i].second.dump_to(out);
      }
      out->push_back('}');
      return;
    }
  }
}

std::string Json::dump() const {
  std::string out;
  dump_to(&out);
  return out;
}

// --------------------------------------------------------------- parsing

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  Json parse_document() {
    Json v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) {
      fail_at("trailing characters after JSON value");
    }
    return v;
  }

 private:
  [[noreturn]] void fail_at(const std::string& what) const {
    fail(what + " at byte " + std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) {
      fail_at("unexpected end of JSON text");
    }
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) {
      fail_at(std::string("expected '") + c + "'");
    }
    ++pos_;
  }

  bool consume_literal(const char* lit) {
    const std::size_t n = std::char_traits<char>::length(lit);
    if (text_.compare(pos_, n, lit) == 0) {
      pos_ += n;
      return true;
    }
    return false;
  }

  Json parse_value() {
    // Recursion is bounded so a hostile "[[[[..." request line becomes a
    // JsonError (one failed request), never a stack overflow (one dead
    // daemon). 64 levels is far beyond anything the protocol nests.
    if (depth_ >= 64) {
      fail_at("JSON nesting deeper than 64 levels");
    }
    skip_ws();
    const char c = peek();
    switch (c) {
      case '{': {
        ++depth_;
        Json v = parse_object();
        --depth_;
        return v;
      }
      case '[': {
        ++depth_;
        Json v = parse_array();
        --depth_;
        return v;
      }
      case '"':
        return Json(parse_string());
      case 't':
        if (consume_literal("true")) {
          return Json(true);
        }
        fail_at("bad literal");
      case 'f':
        if (consume_literal("false")) {
          return Json(false);
        }
        fail_at("bad literal");
      case 'n':
        if (consume_literal("null")) {
          return Json();
        }
        fail_at("bad literal");
      default:
        return parse_number();
    }
  }

  Json parse_object() {
    expect('{');
    Json obj = Json::object();
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return obj;
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      obj.set(std::move(key), parse_value());
      skip_ws();
      const char c = peek();
      ++pos_;
      if (c == '}') {
        return obj;
      }
      if (c != ',') {
        fail_at("expected ',' or '}' in object");
      }
    }
  }

  /// Arrays start packed: string elements are collected as spans until
  /// the ']' (one PackedStrings node) or the first other element (the
  /// strings so far become ordinary elements, and the rest parse as
  /// values).
  Json parse_array() {
    expect('[');
    Json arr = Json::array();
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return arr;
    }
    spans_.clear();
    decoded_.clear();
    while (peek() == '"') {
      parse_string_span();
      if (end_of_element()) {
        arr.packed_ = pack_spans();
        return arr;
      }
      skip_ws();
    }
    for (const Span& span : spans_) {
      arr.array_.emplace_back(std::string(span_bytes(span)));
    }
    while (true) {
      arr.array_.push_back(parse_value());
      if (end_of_element()) {
        return arr;
      }
    }
  }

  /// Consumes the ',' or ']' after an array element; true at the ']'.
  bool end_of_element() {
    skip_ws();
    const char c = peek();
    ++pos_;
    if (c == ']') {
      return true;
    }
    if (c != ',') {
      fail_at("expected ',' or ']' in array");
    }
    return false;
  }

  /// A string element of a packed array: `size` bytes at `begin` of the
  /// request text, or of decoded_ when the string holds escapes.
  struct Span {
    std::size_t begin;
    std::size_t size;
    bool decoded;
  };

  std::string_view span_bytes(const Span& span) const {
    return {(span.decoded ? decoded_.data() : text_.data()) + span.begin,
            span.size};
  }

  void parse_string_span() {
    expect('"');
    const std::size_t run = scan_plain_run();
    if (run < text_.size() && text_[run] == '"') {
      spans_.push_back({pos_, run - pos_, false});
      pos_ = run + 1;
      return;
    }
    const std::size_t begin = decoded_.size();
    parse_string_tail(&decoded_);
    spans_.push_back({begin, decoded_.size() - begin, true});
  }

  /// Copies the collected spans into one buffer, sized before it is filled.
  std::shared_ptr<const Json::PackedStrings> pack_spans() const {
    auto packed = std::make_shared<Json::PackedStrings>();
    std::size_t total = 0;
    for (const Span& span : spans_) {
      total += span.size;
    }
    packed->bytes.reserve(total);
    packed->ends.reserve(spans_.size());
    for (const Span& span : spans_) {
      packed->bytes.append(span_bytes(span));
      packed->ends.push_back(packed->bytes.size());
    }
    return packed;
  }

  unsigned parse_hex4() {
    if (pos_ + 4 > text_.size()) {
      fail_at("truncated \\u escape");
    }
    unsigned value = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_++];
      value <<= 4;
      if (c >= '0' && c <= '9') {
        value |= static_cast<unsigned>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        value |= static_cast<unsigned>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        value |= static_cast<unsigned>(c - 'A' + 10);
      } else {
        fail_at("bad \\u escape digit");
      }
    }
    return value;
  }

  void append_utf8(unsigned cp, std::string* out) {
    if (cp < 0x80) {
      out->push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out->push_back(static_cast<char>(0xc0 | (cp >> 6)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3f)));
    } else if (cp < 0x10000) {
      out->push_back(static_cast<char>(0xe0 | (cp >> 12)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3f)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3f)));
    } else {
      out->push_back(static_cast<char>(0xf0 | (cp >> 18)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3f)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3f)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3f)));
    }
  }

  /// Index of the next byte that ends a plain run: a quote, a backslash,
  /// or a control byte. Scanning a whole span and bulk-appending it beats
  /// byte-at-a-time push_back — request lines are dominated by long clean
  /// strings (minterm rows, PLA payloads).
  std::size_t scan_plain_run() const {
    return find_special_byte(text_.data(), pos_, text_.size());
  }

  std::string parse_string() {
    expect('"');
    // Fast path: the whole string is one clean run (no escapes).
    const std::size_t run = scan_plain_run();
    if (run < text_.size() && text_[run] == '"') {
      std::string out(text_, pos_, run - pos_);
      pos_ = run + 1;
      return out;
    }
    std::string out;
    parse_string_tail(&out);
    return out;
  }

  /// Escape-handling slow path: appends the decoded string to *out; pos_
  /// sits just past the opening quote.
  void parse_string_tail(std::string* out) {
    while (true) {
      const std::size_t run = scan_plain_run();
      out->append(text_, pos_, run - pos_);
      pos_ = run;
      if (pos_ >= text_.size()) {
        fail_at("unterminated string");
      }
      const char c = text_[pos_++];
      if (c == '"') {
        return;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        fail_at("raw control character in string");
      }
      if (pos_ >= text_.size()) {
        fail_at("truncated escape");
      }
      const char e = text_[pos_++];
      switch (e) {
        case '"':
          out->push_back('"');
          break;
        case '\\':
          out->push_back('\\');
          break;
        case '/':
          out->push_back('/');
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
        case 'b':
          out->push_back('\b');
          break;
        case 'f':
          out->push_back('\f');
          break;
        case 'u': {
          unsigned cp = parse_hex4();
          if (cp >= 0xd800 && cp <= 0xdbff) {
            // UTF-16 surrogate pair.
            if (pos_ + 1 >= text_.size() || text_[pos_] != '\\' ||
                text_[pos_ + 1] != 'u') {
              fail_at("unpaired UTF-16 surrogate");
            }
            pos_ += 2;
            const unsigned low = parse_hex4();
            if (low < 0xdc00 || low > 0xdfff) {
              fail_at("bad UTF-16 low surrogate");
            }
            cp = 0x10000 + ((cp - 0xd800) << 10) + (low - 0xdc00);
          } else if (cp >= 0xdc00 && cp <= 0xdfff) {
            fail_at("unpaired UTF-16 surrogate");
          }
          append_utf8(cp, out);
          break;
        }
        default:
          fail_at("unknown escape");
      }
    }
  }

  Json parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') {
      ++pos_;
    }
    if (pos_ >= text_.size() || text_[pos_] < '0' || text_[pos_] > '9') {
      fail_at("bad number");
    }
    if (text_[pos_] == '0' && pos_ + 1 < text_.size() &&
        text_[pos_ + 1] >= '0' && text_[pos_ + 1] <= '9') {
      fail_at("leading zero in number");
    }
    bool integral = true;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c >= '0' && c <= '9') {
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        integral = false;
        ++pos_;
      } else {
        break;
      }
    }
    const char* first = text_.data() + start;
    const char* last = text_.data() + pos_;
    if (integral) {
      std::int64_t v = 0;
      const auto res = std::from_chars(first, last, v);
      if (res.ec == std::errc() && res.ptr == last) {
        return Json(v);
      }
      // Out-of-range integer literal: fall through to double.
    }
    // strtod needs a terminated buffer; numbers are rare enough in the
    // protocol that the copy does not matter.
    const std::string token(first, last);
    char* end = nullptr;
    const double d = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) {
      fail_at("bad number '" + token + "'");
    }
    return Json(d);
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
  // Scratch of the array being packed; an array only recurses into a
  // nested value after its strings have left them.
  std::vector<Span> spans_;
  std::string decoded_;
};

Json Json::parse(const std::string& text) {
  return JsonParser(text).parse_document();
}

}  // namespace lsml::server
