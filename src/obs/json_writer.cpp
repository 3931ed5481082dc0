#include "obs/json_writer.h"

#include <bit>
#include <charconv>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "util/jsonio.h"

namespace coolopt::obs {

void JsonWriter::before_value() {
  if (key_pending_) {  // the key already wrote the separator
    key_pending_ = false;
    return;
  }
  if (root_done_) throw std::logic_error("JsonWriter: document already complete");
  if (depth_ == 0) return;  // the root container itself
  if (stack_[depth_ - 1] == Scope::kObject) {
    throw std::logic_error("JsonWriter: value in object without a key");
  }
  if (has_items_[depth_ - 1]) out_.push_back(',');
  has_items_[depth_ - 1] = true;
}

void JsonWriter::push(Scope s) {
  if (depth_ == kMaxDepth) {
    throw std::logic_error("JsonWriter: nesting deeper than kMaxDepth");
  }
  before_value();
  out_.push_back(s == Scope::kObject ? '{' : '[');
  stack_[depth_] = s;
  has_items_[depth_] = false;
  ++depth_;
}

void JsonWriter::pop(Scope s) {
  if (depth_ == 0 || stack_[depth_ - 1] != s) {
    throw std::logic_error("JsonWriter: mismatched container close");
  }
  if (key_pending_) throw std::logic_error("JsonWriter: dangling key at close");
  out_.push_back(s == Scope::kObject ? '}' : ']');
  if (--depth_ == 0) root_done_ = true;
}

void JsonWriter::begin_object() { push(Scope::kObject); }
void JsonWriter::end_object() { pop(Scope::kObject); }
void JsonWriter::begin_array() { push(Scope::kArray); }
void JsonWriter::end_array() { pop(Scope::kArray); }

void JsonWriter::key(std::string_view name) {
  if (depth_ == 0 || stack_[depth_ - 1] != Scope::kObject) {
    throw std::logic_error("JsonWriter: key outside an object");
  }
  if (key_pending_) throw std::logic_error("JsonWriter: two keys in a row");
  if (has_items_[depth_ - 1]) out_.push_back(',');
  has_items_[depth_ - 1] = true;
  util::json_append_quoted(out_, name);
  out_.push_back(':');
  key_pending_ = true;
}

void JsonWriter::value(std::string_view s) {
  before_value();
  util::json_append_quoted(out_, s);
}

void JsonWriter::value(const char* s) { value(std::string_view(s)); }

void JsonWriter::value(double v) {
  if (!std::isfinite(v)) {
    value_null();
    return;
  }
  before_value();
  char buf[util::kJsonNumberBuffer];
  out_.append(util::json_number(v, buf));
}

void JsonWriter::value(bool v) {
  before_value();
  out_.append(v ? "true" : "false");
}

void JsonWriter::value(uint64_t v) {
  before_value();
  char buf[24];
  out_.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
}

void JsonWriter::value(int64_t v) {
  before_value();
  char buf[24];
  out_.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
}

void JsonWriter::value_null() {
  before_value();
  out_.append("null");
}

namespace {

/// Appends the comma-separated `text(v)` of every element (each at most
/// kJsonNumberBuffer bytes) through a stack chunk, one append per chunk.
template <typename Range, typename Text>
void append_elements(std::string& out, const Range& values, Text text) {
  char chunk[4096];
  size_t len = 0;
  bool first = true;
  for (const auto v : values) {
    if (len + 1 + util::kJsonNumberBuffer > sizeof chunk) {
      out.append(chunk, len);
      len = 0;
    }
    if (!first) chunk[len++] = ',';
    first = false;
    const std::string_view s = text(v);
    std::memcpy(chunk + len, s.data(), s.size());
    len += s.size();
  }
  out.append(chunk, len);
}

}  // namespace

void JsonWriter::array(std::span<const double> values) {
  begin_array();
  char buf[util::kJsonNumberBuffer];
  append_elements(out_, values, [&](double v) -> std::string_view {
    if (std::bit_cast<uint64_t>(v) == 0) return "0";  // +0.0; -0.0 is "-0"
    if (!std::isfinite(v)) return "null";
    return util::json_number(v, buf);
  });
  end_array();
}

void JsonWriter::array(const std::vector<bool>& values) {
  begin_array();
  append_elements(out_, values, [](bool v) -> std::string_view {
    return v ? "true" : "false";
  });
  end_array();
}

}  // namespace coolopt::obs
