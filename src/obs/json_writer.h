// Minimal JSON emission.
//
// The observability exports (metrics registry dump, run traces) and the
// cooloptd wire responses need JSON with zero third-party dependencies.
// JsonWriter appends a single well-formed document to a caller-owned
// std::string: objects, arrays, strings (escaped per RFC 8259), numbers
// (util::json_number's "%.12g", written in place: table-driven digits, and a
// 128-bit division only for |v| >= 1e11; non-finite doubles become null,
// which strict parsers accept where NaN would not; a whole array copies a
// repeated number's text within its 4 KB chunk instead of writing it
// again), and booleans. Nesting is tracked in a fixed-depth stack so keys
// and values cannot be emitted in an invalid position — misuse (including
// nesting deeper than kMaxDepth) throws std::logic_error rather than
// producing silently broken output. A writer never allocates beyond the
// growth of the caller's string, so encoding into a warm, reused buffer is
// allocation-free.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace coolopt::obs {

class JsonWriter {
 public:
  /// Appends to `out` (not owned, not cleared). The document root may be an
  /// object or an array; one root per writer.
  explicit JsonWriter(std::string& out) : out_(out) {}
  ~JsonWriter() = default;
  JsonWriter(const JsonWriter&) = delete;
  JsonWriter& operator=(const JsonWriter&) = delete;

  // --- structure ---
  void begin_object();
  void end_object();
  void begin_array();
  void end_array();
  /// Inside an object: the key of the next value/container.
  void key(std::string_view name);

  // --- scalars ---
  void value(std::string_view s);
  void value(const char* s);
  void value(double v);       ///< non-finite -> null
  void value(bool v);
  void value(uint64_t v);
  void value(int64_t v);
  void value_null();

  // --- whole arrays ---
  /// The same bytes as begin_array(), value(v) per element, end_array(),
  /// written through a 4 KB stack chunk flushed with one append per chunk
  /// (never by growing the string by a worst case) and without the
  /// per-element state checks. The per-machine arrays of a plan response
  /// hold thousands of elements.
  ///
  /// Numbers are written straight into the chunk, each distinct value once
  /// per chunk: a table of 64 direct-mapped slots keyed by the double's
  /// bits holds where the chunk has its text, and a repeat is one fixed
  /// 24-byte copy from there (a slot naming a flushed chunk is a miss).
  /// +0.0 (an OFF machine's load) takes the same copy from the literal "0".
  /// At the 32nd miss on a nonzero element, if misses outnumber hits among
  /// the nonzero elements so far (a room of distinct machines), the rest of
  /// the array is written one number at a time. Flags are copied as "true"/"false" literals a
  /// 64-flag word at a time, without a branch per flag.
  void array(std::span<const double> values);
  void array(const std::vector<bool>& values);

  // --- conveniences ---
  void kv(std::string_view name, std::string_view v) { key(name); value(v); }
  /// Without this overload a string literal would pick the bool overload
  /// (pointer-to-bool is a standard conversion; const char* to string_view
  /// is not).
  void kv(std::string_view name, const char* v) { key(name); value(v); }
  void kv(std::string_view name, double v) { key(name); value(v); }
  void kv(std::string_view name, bool v) { key(name); value(v); }
  void kv(std::string_view name, uint64_t v) { key(name); value(v); }

  /// True once the root container has been closed.
  bool complete() const { return root_done_; }

  /// Deepest container nesting a document may use.
  static constexpr size_t kMaxDepth = 32;

 private:
  enum class Scope : uint8_t { kObject, kArray };
  void before_value();  // separators + state checks
  void push(Scope s);
  void pop(Scope s);

  std::string& out_;
  std::array<Scope, kMaxDepth> stack_{};
  std::array<bool, kMaxDepth> has_items_{};  // parallel to stack_
  size_t depth_ = 0;
  bool key_pending_ = false;
  bool root_done_ = false;
};

}  // namespace coolopt::obs
