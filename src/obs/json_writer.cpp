#include "obs/json_writer.h"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <type_traits>

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
  char buf[util::kJsonNumberSlack];
  out_.append(buf, util::json_number(v, buf));
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

/// The bulk writers build each array's text in a stack chunk of this size
/// and flush it with one append per chunk, so the response string grows by
/// what is written, never by a worst-case bound.
constexpr size_t kChunk = 4096;

/// array(doubles) copies a repeated number's text from where the current
/// chunk first holds it, found through this many direct-mapped slots keyed
/// by the double's bits.
constexpr size_t kRepeatSlots = 64;
static_assert(std::has_single_bit(kRepeatSlots));
/// At this many misses on nonzero elements, array(doubles) checks whether
/// the table pays: if misses outnumber hits among the nonzero elements so
/// far, the rest of the array is written without it.
constexpr size_t kRepeatProbe = 32;
/// The bytes a repeat copies: the longest element text (19 bytes of
/// "%.12g" and a comma) rounded up to three words.
constexpr size_t kRepeatCopy = 24;

/// Where the current chunk holds the text of the double with these bits.
/// Chunks count from 1, so a zeroed slot names none; a slot naming an
/// earlier chunk is a miss (its bytes are flushed).
struct RepeatSlot {
  uint64_t bits;
  uint32_t chunk;
  uint16_t at;   ///< offset in the chunk
  uint16_t len;  ///< text length, comma included
};

size_t repeat_slot(uint64_t bits) {
  constexpr int kShift = 64 - std::countr_zero(kRepeatSlots);
  return static_cast<size_t>((bits * 0x9e3779b97f4a7c15ull) >> kShift);
}

/// An element's text and comma at `out`; returns their end.
char* write_element(double v, char* out) {
  if (!std::isfinite(v)) {
    std::memcpy(out, "null,", 5);
    return out + 5;
  }
  char* end = util::json_number(v, out);
  *end = ',';
  return end + 1;
}

/// Flags [base, base + 64) of `flags` as the bits of a word, flag base + j
/// in bit j (bits past size() are unspecified); `base` is a multiple of 64.
/// With libstdc++, whose vector<bool> packs machine words, that is one load
/// (as core::Allocation's for_each_on reads them); elsewhere the flags are
/// gathered one by one.
uint64_t flag_word(const std::vector<bool>& flags, size_t base) {
#if defined(__GLIBCXX__)
  using Word = std::remove_cvref_t<decltype(*flags.begin()._M_p)>;
  if constexpr (std::numeric_limits<Word>::digits == 64) {
    return flags.begin()._M_p[base / 64];  // begin()'s bit offset is 0
  }
#endif
  uint64_t word = 0;
  const size_t end = std::min(flags.size(), base + 64);
  for (size_t i = base; i < end; ++i) {
    word |= static_cast<uint64_t>(flags[i]) << (i - base);
  }
  return word;
}

}  // namespace

void JsonWriter::array(std::span<const double> values) {
  begin_array();
  // The chunk, then the literal "0," that +0.0 (an OFF machine's load) is
  // copied from: its slot is entered again for every chunk, so zeros and
  // repeats take one path, in any order, without a mispredicted branch
  // between them. No write reaches the literal (each stays within
  // kJsonNumberSlack of `len`). Cache-line aligned, which measured about 2%
  // faster on loads that all differ (a 4-vCPU Xeon VM, gcc 12, -O2).
  alignas(64) char chunk[kChunk + kRepeatCopy];
  std::memcpy(chunk + kChunk, "0,", 2);
  size_t len = 0;
  uint32_t chunk_no = 1;
  std::array<RepeatSlot, kRepeatSlots> table{};
  RepeatSlot& zero_slot = table[repeat_slot(0)];
  zero_slot = {0, chunk_no, kChunk, 2};
  size_t misses = 0;
  size_t i = 0;
  // Every element is written with its comma; the last comma is dropped.
  while (i < values.size()) {
    if (len + util::kJsonNumberSlack > kChunk) {
      out_.append(chunk, len);
      len = 0;
      zero_slot = {0, ++chunk_no, kChunk, 2};
    }
    const double v = values[i++];
    const uint64_t bits = std::bit_cast<uint64_t>(v);
    RepeatSlot& slot = table[repeat_slot(bits)];
    if ((slot.bits == bits) & (slot.chunk == chunk_no)) {
      // One fixed copy, through a buffer: the text may end within 24 bytes
      // of the copy's destination.
      char copy[kRepeatCopy];
      std::memcpy(copy, chunk + slot.at, kRepeatCopy);
      std::memcpy(chunk + len, copy, kRepeatCopy);
      len += slot.len;
      continue;
    }
    // A miss; +0.0 misses only when another value took its slot, and
    // json_number writes it as "0" too.
    const size_t at = len;
    len = static_cast<size_t>(write_element(v, chunk + at) - chunk);
    slot = {bits, chunk_no, static_cast<uint16_t>(at),
            static_cast<uint16_t>(len - at)};
    if (bits != 0 && ++misses == kRepeatProbe) {
      const auto lookups = static_cast<size_t>(std::count_if(
          values.begin(), values.begin() + static_cast<std::ptrdiff_t>(i),
          [](double x) { return std::bit_cast<uint64_t>(x) != 0; }));
      if (2 * misses > lookups) break;  // loads that all differ
    }
  }
  // The rest of an array whose loads all differ (a room of distinct
  // machines), one number at a time.
  for (; i < values.size(); ++i) {
    if (len + util::kJsonNumberSlack > kChunk) {
      out_.append(chunk, len);
      len = 0;
    }
    if (std::bit_cast<uint64_t>(values[i]) == 0) {  // +0.0, an OFF machine
      std::memcpy(chunk + len, "0,", 2);
      len += 2;
    } else {
      len = static_cast<size_t>(write_element(values[i], chunk + len) - chunk);
    }
  }
  out_.append(chunk, len - (values.empty() ? 0 : 1));
  end_array();
}

void JsonWriter::array(const std::vector<bool>& values) {
  begin_array();
  // "false," and "true," padded to 8 bytes: a flag is one 8-byte copy from
  // kText[flag] and a length of 6 - flag, without a branch on the flag.
  static constexpr char kText[2][8] = {"false,", "true,"};
  constexpr size_t kWordText = 64 * 6 + 2;  // a word's flags, last copy's pad
  char chunk[kChunk];
  size_t len = 0;
  for (size_t base = 0; base < values.size(); base += 64) {
    if (len + kWordText > kChunk) {
      out_.append(chunk, len);
      len = 0;
    }
    const uint64_t word = flag_word(values, base);
    const size_t count = std::min<size_t>(64, values.size() - base);
    for (size_t j = 0; j < count; ++j) {
      const size_t flag = (word >> j) & 1;
      std::memcpy(chunk + len, kText[flag], 8);
      len += 6 - flag;
    }
  }
  out_.append(chunk, len - (values.empty() ? 0 : 1));
  end_array();
}

}  // namespace coolopt::obs
