#include "util/jsonio.h"

#include <array>
#include <bit>
#include <cctype>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstring>

namespace coolopt::util {

void json_append_quoted(std::string& out, std::string_view s) {
  out.push_back('"');
  size_t run = 0;  // start of the pending run of bytes that pass through
  for (size_t i = 0; i < s.size(); ++i) {
    const unsigned char c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out.append(s.data() + run, i - run);
    run = i + 1;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default: {
        constexpr char kHex[] = "0123456789abcdef";
        const char escape[] = {'\\', 'u', '0', '0', kHex[c >> 4], kHex[c & 15]};
        out.append(escape, sizeof escape);
      }
    }
  }
  out.append(s.data() + run, s.size() - run);
  out.push_back('"');
}

namespace {

using u128 = unsigned __int128;

constexpr uint64_t kTen11 = 100000000000ull;
constexpr uint64_t kTen12 = 1000000000000ull;

/// 10^k for k in [0, 25]. twelve_digits multiplies by at most 10^22
/// (|v| >= 1e-10 with the exponent estimate one low) and divides by at most
/// 10^25 (|v| < 1e37).
constexpr auto kPow10 = [] {
  std::array<u128, 26> table{};
  u128 p = 1;
  for (u128& entry : table) {
    entry = p;
    p *= 10;
  }
  return table;
}();

/// "00", "01", ..., "99": two digits per lookup.
constexpr auto kDigitPairs = [] {
  std::array<char, 200> table{};
  for (int i = 0; i < 100; ++i) {
    table[2 * i] = static_cast<char>('0' + i / 10);
    table[2 * i + 1] = static_cast<char>('0' + i % 10);
  }
  return table;
}();

/// |v| = m * 2^e2 rounded to twelve significant digits: returns the digits
/// as an integer in [1e11, 1e12) and sets `x` to the decimal exponent of
/// the leading digit. Exact for 1e-10 <= |v| < 1e37, where every product
/// below fits in 128 bits; a tie at the thirteenth digit rounds to even.
uint64_t twelve_digits(uint64_t m, int e2, int& x) {
  // floor(log10(2^(e2+52))), exact over this range: as 2^(e2+52) <= |v| <
  // 2^(e2+53), the leading-digit exponent or one below it.
  x = ((e2 + 52) * 78913) >> 18;
  const int s = x - 11;  // |v| / 10^s has 12 integer digits, 13 if x is low
  u128 q = 0;
  u128 r = 0;  // |v| / 10^s = q + r / den exactly
  u128 den = 1;
  if (s < 0) {
    // |v| < 1e12 < 2^52 here, so e2 < 0: shift out the binary fraction.
    const u128 num = static_cast<u128>(m) * kPow10[-s];
    den = static_cast<u128>(1) << -e2;
    q = num >> -e2;
    r = num & (den - 1);
  } else {
    const u128 num = e2 >= 0 ? static_cast<u128>(m) << e2 : m;
    den = e2 >= 0 ? kPow10[s] : kPow10[s] << -e2;
    q = num / den;
    r = num % den;
  }
  // One rounding step for either case, computed without branching on the
  // digits: whether the estimate was low follows the value's binade, which
  // a plan's loads mix at random.
  const uint64_t scaled = static_cast<uint64_t>(q);
  const bool low = scaled >= kTen12;
  // Low: drop the thirteenth digit, rounding on it and on whether the exact
  // remainder behind it is nonzero. Otherwise round on the remainder.
  const uint64_t tenth = scaled / 10;
  const uint64_t dropped = scaled % 10;
  const bool up_low =
      (dropped > 5) | ((dropped == 5) & ((r != 0) | ((tenth & 1) != 0)));
  const bool up = (2 * r > den) | ((2 * r == den) & ((scaled & 1) != 0));
  uint64_t digits = low ? tenth + up_low : scaled + up;
  x += low;
  if (digits == kTen12) {  // 999999999999.5 carries into the next decade
    digits = kTen11;
    ++x;
  }
  return digits;
}

/// Writes the twelve digits of `q` (in [1e11, 1e12)) at d[0, 12).
void write_twelve(uint64_t q, char* d) {
  const auto six = [](uint32_t v, char* p) {
    const uint32_t low4 = v % 10000;
    std::memcpy(p, &kDigitPairs[2 * (v / 10000)], 2);
    std::memcpy(p + 2, &kDigitPairs[2 * (low4 / 100)], 2);
    std::memcpy(p + 4, &kDigitPairs[2 * (low4 % 100)], 2);
  };
  six(static_cast<uint32_t>(q / 1000000), d);
  six(static_cast<uint32_t>(q % 1000000), d + 6);
}

/// How many of d[0, 12) remain once trailing '0's are dropped (d[0] is
/// never '0'). XOR with '0' turns each '0' into a zero byte, and a word's
/// zero bytes at its last-digit end are counted in one instruction.
int significant_digits(const char* d) {
  constexpr bool kLittle = std::endian::native == std::endian::little;
  const auto trailing_zero_bytes = [](auto word) {
    return (kLittle ? std::countl_zero(word) : std::countr_zero(word)) / 8;
  };
  uint64_t tail = 0;  // d[4, 12)
  uint32_t head = 0;  // d[0, 4)
  std::memcpy(&tail, d + 4, sizeof tail);
  std::memcpy(&head, d, sizeof head);
  tail ^= 0x3030303030303030ull;
  head ^= 0x30303030u;
  if (tail != 0) return 12 - trailing_zero_bytes(tail);
  return 4 - trailing_zero_bytes(head);
}

}  // namespace

char* json_number(double v, char* out) {
  const uint64_t bits = std::bit_cast<uint64_t>(v);
  const bool negative = (bits >> 63) != 0;
  const double a = negative ? -v : v;
  char* p = out;
  *p = '-';
  p += negative;
  if (a < 1e12 && a == static_cast<double>(static_cast<int64_t>(a))) {
    // Integral (including -0): "%.12g" prints every digit, no point.
    return std::to_chars(p, out + kJsonNumberSlack, static_cast<uint64_t>(a))
        .ptr;
  }
  if (!(a >= 1e-10 && a < 1e37)) {
    return out + std::snprintf(out, kJsonNumberSlack, "%.12g", v);
  }
  const uint64_t mantissa = (bits & ((1ull << 52) - 1)) | (1ull << 52);
  const int e2 = static_cast<int>((bits >> 52) & 0x7ff) - 1075;
  int x = 0;
  // The digits, padded so every layout below copies a fixed 16 bytes.
  char d[32] = {};
  write_twelve(twelve_digits(mantissa, e2, x), d);
  const int nd = significant_digits(d);

  if (x >= -4 && x < 12) {
    // Fixed style: 11 - x decimals, trailing zeros dropped.
    if (x < 0) {
      std::memcpy(p, "0.000000", 8);  // "0." and -x - 1 zeros
      std::memcpy(p + 1 - x, d, 16);
      return p + 1 - x + nd;
    }
    std::memcpy(p, d, 16);
    if (nd <= x + 1) return p + x + 1;
    p[x + 1] = '.';
    std::memcpy(p + x + 2, d + x + 1, 16);
    return p + nd + 1;
  }
  // Exponent style: d.ddd then e, sign and two exponent digits (|x| <= 37).
  p[0] = d[0];
  p[1] = '.';
  std::memcpy(p + 2, d + 1, 16);
  p += nd > 1 ? nd + 1 : 1;
  p[0] = 'e';
  p[1] = x < 0 ? '-' : '+';
  std::memcpy(p + 2, &kDigitPairs[2 * (x < 0 ? -x : x)], 2);
  return p + 4;
}

bool json_scan_number(std::string_view text, size_t& pos) {
  size_t p = pos;
  const auto digit = [&](size_t at) {
    return at < text.size() && std::isdigit(static_cast<unsigned char>(text[at]));
  };
  if (p < text.size() && text[p] == '-') ++p;
  if (!digit(p)) return false;
  // Integer part: a lone zero or a nonzero-led digit run (RFC 8259: no
  // leading zeros).
  if (text[p] == '0') {
    ++p;
  } else {
    while (digit(p)) ++p;
  }
  if (p < text.size() && text[p] == '.') {
    ++p;
    if (!digit(p)) return false;
    while (digit(p)) ++p;
  }
  if (p < text.size() && (text[p] == 'e' || text[p] == 'E')) {
    ++p;
    if (p < text.size() && (text[p] == '+' || text[p] == '-')) ++p;
    if (!digit(p)) return false;
    while (digit(p)) ++p;
  }
  pos = p;
  return true;
}

}  // namespace coolopt::util
