#include "util/jsonio.h"

#include <bit>
#include <cctype>
#include <charconv>
#include <cstdint>
#include <cstdio>

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

/// 10^k for k in [0, 38], by squaring (no table).
u128 pow10(int k) {
  u128 result = 1;
  u128 base = 10;
  for (; k != 0; k >>= 1) {
    if ((k & 1) != 0) result *= base;
    base *= base;
  }
  return result;
}

/// |v| = m * 2^e2 rounded to twelve significant digits: returns the digits
/// as an integer in [1e11, 1e12) and sets `x` to the decimal exponent of
/// the leading digit. Exact for 1e-10 <= |v| < 1e37, where every product
/// below fits in 128 bits; a tie at the thirteenth digit rounds to even.
uint64_t twelve_digits(uint64_t m, int e2, int& x) {
  // floor(log10(2^(e2+52))): the leading-digit exponent or one below it.
  x = ((e2 + 52) * 78913) >> 18;
  for (;;) {
    const int s = x - 11;  // digits = |v| / 10^s
    u128 q;
    u128 r;
    u128 den;
    if (s < 0) {
      // |v| < 1e11 < 2^52 here, so e2 < 0: shift out the binary fraction.
      const u128 num = static_cast<u128>(m) * pow10(-s);
      den = static_cast<u128>(1) << -e2;
      q = num >> -e2;
      r = num & (den - 1);
    } else {
      const u128 num = e2 >= 0 ? static_cast<u128>(m) << e2 : m;
      den = e2 >= 0 ? pow10(s) : pow10(s) << -e2;
      q = num / den;
      r = num % den;
    }
    if (q >= kTen12) {
      ++x;
      continue;
    }
    if (q < kTen11) {
      --x;
      continue;
    }
    if (2 * r > den || (2 * r == den && (q & 1) != 0)) ++q;
    if (q == kTen12) {  // 999999999999.5 carries into the next decade
      q = kTen11;
      ++x;
    }
    return static_cast<uint64_t>(q);
  }
}

}  // namespace

std::string_view json_number(double v, char (&buf)[kJsonNumberBuffer]) {
  const uint64_t bits = std::bit_cast<uint64_t>(v);
  const bool negative = (bits >> 63) != 0;
  const double a = negative ? -v : v;
  char* p = buf;
  if (a < 1e12 && a == static_cast<double>(static_cast<int64_t>(a))) {
    // Integral (including -0): "%.12g" prints every digit, no point.
    if (negative) *p++ = '-';
    p = std::to_chars(p, buf + kJsonNumberBuffer, static_cast<uint64_t>(a)).ptr;
    return {buf, static_cast<size_t>(p - buf)};
  }
  if (!(a >= 1e-10 && a < 1e37)) {
    const int n = std::snprintf(buf, kJsonNumberBuffer, "%.12g", v);
    return {buf, static_cast<size_t>(n)};
  }
  const uint64_t mantissa = (bits & ((1ull << 52) - 1)) | (1ull << 52);
  const int e2 = static_cast<int>((bits >> 52) & 0x7ff) - 1075;
  int x = 0;
  uint64_t q = twelve_digits(mantissa, e2, x);
  char d[12];
  for (int i = 11; i >= 0; --i, q /= 10) d[i] = static_cast<char>('0' + q % 10);
  int nd = 12;  // significant digits once trailing zeros are stripped
  while (nd > 1 && d[nd - 1] == '0') --nd;

  if (negative) *p++ = '-';
  const auto put = [&](int from, int to) {
    for (int i = from; i < to; ++i) *p++ = d[i];
  };
  if (x >= -4 && x < 12) {
    // Fixed style: 11 - x decimals, trailing zeros dropped.
    if (x >= 0) {
      put(0, x + 1);
      if (nd > x + 1) {
        *p++ = '.';
        put(x + 1, nd);
      }
    } else {
      *p++ = '0';
      *p++ = '.';
      for (int i = -1; i > x; --i) *p++ = '0';
      put(0, nd);
    }
  } else {
    // Exponent style: d.ddd then e, sign and at least two exponent digits.
    *p++ = d[0];
    if (nd > 1) {
      *p++ = '.';
      put(1, nd);
    }
    *p++ = 'e';
    *p++ = x < 0 ? '-' : '+';
    const int ax = x < 0 ? -x : x;
    *p++ = static_cast<char>('0' + ax / 10);
    *p++ = static_cast<char>('0' + ax % 10);
  }
  return {buf, static_cast<size_t>(p - buf)};
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
