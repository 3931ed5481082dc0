// Shared JSON text primitives (RFC 8259), used by the tree's one writer
// (obs::JsonWriter, which every export and wire response goes through) and
// its one parser (service::parse_json, the strict parser in
// service/wire.cpp that reads requests and, in the tests, every export).
// There is exactly one implementation of each:
//
//   json_append_quoted  escape + double-quote a string literal onto a buffer
//   json_number         canonical number text (printf "%.12g"), written in
//                       place at a caller's pointer without allocating
//   json_scan_number    the RFC 8259 number grammar (the parser's)
//
// json_number reproduces glibc's "%.12g" byte for byte without calling it on
// the hot path. Integral values below 1e12 print as integers. Values with
// 1e-10 <= |v| < 1e37 are scaled to twelve digits exactly in 128-bit integer
// arithmetic, at one estimate of the decimal exponent that is either right
// or one decade low (a thirteenth digit then comes out of the same product
// and is dropped), and rounded half to even on the exact remainder (printf
// under the default round-to-nearest mode). Below 1e11 the scaling is one
// multiply by a power of ten and a shift; only |v| >= 1e11 divides. The
// powers of ten and the two-digit pairs the digits are written from are
// compile-time tables in jsonio.cpp (under 1 KB together). Everything else
// (subnormals, huge magnitudes, non-finite input) falls back to snprintf. It
// deliberately uses neither std::to_chars(double) nor libm: both page lookup
// tables into a process that otherwise never touches them.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>

namespace coolopt::util {

/// Appends `s` to `out` as a double-quoted JSON string literal (RFC 8259 §7:
/// quote, backslash and control characters escaped; everything else is
/// passed through byte-for-byte).
void json_append_quoted(std::string& out, std::string_view s);

/// Bytes json_number may write at its output pointer: the longest text
/// (19 bytes) plus the fixed-size copies its layouts make past its end.
inline constexpr size_t kJsonNumberSlack = 32;

/// Writes printf "%.12g" of `v` at `out` and returns the end of the text
/// (at most 19 bytes on). Bytes up to out + kJsonNumberSlack may be
/// overwritten, so the caller needs that much room. The format every JSON
/// document in the tree uses; callers that must emit valid JSON map
/// non-finite values to null first.
char* json_number(double v, char* out);

/// Scans one RFC 8259 number starting at `pos` (optional minus, no leading
/// zeros, optional fraction and exponent). On success advances `pos` just
/// past the number and returns true; on failure returns false with `pos`
/// unchanged.
bool json_scan_number(std::string_view text, size_t& pos);

}  // namespace coolopt::util
