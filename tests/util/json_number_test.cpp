// util::json_number against the printf it replaces: every output must equal
// snprintf("%.12g") byte for byte. Millions of seeded values cover random
// bit patterns, exact ties and near-ties at the thirteenth digit, the carry
// into the next decade, every power of ten, subnormals, signed zeros and
// the integer/exponent layout boundaries.
#include "util/jsonio.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdio>
#include <functional>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "util/rng.h"

namespace coolopt::util {
namespace {

/// Counts values whose json_number text differs from "%.12g"; the first
/// few mismatches are reported.
struct Differ {
  size_t checked = 0;
  size_t mismatched = 0;
  std::string first;

  void check(double v) {
    char want[64];
    const int n = std::snprintf(want, sizeof want, "%.12g", v);
    char buf[kJsonNumberBuffer];
    const std::string_view got = json_number(v, buf);
    ++checked;
    if (got != std::string_view(want, static_cast<size_t>(n))) {
      if (++mismatched <= 5) {
        char hex[64];
        std::snprintf(hex, sizeof hex, "%a", v);
        first += std::string(hex) + ": want " + want + " got " +
                 std::string(got) + "\n";
      }
    }
  }
};

double pow10_literal(int k) {
  return std::strtod(("1e" + std::to_string(k)).c_str(), nullptr);
}

void check_ulps(Differ& d, double v, int ulps) {
  double lo = v;
  double hi = v;
  d.check(v);
  d.check(-v);
  for (int i = 0; i < ulps; ++i) {
    lo = std::nextafter(lo, 0.0);
    hi = std::nextafter(hi, std::numeric_limits<double>::infinity());
    d.check(lo);
    d.check(hi);
  }
}

/// One seeded slice of the random categories.
void random_slice(uint64_t seed, size_t rounds, Differ& d) {
  Rng rng(seed);
  for (size_t i = 0; i < rounds; ++i) {
    // Random bit patterns: every exponent, NaN and infinity included.
    d.check(std::bit_cast<double>(rng.next_u64()));
    // Random magnitudes across the exact path and both of its edges.
    d.check(std::ldexp(rng.uniform(0.5, 1.0), rng.uniform_int(-50, 140)));
    // Twelve digits then a 5: exact ties as D + 0.5 and (10 D + 5) 10^j,
    // and near-ties once scaled by a power of two.
    const uint64_t digits = 100000000000ull + rng.next_u64() % 900000000000ull;
    const uint64_t scale[] = {1, 10, 100};
    d.check(static_cast<double>(digits) + 0.5);
    d.check(static_cast<double>((digits * 10 + 5) * scale[i % 3]));
    d.check(std::ldexp(static_cast<double>(digits * 10 + 5),
                       rng.uniform_int(-80, 80)));
  }
}

TEST(JsonNumber, MatchesPrintfOnMillionsOfSeededValues) {
  constexpr size_t kThreads = 4;
  constexpr size_t kRounds = 250000;  // 5 values a round per thread
  std::vector<Differ> slices(kThreads + 1);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back(random_slice, 0x5eed0000 + t, kRounds,
                         std::ref(slices[t]));
  }

  Differ& d = slices[kThreads];
  for (int k = -330; k <= 308; ++k) {
    // Every power of ten, and the carry point 999999999999.5 * 10^(k-11).
    check_ulps(d, pow10_literal(k), 1);
    check_ulps(d,
               std::strtod(("999999999999.5e" + std::to_string(k - 11)).c_str(),
                           nullptr),
               3);
  }
  // Subnormals, signed zeros and the smallest normals.
  const double tiny = std::numeric_limits<double>::denorm_min();
  for (int i = 0; i < 2000; ++i) {
    d.check(tiny * i);
    d.check(-tiny * i * 977);
  }
  check_ulps(d, std::numeric_limits<double>::min(), 4);
  check_ulps(d, std::numeric_limits<double>::max(), 4);
  d.check(0.0);
  d.check(-0.0);
  // Integers and quarter steps around 1e12 (the integer/exponent switch)
  // and whole numbers around 2^53.
  for (int64_t i = -2000; i <= 2000; ++i) {
    d.check(1e12 + static_cast<double>(i) * 0.25);
    d.check(-1e12 + static_cast<double>(i));
    d.check(static_cast<double>((int64_t{1} << 53) + i));
  }
  for (std::thread& t : threads) t.join();

  size_t checked = 0;
  size_t mismatched = 0;
  std::string report;
  for (const Differ& s : slices) {
    checked += s.checked;
    mismatched += s.mismatched;
    report += s.first;
  }
  EXPECT_GE(checked, 5000000u);
  EXPECT_EQ(mismatched, 0u) << report;
}

TEST(JsonNumber, LaysOutFixedAndExponentStyles) {
  const auto text = [](double v) {
    char buf[kJsonNumberBuffer];
    return std::string(json_number(v, buf));
  };
  EXPECT_EQ(text(0.0), "0");
  EXPECT_EQ(text(-0.0), "-0");
  EXPECT_EQ(text(42.0), "42");
  EXPECT_EQ(text(999999999999.0), "999999999999");
  EXPECT_EQ(text(999999999999.5), "1e+12");
  EXPECT_EQ(text(123456789012.5), "123456789012");  // tie to even
  EXPECT_EQ(text(123456789013.5), "123456789014");
  EXPECT_EQ(text(0.1), "0.1");
  EXPECT_EQ(text(1.0 / 3.0), "0.333333333333");
  EXPECT_EQ(text(1e-4), "0.0001");
  EXPECT_EQ(text(1e-5), "1e-05");
  EXPECT_EQ(text(-2.5e-8), "-2.5e-08");
  EXPECT_EQ(text(6.02214076e23), "6.02214076e+23");
  EXPECT_EQ(text(1e300), "1e+300");
  EXPECT_EQ(text(std::numeric_limits<double>::denorm_min()),
            "4.94065645841e-324");
}

}  // namespace
}  // namespace coolopt::util
