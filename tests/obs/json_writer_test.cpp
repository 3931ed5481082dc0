#include "obs/json_writer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "service/wire.h"
#include "util/jsonio.h"
#include "util/rng.h"

namespace coolopt::obs {
namespace {

/// True when `text` is exactly one JSON document to the strict parser the
/// wire runs; `error` receives its description otherwise.
bool parses(std::string_view text, std::string& error) {
  service::JsonValue doc;
  return service::parse_json(text, doc, error);
}
bool parses(std::string_view text) {
  std::string error;
  return parses(text, error);
}

std::string json_quote(std::string_view s) {
  std::string out;
  util::json_append_quoted(out, s);
  return out;
}

TEST(JsonQuote, EscapesControlAndSpecialCharacters) {
  EXPECT_EQ(json_quote("plain"), "\"plain\"");
  EXPECT_EQ(json_quote("a\"b"), "\"a\\\"b\"");
  EXPECT_EQ(json_quote("a\\b"), "\"a\\\\b\"");
  EXPECT_EQ(json_quote("line\nbreak"), "\"line\\nbreak\"");
  EXPECT_EQ(json_quote(std::string("nul\0byte", 8)), "\"nul\\u0000byte\"");
  EXPECT_EQ(json_quote("\x1f\t\r\b\f/\xc3\xa9"),
            "\"\\u001f\\t\\r\\b\\f/\xc3\xa9\"");
  // Appends: an existing prefix stays.
  std::string out = "k=";
  util::json_append_quoted(out, "v");
  EXPECT_EQ(out, "k=\"v\"");
}

TEST(JsonWriter, EmitsNestedDocument) {
  std::string os;
  JsonWriter w(os);
  w.begin_object();
  w.kv("name", "room");
  w.kv("power", 410.5);
  w.kv("on", true);
  w.kv("steps", uint64_t{42});
  w.key("series");
  w.begin_array();
  w.value(1.0);
  w.value(2.0);
  w.end_array();
  w.end_object();
  EXPECT_TRUE(w.complete());
  EXPECT_EQ(os,
            "{\"name\":\"room\",\"power\":410.5,\"on\":true,\"steps\":42,"
            "\"series\":[1,2]}");
  EXPECT_TRUE(parses(os));
}

// Regression: a C string literal must serialize as a JSON string, not decay
// to the bool overload ("schema":true).
TEST(JsonWriter, CStringKvIsAString) {
  std::string os;
  JsonWriter w(os);
  w.begin_object();
  w.kv("schema", "coolopt.obs.v1");
  w.end_object();
  EXPECT_EQ(os, "{\"schema\":\"coolopt.obs.v1\"}");
}

TEST(JsonWriter, NonFiniteDoublesBecomeNull) {
  std::string os;
  JsonWriter w(os);
  w.begin_array();
  w.value(std::nan(""));
  w.value(INFINITY);
  w.value(1.5);
  w.end_array();
  EXPECT_EQ(os, "[null,null,1.5]");
  EXPECT_TRUE(parses(os));
}

TEST(JsonWriter, MisuseThrows) {
  {
    std::string os;
    JsonWriter w(os);
    w.begin_object();
    EXPECT_THROW(w.value(1.0), std::logic_error);  // value without key
  }
  {
    std::string os;
    JsonWriter w(os);
    w.begin_array();
    EXPECT_THROW(w.key("x"), std::logic_error);  // key inside array
  }
  {
    std::string os;
    JsonWriter w(os);
    w.begin_object();
    EXPECT_THROW(w.end_array(), std::logic_error);  // mismatched close
  }
  {
    // The nesting stack is fixed-depth: one level too many throws, and
    // the maximum itself closes into a valid document.
    std::string os;
    JsonWriter w(os);
    for (size_t i = 0; i < JsonWriter::kMaxDepth; ++i) w.begin_array();
    EXPECT_THROW(w.begin_array(), std::logic_error);
    EXPECT_THROW(w.begin_object(), std::logic_error);
    for (size_t i = 0; i < JsonWriter::kMaxDepth; ++i) w.end_array();
    EXPECT_TRUE(w.complete());
    EXPECT_TRUE(parses(os));
  }
}

TEST(JsonWriter, AppendsToTheCallersString) {
  std::string out = "prefix ";
  JsonWriter w(out);
  w.begin_array();
  w.value(int64_t{-3});
  w.value(uint64_t{18446744073709551615ull});
  w.value(-0.0);
  w.value(1e-7);
  w.value_null();
  w.end_array();
  EXPECT_EQ(out, "prefix [-3,18446744073709551615,-0,1e-07,null]");
}

// --- JsonWriter::array: the bulk path against the per-element one ---

/// Where an array sits in its document: the separators before and after it
/// differ in each position.
enum class Position { kRoot, kAfterKey, kInsideArray };

/// A document holding `emit`'s array at `pos`, appended after a prefix.
template <typename Emit>
std::string document(Position pos, Emit emit) {
  std::string out = "prefix ";
  JsonWriter w(out);
  switch (pos) {
    case Position::kRoot:
      emit(w);
      break;
    case Position::kAfterKey:
      w.begin_object();
      w.kv("first", 1.0);
      w.key("array");
      emit(w);
      w.kv("last", true);
      w.end_object();
      break;
    case Position::kInsideArray:
      w.begin_array();
      w.value(1.0);
      emit(w);
      emit(w);
      w.value_null();
      w.end_array();
      break;
  }
  EXPECT_TRUE(w.complete());
  EXPECT_TRUE(parses(std::string_view(out).substr(7)));
  return out;
}

void expect_bulk_matches_per_element(const std::vector<double>& values) {
  for (const Position pos :
       {Position::kRoot, Position::kAfterKey, Position::kInsideArray}) {
    SCOPED_TRACE("position " + std::to_string(static_cast<int>(pos)));
    const std::string bulk =
        document(pos, [&](JsonWriter& w) { w.array(values); });
    const std::string per_element = document(pos, [&](JsonWriter& w) {
      w.begin_array();
      for (const double v : values) w.value(v);
      w.end_array();
    });
    EXPECT_EQ(bulk, per_element);
  }
}

void expect_bulk_matches_per_element(const std::vector<bool>& values) {
  for (const Position pos :
       {Position::kRoot, Position::kAfterKey, Position::kInsideArray}) {
    SCOPED_TRACE("position " + std::to_string(static_cast<int>(pos)));
    const std::string bulk =
        document(pos, [&](JsonWriter& w) { w.array(values); });
    const std::string per_element = document(pos, [&](JsonWriter& w) {
      w.begin_array();
      for (const bool v : values) w.value(v);
      w.end_array();
    });
    EXPECT_EQ(bulk, per_element);
  }
}

TEST(JsonWriterArray, DoublesMatchThePerElementPath) {
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<std::vector<double>> cases = {
      {},
      {+0.0},
      {-0.0},
      {std::numeric_limits<double>::denorm_min(), 2.2e-310},
      {1e-11},  // below the scaled path: snprintf
      {1e37, -1e37},
      {std::nan(""), inf, -inf},
      {0.0, -0.0, 1.5, 0.0, std::nan(""), 40.125, -inf, 0.0},
  };
  for (size_t c = 0; c < cases.size(); ++c) {
    SCOPED_TRACE("case " + std::to_string(c));
    expect_bulk_matches_per_element(cases[c]);
  }
}

TEST(JsonWriterArray, LongDoubleArraysSpanSeveralChunks) {
  // Twelve significant digits in every element, at magnitudes that print in
  // fixed and in exponent style, with the longest "%.12g" renderings.
  util::Rng rng(19);
  std::vector<double> values;
  for (size_t i = 0; i < 5000; ++i) {
    const double m = rng.uniform(1.0, 10.0);
    switch (i % 4) {
      case 0: values.push_back(m * 1e5); break;
      case 1: values.push_back(-m * 1e-5); break;
      case 2: values.push_back(-m * 1e-300); break;
      default: values.push_back(m * 1e36); break;
    }
  }
  expect_bulk_matches_per_element(values);
  std::string out;
  JsonWriter w(out);
  w.array(values);
  EXPECT_GT(out.size(), 5000u * 12);
}

TEST(JsonWriterArray, SignedZeroAndNonFiniteBytes) {
  std::string out;
  JsonWriter w(out);
  w.array(std::vector<double>{0.0, -0.0, std::nan(""),
                              std::numeric_limits<double>::infinity(), 0.5});
  EXPECT_EQ(out, "[0,-0,null,null,0.5]");
}

TEST(JsonWriterArray, BoolsMatchThePerElementPath) {
  expect_bulk_matches_per_element(std::vector<bool>{});
  expect_bulk_matches_per_element(std::vector<bool>{true});
  expect_bulk_matches_per_element(std::vector<bool>{false});
  util::Rng rng(23);
  std::vector<bool> values(5000);
  for (size_t i = 0; i < values.size(); ++i) values[i] = rng.next_u64() % 2 == 0;
  expect_bulk_matches_per_element(values);
  std::string out;
  JsonWriter w(out);
  w.array(std::vector<bool>{true, false});
  EXPECT_EQ(out, "[true,false]");
}

TEST(JsonWriterArray, BoolsMatchAtWordEdges) {
  // The bulk path reads 64 flags a word: sizes on both sides of each word
  // edge, in every pattern.
  util::Rng rng(29);
  for (const size_t n : {0, 1, 63, 64, 65, 127, 128, 129, 2000, 10000}) {
    std::vector<bool> all_true(n, true);
    std::vector<bool> all_false(n, false);
    std::vector<bool> alternating(n);
    std::vector<bool> random(n);
    for (size_t i = 0; i < n; ++i) {
      alternating[i] = i % 2 == 0;
      random[i] = rng.next_u64() % 2 == 0;
    }
    SCOPED_TRACE("size " + std::to_string(n));
    expect_bulk_matches_per_element(all_true);
    expect_bulk_matches_per_element(all_false);
    expect_bulk_matches_per_element(alternating);
    expect_bulk_matches_per_element(random);
    // Shrunk from a longer all-true vector: the flags past size() may keep
    // their old bits in the last word.
    std::vector<bool> shrunk(n + 200, true);
    shrunk.resize(n);
    std::fill(shrunk.begin(), shrunk.end(), false);
    expect_bulk_matches_per_element(shrunk);
  }
}

TEST(JsonWriterArray, LongestNumbersAroundTheChunkEdge) {
  // Elements of the longest "%.12g" length (18 bytes, 19 with the comma)
  // after a prefix of 2- and 3-byte elements that shifts them by every
  // offset: in turn one ends exactly at a 4 KB chunk edge, one byte past
  // it, and everywhere around it, in the first and the later chunks.
  for (size_t shift = 0; shift <= 40; ++shift) {
    SCOPED_TRACE("shift " + std::to_string(shift));
    std::vector<double> values(shift / 3, 10.0);   // "10,"
    values.resize(values.size() + shift % 3, 1.0);  // "1,"
    for (size_t i = 0; i < 700; ++i) {
      values.push_back(i % 2 == 0 ? -1.23456789012e-05 : -0.000123456789012);
    }
    expect_bulk_matches_per_element(values);
  }
  std::string out;
  JsonWriter w(out);
  w.array(std::vector<double>(300, -1.23456789012e-05));
  EXPECT_EQ(out.size(), 300u * 19 + 1);
}

TEST(JsonWriterArray, ZeroRunsAmongSignedZerosAndNonFinites) {
  // An OFF machine's +0.0 is a fixed literal; -0.0 and the non-finite
  // values between the runs are not.
  const double inf = std::numeric_limits<double>::infinity();
  const double odd[] = {-0.0, std::nan(""), inf, -inf, 0.5, -3.0};
  util::Rng rng(31);
  std::vector<double> values;
  for (size_t run = 0; run < 400; ++run) {
    values.resize(values.size() + rng.next_u64() % 40, 0.0);
    values.push_back(odd[rng.next_u64() % std::size(odd)]);
  }
  expect_bulk_matches_per_element(values);
  std::string out;
  JsonWriter w(out);
  w.array(std::vector<double>(3000, 0.0));
  EXPECT_EQ(out.size(), 2u * 3000 + 1);
}

// --- JsonWriter::array: repeated numbers copied within a chunk ---
//
// The bulk path writes a repeated number's text once per 4 KB chunk and
// copies it for each repeat, through a table of a few dozen slots keyed by
// the double's bits; it stops looking for repeats on an array whose first
// numbers mostly differ. Every case below must keep the per-element bytes.

/// `count` doubles whose texts span every length from 1 to 18 bytes: small
/// integers, twelve-digit fractions in fixed and exponent style, negatives.
std::vector<double> varied_lengths(size_t count, uint64_t seed) {
  util::Rng rng(seed);
  std::vector<double> values;
  for (size_t i = 0; i < count; ++i) {
    const double m = rng.uniform(1.0, 10.0);
    switch (i % 6) {
      case 0: values.push_back(static_cast<double>(1 + i)); break;
      case 1: values.push_back(m); break;
      case 2: values.push_back(-m * 1e-5); break;
      case 3: values.push_back(m * 1e20); break;
      case 4: values.push_back(std::round(m * 1e3) / 8); break;
      default: values.push_back(-m * 1e4); break;
    }
  }
  return values;
}

TEST(JsonWriterArrayRepeats, SizesZeroOneAndTwo) {
  const double x = 37.4185810023;
  const std::vector<std::vector<double>> cases = {
      {},        {x},          {0.0},         {-0.0},     {x, x},
      {x, 0.0},  {0.0, x},     {0.0, 0.0},    {-0.0, -0.0},
      {x, -x},   {std::nan(""), std::nan("")},
  };
  for (size_t c = 0; c < cases.size(); ++c) {
    SCOPED_TRACE("case " + std::to_string(c));
    expect_bulk_matches_per_element(cases[c]);
  }
  std::string out;
  JsonWriter w(out);
  w.array(std::vector<double>{x, x});
  EXPECT_EQ(out, "[37.4185810023,37.4185810023]");
}

TEST(JsonWriterArrayRepeats, FirstOccurrenceInAFlushedChunk) {
  // A number, enough filler to flush its chunk, then the number again: its
  // first text is gone, so the repeat must be written afresh. Filler of
  // zeros, of one repeated number and of a few, at lengths that put the
  // repeat at every offset around the old text's position.
  for (const double x : varied_lengths(12, 41)) {
    SCOPED_TRACE(x);
    for (const size_t zeros : {2047, 2048, 2049, 2050, 3000, 5000}) {
      std::vector<double> values = {x};
      values.resize(1 + zeros, 0.0);
      values.push_back(x);
      values.push_back(x);
      expect_bulk_matches_per_element(values);
    }
    for (const size_t pad : {0, 1, 2, 3, 7}) {
      std::vector<double> values(pad, 5.0);
      values.push_back(x);
      for (size_t i = 0; i < 1500; ++i) {
        values.push_back(i % 3 == 0 ? 0.0 : (i % 3 == 1 ? 6.25 : -1.5));
      }
      values.push_back(x);
      values.push_back(0.0);
      values.push_back(x);
      expect_bulk_matches_per_element(values);
    }
  }
}

TEST(JsonWriterArrayRepeats, ValuesSharingASlotAlternate) {
  // More distinct values than the table has slots, so some pairs share a
  // slot: every pair of them alternates (A B A B) and repeats in runs
  // (A A B B), after a run of repeats that keeps the table in use.
  const std::vector<double> pool = varied_lengths(100, 43);
  std::vector<double> values(200, pool[0]);
  for (size_t a = 0; a < pool.size(); ++a) {
    for (size_t b = a + 1; b < pool.size(); ++b) {
      for (const size_t k : {a, b, a, b, a, a, b, b}) values.push_back(pool[k]);
    }
  }
  expect_bulk_matches_per_element(values);
}

TEST(JsonWriterArrayRepeats, PositiveAgainstNegativeZero) {
  // +0.0 is the literal "0"; -0.0 is a number ("-0") that may repeat.
  std::vector<double> values;
  for (size_t i = 0; i < 3000; ++i) {
    values.push_back(i % 3 == 0 ? -0.0 : 0.0);
    if (i % 5 == 0) values.push_back(-0.0);
  }
  expect_bulk_matches_per_element(values);
  std::string out;
  JsonWriter w(out);
  w.array(std::vector<double>{-0.0, 0.0, -0.0, -0.0, 0.0});
  EXPECT_EQ(out, "[-0,0,-0,-0,0]");
}

TEST(JsonWriterArrayRepeats, NonFiniteValuesRepeat) {
  // NaNs with differing payloads and signs have differing bits: each is its
  // own key, and each writes null.
  const double inf = std::numeric_limits<double>::infinity();
  const double odd[] = {
      std::nan(""), std::nan("1"), std::nan("2"), -std::nan(""),
      std::bit_cast<double>(0x7ff0000000000001ull),  // a signaling NaN
      inf, -inf, 2.5};
  util::Rng rng(47);
  std::vector<double> values;
  for (size_t i = 0; i < 4000; ++i) {
    values.push_back(odd[rng.next_u64() % std::size(odd)]);
    if (i % 3 == 0) values.push_back(0.0);
  }
  expect_bulk_matches_per_element(values);
  std::string out;
  JsonWriter w(out);
  w.array(std::vector<double>{std::nan("1"), 0.5, std::nan("1"), -inf, 0.5});
  EXPECT_EQ(out, "[null,0.5,null,null,0.5]");
}

TEST(JsonWriterArrayRepeats, FallbackNumbersRepeat) {
  // Subnormals and |v| >= 1e37 take json_number's snprintf fallback, and
  // hold the longest texts (19 bytes, 20 with the comma).
  const double odd[] = {
      std::numeric_limits<double>::denorm_min(),
      -2.2250738585e-310,
      -std::numeric_limits<double>::min() * 0.999999999999,
      -1.23456789012e-308,
      1e37,
      -9.87654321098e300,
      std::numeric_limits<double>::max(),
      4.5};
  util::Rng rng(53);
  std::vector<double> values;
  for (size_t i = 0; i < 4000; ++i) {
    values.push_back(odd[rng.next_u64() % std::size(odd)]);
    if (i % 2 == 0) values.push_back(0.0);
  }
  expect_bulk_matches_per_element(values);
}

TEST(JsonWriterArrayRepeats, LowEstimateThirteenDigitValuesRepeat) {
  // Values just past a power of ten sit in a binade that starts below it:
  // json_number's exponent estimate is one low and the scaled product has
  // thirteen digits, one of which is dropped (rounding, and a carry into
  // the next decade).
  const double odd[] = {1000.12345678912, 10.0000000000049, 999999999999.5,
                        100000.000000123, -1.00000000000051e15,
                        0.0100000000000049, 9999.99999999995};
  util::Rng rng(59);
  std::vector<double> values;
  for (size_t i = 0; i < 4000; ++i) {
    values.push_back(odd[rng.next_u64() % std::size(odd)]);
    if (rng.chance(0.7)) values.push_back(0.0);
  }
  expect_bulk_matches_per_element(values);
}

TEST(JsonWriterArrayRepeats, DistinctFirstThenRepeats) {
  // The first numbers all differ, so the table switches off; repeats and
  // zeros later are then written one at a time.
  for (const size_t distinct : {31, 32, 33, 64, 200}) {
    SCOPED_TRACE(distinct);
    std::vector<double> values;
    for (const double v : varied_lengths(distinct, 61)) {
      values.push_back(v);
      values.push_back(0.0);
    }
    for (size_t i = 0; i < 3000; ++i) {
      values.push_back(i % 4 == 0 ? 2.75 : (i % 4 == 1 ? 0.0 : 31.0625));
    }
    expect_bulk_matches_per_element(values);
  }
}

TEST(JsonWriterArrayRepeats, RepeatsFirstThenDistinct) {
  // Early repeats keep the table in use; the distinct numbers after them
  // all miss, across several chunks.
  std::vector<double> values;
  for (size_t i = 0; i < 600; ++i) {
    values.push_back(i % 3 == 0 ? 0.0 : (i % 3 == 1 ? 12.5 : 40.0625));
  }
  for (const double v : varied_lengths(3000, 67)) {
    values.push_back(v);
    values.push_back(0.0);
  }
  values.push_back(12.5);
  expect_bulk_matches_per_element(values);
}

TEST(JsonWriterArrayRepeats, InterleavedLoadsAcrossChunks) {
  // A plan on a room of a few machine classes: 28% ON at three loads,
  // in random order, over many chunks.
  const double loads[] = {34.6172839506, 27.9012345679, 41.3333333333};
  util::Rng rng(71);
  std::vector<double> values(10000, 0.0);
  for (double& v : values) {
    if (rng.chance(0.28)) v = loads[rng.next_u64() % std::size(loads)];
  }
  expect_bulk_matches_per_element(values);
}

TEST(JsonSyntaxValid, AcceptsValidDocuments) {
  EXPECT_TRUE(parses("{}"));
  EXPECT_TRUE(parses("[]"));
  EXPECT_TRUE(parses("{\"a\":[1,2.5,-3e4,null,true,\"s\"]}"));
  EXPECT_TRUE(parses("  {\"a\" : {\"b\" : []}}  "));
}

TEST(JsonSyntaxValid, RejectsInvalidDocuments) {
  std::string error;
  EXPECT_FALSE(parses("", error));
  EXPECT_FALSE(parses("{", error));
  EXPECT_FALSE(parses("{\"a\":}", error));
  EXPECT_FALSE(parses("[1,]", error));
  EXPECT_FALSE(parses("{\"a\":1}garbage", error));
  EXPECT_FALSE(parses("{'a':1}", error));
  EXPECT_FALSE(error.empty());
  // Stricter than RFC 8259's SHOULD: an export must not repeat a key.
  EXPECT_FALSE(parses("{\"a\":1,\"a\":2}", error));
}

}  // namespace
}  // namespace coolopt::obs
