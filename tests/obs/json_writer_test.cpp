#include "obs/json_writer.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "util/jsonio.h"

namespace coolopt::obs {
namespace {

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
  EXPECT_TRUE(json_syntax_valid(os));
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
  EXPECT_TRUE(json_syntax_valid(os));
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
    EXPECT_TRUE(json_syntax_valid(os));
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

TEST(JsonSyntaxValid, AcceptsValidDocuments) {
  EXPECT_TRUE(json_syntax_valid("{}"));
  EXPECT_TRUE(json_syntax_valid("[]"));
  EXPECT_TRUE(json_syntax_valid("{\"a\":[1,2.5,-3e4,null,true,\"s\"]}"));
  EXPECT_TRUE(json_syntax_valid("  {\"a\" : {\"b\" : []}}  "));
}

TEST(JsonSyntaxValid, RejectsInvalidDocuments) {
  std::string error;
  EXPECT_FALSE(json_syntax_valid("", &error));
  EXPECT_FALSE(json_syntax_valid("{", &error));
  EXPECT_FALSE(json_syntax_valid("{\"a\":}", &error));
  EXPECT_FALSE(json_syntax_valid("[1,]", &error));
  EXPECT_FALSE(json_syntax_valid("{\"a\":1}garbage", &error));
  EXPECT_FALSE(json_syntax_valid("{'a':1}", &error));
  EXPECT_FALSE(error.empty());
}

}  // namespace
}  // namespace coolopt::obs
