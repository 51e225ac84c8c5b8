// Tests for the minimal JSON reader (src/common/json.hpp): value kinds,
// member-order preservation, raw number text, escapes, and error reporting
// — the properties the suite runner builds on.
#include "common/json.hpp"

#include <gtest/gtest.h>

#include <cstdint>

namespace cr {
namespace {

TEST(Json, ParsesScalars) {
  EXPECT_TRUE(JsonValue::parse("null").value->is_null());
  EXPECT_TRUE(JsonValue::parse("true").value->as_bool());
  EXPECT_FALSE(JsonValue::parse("false").value->as_bool());
  EXPECT_DOUBLE_EQ(JsonValue::parse("-1.5e2").value->as_number(), -150.0);
  EXPECT_EQ(JsonValue::parse("\"hi\"").value->as_string(), "hi");
}

TEST(Json, NumbersKeepRawSourceText) {
  // The suite runner forwards manifest numbers to bench flags byte-for-byte;
  // a double round-trip would turn 0.25 into 0.25000000000000000 or similar.
  const auto parsed = JsonValue::parse(R"({"jam": 0.25, "n": 4096, "e": 1e3})");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value->find("jam")->raw_number(), "0.25");
  EXPECT_EQ(parsed.value->find("n")->raw_number(), "4096");
  EXPECT_EQ(parsed.value->find("e")->raw_number(), "1e3");
  EXPECT_DOUBLE_EQ(parsed.value->find("e")->as_number(), 1000.0);
  // exact_u64 reads integers from the raw text, exact past 2^53 where a
  // double would round, and refuses anything that is not a plain integer.
  std::uint64_t value = 7;
  EXPECT_TRUE(parsed.value->find("n")->exact_u64(&value));
  EXPECT_EQ(value, 4096u);
  const auto big = JsonValue::parse("[18446744073709551615, 9007199254740993]");
  ASSERT_TRUE(big.ok());
  EXPECT_TRUE(big.value->items()[0]->exact_u64(&value));
  EXPECT_EQ(value, ~std::uint64_t{0});
  EXPECT_TRUE(big.value->items()[1]->exact_u64(&value));
  EXPECT_EQ(value, (std::uint64_t{1} << 53) + 1);
  for (const char* bad : {"0.25", "1e3", "-1", "18446744073709551616", "\"12\"", "null"}) {
    value = 7;
    EXPECT_FALSE(JsonValue::parse(bad).value->exact_u64(&value)) << bad;
    EXPECT_EQ(value, 7u) << bad;
  }
}

TEST(Json, ObjectPreservesMemberOrder) {
  const auto parsed = JsonValue::parse(R"({"z": 1, "a": 2, "m": 3})");
  ASSERT_TRUE(parsed.ok());
  const auto& members = parsed.value->members();
  ASSERT_EQ(members.size(), 3u);
  EXPECT_EQ(members[0].first, "z");
  EXPECT_EQ(members[1].first, "a");
  EXPECT_EQ(members[2].first, "m");
}

TEST(Json, NestedStructures) {
  const auto parsed =
      JsonValue::parse(R"({"cells": [{"bench": "latency", "seeds": [1, 2]}, {}]})");
  ASSERT_TRUE(parsed.ok());
  const JsonValue* cells = parsed.value->find("cells");
  ASSERT_NE(cells, nullptr);
  ASSERT_EQ(cells->items().size(), 2u);
  EXPECT_EQ(cells->items()[0]->find("bench")->as_string(), "latency");
  EXPECT_EQ(cells->items()[0]->find("seeds")->items().size(), 2u);
  EXPECT_TRUE(cells->items()[1]->members().empty());
}

TEST(Json, StringEscapes) {
  const auto parsed = JsonValue::parse(R"("a\"b\\c\nd\teA")");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value->as_string(), "a\"b\\c\nd\teA");
}

TEST(Json, FindReturnsNullForMissingKey) {
  const auto parsed = JsonValue::parse(R"({"a": 1})");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value->find("b"), nullptr);
}

TEST(Json, ErrorsCarryLineNumbers) {
  const auto parsed = JsonValue::parse("{\n  \"a\": ,\n}");
  EXPECT_FALSE(parsed.ok());
  EXPECT_NE(parsed.error.find("line 2"), std::string::npos) << parsed.error;
}

TEST(Json, RejectsTrailingGarbage) {
  EXPECT_FALSE(JsonValue::parse("{} extra").ok());
  EXPECT_FALSE(JsonValue::parse("1 2").ok());
}

TEST(Json, RejectsDuplicateObjectKeys) {
  const auto parsed = JsonValue::parse(R"({"cells": [1], "cells": [2]})");
  EXPECT_FALSE(parsed.ok());
  EXPECT_NE(parsed.error.find("duplicate object key"), std::string::npos) << parsed.error;
}

TEST(Json, RejectsMalformedInput) {
  EXPECT_FALSE(JsonValue::parse("").ok());
  EXPECT_FALSE(JsonValue::parse("{\"a\": 1").ok());
  EXPECT_FALSE(JsonValue::parse("[1, ]").ok());
  EXPECT_FALSE(JsonValue::parse("\"unterminated").ok());
  EXPECT_FALSE(JsonValue::parse("{\"bad\\q\": 1}").ok());
  EXPECT_FALSE(JsonValue::parse("{'single': 1}").ok());
}

TEST(Json, ParseFileReportsMissingPath) {
  const auto parsed = JsonValue::parse_file("/nonexistent/suite.json");
  EXPECT_FALSE(parsed.ok());
  EXPECT_NE(parsed.error.find("/nonexistent/suite.json"), std::string::npos);
}

}  // namespace
}  // namespace cr
