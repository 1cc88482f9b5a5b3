// Unit tests for the common substrate: Status/Result, RNG, strings, JSON,
// bitset.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <limits>
#include <set>
#include <string_view>

#include "common/bitset.h"
#include "common/json.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/strings.h"

namespace cexplorer {
namespace {

// --------------------------------------------------------------------------
// Status / Result
// --------------------------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kOk);
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status st = Status::InvalidArgument("k must be positive");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(st.message(), "k must be positive");
  EXPECT_EQ(st.ToString(), "InvalidArgument: k must be positive");
}

TEST(StatusTest, AllCodesHaveNames) {
  EXPECT_STREQ(StatusCodeName(StatusCode::kOk), "OK");
  EXPECT_STREQ(StatusCodeName(StatusCode::kNotFound), "NotFound");
  EXPECT_STREQ(StatusCodeName(StatusCode::kIoError), "IoError");
  EXPECT_STREQ(StatusCodeName(StatusCode::kParseError), "ParseError");
  EXPECT_STREQ(StatusCodeName(StatusCode::kInternal), "Internal");
  EXPECT_STREQ(StatusCodeName(StatusCode::kNotImplemented), "NotImplemented");
  EXPECT_STREQ(StatusCodeName(StatusCode::kAlreadyExists), "AlreadyExists");
  EXPECT_STREQ(StatusCodeName(StatusCode::kOutOfRange), "OutOfRange");
  EXPECT_STREQ(StatusCodeName(StatusCode::kFailedPrecondition),
               "FailedPrecondition");
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::Ok(), Status::Ok());
  EXPECT_EQ(Status::NotFound("x"), Status::NotFound("x"));
  EXPECT_FALSE(Status::NotFound("x") == Status::NotFound("y"));
  EXPECT_FALSE(Status::NotFound("x") == Status::Internal("x"));
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(r.status(), Status::Ok());
  EXPECT_EQ(r.value_or(7), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("missing"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.value_or(7), 7);
}

TEST(ResultTest, DereferenceSugar) {
  Result<std::string> r(std::string("hello"));
  EXPECT_EQ(r->size(), 5u);
  EXPECT_EQ(*r, "hello");
}

TEST(ResultTest, MoveOutValue) {
  Result<std::vector<int>> r(std::vector<int>{1, 2, 3});
  std::vector<int> v = std::move(r).value();
  EXPECT_EQ(v.size(), 3u);
}

// --------------------------------------------------------------------------
// Rng
// --------------------------------------------------------------------------

TEST(RngTest, DeterministicForSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU32(), b.NextU32());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.NextU32() == b.NextU32()) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(RngTest, UniformU32InBounds) {
  Rng rng(9);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.UniformU32(17), 17u);
  }
}

TEST(RngTest, UniformU32CoversRange) {
  Rng rng(5);
  std::set<std::uint32_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.UniformU32(10));
  EXPECT_EQ(seen.size(), 10u);
}

TEST(RngTest, UniformIntInclusiveBounds) {
  Rng rng(11);
  bool low = false;
  bool high = false;
  for (int i = 0; i < 2000; ++i) {
    auto v = rng.UniformInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    low |= v == -3;
    high |= v == 3;
  }
  EXPECT_TRUE(low);
  EXPECT_TRUE(high);
}

TEST(RngTest, UniformDoubleInHalfOpenUnit) {
  Rng rng(13);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    double u = rng.UniformDouble();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(RngTest, NormalHasZeroMeanUnitVariance) {
  Rng rng(17);
  double sum = 0.0;
  double sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double x = rng.Normal();
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sq / n, 1.0, 0.1);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(19);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto original = v;
  rng.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, original);
}

TEST(RngTest, WeightedIndexRespectsWeights) {
  Rng rng(23);
  std::vector<double> weights{1.0, 0.0, 9.0};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 5000; ++i) ++counts[rng.WeightedIndex(weights)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_GT(counts[2], counts[0] * 5);
}

TEST(ZipfTest, RankZeroMostFrequent) {
  Rng rng(29);
  ZipfSampler zipf(100, 1.2);
  std::vector<int> counts(100, 0);
  for (int i = 0; i < 20000; ++i) ++counts[zipf.Sample(&rng)];
  EXPECT_GT(counts[0], counts[10]);
  EXPECT_GT(counts[0], counts[50] * 3);
}

TEST(ZipfTest, UniformWhenExponentZero) {
  Rng rng(31);
  ZipfSampler zipf(4, 0.0);
  std::vector<int> counts(4, 0);
  for (int i = 0; i < 8000; ++i) ++counts[zipf.Sample(&rng)];
  for (int c : counts) EXPECT_NEAR(c, 2000, 250);
}

// --------------------------------------------------------------------------
// Strings
// --------------------------------------------------------------------------

TEST(StringsTest, SplitKeepsEmptyFields) {
  auto parts = Split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(StringsTest, SplitWhitespaceDropsEmpty) {
  auto parts = SplitWhitespace("  jim   gray\t42\n");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "jim");
  EXPECT_EQ(parts[1], "gray");
  EXPECT_EQ(parts[2], "42");
}

TEST(StringsTest, TrimBothEnds) {
  EXPECT_EQ(Trim("  x  "), "x");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim(" \t\n "), "");
  EXPECT_EQ(Trim("abc"), "abc");
}

TEST(StringsTest, JoinWithSeparator) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"solo"}, ","), "solo");
}

TEST(StringsTest, ToLowerAscii) {
  EXPECT_EQ(ToLower("Jim GRAY"), "jim gray");
}

TEST(StringsTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("/search?x", "/search"));
  EXPECT_FALSE(StartsWith("/s", "/search"));
  EXPECT_TRUE(EndsWith("graph.txt", ".txt"));
  EXPECT_FALSE(EndsWith("txt", ".txt"));
}

TEST(StringsTest, ParseInt64Valid) {
  std::int64_t v = 0;
  EXPECT_TRUE(ParseInt64("42", &v));
  EXPECT_EQ(v, 42);
  EXPECT_TRUE(ParseInt64("-7", &v));
  EXPECT_EQ(v, -7);
  EXPECT_TRUE(ParseInt64(" 13 ", &v));
  EXPECT_EQ(v, 13);
}

TEST(StringsTest, ParseInt64Invalid) {
  std::int64_t v = 0;
  EXPECT_FALSE(ParseInt64("", &v));
  EXPECT_FALSE(ParseInt64("4x", &v));
  EXPECT_FALSE(ParseInt64("x4", &v));
  EXPECT_FALSE(ParseInt64("4 2", &v));
}

TEST(StringsTest, ParseDoubleValidAndInvalid) {
  double v = 0;
  EXPECT_TRUE(ParseDouble("3.5", &v));
  EXPECT_DOUBLE_EQ(v, 3.5);
  EXPECT_TRUE(ParseDouble("-2e3", &v));
  EXPECT_DOUBLE_EQ(v, -2000.0);
  EXPECT_FALSE(ParseDouble("abc", &v));
  EXPECT_FALSE(ParseDouble("", &v));
}

TEST(StringsTest, FormatHelpers) {
  EXPECT_EQ(FormatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(FormatWithCommas(0), "0");
  EXPECT_EQ(FormatWithCommas(999), "999");
  EXPECT_EQ(FormatWithCommas(3432273), "3,432,273");
  EXPECT_EQ(FormatWithCommas(977288), "977,288");
}

// --------------------------------------------------------------------------
// Bitset
// --------------------------------------------------------------------------

TEST(BitsetTest, SetTestReset) {
  Bitset bits(130);
  EXPECT_EQ(bits.count(), 0u);
  bits.Set(0);
  bits.Set(64);
  bits.Set(129);
  EXPECT_TRUE(bits.Test(0));
  EXPECT_TRUE(bits.Test(64));
  EXPECT_TRUE(bits.Test(129));
  EXPECT_FALSE(bits.Test(1));
  EXPECT_EQ(bits.count(), 3u);
  bits.Reset(64);
  EXPECT_FALSE(bits.Test(64));
  EXPECT_EQ(bits.count(), 2u);
}

TEST(BitsetTest, DoubleSetIsIdempotent) {
  Bitset bits(10);
  bits.Set(3);
  bits.Set(3);
  EXPECT_EQ(bits.count(), 1u);
  bits.Reset(3);
  bits.Reset(3);
  EXPECT_EQ(bits.count(), 0u);
}

TEST(BitsetTest, ToVectorAscending) {
  Bitset bits(200);
  bits.Set(150);
  bits.Set(3);
  bits.Set(63);
  bits.Set(64);
  auto v = bits.ToVector();
  ASSERT_EQ(v.size(), 4u);
  EXPECT_EQ(v[0], 3u);
  EXPECT_EQ(v[1], 63u);
  EXPECT_EQ(v[2], 64u);
  EXPECT_EQ(v[3], 150u);
}

TEST(BitsetTest, ClearResetsEverything) {
  Bitset bits(50);
  for (std::size_t i = 0; i < 50; i += 5) bits.Set(i);
  bits.Clear();
  EXPECT_EQ(bits.count(), 0u);
  EXPECT_TRUE(bits.ToVector().empty());
}

// --------------------------------------------------------------------------
// JSON
// --------------------------------------------------------------------------

TEST(JsonWriterTest, FlatObject) {
  JsonWriter w;
  w.BeginObject();
  w.Key("name");
  w.String("jim gray");
  w.Key("k");
  w.Int(4);
  w.Key("ok");
  w.Bool(true);
  w.EndObject();
  EXPECT_EQ(w.TakeString(), R"({"name":"jim gray","k":4,"ok":true})");
}

TEST(JsonWriterTest, NestedArrays) {
  JsonWriter w;
  w.BeginObject();
  w.Key("xs");
  w.BeginArray();
  w.Int(1);
  w.Int(2);
  w.BeginArray();
  w.Int(3);
  w.EndArray();
  w.EndArray();
  w.EndObject();
  EXPECT_EQ(w.TakeString(), R"({"xs":[1,2,[3]]})");
}

/// JSON escaping one byte at a time, by the rules JsonWriter documents:
/// the reference its in-place runs must match.
std::string ReferenceEscape(std::string_view raw) {
  std::string out;
  for (char c : raw) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

TEST(JsonWriterTest, EscapesSpecials) {
  JsonWriter w;
  w.String("a\"b\\c\nd");
  EXPECT_EQ(w.TakeString(), R"("a\"b\\c\nd")");

  // Every byte 0x00-0x7f, alone and inside an unescaped run, and multi-byte
  // UTF-8 sequences, written as a value and as a key.
  std::vector<std::string> inputs;
  for (int c = 0; c < 0x80; ++c) {
    const std::string byte(1, static_cast<char>(c));
    inputs.push_back(byte);
    inputs.push_back("ab" + byte + "cd");
  }
  inputs.push_back("gr\xc3\xbc\xc3\x9f \xe6\x97\xa5 \xf0\x9f\x98\x80");
  for (const std::string& raw : inputs) {
    const std::string quoted = "\"" + JsonWriter::Escape(raw) + "\"";
    EXPECT_EQ(quoted, "\"" + ReferenceEscape(raw) + "\"");
    JsonWriter value;
    value.String(raw);
    EXPECT_EQ(value.TakeString(), quoted);
    JsonWriter key;
    key.BeginObject();
    key.Key(raw);
    key.UInt(1);
    key.EndObject();
    const std::string object = key.TakeString();
    EXPECT_EQ(object, "{" + quoted + ":1}");

    auto parsed_value = JsonValue::Parse(quoted);
    ASSERT_TRUE(parsed_value.ok()) << quoted;
    EXPECT_EQ(parsed_value->AsString(), raw);
    auto parsed_key = JsonValue::Parse(object);
    ASSERT_TRUE(parsed_key.ok()) << object;
    EXPECT_TRUE(parsed_key->Has(raw)) << object;
  }
}

TEST(JsonWriterTest, IntegersAtTheirLimits) {
  JsonWriter w;
  w.BeginArray();
  w.UInt(0);
  w.UInt(std::numeric_limits<std::uint64_t>::max());
  w.Int(std::numeric_limits<std::int64_t>::min());
  w.Int(0);
  w.Int(-42);
  w.EndArray();
  EXPECT_EQ(w.TakeString(),
            "[0,18446744073709551615,-9223372036854775808,0,-42]");
}

TEST(JsonWriterTest, NonFiniteDoubleBecomesNull) {
  JsonWriter w;
  w.Double(std::nan(""));
  EXPECT_EQ(w.TakeString(), "null");
}

TEST(JsonWriterTest, RecycledProducesIdenticalDocuments) {
  auto render = [](JsonWriter w) {
    w.BeginObject();
    w.Key("xs");
    w.BeginArray();
    for (int i = 0; i < 100; ++i) w.Int(i);
    w.EndArray();
    w.Key("s");
    w.String("a\"b");
    w.EndObject();
    return w.TakeString();
  };
  EXPECT_EQ(render(JsonWriter::Recycled()), render(JsonWriter()));
}

TEST(JsonWriterTest, RecycledBufferIsReusedAcrossWriters) {
  // Grow the thread's recycled buffer once, then confirm a later recycled
  // writer starts with at least that capacity (no growth reallocations in
  // steady state) and that TakeString hands out an exact-size copy.
  std::string big;
  {
    JsonWriter w = JsonWriter::Recycled();
    w.BeginArray();
    for (int i = 0; i < 10000; ++i) w.Int(i);
    w.EndArray();
    big = w.TakeString();
  }
  JsonWriter w = JsonWriter::Recycled();
  w.BeginArray();
  w.Int(1);
  w.EndArray();
  std::string small = w.TakeString();
  EXPECT_EQ(small, "[1]");
  EXPECT_LT(small.capacity(), big.size());  // exact-size copy, not the slot
}

TEST(JsonWriterTest, NestedRecycledWritersStayIndependent) {
  JsonWriter outer = JsonWriter::Recycled();
  outer.BeginArray();
  outer.Int(7);
  {
    JsonWriter inner = JsonWriter::Recycled();  // slot already borrowed
    inner.BeginObject();
    inner.Key("k");
    inner.Int(8);
    inner.EndObject();
    EXPECT_EQ(inner.TakeString(), "{\"k\":8}");
  }
  outer.EndArray();
  EXPECT_EQ(outer.TakeString(), "[7]");
}

TEST(JsonWriterTest, MoveTransfersRecycledOwnership) {
  JsonWriter a = JsonWriter::Recycled();
  a.BeginArray();
  JsonWriter b = std::move(a);
  b.Int(3);
  b.EndArray();
  EXPECT_EQ(b.TakeString(), "[3]");
}

TEST(JsonValueTest, ParsesScalars) {
  EXPECT_TRUE(JsonValue::Parse("null")->is_null());
  EXPECT_EQ(JsonValue::Parse("true")->AsBool(), true);
  EXPECT_EQ(JsonValue::Parse("42")->AsInt(), 42);
  EXPECT_DOUBLE_EQ(JsonValue::Parse("-2.5")->AsDouble(), -2.5);
  EXPECT_EQ(JsonValue::Parse("\"hi\"")->AsString(), "hi");
}

TEST(JsonValueTest, ParsesNested) {
  auto v = JsonValue::Parse(R"({"a":[1,{"b":"x"}],"c":null})");
  ASSERT_TRUE(v.ok());
  EXPECT_TRUE(v->is_object());
  EXPECT_TRUE(v->Has("a"));
  const auto& items = v->Get("a").Items();
  ASSERT_EQ(items.size(), 2u);
  EXPECT_EQ(items[0].AsInt(), 1);
  EXPECT_EQ(items[1].Get("b").AsString(), "x");
  EXPECT_TRUE(v->Get("c").is_null());
  EXPECT_TRUE(v->Get("zzz").is_null());
}

TEST(JsonValueTest, ParsesEscapes) {
  auto v = JsonValue::Parse(R"("a\n\t\"\\A")");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->AsString(), "a\n\t\"\\A");
}

TEST(JsonValueTest, RejectsGarbage) {
  EXPECT_FALSE(JsonValue::Parse("").ok());
  EXPECT_FALSE(JsonValue::Parse("{").ok());
  EXPECT_FALSE(JsonValue::Parse("[1,]").ok());
  EXPECT_FALSE(JsonValue::Parse("{\"a\" 1}").ok());
  EXPECT_FALSE(JsonValue::Parse("42 43").ok());
  EXPECT_FALSE(JsonValue::Parse("\"unterminated").ok());
  EXPECT_FALSE(JsonValue::Parse("tru").ok());
}

TEST(JsonValueTest, WriterParserRoundTrip) {
  JsonWriter w;
  w.BeginObject();
  w.Key("list");
  w.BeginArray();
  w.Int(1);
  w.String("two");
  w.Bool(false);
  w.Null();
  w.EndArray();
  w.Key("pi");
  w.Double(3.25);
  w.EndObject();
  std::string doc = w.TakeString();
  auto v = JsonValue::Parse(doc);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->Dump(), doc);
}

}  // namespace
}  // namespace cexplorer
