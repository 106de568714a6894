// Unit tests for the support library: Status/Result, hex, BitVector, RNG,
// and the shared JSON string escaper.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "support/bench_json.h"
#include "support/bitvector.h"
#include "support/hex.h"
#include "support/json_escape.h"
#include "support/parse_number.h"
#include "support/rng.h"
#include "support/status.h"

namespace eric {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), ErrorCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s(ErrorCode::kParseError, "bad byte");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), ErrorCode::kParseError);
  EXPECT_EQ(s.message(), "bad byte");
  EXPECT_EQ(s.ToString(), "PARSE_ERROR: bad byte");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (int c = 0; c <= static_cast<int>(ErrorCode::kInjectedCrash); ++c) {
    EXPECT_NE(ErrorCodeName(static_cast<ErrorCode>(c)), "UNKNOWN");
  }
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r(ErrorCode::kNotFound, "nope");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kNotFound);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r(std::string(1000, 'x'));
  std::string moved = *std::move(r);
  EXPECT_EQ(moved.size(), 1000u);
}

TEST(HexTest, EncodeDecodeRoundtrip) {
  const std::vector<uint8_t> bytes = {0x00, 0x01, 0xAB, 0xFF, 0x10};
  const std::string hex = HexEncode(bytes);
  EXPECT_EQ(hex, "0001abff10");
  auto decoded = HexDecode(hex);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, bytes);
}

TEST(HexTest, DecodeUppercase) {
  auto decoded = HexDecode("ABCDEF");
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ((*decoded)[0], 0xAB);
}

TEST(HexTest, DecodeRejectsOddLength) {
  EXPECT_FALSE(HexDecode("abc").ok());
}

TEST(HexTest, DecodeRejectsBadDigit) {
  EXPECT_FALSE(HexDecode("zz").ok());
}

TEST(HexTest, Hex64Format) {
  EXPECT_EQ(Hex64(0xDEADBEEF12345678ull), "0xdeadbeef12345678");
  EXPECT_EQ(Hex32(0x1234), "0x00001234");
}

TEST(BitVectorTest, EmptyByDefault) {
  BitVector v;
  EXPECT_TRUE(v.empty());
  EXPECT_EQ(v.ByteSize(), 0u);
}

TEST(BitVectorTest, SetGet) {
  BitVector v(10);
  EXPECT_FALSE(v.Get(3));
  v.Set(3, true);
  EXPECT_TRUE(v.Get(3));
  v.Set(3, false);
  EXPECT_FALSE(v.Get(3));
}

TEST(BitVectorTest, PushBackGrows) {
  BitVector v;
  for (int i = 0; i < 20; ++i) v.PushBack(i % 3 == 0);
  EXPECT_EQ(v.size(), 20u);
  EXPECT_EQ(v.ByteSize(), 3u);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(v.Get(i), i % 3 == 0) << i;
}

TEST(BitVectorTest, PopCount) {
  BitVector v(100);
  for (size_t i = 0; i < 100; i += 7) v.Set(i, true);
  EXPECT_EQ(v.PopCount(), 15u);  // ceil(100/7)
}

TEST(BitVectorTest, InitialValueTrueCanonicalizesPadding) {
  BitVector v(9, true);
  EXPECT_EQ(v.PopCount(), 9u);
  EXPECT_EQ(v.bytes()[1], 0x01);  // padding bits cleared
}

TEST(BitVectorTest, SerializationRoundtrip) {
  BitVector v(13);
  v.Set(0, true);
  v.Set(12, true);
  BitVector back = BitVector::FromBytes(v.bytes(), 13);
  EXPECT_EQ(v, back);
}

TEST(RngTest, Deterministic) {
  Xoshiro256 a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, SeedsDiffer) {
  Xoshiro256 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, BoundedStaysInRange) {
  Xoshiro256 rng(3);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
  }
}

TEST(RngTest, BoundedCoversRange) {
  Xoshiro256 rng(9);
  std::set<uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.NextBounded(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(RngTest, DoubleInUnitInterval) {
  Xoshiro256 rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, GaussianMomentsReasonable) {
  Xoshiro256 rng(13);
  double sum = 0.0, sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.NextGaussian();
    sum += g;
    sq += g * g;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.05);
  EXPECT_NEAR(var, 1.0, 0.05);
}

TEST(RngTest, GaussianBoundCoversTheSmallestRadiusDraw) {
  // u1 >= 2^-53 is the largest radius Box–Muller can produce.
  EXPECT_LT(std::sqrt(-2 * std::log(0x1p-53)), kMaxAbsGaussian);
  Xoshiro256 rng(17);
  for (int i = 0; i < 100000; ++i) {
    EXPECT_LE(std::abs(rng.NextGaussian()), kMaxAbsGaussian);
  }
}

TEST(RngTest, SkipGaussianDrawsLikeNextGaussian) {
  for (uint64_t seed = 0; seed < 64; ++seed) {
    Xoshiro256 drawn(seed), skipped(seed);
    for (int i = 0; i < 100; ++i) {
      drawn.NextGaussian();
      skipped.SkipGaussian();
    }
    EXPECT_EQ(drawn.Next(), skipped.Next()) << "seed " << seed;
  }
}

TEST(ParseNumberTest, UnsignedAcceptsDecimalHexAndOctal) {
  uint64_t n = 0;
  EXPECT_TRUE(ParseUnsigned("42", &n));
  EXPECT_EQ(n, 42u);
  EXPECT_TRUE(ParseUnsigned("0xC0FFEE", &n));
  EXPECT_EQ(n, 0xC0FFEEu);
  EXPECT_TRUE(ParseUnsigned("017", &n));
  EXPECT_EQ(n, 15u);
  EXPECT_TRUE(ParseUnsigned("18446744073709551615", &n));
  EXPECT_EQ(n, ~0ull);
}

TEST(ParseNumberTest, UnsignedRefusesAnythingButAWholeNumber) {
  uint64_t n = 0;
  for (const char* text :
       {"", "banana", "-1", "+1", " 1", " -1", "1 ", "0xC0FFEEZZ", "12abc",
        "1.5", "0x", "18446744073709551616", "99999999999999999999999",
        "nan", "inf"}) {
    EXPECT_FALSE(ParseUnsigned(text, &n)) << '"' << text << '"';
  }
}

TEST(ParseNumberTest, RealAcceptsFiniteNumbers) {
  double x = 0;
  EXPECT_TRUE(ParseReal("0.5", &x));
  EXPECT_EQ(x, 0.5);
  EXPECT_TRUE(ParseReal("-2", &x));
  EXPECT_EQ(x, -2.0);
  EXPECT_TRUE(ParseReal("+1e3", &x));
  EXPECT_EQ(x, 1000.0);
  EXPECT_TRUE(ParseReal(".25", &x));
  EXPECT_EQ(x, 0.25);
}

TEST(ParseNumberTest, RealRefusesJunkOverflowAndNonFinite) {
  double x = 0;
  for (const char* text :
       {"", "banana", " 0.5", "0.5 ", "0.5x", "1e999", "-1e999", "nan",
        "NAN", "-nan", "inf", "-inf", "infinity", "-"}) {
    EXPECT_FALSE(ParseReal(text, &x)) << '"' << text << '"';
  }
}

TEST(JsonEscapeTest, PlainTextPassesThrough) {
  EXPECT_EQ(JsonQuoted("crc32 workload"), "\"crc32 workload\"");
  EXPECT_EQ(JsonQuoted(""), "\"\"");
}

TEST(JsonEscapeTest, EscapesQuotesBackslashesAndShortForms) {
  EXPECT_EQ(JsonQuoted("say \"hi\""), "\"say \\\"hi\\\"\"");
  EXPECT_EQ(JsonQuoted("a\\b"), "\"a\\\\b\"");
  EXPECT_EQ(JsonQuoted("line1\nline2\tend\r\b\f"),
            "\"line1\\nline2\\tend\\r\\b\\f\"");
}

TEST(JsonEscapeTest, ControlBytesBecomeUnicodeEscapes) {
  EXPECT_EQ(JsonQuoted(std::string_view("\x01\x1f", 2)), "\"\\u0001\\u001f\"");
  // An embedded NUL must escape, not truncate the document.
  EXPECT_EQ(JsonQuoted(std::string_view("a\0b", 3)), "\"a\\u0000b\"");
}

TEST(JsonEscapeTest, HighBytesSurviveWithoutSignExtension) {
  // UTF-8 multibyte sequences (bytes >= 0x80, negative as signed char)
  // must pass through byte-for-byte — a sign-extended %04x would smear
  // them into "\uffffffe9"-style garbage.
  const std::string utf8 = "caf\xc3\xa9";
  EXPECT_EQ(JsonQuoted(utf8), "\"" + utf8 + "\"");
}

TEST(JsonEscapeTest, JsonWriterRoutesStringsThroughTheEscaper) {
  JsonWriter json;
  json.BeginObject();
  json.Field("name", "quote\" and \nnewline");
  json.EndObject();
  EXPECT_EQ(json.str(), "{\"name\":\"quote\\\" and \\nnewline\"}");
}

TEST(RngTest, SplitMix64KnownStream) {
  // SplitMix64 is the standard seeding PRNG; check two seeds give distinct
  // non-zero outputs and are reproducible.
  SplitMix64 a(0), b(0);
  EXPECT_EQ(a.Next(), b.Next());
  SplitMix64 c(1);
  EXPECT_NE(SplitMix64(0).Next(), c.Next());
}

}  // namespace
}  // namespace eric
