// Unit tests for the foundation layer: Status/Result, Rng, Histogram,
// LamportClock, serialization, metrics.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <iterator>
#include <limits>
#include <map>
#include <set>

#include "common/histogram.h"
#include "common/json.h"
#include "common/lamport_clock.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/serde.h"
#include "common/status.h"
#include "tests/test_util.h"

namespace tornado {
namespace {

// ---------------------------------------------------------------------------
// Status / Result
// ---------------------------------------------------------------------------

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, CarriesCodeAndMessage) {
  Status s = Status::NotFound("no such vertex");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.ToString(), "NOT_FOUND: no such vertex");
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::Aborted("x"), Status::Aborted("x"));
  EXPECT_FALSE(Status::Aborted("x") == Status::Aborted("y"));
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::Internal("boom"));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInternal);
}

// ---------------------------------------------------------------------------
// Rng
// ---------------------------------------------------------------------------

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextUint64(), b.NextUint64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextUint64() == b.NextUint64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, BoundedValuesStayInBounds) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.NextUint64(17), 17u);
    const int64_t v = rng.NextInt(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, UniformMeanIsCentered) {
  Rng rng(11);
  double sum = 0.0;
  constexpr int kN = 200000;
  for (int i = 0; i < kN; ++i) sum += rng.NextDouble();
  EXPECT_NEAR(sum / kN, 0.5, 0.01);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(13);
  double sum = 0.0, sum2 = 0.0;
  constexpr int kN = 200000;
  for (int i = 0; i < kN; ++i) {
    const double g = rng.NextGaussian();
    sum += g;
    sum2 += g * g;
  }
  EXPECT_NEAR(sum / kN, 0.0, 0.02);
  EXPECT_NEAR(sum2 / kN, 1.0, 0.03);
}

TEST(RngTest, ZipfIsSkewedAndBounded) {
  Rng rng(17);
  std::map<uint64_t, int> counts;
  constexpr int kN = 50000;
  for (int i = 0; i < kN; ++i) {
    const uint64_t z = rng.NextZipf(1000, 1.2);
    ASSERT_LT(z, 1000u);
    counts[z]++;
  }
  // Rank 0 must dominate rank 99 heavily.
  EXPECT_GT(counts[0], 20 * std::max(1, counts[99]));
}

TEST(RngTest, NextBoolRespectsProbability) {
  Rng rng(19);
  int heads = 0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) heads += rng.NextBool(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(heads) / kN, 0.3, 0.01);
  EXPECT_FALSE(rng.NextBool(0.0));
  EXPECT_TRUE(rng.NextBool(1.0));
}

TEST(RngTest, ForkedStreamsAreIndependentAndDeterministic) {
  Rng a(31);
  Rng b(31);
  Rng fa = a.Fork();
  Rng fb = b.Fork();
  for (int i = 0; i < 32; ++i) EXPECT_EQ(fa.NextUint64(), fb.NextUint64());
}

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

TEST(HistogramTest, EmptyIsZero) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.Percentile(99), 0.0);
  EXPECT_EQ(h.Mean(), 0.0);
}

TEST(HistogramTest, BasicStats) {
  Histogram h;
  for (int i = 1; i <= 100; ++i) h.Add(i);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_DOUBLE_EQ(h.Mean(), 50.5);
  EXPECT_EQ(h.min(), 1.0);
  EXPECT_EQ(h.max(), 100.0);
  EXPECT_NEAR(h.Percentile(50), 50.5, 0.5);
  EXPECT_NEAR(h.Percentile(99), 99.0, 1.1);
}

TEST(HistogramTest, MergeCombinesSamples) {
  Histogram a, b;
  a.Add(1.0);
  b.Add(3.0);
  a.Merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.Mean(), 2.0);
}

TEST(HistogramTest, StddevOfConstantIsZero) {
  Histogram h;
  for (int i = 0; i < 10; ++i) h.Add(4.0);
  EXPECT_DOUBLE_EQ(h.Stddev(), 0.0);
}

// ---------------------------------------------------------------------------
// MetricRegistry distributions
// ---------------------------------------------------------------------------

TEST(MetricRegistryTest, ObserveFeedsNamedDistribution) {
  MetricRegistry metrics;
  EXPECT_EQ(metrics.GetHistogram("latency"), nullptr);
  metrics.Observe("latency", 0.5);
  metrics.Observe("latency", 1.5);
  const Histogram* h = metrics.GetHistogram("latency");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count(), 2u);
  EXPECT_DOUBLE_EQ(h->Mean(), 1.0);
  EXPECT_NE(metrics.ToString().find("latency"), std::string::npos);
}

TEST(MetricRegistryTest, HandlesSurviveReset) {
  MetricRegistry metrics;
  Histogram& handle = metrics.HistogramHandle("staleness");
  handle.Add(2.0);
  std::atomic<int64_t>& counter = metrics.CounterHandle("commits");
  counter = 7;
  metrics.Reset();
  // Reset clears in place: both handles stay valid and read as empty.
  EXPECT_EQ(handle.count(), 0u);
  EXPECT_EQ(counter, 0);
  handle.Add(9.0);
  EXPECT_EQ(metrics.GetHistogram("staleness")->count(), 1u);
}

// ---------------------------------------------------------------------------
// LamportClock
// ---------------------------------------------------------------------------

TEST(LamportClockTest, TicksAreStrictlyIncreasing) {
  LamportClock clock(1);
  LamportTime prev = clock.Tick();
  for (int i = 0; i < 100; ++i) {
    const LamportTime next = clock.Tick();
    EXPECT_LT(prev, next);
    prev = next;
  }
}

TEST(LamportClockTest, WitnessAdvancesBeyondRemote) {
  LamportClock a(1), b(2);
  LamportTime ta;
  for (int i = 0; i < 10; ++i) ta = a.Tick();
  b.Witness(ta);
  EXPECT_GT(b.Tick(), ta);
}

TEST(LamportClockTest, NodeIdBreaksTies) {
  const LamportTime x{5, 1};
  const LamportTime y{5, 2};
  EXPECT_LT(x, y);
  EXPECT_NE(x, y);
}

// ---------------------------------------------------------------------------
// Serialization
// ---------------------------------------------------------------------------

TEST(SerdeTest, PrimitivesRoundTrip) {
  BufferWriter w;
  w.PutU8(7);
  w.PutU32(0xDEADBEEF);
  w.PutU64(~0ULL);
  w.PutDouble(3.14159);

  BufferReader r(w.data());
  uint8_t u8;
  uint32_t u32;
  uint64_t u64;
  double d;
  ASSERT_TRUE(r.GetU8(&u8).ok());
  ASSERT_TRUE(r.GetU32(&u32).ok());
  ASSERT_TRUE(r.GetU64(&u64).ok());
  ASSERT_TRUE(r.GetDouble(&d).ok());
  EXPECT_EQ(u8, 7);
  EXPECT_EQ(u32, 0xDEADBEEF);
  EXPECT_EQ(u64, ~0ULL);
  EXPECT_DOUBLE_EQ(d, 3.14159);
  EXPECT_TRUE(r.AtEnd());
}

class VarintRoundTrip : public ::testing::TestWithParam<uint64_t> {};

TEST_P(VarintRoundTrip, RoundTrips) {
  BufferWriter w;
  w.PutVarint(GetParam());
  BufferReader r(w.data());
  uint64_t v = 0;
  ASSERT_TRUE(r.GetVarint(&v).ok());
  EXPECT_EQ(v, GetParam());
  EXPECT_TRUE(r.AtEnd());
}

INSTANTIATE_TEST_SUITE_P(Boundaries, VarintRoundTrip,
                         ::testing::Values(0ULL, 1ULL, 127ULL, 128ULL,
                                           16383ULL, 16384ULL, (1ULL << 32),
                                           ~0ULL));

TEST(SerdeTest, VectorsRoundTrip) {
  BufferWriter w;
  w.PutDoubleVec({1.5, -2.5, std::numeric_limits<double>::infinity()});
  w.PutU64Vec({0, 42, ~0ULL});
  BufferReader r(w.data());
  std::vector<double> dv;
  std::vector<uint64_t> uv;
  ASSERT_TRUE(r.GetDoubleVec(&dv).ok());
  ASSERT_TRUE(r.GetU64Vec(&uv).ok());
  EXPECT_EQ(dv.size(), 3u);
  EXPECT_TRUE(std::isinf(dv[2]));
  EXPECT_EQ(uv, (std::vector<uint64_t>{0, 42, ~0ULL}));
}

TEST(SerdeTest, TruncationIsReported) {
  BufferWriter w;
  w.PutU64(5);
  BufferReader r(w.data().data(), 3);  // cut mid-field
  uint64_t v;
  EXPECT_FALSE(r.GetU64(&v).ok());
}

TEST(SerdeTest, RandomRoundTripProperty) {
  Rng rng(99);
  for (int round = 0; round < 50; ++round) {
    BufferWriter w;
    std::vector<uint64_t> varints;
    std::vector<double> doubles;
    const int n = 1 + static_cast<int>(rng.NextUint64(20));
    for (int i = 0; i < n; ++i) {
      varints.push_back(rng.NextUint64() >> rng.NextUint64(64));
      doubles.push_back(rng.NextGaussian(0, 1e6));
    }
    for (int i = 0; i < n; ++i) {
      w.PutVarint(varints[i]);
      w.PutDouble(doubles[i]);
    }
    BufferReader r(w.data());
    for (int i = 0; i < n; ++i) {
      uint64_t v;
      double d;
      ASSERT_TRUE(r.GetVarint(&v).ok());
      ASSERT_TRUE(r.GetDouble(&d).ok());
      EXPECT_EQ(v, varints[i]);
      EXPECT_DOUBLE_EQ(d, doubles[i]);
    }
  }
}

TEST(SerdeTest, BulkDoubleVecMatchesElementWiseBytes) {
  // Cycled through every length: NaNs with distinct payloads and signs,
  // both zeros, denormals, both infinities and two ordinary values.
  const double specials[] = {
      std::bit_cast<double>(0x7ff8000000000001ULL),  // quiet NaN, payload 1
      std::bit_cast<double>(0xfff4000000000abcULL),  // signalling, sign set
      0.0,
      -0.0,
      std::numeric_limits<double>::denorm_min(),
      std::bit_cast<double>(0x800fffffffffffffULL),  // largest denormal, < 0
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      1.0 / 3.0,
      -2.5e300,
  };
  for (size_t n = 0; n <= 33; ++n) {
    std::vector<double> values(n);
    for (size_t i = 0; i < n; ++i) {
      values[i] = specials[(i * 7 + n) % std::size(specials)];
    }
    BufferWriter bulk;
    bulk.PutDoubleVec(values);
    BufferWriter each;
    each.PutVarint(n);
    for (double d : values) each.PutDouble(d);
    EXPECT_EQ(bulk.data(), each.data()) << "length " << n;

    BufferReader r(bulk.data());
    std::vector<double> back;
    ASSERT_TRUE(r.GetDoubleVec(&back).ok()) << "length " << n;
    EXPECT_TRUE(r.AtEnd());
    ASSERT_EQ(back.size(), n);
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(std::bit_cast<uint64_t>(back[i]),
                std::bit_cast<uint64_t>(values[i]))
          << "length " << n << " index " << i;
    }
  }
}

TEST(SerdeTest, ClearKeepsTheWriterReusable) {
  BufferWriter w;
  w.PutDoubleVec({1.0, 2.0});
  w.Clear();
  EXPECT_EQ(w.size(), 0u);
  w.PutU8(7);
  EXPECT_EQ(w.data(), (std::vector<uint8_t>{7}));
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

TEST(MetricsTest, IncrementAndRead) {
  MetricRegistry m;
  EXPECT_EQ(m.Get("x"), 0);
  m.Inc("x");
  m.Inc("x", 4);
  EXPECT_EQ(m.Get("x"), 5);
  m.Reset();
  EXPECT_EQ(m.Get("x"), 0);
}

// ---------------------------------------------------------------------------
// JSON (common/json.h): the one reader/writer for scenarios, bench results,
// lint reports and trace summaries.
// ---------------------------------------------------------------------------

JsonValue ParseOrDie(const std::string& text) {
  JsonValue value;
  std::string error;
  EXPECT_TRUE(JsonParse(text, &value, &error)) << error;
  return value;
}

TEST(JsonTest, WriteParseRoundTripKeepsOrderAndTypes) {
  JsonValue root = JsonValue::MakeObject();
  root.Add("zeta", JsonValue::Of("last-added first"));
  root.Add("count", JsonValue::Of(uint64_t{42}));
  root.Add("flag", JsonValue::Of(false));
  root.Add("nothing", JsonValue());
  JsonValue& list = root.Add("list", JsonValue::MakeArray());
  list.array.push_back(JsonValue::Of(-3));
  list.array.push_back(JsonValue::MakeObject());
  const std::string text = JsonWrite(root);
  EXPECT_EQ(text,
            "{\n"
            "  \"zeta\": \"last-added first\",\n"
            "  \"count\": 42,\n"
            "  \"flag\": false,\n"
            "  \"nothing\": null,\n"
            "  \"list\": [\n"
            "    -3,\n"
            "    {}\n"
            "  ]\n"
            "}");
  EXPECT_EQ(JsonWrite(ParseOrDie(text)), text);
  const JsonValue parsed = ParseOrDie(text);
  ASSERT_NE(parsed.Find("zeta"), nullptr);
  EXPECT_TRUE(parsed.Find("zeta")->is_string());
  EXPECT_EQ(parsed.Find("missing"), nullptr);
}

// Doubles print in the fewest digits that parse back to the same bits;
// integral values print without a decimal point.
TEST(JsonTest, NumbersUseShortestRoundTripForm) {
  const struct {
    double value;
    const char* text;
  } kCases[] = {
      {0.1, "0.1"},
      {1.0 / 3.0, "0.3333333333333333"},
      {1e-7, "1e-07"},
      {123456789.0, "123456789"},
      {-2.5, "-2.5"},
      {9007199254740993.0, "9007199254740992"},
      {1e300, "1e+300"},
      {5e-324, "5e-324"},
  };
  for (const auto& c : kCases) {
    const std::string text = JsonWrite(JsonValue::Of(c.value));
    EXPECT_EQ(text, c.text) << c.value;
    const JsonValue back = ParseOrDie(text);
    EXPECT_EQ(std::bit_cast<uint64_t>(back.number),
              std::bit_cast<uint64_t>(c.value))
        << text;
  }
}

TEST(JsonTest, ControlCharactersEscapeAsU00XX) {
  const std::string raw = std::string("q\"b\\n\nt\tr\r") + '\x01' + '\x1f' +
                          '\x7f' + "\xc3\xa9";
  const std::string quoted = JsonQuote(raw);
  EXPECT_EQ(quoted,
            "\"q\\\"b\\\\n\\nt\\tr\\r\\u0001\\u001f\x7f\xc3\xa9\"");
  EXPECT_EQ(JsonWrite(JsonValue::Of(raw)), quoted);
  EXPECT_EQ(ParseOrDie(quoted).string_value, raw);
  EXPECT_EQ(ParseOrDie("\"\\u00e9\\/\\b\\f\"").string_value, "\xc3\xa9/\b\f");
}

TEST(JsonTest, ParseErrorsNameLineAndColumn) {
  const struct {
    const char* text;
    const char* error;
  } kCases[] = {
      {"{\n  \"a\": 1,\n  \"b\" 2\n}", "3:7: expected ':' after object key"},
      {"[1, 2,]", "1:7: expected value"},
      {"{\"a\": 1, \"a\": 2}", "1:16: duplicate object key \"a\""},
      {"{\"a\": nan}", "1:7: invalid literal"},
      {"[1e999]", "1:2: invalid number \"1e999\""},
      {"\"tab\there\"", "1:6: unescaped control character in string"},
      {"{} {}", "1:4: trailing content after document"},
      {"", "1:1: unexpected end of input"},
  };
  for (const auto& c : kCases) {
    JsonValue value;
    std::string error;
    EXPECT_FALSE(JsonParse(c.text, &value, &error)) << c.text;
    EXPECT_EQ(error, c.error) << c.text;
  }
}

// Numbers follow RFC 8259's grammar exactly: no sign but '-', no leading
// zeros, digits on both sides of a '.', and digits after an exponent.
TEST(JsonTest, NumbersFollowTheRfcGrammar) {
  const struct {
    const char* text;
    double value;
  } kAccepted[] = {
      {"0", 0.0},       {"-0.5", -0.5}, {"1E-3", 1e-3},  {"10", 10.0},
      {"-0", -0.0},     {"2.50", 2.5},  {"1e+2", 100.0}, {"0e0", 0.0},
      {"-12.5e1", -125.0},
  };
  for (const auto& c : kAccepted) {
    const JsonValue parsed = ParseOrDie(c.text);
    ASSERT_TRUE(parsed.is_number()) << c.text;
    EXPECT_EQ(parsed.number, c.value) << c.text;
  }
  for (const char* text :
       {"+1", "01", "-01", "1.", ".5", "-", "1e", "1e+", "1.e3", "-.5",
        "0x10", "1e5.0", "--1"}) {
    JsonValue value;
    std::string error;
    EXPECT_FALSE(JsonParse(text, &value, &error)) << text;
  }
  JsonValue value;
  std::string error;
  EXPECT_FALSE(JsonParse("{\"a\": 01}", &value, &error));
  EXPECT_EQ(error, "1:7: invalid number \"01\"");
}

// JSON has no NaN or Inf: the writer refuses to emit text its own parser
// (and every other JSON reader) would reject.
TEST(JsonDeathTest, WriterRejectsNonFiniteNumbers) {
  JsonValue root = JsonValue::MakeObject();
  root.Add("x", JsonValue::Of(std::nan("")));
  EXPECT_DEATH(JsonWrite(root), "JSON cannot represent");
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_DEATH(JsonWrite(JsonValue::Of(inf)), "JSON cannot represent");
}

}  // namespace
}  // namespace tornado
