// Unit tests for src/util/: RNG, strings, flags, tables, memory, checks.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "util/check.h"
#include "util/flags.h"
#include "util/memory.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "util/table.h"
#include "util/timer.h"

namespace geacc {
namespace {

// ---------------------------------------------------------------- Rng ----

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextUint64(), b.NextUint64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.NextUint64() == b.NextUint64();
  EXPECT_LT(same, 3);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.NextDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, UniformIntCoversRangeWithoutBias) {
  Rng rng(9);
  int counts[6] = {0};
  for (int i = 0; i < 60000; ++i) {
    const int64_t v = rng.UniformInt(2, 7);
    ASSERT_GE(v, 2);
    ASSERT_LE(v, 7);
    ++counts[v - 2];
  }
  for (const int count : counts) {
    EXPECT_NEAR(count, 10000, 500);  // ±5σ-ish
  }
}

TEST(Rng, UniformIntSingleValue) {
  Rng rng(11);
  EXPECT_EQ(rng.UniformInt(5, 5), 5);
}

TEST(Rng, GaussianMoments) {
  Rng rng(13);
  double sum = 0.0, sum_sq = 0.0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) {
    const double x = rng.NextGaussian();
    sum += x;
    sum_sq += x * x;
  }
  EXPECT_NEAR(sum / kN, 0.0, 0.02);
  EXPECT_NEAR(sum_sq / kN, 1.0, 0.03);
}

TEST(Rng, NormalScalesMeanAndStddev) {
  Rng rng(17);
  double sum = 0.0;
  constexpr int kN = 50000;
  for (int i = 0; i < kN; ++i) sum += rng.Normal(10.0, 2.0);
  EXPECT_NEAR(sum / kN, 10.0, 0.1);
}

TEST(Rng, BernoulliEdgesAndRate) {
  Rng rng(19);
  EXPECT_FALSE(rng.Bernoulli(0.0));
  EXPECT_TRUE(rng.Bernoulli(1.0));
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.Bernoulli(0.3);
  EXPECT_NEAR(hits, 3000, 250);
}

TEST(Rng, ForkIsIndependentAndDeterministic) {
  Rng parent(21);
  Rng f1 = parent.Fork(0);
  Rng f2 = parent.Fork(1);
  EXPECT_NE(f1.NextUint64(), f2.NextUint64());
  Rng parent2(21);
  Rng f1_again = parent2.Fork(0);
  Rng f1_ref = Rng(21).Fork(0);
  EXPECT_EQ(f1_again.NextUint64(), f1_ref.NextUint64());
}

// --------------------------------------------------------------- string ---

TEST(StringUtil, Split) {
  EXPECT_EQ(Split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(Split("a,,b", ','), (std::vector<std::string>{"a", "", "b"}));
  EXPECT_EQ(Split("abc", ','), (std::vector<std::string>{"abc"}));
}

TEST(StringUtil, Trim) {
  EXPECT_EQ(Trim("  x  "), "x");
  EXPECT_EQ(Trim("x"), "x");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim("\t a b \n"), "a b");
}

TEST(StringUtil, SplitWhitespace) {
  std::vector<std::string_view> tokens = {"stale"};
  SplitWhitespace("  add_user\t2  1.5\r\n", &tokens);
  EXPECT_EQ(tokens, (std::vector<std::string_view>{"add_user", "2", "1.5"}));
  SplitWhitespace(" \t ", &tokens);
  EXPECT_TRUE(tokens.empty());
  SplitWhitespace("x", &tokens);
  EXPECT_EQ(tokens, (std::vector<std::string_view>{"x"}));
}

TEST(StringUtil, ParseInt) {
  EXPECT_EQ(ParseInt("42"), 42);
  EXPECT_EQ(ParseInt(" -7 "), -7);
  EXPECT_EQ(ParseInt("-9223372036854775808"), INT64_MIN);
  EXPECT_FALSE(ParseInt("9223372036854775808").has_value());
  EXPECT_FALSE(ParseInt("4x").has_value());
  EXPECT_FALSE(ParseInt("").has_value());
  EXPECT_FALSE(ParseInt("3.5").has_value());
  // No writer emits a leading '+'.
  EXPECT_FALSE(ParseInt("+5").has_value());
}

TEST(StringUtil, ParseDouble) {
  EXPECT_DOUBLE_EQ(*ParseDouble("3.5"), 3.5);
  EXPECT_DOUBLE_EQ(*ParseDouble(" -1e3 "), -1000.0);
  EXPECT_FALSE(ParseDouble("abc").has_value());
  EXPECT_FALSE(ParseDouble("").has_value());
  EXPECT_FALSE(ParseDouble("1.5x").has_value());
  // Subnormals parse; overflow and underflow to zero do not.
  EXPECT_EQ(ParseDouble("9.9999999999999694e-311"), 9.9999999999999694e-311);
  EXPECT_EQ(ParseDouble("4.9406564584124654e-324"),
            std::numeric_limits<double>::denorm_min());
  EXPECT_FALSE(ParseDouble("1e400").has_value());
  EXPECT_FALSE(ParseDouble("1e-400").has_value());
  // No writer emits a leading '+' or a hex float.
  EXPECT_FALSE(ParseDouble("+5").has_value());
  EXPECT_FALSE(ParseDouble("0x1p3").has_value());
}

uint64_t Bits(double value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

// The number codec's contract: AppendDouble appends exactly the bytes
// "%.17g" prints, and ParseDouble reads them back to the same bits.
bool CodecAgreesWithPrintf(double value) {
  std::string appended = "x";
  AppendDouble(&appended, value);
  const std::string printed = StrFormat("%.17g", value);
  if (appended != "x" + printed) {
    ADD_FAILURE() << "AppendDouble gave '" << appended.substr(1)
                  << "', %.17g gave '" << printed << "'";
    return false;
  }
  const std::optional<double> parsed = ParseDouble(printed);
  if (!parsed || Bits(*parsed) != Bits(value)) {
    ADD_FAILURE() << "'" << printed << "' did not parse back to its bits";
    return false;
  }
  return true;
}

TEST(NumberCodec, EdgeValuesMatchPrintfAndRoundTrip) {
  using limits = std::numeric_limits<double>;
  const double two53 = 9007199254740992.0;
  std::vector<double> values = {
      0.0, limits::denorm_min(),
      std::nextafter(limits::min(), 0.0),  // the largest subnormal
      limits::min(), limits::max(), two53 - 1, two53, two53 + 2,
      std::nextafter(two53, 0.0), 0.1, 1.0 / 3.0, 123.456, 1e300};
  // The %g switch points between fixed and exponent notation.
  for (const double edge : {1e-5, 1e16, 1e17}) {
    values.push_back(std::nextafter(edge, 0.0));
    values.push_back(edge);
    values.push_back(std::nextafter(edge, limits::infinity()));
  }
  for (const double value : values) {
    EXPECT_TRUE(CodecAgreesWithPrintf(value)) << value;
    EXPECT_TRUE(CodecAgreesWithPrintf(-value)) << -value;
  }
}

TEST(NumberCodec, RandomBitPatternsMatchPrintfAndRoundTrip) {
  Rng rng(20);
  int finite = 0;
  while (finite < 1'000'000) {
    const uint64_t bits = rng.NextUint64();
    double value = 0.0;
    std::memcpy(&value, &bits, sizeof(value));
    if (!std::isfinite(value)) continue;
    ++finite;
    ASSERT_TRUE(CodecAgreesWithPrintf(value)) << "bits " << bits;
  }
}

TEST(NumberCodec, AppendIntMatchesPrintf) {
  for (const int64_t value :
       {int64_t{0}, int64_t{-1}, int64_t{7}, int64_t{1} << 40, INT64_MAX,
        INT64_MIN, int64_t{INT32_MIN}}) {
    std::string appended;
    AppendInt(&appended, value);
    EXPECT_EQ(appended, StrFormat("%lld", static_cast<long long>(value)));
    EXPECT_EQ(ParseInt(appended), value);
  }
}

TEST(StringUtil, ParseBool) {
  EXPECT_EQ(ParseBool("true"), true);
  EXPECT_EQ(ParseBool("0"), false);
  EXPECT_EQ(ParseBool("yes"), true);
  EXPECT_FALSE(ParseBool("maybe").has_value());
}

TEST(StringUtil, StrFormatAndHumanBytes) {
  EXPECT_EQ(StrFormat("%d-%s", 5, "x"), "5-x");
  EXPECT_EQ(HumanBytes(512), "512 B");
  EXPECT_EQ(HumanBytes(1536), "1.5 KiB");
  EXPECT_EQ(HumanBytes(3 * 1024ull * 1024), "3.0 MiB");
}

TEST(StringUtil, StartsWith) {
  EXPECT_TRUE(StartsWith("--flag", "--"));
  EXPECT_FALSE(StartsWith("-", "--"));
}

// ---------------------------------------------------------------- flags ---

TEST(Flags, ParsesAllTypesBothSyntaxes) {
  int reps = 1;
  double rho = 0.25;
  bool fast = false;
  std::string name = "greedy";
  int64_t big = 0;
  FlagSet flags;
  flags.AddInt("reps", &reps, "");
  flags.AddDouble("rho", &rho, "");
  flags.AddBool("fast", &fast, "");
  flags.AddString("name", &name, "");
  flags.AddInt("big", &big, "");
  const char* argv[] = {"prog",  "--reps=5",  "--rho", "0.75", "--fast",
                        "--name", "prune", "--big=123456789012", "pos"};
  flags.Parse(9, const_cast<char**>(argv));
  EXPECT_EQ(reps, 5);
  EXPECT_DOUBLE_EQ(rho, 0.75);
  EXPECT_TRUE(fast);
  EXPECT_EQ(name, "prune");
  EXPECT_EQ(big, 123456789012LL);
  ASSERT_EQ(flags.positional().size(), 1u);
  EXPECT_EQ(flags.positional()[0], "pos");
}

TEST(Flags, UsageListsDefaults) {
  int reps = 3;
  FlagSet flags;
  flags.AddInt("reps", &reps, "repetitions");
  const std::string usage = flags.Usage("prog");
  EXPECT_NE(usage.find("--reps"), std::string::npos);
  EXPECT_NE(usage.find("default: 3"), std::string::npos);
}

// ---------------------------------------------------------------- table ---

TEST(Table, AlignedPrint) {
  Table table("demo");
  table.SetHeader({"x", "greedy"});
  table.AddRow({"100", "1.5"});
  table.AddRow("200", {2.25}, 2);
  std::ostringstream os;
  table.Print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("== demo =="), std::string::npos);
  EXPECT_NE(out.find("greedy"), std::string::npos);
  EXPECT_NE(out.find("2.25"), std::string::npos);
}

TEST(Table, CsvEscaping) {
  EXPECT_EQ(CsvEscape("plain"), "plain");
  EXPECT_EQ(CsvEscape("a,b"), "\"a,b\"");
  EXPECT_EQ(CsvEscape("say \"hi\""), "\"say \"\"hi\"\"\"");
  Table table("t");
  table.SetHeader({"a", "b"});
  table.AddRow({"1,5", "x"});
  std::ostringstream os;
  table.WriteCsv(os);
  EXPECT_EQ(os.str(), "a,b\n\"1,5\",x\n");
}

// --------------------------------------------------------------- memory ---

TEST(Memory, RssProbesReturnPlausibleValues) {
  const uint64_t peak = PeakRssBytes();
  const uint64_t current = CurrentRssBytes();
  EXPECT_GT(peak, 1024u * 1024);  // at least a MiB for a running test
  EXPECT_GT(current, 0u);
  EXPECT_GE(peak, current / 2);  // HWM can't be wildly below current
}

TEST(Memory, ByteCounterTracksPeak) {
  ByteCounter counter;
  counter.Add(100);
  counter.Add(200);
  counter.Remove(250);
  counter.Add(10);
  EXPECT_EQ(counter.current(), 60u);
  EXPECT_EQ(counter.peak(), 300u);
}

TEST(Memory, VectorBytesUsesCapacity) {
  std::vector<int> v;
  v.reserve(100);
  EXPECT_EQ(VectorBytes(v), 100 * sizeof(int));
}

// ---------------------------------------------------------------- timer ---

TEST(Timer, MeasuresElapsedTime) {
  WallTimer timer;
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink = sink + std::sqrt(i);
  EXPECT_GE(timer.Seconds(), 0.0);
  timer.Restart();
  EXPECT_LT(timer.Seconds(), 1.0);
}

// ---------------------------------------------------------------- check ---

TEST(CheckDeathTest, AbortsWithMessage) {
  EXPECT_DEATH(GEACC_CHECK(1 == 2) << "custom detail", "custom detail");
  EXPECT_DEATH(GEACC_CHECK_EQ(3, 4), "GEACC_CHECK failed");
}

TEST(Check, PassingCheckHasNoEffect) {
  GEACC_CHECK(true) << "never evaluated";
  GEACC_CHECK_LE(1, 2);
  SUCCEED();
}

}  // namespace
}  // namespace geacc
