// Deterministic fuzz for the text parsers. Trace and instance files —
// and through the shared mutation-line codec, the service WAL and the
// wire's kMutate payload — cross trust boundaries, so every malformed
// input must come back as nullopt + diagnostic, never a crash, hang, or
// huge speculative allocation.

#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/similarity.h"
#include "gen/synthetic.h"
#include "gen/trace_gen.h"
#include "io/instance_io.h"
#include "io/trace_io.h"
#include "util/rng.h"

namespace geacc {
namespace {

std::string CanonicalInstanceText() {
  SyntheticConfig config;
  config.num_events = 6;
  config.num_users = 18;
  config.dim = 3;
  config.conflict_density = 0.3;
  config.seed = 5;
  std::ostringstream os;
  WriteInstance(GenerateSynthetic(config), os);
  return os.str();
}

std::string CanonicalTraceText() {
  TraceGenConfig config;
  config.initial_events = 6;
  config.initial_users = 18;
  config.dim = 3;
  config.num_mutations = 40;
  config.seed = 5;
  std::ostringstream os;
  WriteTrace(GenerateTrace(config), os);
  return os.str();
}

void ExpectInstanceRejected(const std::string& text, const char* what) {
  std::istringstream is(text);
  std::string error;
  EXPECT_FALSE(ReadInstance(is, &error).has_value()) << what;
  EXPECT_FALSE(error.empty()) << what << ": rejected without a diagnostic";
}

void ExpectTraceRejected(const std::string& text, const char* what) {
  std::istringstream is(text);
  std::string error;
  EXPECT_FALSE(ReadTrace(is, &error).has_value()) << what;
  EXPECT_FALSE(error.empty()) << what << ": rejected without a diagnostic";
}

TEST(IoFuzz, CanonicalFilesRoundTrip) {
  // Sanity: the canonical bytes are accepted before we start breaking them.
  std::istringstream instance_is(CanonicalInstanceText());
  std::string error;
  ASSERT_TRUE(ReadInstance(instance_is, &error).has_value()) << error;
  std::istringstream trace_is(CanonicalTraceText());
  ASSERT_TRUE(ReadTrace(trace_is, &error).has_value()) << error;
}

TEST(IoFuzz, InstanceTruncatedAtEveryLineIsRejected) {
  const std::string text = CanonicalInstanceText();
  std::vector<size_t> line_starts = {0};
  for (size_t i = 0; i < text.size(); ++i) {
    if (text[i] == '\n') line_starts.push_back(i + 1);
  }
  // Every proper line-prefix (except the complete file) must be rejected:
  // the format declares counts up front, so a missing tail is detectable.
  for (size_t i = 1; i + 1 < line_starts.size(); ++i) {
    ExpectInstanceRejected(text.substr(0, line_starts[i]),
                           "line truncation");
  }
}

TEST(IoFuzz, InstanceTruncatedMidLineIsRejected) {
  const std::string text = CanonicalInstanceText();
  // Cuts inside the *final* line can leave a shorter-but-parsable line
  // (e.g. "conflict 0 12" → "conflict 0 1"), so sweep only cuts that
  // provably drop a declared record; the final line is covered by the
  // corruption test's no-crash guarantee.
  const size_t last_line_start = text.rfind('\n', text.size() - 2) + 1;
  Rng rng(17);
  for (int round = 0; round < 200; ++round) {
    const size_t cut = static_cast<size_t>(
        rng.UniformInt(1, static_cast<int64_t>(last_line_start) - 1));
    std::istringstream is(text.substr(0, cut));
    std::string error;
    EXPECT_FALSE(ReadInstance(is, &error).has_value())
        << "accepted a " << cut << "-byte prefix";
  }
}

TEST(IoFuzz, InstanceSingleByteCorruptionNeverCrashes) {
  const std::string text = CanonicalInstanceText();
  Rng rng(23);
  for (int round = 0; round < 500; ++round) {
    std::string corrupt = text;
    const size_t pos = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(text.size()) - 1));
    corrupt[pos] = static_cast<char>(rng.UniformInt(0, 255));
    std::istringstream is(corrupt);
    std::string error;
    (void)ReadInstance(is, &error);  // accept or reject; never crash
  }
}

TEST(IoFuzz, InstanceStructuralGarbageIsRejected) {
  ExpectInstanceRejected("", "empty file");
  ExpectInstanceRejected("\n\n\n", "blank lines");
  ExpectInstanceRejected("geacc-instance v2\n", "wrong version");
  ExpectInstanceRejected("not-a-geacc-file v1\n", "wrong magic");
  ExpectInstanceRejected(std::string(4096, 'A'), "letter soup");
  ExpectInstanceRejected(std::string("\0\0\0\0\0\0\0\0", 8),
                         "binary zeros");
  ExpectInstanceRejected(
      "geacc-instance v1\nsimilarity euclidean 10000\ndim 3\n"
      "events 1\nevent 2 1.0 2.0\n",  // 2 attrs, dim 3
      "attribute arity mismatch");
  ExpectInstanceRejected(
      "geacc-instance v1\nsimilarity euclidean 10000\ndim 3\n"
      "events -4\n",
      "negative count");
  ExpectInstanceRejected(
      "geacc-instance v1\nsimilarity euclidean 10000\ndim 3\n"
      "events 999999999999\n",
      "absurd count");
  ExpectInstanceRejected(
      "geacc-instance v1\nsimilarity euclidean 10000\ndim 3\n"
      "events 1\nevent nan 1.0 2.0 3.0\n",
      "non-numeric capacity");
  // A dimension past INT32_MAX is rejected, not wrapped to -1 (which
  // aborts in AttributeMatrix when both sides are empty).
  ExpectInstanceRejected(
      "geacc-instance v1\nsimilarity euclidean 10000\ndim 4294967295\n"
      "events 0\nusers 0\nconflicts 0\n",
      "dimension overflows int");
}

TEST(IoFuzz, ArrangementGarbageIsRejected) {
  SyntheticConfig config;
  config.num_events = 4;
  config.num_users = 8;
  config.dim = 2;
  config.seed = 9;
  const Instance instance = GenerateSynthetic(config);

  const auto reject = [&](const std::string& text, const char* what) {
    std::istringstream is(text);
    std::string error;
    EXPECT_FALSE(ReadArrangement(is, instance, &error).has_value()) << what;
    EXPECT_FALSE(error.empty()) << what;
  };
  reject("", "empty");
  reject("geacc-arrangement v1\npairs 2\npair 0 0\n", "missing pair");
  reject("geacc-arrangement v1\npairs 1\npair 99 0\n", "event out of range");
  reject("geacc-arrangement v1\npairs 1\npair 0 99\n", "user out of range");
  reject("geacc-arrangement v1\npairs 1\npair 0\n", "short pair line");
}

TEST(IoFuzz, TraceTruncationAndCorruptionNeverCrash) {
  const std::string text = CanonicalTraceText();
  // As above: avoid cuts inside the final line, which can stay parsable.
  const size_t last_line_start = text.rfind('\n', text.size() - 2) + 1;
  Rng rng(31);
  for (int round = 0; round < 300; ++round) {
    const size_t cut = static_cast<size_t>(
        rng.UniformInt(1, static_cast<int64_t>(last_line_start) - 1));
    std::istringstream is(text.substr(0, cut));
    std::string error;
    EXPECT_FALSE(ReadTrace(is, &error).has_value())
        << "accepted a " << cut << "-byte prefix";
  }
  for (int round = 0; round < 500; ++round) {
    std::string corrupt = text;
    const size_t pos = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(text.size()) - 1));
    corrupt[pos] = static_cast<char>(rng.UniformInt(0, 255));
    std::istringstream is(corrupt);
    std::string error;
    (void)ReadTrace(is, &error);
  }
}

TEST(IoFuzz, TraceStructuralGarbageIsRejected) {
  ExpectTraceRejected("", "empty file");
  ExpectTraceRejected("geacc-trace v9\n", "wrong version");
  const std::string instance_text = CanonicalInstanceText();
  ExpectTraceRejected("geacc-trace v1\n" + instance_text,
                      "missing mutations section");
  ExpectTraceRejected(
      "geacc-trace v1\n" + instance_text + "mutations 3\nadd_user 2 1 2 3\n",
      "fewer mutations than declared");
  ExpectTraceRejected(
      "geacc-trace v1\n" + instance_text + "mutations 99999999999999\n",
      "absurd mutation count");
  ExpectTraceRejected(
      "geacc-trace v1\n" + instance_text + "mutations 1\nfrobnicate 1 2\n",
      "unknown mutation kind");
}

TEST(IoFuzz, MutationLineParserRejectsMalformedLines) {
  std::string error;
  // The happy path, as a control.
  ASSERT_TRUE(ParseMutationLine("add_user 2 1.5 2.5 3.5", 3).has_value());
  ASSERT_TRUE(ParseMutationLine("set_event_capacity 4 12", 3).has_value());

  const std::vector<const char*> bad = {
      "",
      "   ",
      "add_user",                    // no operands
      "add_user 2 1.5 2.5",          // missing attribute (dim 3)
      "add_user 2 1.5 2.5 3.5 4.5",  // extra attribute
      "add_user 0 1.5 2.5 3.5",      // capacity < 1
      "add_user two 1.5 2.5 3.5",    // non-numeric capacity
      "add_user 2 1.5 nan 3.5",      // non-finite attribute
      "add_user 2 1.5 inf 3.5",
      "remove_user",
      "remove_user -3",
      "remove_user 1.5",
      "remove_user 1 extra",
      "add_conflict 1",
      "add_conflict 1 2 3",
      "set_event_capacity 1 0",
      "set_event_capacity 1 -2",
      "set_user_capacity x 1",
      "frobnicate 1 2",
      "add_user 2 1e999 2 3",  // overflow double
      "add_user 2 +1.5 2.5 3.5",  // no writer emits a leading '+'
      "add_user 2 0x1p3 2.5 3.5",  // nor a hex float
  };
  for (const char* line : bad) {
    EXPECT_FALSE(ParseMutationLine(line, 3, &error).has_value())
        << "accepted: \"" << line << "\"";
  }

  // Pure garbage bytes, fuzz-style.
  Rng rng(47);
  for (int round = 0; round < 1000; ++round) {
    std::string line(static_cast<size_t>(rng.UniformInt(0, 80)), '\0');
    for (char& c : line) c = static_cast<char>(rng.UniformInt(1, 255));
    (void)ParseMutationLine(line, 3, &error);  // must not crash
  }
}

uint64_t Bits(double value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

// Finite attribute values at the edges of the codec, subnormals first:
// the writers emit them, and a strtod-based reader rejects a subnormal
// (ERANGE).
std::vector<double> EdgeAttributes() {
  using limits = std::numeric_limits<double>;
  const double two53 = 9007199254740992.0;
  std::vector<double> values = {1e-310,
                                limits::denorm_min(),
                                std::nextafter(DBL_MIN, 0.0),
                                DBL_MIN,
                                DBL_MAX,
                                0.0,
                                two53 - 1,
                                two53,
                                two53 + 2,
                                1e-5,
                                std::nextafter(1e-5, 0.0),
                                1e16,
                                1e17,
                                0.1};
  const size_t positive = values.size();
  for (size_t i = 0; i < positive; ++i) values.push_back(-values[i]);
  return values;
}

TEST(IoFuzz, MutationLineRoundTripsEdgeAttributeBits) {
  const std::vector<double> values = EdgeAttributes();
  for (const Mutation& mutation : {Mutation::AddUser(values, 2),
                                   Mutation::AddEvent(values, 7)}) {
    const std::string line = FormatMutationLine(mutation);
    std::string error;
    const std::optional<Mutation> parsed =
        ParseMutationLine(line, static_cast<int>(values.size()), &error);
    ASSERT_TRUE(parsed.has_value()) << error << ": " << line;
    EXPECT_EQ(parsed->kind, mutation.kind);
    EXPECT_EQ(parsed->capacity, mutation.capacity);
    ASSERT_EQ(parsed->attributes.size(), values.size());
    for (size_t j = 0; j < values.size(); ++j) {
      EXPECT_EQ(Bits(parsed->attributes[j]), Bits(values[j])) << line;
    }
  }
}

// Three events and users of dimension 4 whose attributes walk through
// EdgeAttributes() minus the ±DBL_MAX pair (keeps distances finite).
Instance EdgeValueInstance() {
  std::vector<double> values;
  for (const double value : EdgeAttributes()) {
    if (std::fabs(value) != DBL_MAX) values.push_back(value);
  }
  const auto rows = [&](size_t first) {
    std::vector<std::vector<double>> out(3, std::vector<double>(4));
    for (size_t i = 0; i < 12; ++i) {
      out[i / 4][i % 4] = values[(first + i) % values.size()];
    }
    return out;
  };
  ConflictGraph conflicts(3);
  conflicts.AddConflict(0, 2);
  return Instance(AttributeMatrix::FromRows(rows(0)), {1, 2, 3},
                  AttributeMatrix::FromRows(rows(12)), {1, 1, 2},
                  std::move(conflicts), MakeSimilarity("euclidean", 100.0));
}

void ExpectSameAttributeBits(const AttributeMatrix& a,
                             const AttributeMatrix& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.dim(), b.dim());
  for (int i = 0; i < a.rows(); ++i) {
    for (int j = 0; j < a.dim(); ++j) {
      EXPECT_EQ(Bits(a.At(i, j)), Bits(b.At(i, j))) << i << "," << j;
    }
  }
}

TEST(IoFuzz, SubnormalAttributesRoundTripThroughInstanceAndTraceFiles) {
  const Instance instance = EdgeValueInstance();
  std::ostringstream instance_os;
  WriteInstance(instance, instance_os);
  std::istringstream instance_is(instance_os.str());
  std::string error;
  const std::optional<Instance> read = ReadInstance(instance_is, &error);
  ASSERT_TRUE(read.has_value()) << error;
  ExpectSameAttributeBits(read->event_attributes(),
                          instance.event_attributes());
  ExpectSameAttributeBits(read->user_attributes(), instance.user_attributes());

  MutationTrace trace{EdgeValueInstance(),
                      {Mutation::AddUser({1e-310, -4e-320, 0.5, -0.0}, 2),
                       Mutation::AddEvent({DBL_MIN, 5e-324, 1e-5, 1e17}, 4)}};
  std::ostringstream trace_os;
  WriteTrace(trace, trace_os);
  std::istringstream trace_is(trace_os.str());
  const std::optional<MutationTrace> reread = ReadTrace(trace_is, &error);
  ASSERT_TRUE(reread.has_value()) << error;
  ExpectSameAttributeBits(reread->initial.user_attributes(),
                          trace.initial.user_attributes());
  ASSERT_EQ(reread->mutations.size(), trace.mutations.size());
  for (size_t i = 0; i < trace.mutations.size(); ++i) {
    const std::vector<double>& want = trace.mutations[i].attributes;
    const std::vector<double>& got = reread->mutations[i].attributes;
    ASSERT_EQ(got.size(), want.size());
    for (size_t j = 0; j < want.size(); ++j) {
      EXPECT_EQ(Bits(got[j]), Bits(want[j])) << "mutation " << i;
    }
  }
}

}  // namespace
}  // namespace geacc
